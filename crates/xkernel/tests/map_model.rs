//! `xkernel::map` against a `std::collections::HashMap` reference model:
//! random bind / unbind / resolve / resolve-or-insert / snapshot / restore
//! sequences must leave the table and the model agreeing after every step,
//! and `Arc` identity of cached sessions must survive a snapshot and restore
//! (the whole-sim session-cache capture relies on it).

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use xkernel::map::{EnableMap, SessionMap};
use xkernel::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Bind(u8, u32),
    Unbind(u8),
    Resolve(u8),
    ResolveOrInsert(u8, u32),
    /// Mutate through the guard (`lock().insert`), as reassembly tables do.
    GuardInsert(u8, u32),
    Clear,
    Snapshot,
    Restore,
}

/// Keys from a small range, so sequences revisit them.
fn ops() -> impl Strategy<Value = Vec<Op>> {
    let key = || 0u8..6;
    let val = || 0u32..1000;
    proptest::collection::vec(
        prop_oneof![
            (key(), val()).prop_map(|(k, v)| Op::Bind(k, v)),
            key().prop_map(Op::Unbind),
            key().prop_map(Op::Resolve),
            key().prop_map(Op::Resolve),
            (key(), val()).prop_map(|(k, v)| Op::ResolveOrInsert(k, v)),
            (key(), val()).prop_map(|(k, v)| Op::GuardInsert(k, v)),
            (0u8..20).prop_map(|n| if n == 0 {
                Op::Clear
            } else {
                Op::Resolve(n % 6)
            }),
            (0u8..4).prop_map(|n| if n == 0 { Op::Snapshot } else { Op::Restore }),
        ],
        1..80,
    )
}

/// Every key agrees, value and identity.
fn assert_same(map: &SessionMap<u8, Arc<u32>>, model: &HashMap<u8, Arc<u32>>) {
    assert_eq!(map.len(), model.len());
    for k in 0..6u8 {
        match (map.resolve(&k), model.get(&k)) {
            (None, None) => {}
            (Some(got), Some(want)) => {
                assert!(Arc::ptr_eq(&got, want), "key {k}: a different session")
            }
            (got, want) => panic!("key {k}: table has {got:?}, model has {want:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn session_map_matches_the_reference(ops in ops()) {
        let map: SessionMap<u8, Arc<u32>> = SessionMap::new();
        let mut model: HashMap<u8, Arc<u32>> = HashMap::new();
        let mut saved = (map.snapshot(), model.clone());
        for op in ops {
            match op {
                Op::Bind(k, v) => {
                    let v = Arc::new(v);
                    let was = map.bind(k, Arc::clone(&v));
                    prop_assert_eq!(was.map(|a| *a), model.insert(k, v).map(|a| *a));
                }
                Op::Unbind(k) => {
                    let was = map.unbind(&k);
                    prop_assert_eq!(was.map(|a| *a), model.remove(&k).map(|a| *a));
                }
                Op::Resolve(k) => {
                    prop_assert_eq!(map.resolve(&k).map(|a| *a), model.get(&k).map(|a| **a));
                }
                Op::ResolveOrInsert(k, v) => {
                    let mut ran = false;
                    let got = map
                        .resolve_or_insert_with(k, || {
                            ran = true;
                            Ok(Arc::new(v))
                        })
                        .unwrap();
                    // The constructor runs exactly when the key was unbound.
                    prop_assert_eq!(ran, !model.contains_key(&k));
                    let want = model.entry(k).or_insert_with(|| Arc::clone(&got));
                    prop_assert!(Arc::ptr_eq(&got, want));
                }
                Op::GuardInsert(k, v) => {
                    let v = Arc::new(v);
                    map.lock().insert(k, Arc::clone(&v));
                    model.insert(k, v);
                }
                Op::Clear => {
                    map.clear();
                    model.clear();
                }
                Op::Snapshot => saved = (map.snapshot(), model.clone()),
                Op::Restore => {
                    map.restore(&saved.0);
                    model = saved.1.clone();
                    prop_assert_eq!(saved.0.len(), model.len());
                }
            }
            assert_same(&map, &model);
        }
    }

    #[test]
    fn enable_map_matches_the_reference(ops in ops()) {
        let map: EnableMap<u8> = EnableMap::new();
        let mut model: HashMap<u8, ProtoId> = HashMap::new();
        let mut saved = (map.snapshot(), model.clone());
        for op in ops {
            match op {
                Op::Bind(k, v) | Op::ResolveOrInsert(k, v) | Op::GuardInsert(k, v) => {
                    // Few distinct uppers, so rebinding an old pair is common.
                    let upper = ProtoId(v as usize % 3);
                    map.bind(k, upper);
                    model.insert(k, upper);
                }
                Op::Unbind(k) => {
                    prop_assert_eq!(map.unbind_if(&k, |_| true), model.remove(&k).is_some());
                }
                Op::Resolve(k) => {
                    prop_assert_eq!(map.resolve(&k), model.get(&k));
                }
                Op::Clear => {
                    // `open_disable`: only the owner's enable goes.
                    let owner = ProtoId(0);
                    let did = map.unbind_if(&0, |u| *u == owner);
                    prop_assert_eq!(did, model.get(&0) == Some(&owner));
                    if did {
                        model.remove(&0);
                    }
                }
                Op::Snapshot => saved = (map.snapshot(), model.clone()),
                Op::Restore => {
                    map.restore(&saved.0);
                    model = saved.1.clone();
                }
            }
            let mut live: Vec<(u8, ProtoId)> = map.iter().map(|(k, v)| (*k, *v)).collect();
            live.sort();
            let mut want: Vec<(u8, ProtoId)> = model.iter().map(|(k, v)| (*k, *v)).collect();
            want.sort();
            prop_assert_eq!(live, want);
            for k in 0..6u8 {
                prop_assert_eq!(map.resolve(&k), model.get(&k));
            }
        }
    }
}
