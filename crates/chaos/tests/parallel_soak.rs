//! The soak matrix's order is fixed and keyed, so a report can be joined
//! back to its scenario by position. That `run_matrix` returns the same
//! reports on one thread as on two is `run_paths.rs`'s 1 worker column.

use chaos::{full_matrix, Scenario};

#[test]
fn matrix_order_is_keyed_and_fixed() {
    let a = full_matrix(7, 3, 4);
    let b = full_matrix(7, 3, 4);
    let key = |s: &Scenario| (s.stack.name(), format!("{:?}", s.profile), s.seed);
    let keys_a: Vec<_> = a.iter().map(key).collect();
    let keys_b: Vec<_> = b.iter().map(key).collect();
    assert_eq!(keys_a, keys_b);
    // Every (stack, profile, seed) key is distinct: reports can be joined
    // back to their scenario without positional bookkeeping.
    let mut sorted = keys_a.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), keys_a.len());
}
