//! `snapshot_at` composes with no observer and no chooser, and says so
//! instead of dropping one: a snapshot captures no observer state to rewind.
//! That every subset of the four observers reports what the plain run
//! reports is `run_paths.rs`'s observers column.

use std::panic::{catch_unwind, AssertUnwindSafe};

use chaos::{FaultRecording, Profile, RunOpts, Scenario, StackKind};

/// The observers named by the low four bits of `subset`.
fn observers(subset: u8) -> RunOpts {
    RunOpts {
        trace: subset & 1 != 0,
        check: subset & 2 != 0,
        journal: subset & 4 != 0,
        record_faults: if subset & 8 != 0 {
            FaultRecording::On {
                suppress_from: None,
            }
        } else {
            FaultRecording::Off
        },
        ..RunOpts::default()
    }
}

#[test]
fn snapshot_at_composes_with_nothing_and_says_so() {
    let sc = Scenario {
        stack: StackKind::Paper(xrpc::stacks::L_RPC_VIP),
        profile: Profile::Lossy,
        seed: 31,
        calls: 5,
        population: 1,
    };
    let with_chooser = || RunOpts {
        chooser: Some(Box::new(
            sc.run_with(observers(4)).journal.unwrap().chooser(),
        )),
        ..RunOpts::default()
    };
    for (name, opts) in [
        ("trace", observers(1)),
        ("check", observers(2)),
        ("journal", observers(4)),
        ("record_faults", observers(8)),
        ("chooser", with_chooser()),
    ] {
        let clash = catch_unwind(AssertUnwindSafe(|| {
            sc.run_with(RunOpts {
                snapshot_at: Some(2),
                ..opts
            })
        }));
        let Err(panic) = clash else {
            panic!("snapshot_at + {name} ran instead of refusing");
        };
        let msg = panic.downcast_ref::<String>().expect("a formatted panic");
        assert!(
            msg.contains(&format!("snapshot_at does not compose with {name}")),
            "{msg}"
        );
    }
}
