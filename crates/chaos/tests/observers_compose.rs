//! Observers compose and do not perturb.
//!
//! `RunOpts` has four observers — tracing, the concurrency checker, the
//! scheduler journal, fault recording with no cutoff — that could once only
//! be attached one at a time. Over one scenario per stack family, every
//! subset of them yields the report of the plain run, and the journal
//! recorded under all four replays to the same schedule. `snapshot_at`
//! composes with none of them, and says so instead of dropping one.

use std::panic::{catch_unwind, AssertUnwindSafe};

use chaos::{FaultRecording, Profile, RunOpts, Scenario, StackKind};

/// One faulted scenario per stack family: CHANNEL, M_RPC, SUNRPC-UDP, Psync.
fn families() -> [Scenario; 4] {
    let sc = |stack, profile, seed| Scenario {
        stack,
        profile,
        seed,
        calls: 5,
        population: 1,
    };
    [
        sc(
            StackKind::Paper(xrpc::stacks::L_RPC_VIP),
            Profile::Lossy,
            31,
        ),
        sc(
            StackKind::Paper(xrpc::stacks::M_RPC_IP),
            Profile::Chaotic,
            32,
        ),
        sc(StackKind::SunRpcUdp, Profile::Bursty, 33),
        sc(StackKind::Psync, Profile::Jittery, 34),
    ]
}

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
fn every_subset_of_observers_reports_what_the_plain_run_reports() {
    for sc in families() {
        let plain = sc.run();
        sc.check(&plain);
        assert!(plain.run.breakdown.is_empty(), "{}: untraced", plain.label);
        for subset in 0..16u8 {
            let opts = observers(subset);
            let (traced, checked, journaled, recorded) = (
                opts.trace,
                opts.check,
                opts.journal,
                opts.record_faults != FaultRecording::Off,
            );
            let out = sc.run_with(opts);

            // The cost ledger is the one field an observer may fill: tracing
            // fills it, nothing else touches it. (`hosts[..].cpu_ns` is the
            // host clock whether or not anything watched it.)
            let mut report = out.report;
            assert_eq!(
                !report.run.breakdown.is_empty(),
                traced,
                "{} subset {subset:#06b}: the ledger is filled iff tracing is on",
                plain.label
            );
            report.run.breakdown = plain.run.breakdown.clone();
            assert_eq!(
                report, plain,
                "{} subset {subset:#06b}: an observer perturbed the run",
                plain.label
            );

            // And each observer observed, whatever else was attached.
            let check = out.sim.check_report();
            assert_eq!(check.enabled, checked);
            assert!(check.violations.is_empty(), "{:?}", check.violations);
            assert_eq!(out.journal.is_some(), journaled);
            if let Some(j) = &out.journal {
                assert!(j.matches(plain.run.sched_hash));
            }
            let faulted = plain.lan.dropped + plain.lan.duplicated + plain.lan.corrupted > 0;
            assert_eq!(
                !out.faults.is_empty(),
                recorded && faulted,
                "{} subset {subset:#06b}: fault timeline",
                plain.label
            );
        }
    }
}

#[test]
fn the_journal_recorded_under_every_observer_replays_the_schedule() {
    for sc in families() {
        let full = sc.run_with(observers(0b1111));
        let journal = full.journal.expect("journaling was on");
        let replay = sc.run_with(RunOpts {
            journal: true,
            chooser: Some(Box::new(journal.chooser())),
            ..RunOpts::default()
        });
        assert_eq!(replay.report.run.sched_hash, full.report.run.sched_hash);
        assert_eq!(
            replay.journal.expect("journaling was on").records,
            journal.records,
            "{}: replay re-recorded the identical decision stream",
            full.report.label
        );
    }
}

#[test]
fn snapshot_at_composes_with_nothing_and_says_so() {
    let [sc, ..] = families();
    let alone = sc
        .run_with(RunOpts {
            snapshot_at: Some(2),
            ..RunOpts::default()
        })
        .replayed
        .expect("snapshot_at was set");
    alone.assert_identical();

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
