//! Snapshot smoke: the fast end-to-end checks CI runs on the snapshot /
//! journal / replay machinery. The exhaustive matrix lives in the chaos
//! crate's `snapshot_replay` suite; this smoke pins the two user-visible
//! contracts on one representative stack each:
//!
//! * saving mid-soak, restoring, and replaying the tail yields a
//!   `ChaosReport` bit-identical to the uninterrupted run, and
//! * a journaled run's decision stream replays to the identical report
//!   and schedule fingerprint after a wire-encoding round trip.

use chaos::{Profile, RunOpts, Scenario, StackKind};
use xkernel::journal::Journal;

#[test]
fn midpoint_snapshot_report_is_bit_identical() {
    for (stack, profile) in [
        (StackKind::SunRpcUdp, Profile::Lossy),
        (
            StackKind::Paper(xrpc::stacks::M_RPC_ETH),
            Profile::FaultFree,
        ),
    ] {
        let sc = Scenario {
            stack,
            profile,
            seed: 21,
            calls: 6,
            population: 1,
        };
        let out = sc
            .run_with(RunOpts {
                snapshot_at: Some(3),
                ..RunOpts::default()
            })
            .replayed
            .expect("snapshot_at was set");
        out.assert_identical();
        assert_eq!(
            out.first.run.sched_hash, out.replayed.run.sched_hash,
            "restored run re-derives the schedule fingerprint"
        );
        sc.check(&out.first);
    }
}

#[test]
fn journal_survives_the_wire_and_replays() {
    let sc = Scenario {
        stack: StackKind::Paper(xrpc::stacks::L_RPC_VIP),
        profile: Profile::Bursty,
        seed: 13,
        calls: 6,
        population: 2,
    };
    let out = sc.run_with(RunOpts {
        journal: true,
        ..RunOpts::default()
    });
    let (report, journal) = (out.report, out.journal.expect("journaling was on"));
    let decoded = Journal::decode(&journal.encode()).expect("journal decodes");
    assert_eq!(journal, decoded, "wire round trip is lossless");
    let replayed = sc
        .run_with(RunOpts {
            journal: true,
            chooser: Some(Box::new(decoded.chooser())),
            ..RunOpts::default()
        })
        .report;
    assert_eq!(report, replayed, "decoded journal replays the run");
}
