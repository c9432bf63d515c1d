//! The journal and the bisection probe: a journal round-trips through its
//! wire encoding; suppressing faults from a cutoff on leaves every draw
//! before it where it was, so the bisector can keep a prefix of the fault
//! timeline; and a seeded multi-fault failure minimizes to a single culprit
//! fault event with a replayable repro. That a snapshot restored mid-run
//! replays its tail bit for bit, and that a journal's replay reproduces its
//! run and re-records its stream, is `run_paths.rs`'s snapshot and replay
//! columns.

use chaos::bisect::{bisect, BisectError};
use chaos::{ChaosReport, FaultRecording, Profile, RunOpts, Scenario, StackKind};
use simnet::FaultEvent;
use xkernel::journal::Journal;

fn scenario(stack: StackKind, profile: Profile, seed: u64, calls: u32) -> Scenario {
    Scenario {
        stack,
        profile,
        seed,
        calls,
        population: 1,
    }
}

/// `sc` with its journal recording, replaying `replay`'s tie picks if given.
fn journaled(sc: &Scenario, replay: Option<&Journal>) -> (ChaosReport, Journal) {
    let out = sc.run_with(RunOpts {
        journal: true,
        chooser: replay.map(|j| Box::new(j.chooser()) as _),
        ..RunOpts::default()
    });
    (out.report, out.journal.expect("journaling was on"))
}

/// The bisection probe: `sc` with fault recording on and every
/// recorded-class fault at packet index >= `suppress_from` suppressed.
fn recorded(sc: &Scenario, suppress_from: Option<u64>) -> (ChaosReport, Vec<FaultEvent>) {
    let out = sc.run_with(RunOpts {
        record_faults: FaultRecording::On { suppress_from },
        ..RunOpts::default()
    });
    (out.report, out.faults)
}

#[test]
fn journal_round_trips_through_wire_encoding() {
    let sc = scenario(StackKind::SunRpcUdp, Profile::Lossy, 4, 5);
    let (_, journal) = journaled(&sc, None);
    assert!(
        !journal.faults().is_empty(),
        "a lossy run journals realized faults"
    );
    let bytes = journal.encode();
    let decoded = Journal::decode(&bytes).expect("well-formed journal decodes");
    assert_eq!(journal, decoded);
}

#[test]
fn suppressing_all_faults_recovers_the_clean_run() {
    let sc = scenario(
        StackKind::Paper(xrpc::stacks::L_RPC_VIP),
        Profile::Lossy,
        9,
        6,
    );
    let (faulty, events) = recorded(&sc, None);
    assert!(!events.is_empty(), "lossy profile records fault events");
    let (clean, replay_events) = recorded(&sc, Some(0));
    // Draw parity holds up to the first suppressed fault: both runs are
    // identical until that packet, so the first would-be fault coincides.
    // After it the workloads legitimately diverge (no retransmissions in
    // the clean run), so only the prefix is comparable.
    assert_eq!(
        events.first(),
        replay_events.first(),
        "identical first fault draw: suppression must not shift the PRNG"
    );
    assert_eq!(clean.run.hosts[0].retransmits, 0, "no faults, no retries");
    assert!(faulty.run.hosts[0].retransmits > 0, "faults forced retries");
    sc.check(&clean);
}

#[test]
fn fault_draw_accounting_is_prefix_stable_at_every_cutoff() {
    // The bisector's soundness rests on one distributional property: the
    // fault schedule consumes its PRNG draws *before* the suppression
    // cutoff is applied, so a probe run keeping `events[..k]` realizes
    // exactly that prefix — same packet indices, same wire times, same
    // drawn fates — for every k. (Beyond the prefix the workloads
    // legitimately diverge: suppressed faults mean no retransmissions,
    // different packets, different draw interleavings.)
    for (stack, profile) in [
        (StackKind::Paper(xrpc::stacks::L_RPC_VIP), Profile::Lossy),
        (StackKind::SunRpcUdp, Profile::Chaotic),
    ] {
        let sc = scenario(stack, profile, 9, 8);
        let (_, events) = recorded(&sc, None);
        assert!(
            events.len() >= 2,
            "{}/{:?}: need a multi-fault timeline",
            sc_name(&sc),
            profile
        );
        for k in 0..events.len() {
            let cutoff = if k == 0 { 0 } else { events[k - 1].index + 1 };
            let (_, probe) = recorded(&sc, Some(cutoff));
            assert!(
                probe.len() >= k,
                "{}/{:?} keep({k}): probe realized only {} events",
                sc_name(&sc),
                profile,
                probe.len()
            );
            assert_eq!(
                &probe[..k],
                &events[..k],
                "{}/{:?} keep({k}): suppression shifted a PRNG draw",
                sc_name(&sc),
                profile
            );
        }
    }
}

#[test]
fn bisect_minimizes_to_a_single_culprit() {
    // No retransmission budget rides out Blackout's ~2 s bidirectional
    // outage — a deterministic, multi-fault, fault-induced failure.
    let sc = scenario(StackKind::SunRpcChannel, Profile::Blackout, 2, 8);
    let (full, events) = recorded(&sc, None);
    assert!(
        !sc.invariant_failures(&full).is_empty(),
        "blackout must defeat the retry budget"
    );
    assert!(events.len() > 1, "a multi-fault timeline to minimize");

    let out = bisect(&sc).expect("a fault-induced failure bisects");
    assert!(out.kept >= 1 && out.kept <= out.total);
    assert!(!out.failures.is_empty(), "minimal run names its failure");
    assert!(
        out.repro.contains("SUNRPC-CHANNEL") && out.repro.contains("seed=2"),
        "repro is self-describing: {}",
        out.repro
    );
    // The verdict is replayable from the repro's two cutoffs: keeping the
    // culprit fails, cutting just below it passes.
    let (failing, _) = recorded(&sc, Some(out.culprit.index + 1));
    assert!(!sc.invariant_failures(&failing).is_empty());
    let below = events[..out.kept - 1].last().map_or(0, |e| e.index + 1);
    let (passing, _) = recorded(&sc, Some(below));
    assert!(sc.invariant_failures(&passing).is_empty());
}

#[test]
fn bisect_rejects_a_passing_scenario() {
    let sc = scenario(
        StackKind::Paper(xrpc::stacks::L_RPC_VIP),
        Profile::Lossy,
        9,
        4,
    );
    assert_eq!(bisect(&sc).unwrap_err(), BisectError::NoFailure);
}

fn sc_name(sc: &Scenario) -> &'static str {
    sc.stack.name()
}
