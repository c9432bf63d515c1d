//! Acceptance tests for the bounded schedule explorer: exhaustive
//! enumeration of the handshake toy (every interleaving visited, chaos
//! invariants proven on all of them), the deliberately deadlocking toy
//! (exact cycle, deterministic replayable repro), the cross-host signal
//! toy, and a real RPC stack explored through its journal and random-walked
//! under the checker.

use std::collections::HashSet;

use chaos::{Profile, RunOpts, Scenario, StackKind};
use xcheck::explore::{explore, Journaled, WalkChooser};
use xcheck::summary::Summary;
use xcheck::toys;
use xkernel::check::{parse_repro, ViolationKind};
use xkernel::journal::Journal;
use xkernel::sim::ScheduleChooser;

const SEED: u64 = 42;

/// The acceptance scenario: 3 processes / 2 semaphores, exhaustively
/// explored. Every forced-choice interleaving is visited (3 spawn ties,
/// then 2: exactly 6 schedules), every schedule completes with all three
/// processes done, no process blocked, and zero checker violations.
#[test]
fn handshake_explores_every_interleaving_and_all_pass() {
    let ex = explore(10_000, |ch| toys::run_handshake(SEED, Some(ch)));
    assert!(ex.complete, "schedule space must be fully enumerated");
    assert_eq!(ex.schedules(), 6, "3-way tie then 2-way tie = 6 schedules");
    // The exact fingerprints, in DFS enumeration order. These are pinned:
    // the engine's continuation representation (OS threads, coroutines,
    // machines) must never leak into the schedule identity, so any engine
    // rewrite has to reproduce these six values bit for bit.
    let expected: [u64; 6] = [
        0x8d5f_72d1_f9d0_4017,
        0x2814_416b_65e6_afa2,
        0x2bfb_03c6_c18e_0f94,
        0xc683_8010_ac87_ae4c,
        0x33a0_d12f_0e88_380a,
        0xcd9d_eb53_ad42_1a4a,
    ];
    let got: Vec<u64> = ex.outcomes.iter().map(|o| o.sched_hash).collect();
    assert_eq!(
        got, expected,
        "handshake schedule fingerprints moved — the engine changed the \
         schedule identity"
    );
    let mut hashes = HashSet::new();
    for out in &ex.outcomes {
        assert_eq!(out.blocked, 0, "no schedule may leave a process blocked");
        assert_eq!(out.done, 3, "all three processes complete");
        assert!(
            out.check.violations.is_empty(),
            "clean toy, violations on some schedule: {:?}",
            out.check.violations
        );
        assert_eq!(
            (out.check.lps, out.check.semas),
            (3, 2),
            "the checker saw every process and semaphore"
        );
        hashes.insert(out.sched_hash);
    }
    assert_eq!(
        hashes.len(),
        6,
        "each interleaving has a distinct schedule fingerprint"
    );

    // The machine-readable summary for this exploration carries the verdict
    // ci.sh xcheck-smoke matches (`xcheck::summary` pins the whole line).
    let summary = Summary {
        scenario: "handshake".into(),
        mode: "exhaustive".into(),
        schedules: ex.schedules(),
        complete: ex.complete,
        distinct_hashes: hashes.len(),
        violations: 0,
        invariant_failures: 0,
    };
    let json = summary.to_json();
    assert!(
        json.contains(
            "\"scenario\":\"handshake\",\"mode\":\"exhaustive\",\"schedules\":6,\
             \"complete\":true,\"distinct_hashes\":6,\"violations\":0"
        ),
        "{json}"
    );
}

/// Regression: the AB/BA toy deadlocks, the checker names the exact
/// wait-for cycle, and the repro string is deterministic and parseable.
#[test]
fn deadlock_toy_reports_exact_cycle_with_deterministic_repro() {
    let out = toys::run_deadlock_spec(SEED, None);
    assert_eq!(out.blocked, 2, "both boot processes end blocked");
    let cycles = toys::deadlock_cycles(&out);
    assert_eq!(cycles.len(), 1, "one cycle, deduplicated: {:?}", cycles);
    let v = cycles[0];
    assert_eq!(
        v.cycle,
        vec!["lp0", "dl.sem_b", "lp1", "dl.sem_a", "lp0"],
        "the exact two-semaphore cycle, normalized to start at lp0"
    );
    assert!(
        v.detail.contains("dl.sem_a") && v.detail.contains("dl.sem_b"),
        "{}",
        v.detail
    );

    // The repro string replays: same seed, same schedule fingerprint.
    let repro = &out.repros[out
        .check
        .violations
        .iter()
        .position(|w| w.kind == ViolationKind::DeadlockCycle)
        .unwrap()];
    let parsed = parse_repro(repro).expect("repro string parses");
    assert_eq!(parsed.seed, SEED);
    assert_eq!(parsed.sched_hash, out.sched_hash);

    let again = toys::run_deadlock_spec(SEED, None);
    assert_eq!(
        again.sched_hash, out.sched_hash,
        "schedule is deterministic"
    );
    assert_eq!(again.repros, out.repros, "repro strings are deterministic");
}

/// The deadlock is schedule-independent: every interleaving of the toy
/// reaches the same two-semaphore cycle.
#[test]
fn deadlock_fires_on_every_explored_schedule() {
    let ex = explore(10_000, |ch| toys::run_deadlock_spec(SEED, Some(ch)));
    assert!(ex.complete);
    assert!(ex.schedules() >= 2, "at least the two spawn orders");
    for out in &ex.outcomes {
        assert_eq!(out.blocked, 2);
        let cycles = toys::deadlock_cycles(out);
        assert_eq!(cycles.len(), 1, "{:?}", out.check.violations);
        assert_eq!(cycles[0].cycle.len(), 5, "{:?}", cycles[0].cycle);
    }
}

/// A V on one host waking a waiter on another is flagged on every
/// schedule, and the run still completes.
#[test]
fn crosshost_signal_is_flagged_on_every_schedule() {
    let ex = explore(10_000, |ch| toys::run_crosshost(SEED, Some(ch)));
    assert!(ex.complete);
    for out in &ex.outcomes {
        assert_eq!(out.blocked, 0);
        assert_eq!(out.done, 2);
        let kinds: Vec<_> = out.check.violations.iter().map(|v| v.kind).collect();
        assert_eq!(
            kinds,
            vec![ViolationKind::CrossHostSignal],
            "{:?}",
            out.check.violations
        );
        let parsed = parse_repro(&out.repros[0]).expect("repro parses");
        assert_eq!(parsed.sched_hash, out.sched_hash);
    }
}

/// The checked-in bad spec is the same graph the dynamic runner executes,
/// so the static (XK015) and dynamic (wait-for cycle) verdicts are about
/// one artifact.
#[test]
fn checked_in_deadlock_spec_matches_the_toy_graph() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs/bad/deadlock-toy.xk");
    let spec = std::fs::read_to_string(&path).unwrap();
    let body: String = spec
        .lines()
        .filter(|l| !l.trim_start().starts_with('#') && !l.trim().is_empty())
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(body, toys::DEADLOCK_TOY_GRAPH);
}

/// What one schedule of a real stack showed.
struct StackRun {
    sched_hash: u64,
    completed: u32,
    invariant_failures: Vec<String>,
    repros: Vec<String>,
    journal: Journal,
}

impl Journaled for StackRun {
    fn journal(&self) -> &Journal {
        &self.journal
    }
}

/// Runs `sc` under `chooser`, journaled and checked.
fn stack_run(sc: &Scenario, chooser: Box<dyn ScheduleChooser>) -> StackRun {
    let out = sc.run_with(RunOpts {
        journal: true,
        chooser: Some(chooser),
        check: true,
        ..RunOpts::default()
    });
    let check = out.sim.check_report();
    let run = StackRun {
        sched_hash: out.report.run.sched_hash,
        completed: out.report.completed,
        invariant_failures: sc.invariant_failures(&out.report),
        repros: check.violations.iter().map(|v| out.sim.repro(v)).collect(),
        journal: out.journal.expect("journaling was on"),
    };
    out.sim.kill_suspended();
    run
}

/// Two clients calling one server on L_RPC-VIP over a quiet wire, explored
/// schedule by schedule through the journal: every schedule completes
/// every call, holds the chaos invariants and is checker-clean, and a
/// schedule's journal replays it to the same fingerprint.
#[test]
fn a_two_client_rpc_stack_explores_through_its_journal() {
    let sc = Scenario {
        stack: StackKind::Paper(xrpc::stacks::L_RPC_VIP),
        profile: Profile::FaultFree,
        seed: 7,
        calls: 2,
        population: 2,
    };
    let ex = explore(16, |ch| stack_run(&sc, ch));
    assert!(ex.schedules() <= 16);
    let hashes: HashSet<u64> = ex.outcomes.iter().map(|r| r.sched_hash).collect();
    assert!(
        hashes.len() > 1,
        "the exploration took more than one schedule"
    );
    for r in &ex.outcomes {
        let calls = sc.calls * sc.population;
        assert_eq!(r.completed, calls, "schedule {:#x}", r.sched_hash);
        assert!(
            r.invariant_failures.is_empty(),
            "{:?}",
            r.invariant_failures
        );
        assert!(r.repros.is_empty(), "{:?}", r.repros);
        assert!(r.journal.matches(r.sched_hash), "stamped with its run");
    }
    let last = ex.outcomes.last().expect("one schedule at least");
    let again = stack_run(&sc, Box::new(last.journal.chooser()));
    assert_eq!(again.sched_hash, last.sched_hash, "the journal replays");
    assert_eq!(again.journal.records, last.journal.records);
}

/// Random walks of a real RPC stack under a lossy profile: the schedule
/// perturbation changes the fingerprint, but every walk keeps the chaos
/// invariants and reports no concurrency violations.
#[test]
fn random_walks_of_an_rpc_stack_stay_clean() {
    let sc = Scenario {
        stack: StackKind::Paper(xrpc::stacks::L_RPC_VIP),
        profile: Profile::Lossy,
        seed: 7,
        calls: 3,
        population: 1,
    };
    let walks = xcheck::walk_chaos(&sc, 4, 0xfeed);
    assert_eq!(walks.len(), 4);
    for w in &walks {
        assert!(
            w.invariant_failures.is_empty(),
            "walk {:#x} broke invariants: {:?}",
            w.walk_seed,
            w.invariant_failures
        );
        assert_eq!(w.violations, 0, "walk {:#x}: {:?}", w.walk_seed, w.repros);
    }
    // Seeded walks are reproducible.
    let again = xcheck::walk_chaos(&sc, 4, 0xfeed);
    let h1: Vec<_> = walks.iter().map(|w| w.sched_hash).collect();
    let h2: Vec<_> = again.iter().map(|w| w.sched_hash).collect();
    assert_eq!(h1, h2);
}

/// WalkChooser decisions depend on the seed (sanity for the walk driver).
#[test]
fn distinct_walk_seeds_usually_diverge() {
    use xkernel::sim::ScheduleChooser;
    let decisions = |seed: u64| {
        let mut ch = WalkChooser::new(seed);
        (0..64).map(|_| ch.choose(3)).collect::<Vec<_>>()
    };
    assert_ne!(decisions(1), decisions(2));
}
