//! Snapshot/restore over suspended machine continuations: pause a run
//! mid-blocking-point with [`Sim::run_until_time`], capture it with
//! [`Sim::snapshot`], and prove the restored tail is bit-identical to the
//! uninterrupted run — the continuation state of a [`VProc`] round-trips
//! through the snapshot as pure data.

use std::sync::{Arc, Mutex};

use xkernel::cost::CostModel;
use xkernel::prelude::*;
use xkernel::sim::{SharedSema, Sim, SimConfig, Time, VProc, VStep, WakeReason};

/// A machine that logs the virtual time of each tick. `fork` clones the
/// whole continuation — tick counter, period, and the shared log handle.
#[derive(Clone)]
struct Ticker {
    left: u32,
    period: u64,
    log: Arc<Mutex<Vec<(u32, Time)>>>,
    id: u32,
}

impl VProc for Ticker {
    fn resume(&mut self, ctx: &Ctx, _why: WakeReason) -> VStep {
        if self.left == 0 {
            return VStep::Done;
        }
        self.log.lock().unwrap().push((self.id, ctx.now()));
        self.left -= 1;
        VStep::Sleep(self.period)
    }

    fn fork(&self) -> Option<Box<dyn VProc>> {
        Some(Box::new(self.clone()))
    }

    fn label(&self) -> &'static str {
        "ticker"
    }
}

fn build(log: &Arc<Mutex<Vec<(u32, Time)>>>) -> Sim {
    let sim = Sim::new(
        SimConfig::scheduled()
            .with_seed(11)
            .with_cost(CostModel::zero()),
    );
    let _a = Kernel::new(&sim, "a");
    let _b = Kernel::new(&sim, "b");
    for (id, (host, left, period)) in [(0usize, 5u32, 1_000u64), (1, 3, 1_700), (0, 4, 2_300)]
        .into_iter()
        .enumerate()
    {
        sim.spawn_vproc(
            HostId(host),
            Box::new(Ticker {
                left,
                period,
                log: Arc::clone(log),
                id: id as u32,
            }),
        );
    }
    sim
}

#[test]
fn restored_tail_is_bit_identical_to_the_uninterrupted_run() {
    // Reference: one uninterrupted run.
    let ref_log = Arc::new(Mutex::new(Vec::new()));
    let ref_report = build(&ref_log).run_until_idle();
    assert_eq!(ref_report.blocked, 0);
    let ref_ticks = ref_log.lock().unwrap().clone();
    assert_eq!(ref_ticks.len(), 5 + 3 + 4);

    // Same workload, paused mid-sleep: every machine is suspended at a
    // timer blocking point, which is exactly the snapshot-eligible state.
    let log = Arc::new(Mutex::new(Vec::new()));
    let sim = build(&log);
    let pause = sim.run_until_time(3_000);
    assert!(pause.events > 0, "the pause point is mid-run");
    let snap = sim
        .snapshot()
        .expect("paused machines are snapshot-eligible");
    let ticks_at_pause = log.lock().unwrap().len();
    assert!(ticks_at_pause > 0 && ticks_at_pause < ref_ticks.len());

    // Finish the paused run: cumulative report equals the reference.
    let finished = sim.run_until_idle();
    assert_eq!(finished, ref_report, "pausing must not perturb the run");
    assert_eq!(*log.lock().unwrap(), ref_ticks);

    // Rewind and replay the tail: the final report — events, ended_at,
    // sched_hash, fuel_used — must land on the same bits again.
    sim.restore(&snap).expect("drained sim restores");
    let replayed = sim.run_until_idle();
    assert_eq!(replayed, ref_report, "restored tail diverged");

    // The log now holds the full run plus the replayed tail, and the
    // replayed tail is tick-for-tick the suffix of the reference.
    let all = log.lock().unwrap().clone();
    assert_eq!(all[..ref_ticks.len()], ref_ticks[..]);
    assert_eq!(all[ref_ticks.len()..], ref_ticks[ticks_at_pause..]);
}

#[test]
fn coroutines_are_not_snapshot_eligible() {
    // A suspended *coroutine* is a live stack, not pure data: snapshot
    // must refuse, not silently drop it.
    let sim = Sim::new(
        SimConfig::scheduled()
            .with_seed(3)
            .with_cost(CostModel::zero()),
    );
    let _k = Kernel::new(&sim, "h");
    sim.spawn(HostId(0), |ctx| ctx.sleep(10_000));
    let paused = sim.run_until_time(5_000);
    assert_eq!(paused.blocked, 1);
    assert!(
        sim.snapshot().is_err(),
        "a parked coroutine must block the snapshot"
    );
    sim.run_until_idle();
}

/// Waits on a semaphore once, then ends. Forkable, so only where it waits
/// can keep it out of a snapshot.
#[derive(Clone)]
struct Awaiting {
    sema: SharedSema,
    waited: bool,
}

impl VProc for Awaiting {
    fn resume(&mut self, _ctx: &Ctx, _why: WakeReason) -> VStep {
        if self.waited {
            return VStep::Done;
        }
        self.waited = true;
        VStep::Wait {
            sema: self.sema.clone(),
            timeout: None,
        }
    }

    fn fork(&self) -> Option<Box<dyn VProc>> {
        Some(Box::new(self.clone()))
    }
}

#[test]
fn a_machine_parked_on_a_semaphore_is_not_snapshot_eligible() {
    // A forkable machine is pure data, but a semaphore's waiters do not
    // round-trip: snapshot refuses while one waits there, and takes the
    // same population once the wait is over.
    let sim = Sim::new(SimConfig::scheduled().with_cost(CostModel::zero()));
    let _k = Kernel::new(&sim, "h");
    let sema = SharedSema::new(0);
    let waiter = Awaiting {
        sema: sema.clone(),
        waited: false,
    };
    sim.spawn_vproc(HostId(0), Box::new(waiter));
    let log = Arc::new(Mutex::new(Vec::new()));
    let ticker = Ticker {
        left: 3,
        period: 1_000,
        log,
        id: 0,
    };
    sim.spawn_vproc(HostId(0), Box::new(ticker));
    assert_eq!(sim.run_until_time(500).blocked, 2);
    assert!(
        !sim.is_quiescent(),
        "a machine parked on a semaphore must block the snapshot"
    );
    sim.spawn(HostId(0), move |ctx| sema.v(ctx));
    assert_eq!(sim.run_until_time(1_500).blocked, 1);
    assert!(
        sim.is_quiescent(),
        "a sleeping machine alone is snapshot material"
    );
    assert_eq!(sim.run_until_idle().blocked, 0);
}

#[test]
fn a_spawned_machine_not_yet_started_is_not_snapshot_eligible() {
    // A spawned machine waits in a process-table slot for its start, but
    // it is no process yet and has no continuation to fork: snapshot
    // refuses it, also when it was spawned at a pause, and takes the same
    // machine once it has started and parked on a timer.
    let sim = Sim::new(SimConfig::scheduled().with_cost(CostModel::zero()));
    let _k = Kernel::new(&sim, "h");
    let log = Arc::new(Mutex::new(Vec::new()));
    let ticker = |id| Ticker {
        left: 3,
        period: 1_000,
        log: Arc::clone(&log),
        id,
    };
    sim.spawn_vproc(HostId(0), Box::new(ticker(0)));
    assert!(
        !sim.is_quiescent() && sim.snapshot().is_err(),
        "a machine not yet started must block the snapshot"
    );
    assert_eq!(sim.run_until_time(500).blocked, 1);
    assert!(
        sim.is_quiescent(),
        "a sleeping machine is snapshot material"
    );
    sim.spawn_vproc(HostId(0), Box::new(ticker(1)));
    assert!(
        !sim.is_quiescent() && sim.snapshot().is_err(),
        "a machine spawned at a pause has not started"
    );
    assert_eq!(sim.run_until_time(500).blocked, 2);
    assert!(sim.snapshot().is_ok());
    assert_eq!(sim.run_until_idle().blocked, 0);
    assert_eq!(log.lock().unwrap().len(), 6);
}

#[test]
fn snapshot_can_fork_a_paused_population_twice() {
    // Restore is not single-shot: the same snapshot replays its tail
    // repeatedly, landing on the same report each time (the fork/bisect
    // workflow of the journal layer depends on this).
    let log = Arc::new(Mutex::new(Vec::new()));
    let sim = build(&log);
    sim.run_until_time(2_500);
    let snap = sim.snapshot().expect("eligible at the pause point");
    let first = sim.run_until_idle();
    for _ in 0..2 {
        sim.restore(&snap).expect("restore replays");
        assert_eq!(sim.run_until_idle(), first);
    }
}
