//! The scheduler's own contracts: both process flavors block through one
//! implementation, and a crash reaps any number of parked processes in id
//! order in time linear in their number.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use xkernel::prelude::*;
use xkernel::sim::{RunReport, Sim, SimConfig, VProc, VStep, WakeReason};

// ---------------------------------------------------------------------------
// One workload, written twice: as coroutine bodies and as machines.
// ---------------------------------------------------------------------------

const SLEEPERS: u64 = 5;
const NAPS: u32 = 20;
const ROUNDS: u32 = 50;
const PATIENCE: u64 = 3_000_000;

/// What both renditions share: the semaphores, and what the timed waiter
/// saw (which must come out the same either way).
struct Shared {
    ping: SharedSema,
    pong: SharedSema,
    /// Nobody ever signals this one: waiting on it always times out.
    never: SharedSema,
    /// Signalled well inside [`PATIENCE`]: waiting on it is granted.
    soon: SharedSema,
    outcomes: Mutex<Vec<bool>>,
    /// Machine resumes, each of which costs one unit of fuel that a
    /// coroutine does not pay.
    resumes: AtomicU64,
}

impl Shared {
    fn new() -> Arc<Shared> {
        Arc::new(Shared {
            ping: SharedSema::labeled(0, "ping"),
            pong: SharedSema::labeled(0, "pong"),
            never: SharedSema::labeled(0, "never"),
            soon: SharedSema::labeled(0, "soon"),
            outcomes: Mutex::new(Vec::new()),
            resumes: AtomicU64::new(0),
        })
    }
}

fn nap(i: u64) -> u64 {
    100_000 + 7_919 * i
}

fn spawn_coroutines(sim: &Sim, a: HostId, b: HostId, sh: &Arc<Shared>) {
    for i in 0..SLEEPERS {
        sim.spawn(if i % 2 == 0 { a } else { b }, move |ctx| {
            for _ in 0..NAPS {
                ctx.sleep(nap(i));
            }
        });
    }
    let s = Arc::clone(sh);
    sim.spawn(a, move |ctx| {
        for _ in 0..ROUNDS {
            s.ping.v(ctx);
            s.pong.p(ctx);
        }
    });
    let s = Arc::clone(sh);
    sim.spawn(a, move |ctx| {
        for _ in 0..ROUNDS {
            s.ping.p(ctx);
            s.pong.v(ctx);
        }
    });
    let s = Arc::clone(sh);
    sim.spawn(b, move |ctx| {
        let timed_out = s.never.p_timeout(ctx, PATIENCE);
        let granted = s.soon.p_timeout(ctx, PATIENCE);
        s.outcomes.lock().extend([timed_out, granted]);
    });
    let s = Arc::clone(sh);
    sim.spawn(b, move |ctx| {
        ctx.sleep(PATIENCE + PATIENCE / 3);
        s.soon.v(ctx);
    });
}

struct Sleeper {
    sh: Arc<Shared>,
    left: u32,
    period: u64,
}

impl VProc for Sleeper {
    fn resume(&mut self, _ctx: &Ctx, _why: WakeReason) -> VStep {
        self.sh.resumes.fetch_add(1, Ordering::Relaxed);
        if self.left == 0 {
            return VStep::Done;
        }
        self.left -= 1;
        VStep::Sleep(self.period)
    }
}

/// `for ROUNDS { first.v(); second.p() }` when `leads`, else
/// `for ROUNDS { first.p(); second.v() }`.
struct PingPong {
    sh: Arc<Shared>,
    leads: bool,
    left: u32,
    waiting: bool,
}

impl VProc for PingPong {
    fn resume(&mut self, ctx: &Ctx, why: WakeReason) -> VStep {
        self.sh.resumes.fetch_add(1, Ordering::Relaxed);
        assert_eq!(why, WakeReason::Normal, "untimed waits are granted");
        let (ping, pong) = (self.sh.ping.clone(), self.sh.pong.clone());
        if self.waiting && !self.leads {
            pong.v(ctx);
        }
        self.waiting = false;
        if self.left == 0 {
            return VStep::Done;
        }
        self.left -= 1;
        self.waiting = true;
        let sema = if self.leads {
            ping.v(ctx);
            pong
        } else {
            ping
        };
        VStep::Wait {
            sema,
            timeout: None,
        }
    }
}

struct TimedWaiter {
    sh: Arc<Shared>,
    step: u8,
}

impl VProc for TimedWaiter {
    fn resume(&mut self, _ctx: &Ctx, why: WakeReason) -> VStep {
        self.sh.resumes.fetch_add(1, Ordering::Relaxed);
        if self.step > 0 {
            self.sh.outcomes.lock().push(why == WakeReason::Normal);
        }
        self.step += 1;
        let sema = match self.step {
            1 => self.sh.never.clone(),
            2 => self.sh.soon.clone(),
            _ => return VStep::Done,
        };
        VStep::Wait {
            sema,
            timeout: Some(PATIENCE),
        }
    }
}

struct LateSignal {
    sh: Arc<Shared>,
    slept: bool,
}

impl VProc for LateSignal {
    fn resume(&mut self, ctx: &Ctx, _why: WakeReason) -> VStep {
        self.sh.resumes.fetch_add(1, Ordering::Relaxed);
        if self.slept {
            self.sh.soon.v(ctx);
            return VStep::Done;
        }
        self.slept = true;
        VStep::Sleep(PATIENCE + PATIENCE / 3)
    }
}

fn spawn_machines(sim: &Sim, a: HostId, b: HostId, sh: &Arc<Shared>) {
    for i in 0..SLEEPERS {
        let m = Sleeper {
            sh: Arc::clone(sh),
            left: NAPS,
            period: nap(i),
        };
        sim.spawn_vproc(if i % 2 == 0 { a } else { b }, Box::new(m));
    }
    // A semaphore is one host's memory: both ends of each hand-off share
    // a host (the checker flags a cross-host V).
    for leads in [true, false] {
        let m = PingPong {
            sh: Arc::clone(sh),
            leads,
            left: ROUNDS,
            waiting: false,
        };
        sim.spawn_vproc(a, Box::new(m));
    }
    let (sh1, sh2) = (Arc::clone(sh), Arc::clone(sh));
    sim.spawn_vproc(b, Box::new(TimedWaiter { sh: sh1, step: 0 }));
    let m = LateSignal {
        sh: sh2,
        slept: false,
    };
    sim.spawn_vproc(b, Box::new(m));
}

struct Outcome {
    report: RunReport,
    outcomes: Vec<bool>,
    resumes: u64,
    hb_edges: u64,
}

fn run(cfg: SimConfig, spawn: fn(&Sim, HostId, HostId, &Arc<Shared>)) -> Outcome {
    let sim = Sim::new(cfg);
    let a = Kernel::new(&sim, "a").host();
    let b = Kernel::new(&sim, "b").host();
    let sh = Shared::new();
    spawn(&sim, a, b, &sh);
    let report = sim.run_until_idle();
    assert_eq!(report.blocked, 0);
    assert_eq!(report.fuel_exhausted, 0);
    let check = sim.check_report();
    assert_eq!(check.violations.first(), None);
    let outcomes = sh.outcomes.lock().clone();
    Outcome {
        report,
        outcomes,
        resumes: sh.resumes.load(Ordering::Relaxed),
        hb_edges: check.hb_edges,
    }
}

/// Coroutines and machines reach the scheduler through the same blocking
/// point and the same semaphore wait, so the same workload written both
/// ways is the same run: every event at the same instant in the same order,
/// every host clock equal to the nanosecond. Fuel is the one deliberate
/// difference — a machine pays a unit per resume on top of the charges both
/// pay — and it differs by exactly the number of resumes.
#[test]
fn coroutines_and_machines_make_the_same_run() {
    let base = SimConfig::scheduled().with_seed(11);
    for (name, cfg) in [
        ("plain", base),
        ("with_fuel", base.with_fuel(1_000_000)),
        ("with_check", base.with_check()),
    ] {
        let coro = run(cfg, spawn_coroutines);
        let mach = run(cfg, spawn_machines);
        assert_eq!(coro.outcomes, [false, true], "{name}: timeout, then grant");
        assert_eq!(mach.outcomes, coro.outcomes, "{name}");
        assert_eq!(coro.resumes, 0);
        assert!(mach.resumes > 0);
        assert_eq!(
            mach.report.fuel_used,
            coro.report.fuel_used + mach.resumes,
            "{name}: one unit per resume, nothing else"
        );
        let fuel_used = coro.report.fuel_used;
        assert_eq!(
            RunReport {
                fuel_used,
                ..mach.report
            },
            coro.report,
            "{name}"
        );
        assert_eq!(mach.hb_edges, coro.hb_edges, "{name}");
        assert!(coro.report.events > 2 * u64::from(ROUNDS));
    }
}

// ---------------------------------------------------------------------------
// Crash reaping.
// ---------------------------------------------------------------------------

/// Sleeps for ever; says so when dropped.
struct Parked {
    id: u64,
    reaped: Arc<Mutex<Vec<u64>>>,
}

impl VProc for Parked {
    fn resume(&mut self, _ctx: &Ctx, _why: WakeReason) -> VStep {
        VStep::Sleep(1_000_000_000 + self.id)
    }
}

impl Drop for Parked {
    fn drop(&mut self) {
        self.reaped.lock().push(self.id);
    }
}

/// Parks `n` machines on a host, crashes it, and returns the report with
/// the order the machines were reaped in.
fn crash_with_parked(n: u64) -> (RunReport, Vec<u64>) {
    let sim = Sim::new(SimConfig::scheduled());
    let host = Kernel::new(&sim, "doomed").host();
    let reaped = Arc::new(Mutex::new(Vec::new()));
    for id in 0..n {
        let reaped = Arc::clone(&reaped);
        sim.spawn_vproc(host, Box::new(Parked { id, reaped }));
    }
    sim.crash_at(1_000_000, host);
    let report = sim.run_until_idle();
    let order = reaped.lock().clone();
    (report, order)
}

/// A crash queues every parked process of the host for reaping; the run
/// loop used to re-sort that queue and shift its front out once per
/// process (quadratic: 0.65 s at this size). Sorted once and walked, 50,000
/// go in about 20 ms, still in ascending id order.
#[test]
fn a_crash_reaps_fifty_thousand_parked_machines_in_id_order() {
    const N: u64 = 50_000;
    let start = Instant::now();
    let (report, order) = crash_with_parked(N);
    let took = start.elapsed();
    assert_eq!(report.blocked, 0);
    assert_eq!(report.peak_live, N as usize);
    assert_eq!(report.hosts[0].crashes, 1);
    // Every machine ran once and parked, then the crash fired; the purged
    // wakes never run.
    assert_eq!(report.events, N + 1);
    assert!(order.iter().copied().eq(0..N), "reaped out of id order");
    if !cfg!(debug_assertions) {
        assert!(took.as_secs_f64() < 0.5, "reaping took {took:?}");
    }
}

/// The schedule is untouched by how the reap queue is drained: the
/// 100-process version's fingerprint is the one the quadratic loop
/// produced.
#[test]
fn crash_reaping_keeps_the_schedule_fingerprint() {
    let (report, order) = crash_with_parked(100);
    assert!(order.iter().copied().eq(0..100));
    assert_eq!(report.events, 101);
    assert_eq!(report.sched_hash, 7_048_025_647_367_759_786);
}
