//! The scheduler's own contracts: both process flavors block through one
//! implementation, a semaphore grants in FIFO order whatever times out of
//! its queue, and a crash reaps any number of parked processes in id order
//! in time linear in their number.

use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use xkernel::check::CheckReport;
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
    fn new() -> Rc<Shared> {
        Rc::new(Shared {
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

fn spawn_coroutines(sim: &Sim, a: HostId, b: HostId, sh: &Rc<Shared>) {
    for i in 0..SLEEPERS {
        sim.spawn(if i % 2 == 0 { a } else { b }, move |ctx| {
            for _ in 0..NAPS {
                ctx.sleep(nap(i));
            }
        });
    }
    let s = Rc::clone(sh);
    sim.spawn(a, move |ctx| {
        for _ in 0..ROUNDS {
            s.ping.v(ctx);
            s.pong.p(ctx);
        }
    });
    let s = Rc::clone(sh);
    sim.spawn(a, move |ctx| {
        for _ in 0..ROUNDS {
            s.ping.p(ctx);
            s.pong.v(ctx);
        }
    });
    let s = Rc::clone(sh);
    sim.spawn(b, move |ctx| {
        let timed_out = s.never.p_timeout(ctx, PATIENCE);
        let granted = s.soon.p_timeout(ctx, PATIENCE);
        s.outcomes.lock().unwrap().extend([timed_out, granted]);
    });
    let s = Rc::clone(sh);
    sim.spawn(b, move |ctx| {
        ctx.sleep(PATIENCE + PATIENCE / 3);
        s.soon.v(ctx);
    });
}

struct Sleeper {
    sh: Rc<Shared>,
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
    sh: Rc<Shared>,
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
    sh: Rc<Shared>,
    step: u8,
}

impl VProc for TimedWaiter {
    fn resume(&mut self, _ctx: &Ctx, why: WakeReason) -> VStep {
        self.sh.resumes.fetch_add(1, Ordering::Relaxed);
        if self.step > 0 {
            self.sh
                .outcomes
                .lock()
                .unwrap()
                .push(why == WakeReason::Normal);
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
    sh: Rc<Shared>,
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

fn spawn_machines(sim: &Sim, a: HostId, b: HostId, sh: &Rc<Shared>) {
    for i in 0..SLEEPERS {
        let m = Sleeper {
            sh: Rc::clone(sh),
            left: NAPS,
            period: nap(i),
        };
        sim.spawn_vproc(if i % 2 == 0 { a } else { b }, Box::new(m));
    }
    // A semaphore is one host's memory: both ends of each hand-off share
    // a host (the checker flags a cross-host V).
    for leads in [true, false] {
        let m = PingPong {
            sh: Rc::clone(sh),
            leads,
            left: ROUNDS,
            waiting: false,
        };
        sim.spawn_vproc(a, Box::new(m));
    }
    let (sh1, sh2) = (Rc::clone(sh), Rc::clone(sh));
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
    check: CheckReport,
}

fn run(cfg: SimConfig, spawn: fn(&Sim, HostId, HostId, &Rc<Shared>)) -> Outcome {
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
    let outcomes = sh.outcomes.lock().unwrap().clone();
    Outcome {
        report,
        outcomes,
        resumes: sh.resumes.load(Ordering::Relaxed),
        check,
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
        assert_eq!(mach.check, coro.check, "{name}");
        assert!(coro.report.events > 2 * u64::from(ROUNDS));
    }
}

// ---------------------------------------------------------------------------
// Wake order: one semaphore, many waiters, against a queue model.
// ---------------------------------------------------------------------------

/// One scripted instant. Each sits at its own offset inside a 10 ms slot —
/// an arrival at 0, a deadline at 2.5 ms, a V at 5 ms — so no two coincide
/// and the few hundred microseconds a block, wake or timer costs never
/// reorder them.
#[derive(Clone, Copy, Debug)]
enum Act {
    /// Waiter `i` Ps, with `Some(timeout)` or without.
    Arrive(usize, Option<u64>),
    /// Waiter `i`'s timeout is due (if it is still queued).
    Deadline(usize),
    V,
}

const SLOT: u64 = 10_000_000;

/// The script: arrivals, their deadlines and V's over `slots` slots, drawn
/// from `seed`; every deadline in a slot of its own.
fn wake_script(seed: u64, slots: u64) -> Vec<(u64, Act)> {
    let mut s = seed;
    let mut acts = Vec::new();
    let mut deadline_slots = std::collections::HashSet::new();
    let mut waiters = 0;
    for k in 0..slots {
        let r = xkernel::rng::splitmix64(&mut s);
        if r.is_multiple_of(2) {
            let i = waiters;
            waiters += 1;
            let timeout = if r.is_multiple_of(3) {
                None
            } else {
                // A deadline slot no other waiter has.
                let mut d = 1 + (r >> 8) % 8;
                while !deadline_slots.insert(k + d) {
                    d += 1;
                }
                Some(d * SLOT + SLOT / 4)
            };
            acts.push((k * SLOT, Act::Arrive(i, timeout)));
            if let Some(dt) = timeout {
                acts.push((k * SLOT + dt, Act::Deadline(i)));
            }
        }
        if (r >> 32) % 20 < 9 {
            acts.push((k * SLOT + SLOT / 2, Act::V));
        }
    }
    acts.sort_by_key(|&(t, _)| t);
    acts
}

/// What a FIFO queue of waiters says happens: each waiter's outcome
/// (granted or timed out) in the order they occur, the waiters left queued,
/// and how many timeouts removed the head with others behind it and how
/// many removed one from further back.
fn wake_model(acts: &[(u64, Act)]) -> (Vec<(usize, bool)>, usize, u32, u32) {
    let mut queue = std::collections::VecDeque::new();
    let mut count = 0u32;
    let (mut out, mut head_outs, mut back_outs) = (Vec::new(), 0, 0);
    for &(_, act) in acts {
        match act {
            Act::Arrive(i, _) if count > 0 => {
                count -= 1;
                out.push((i, true));
            }
            Act::Arrive(i, _) => queue.push_back(i),
            Act::V => match queue.pop_front() {
                Some(i) => out.push((i, true)),
                None => count += 1,
            },
            Act::Deadline(i) => {
                if let Some(pos) = queue.iter().position(|&w| w == i) {
                    queue.remove(pos);
                    out.push((i, false));
                    if pos > 0 {
                        back_outs += 1;
                    } else if !queue.is_empty() {
                        head_outs += 1;
                    }
                }
            }
        }
    }
    (out, queue.len(), head_outs, back_outs)
}

type WakeLog = Rc<std::cell::RefCell<Vec<(usize, bool)>>>;

/// A waiter written as a machine: one `VStep::Wait`, then it logs why it
/// was resumed.
struct MachineWaiter {
    i: usize,
    sema: SharedSema,
    timeout: Option<u64>,
    log: WakeLog,
    waited: bool,
}

impl VProc for MachineWaiter {
    fn resume(&mut self, _ctx: &Ctx, why: WakeReason) -> VStep {
        if self.waited {
            self.log
                .borrow_mut()
                .push((self.i, why == WakeReason::Normal));
            return VStep::Done;
        }
        self.waited = true;
        VStep::Wait {
            sema: self.sema.clone(),
            timeout: self.timeout,
        }
    }
}

/// Runs the script on one host: a conductor process sleeps to each instant
/// and starts a waiter there (a coroutine for even `i`, a machine for odd)
/// or signals the semaphore; deadlines fire by themselves.
fn wake_run(acts: Vec<(u64, Act)>) -> (RunReport, Vec<(usize, bool)>) {
    let sim = Sim::new(SimConfig::scheduled().with_seed(29));
    let host = Kernel::new(&sim, "a").host();
    let sema = SharedSema::labeled(0, "contended");
    let log = WakeLog::default();
    let (s, l) = (sema.clone(), Rc::clone(&log));
    sim.spawn(host, move |ctx| {
        for (t, act) in acts {
            ctx.sleep(t.saturating_sub(ctx.now()));
            match act {
                Act::Arrive(i, timeout) if i % 2 == 0 => {
                    let (s, l) = (s.clone(), Rc::clone(&l));
                    ctx.spawn_on(host, move |ctx| {
                        let granted = match timeout {
                            Some(dt) => s.p_timeout(ctx, dt),
                            None => {
                                s.p(ctx);
                                true
                            }
                        };
                        l.borrow_mut().push((i, granted));
                    });
                }
                Act::Arrive(i, timeout) => {
                    let m = MachineWaiter {
                        i,
                        sema: s.clone(),
                        timeout,
                        log: Rc::clone(&l),
                        waited: false,
                    };
                    ctx.spawn_vproc_on(host, Box::new(m));
                }
                Act::V => s.v(ctx),
                Act::Deadline(_) => {}
            }
        }
    });
    let report = sim.run_until_idle();
    sim.kill_suspended();
    let log = log.borrow().clone();
    (report, log)
}

/// Waiters P one semaphore, some with a timeout and some without, while V's
/// come in between: every grant goes to the longest waiter, and a timeout
/// takes its own waiter out from wherever it stands — the head included,
/// with others queued behind it — and the rest move up. The schedule is the
/// one the semaphore made when every waiter sat in one heap-allocated queue.
#[test]
fn wake_order_is_fifo_and_a_timeout_leaves_from_any_position() {
    let acts = wake_script(30, 400);
    let (want, left, head_outs, back_outs) = wake_model(&acts);
    assert!(head_outs >= 3 && back_outs >= 3, "{head_outs} {back_outs}");
    assert!(want.len() > 100);
    let (report, got) = wake_run(acts);
    assert_eq!(got, want);
    assert_eq!(report.blocked, left);
    assert_eq!(report.sched_hash, 2_027_608_277_263_815_532);
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
        self.reaped.lock().unwrap().push(self.id);
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
    let order = reaped.lock().unwrap().clone();
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

// ---------------------------------------------------------------------------
// The timeline: paused runs, cancelled timers, large populations.
// ---------------------------------------------------------------------------

/// Sleeps `period` a few times. Pure data, so a paused population of these
/// is snapshot material.
#[derive(Clone)]
struct Napper {
    left: u32,
    period: u64,
}

impl VProc for Napper {
    fn resume(&mut self, _ctx: &Ctx, _why: WakeReason) -> VStep {
        if self.left == 0 {
            return VStep::Done;
        }
        self.left -= 1;
        VStep::Sleep(self.period)
    }

    fn fork(&self) -> Option<Box<dyn VProc>> {
        Some(Box::new(self.clone()))
    }
}

/// The horizons one run mixes: a wire time, a retransmit timer, a resident
/// client's think time.
const HORIZONS: [u64; 3] = [1_000, 40_000_000, 250_000_000_000];

/// `n` nappers over two hosts, machine `i` on horizon `i % 3` with a period
/// of its own.
fn nappers(n: u64, naps: u32) -> Sim {
    let sim = Sim::new(SimConfig::scheduled().with_seed(21));
    let hosts = [Kernel::new(&sim, "a").host(), Kernel::new(&sim, "b").host()];
    for i in 0..n {
        let period = HORIZONS[(i % 3) as usize] + 7_919 * i;
        sim.spawn_vproc(
            hosts[(i % 2) as usize],
            Box::new(Napper { left: naps, period }),
        );
    }
    sim
}

/// Runs `sim` dry through `stops` pauses at odd instants.
fn run_sliced(sim: &Sim, stops: u64, horizon: u64) -> RunReport {
    for k in 1..=stops {
        sim.run_until_time(horizon / stops * k + 2 * k + 1);
    }
    sim.run_until_idle()
}

/// A pause leaves the timeline where `run_until_idle` would have had it:
/// the first key beyond the stop is not taken, keys filed after the pause
/// but before the instant the timeline had already advanced to come out in
/// their place, and a thousand pauses later the run is the one that never
/// paused.
#[test]
fn a_run_paused_a_thousand_times_is_the_same_run() {
    let whole = nappers(50_000, 3).run_until_idle();
    assert_eq!(whole.blocked, 0);
    assert_eq!(whole.events, 50_000 * 4);
    let sliced = run_sliced(&nappers(50_000, 3), 1_000, whole.ended_at);
    assert_eq!(sliced, whole);
}

/// Picks among tied events by a fixed pseudo-random walk.
struct Walk(u64);

impl xkernel::sim::ScheduleChooser for Walk {
    fn choose(&mut self, n: usize) -> usize {
        xkernel::rng::splitmix64(&mut self.0) as usize % n
    }
}

/// The same with a schedule chooser installed: unpicked ties go back into
/// the timeline at the instant it stands at, and a pause consumes no
/// decision.
#[test]
fn a_paused_run_under_a_chooser_is_the_same_run() {
    let run = |stops: Option<u64>| {
        let sim = nappers(1_500, 3);
        sim.set_chooser(Box::new(Walk(5)));
        match stops {
            None => sim.run_until_idle(),
            Some(n) => run_sliced(&sim, n, 3 * (HORIZONS[2] + 7_919 * 1_500)),
        }
    };
    let whole = run(None);
    assert_eq!(whole.events, 1_500 * 4);
    assert_ne!(
        whole.sched_hash,
        nappers(1_500, 3).run_until_idle().sched_hash,
        "the chooser reorders the 1,500-way tie at time zero"
    );
    assert_eq!(run(Some(1_000)), whole);
}

/// A retransmit timer is armed and cancelled on every call, and nothing
/// says its horizon is near: here a 1,000 s timer per microsecond, a
/// million times over. Dead keys are dropped when a refill meets them, which
/// for these it never does, so the timeline compacts itself: it never holds
/// more than twice the live events plus a constant, and never more 32-key
/// blocks than those keys fill plus one part-filled or kept block a bucket
/// and two for the run. The schedule is the one the tombstone-skipping binary heap
/// produced.
#[test]
fn a_million_cancelled_far_timers_leave_the_timeline_bounded() {
    const ROUNDS: u64 = 1_000_000;
    let sim = Sim::new(SimConfig::scheduled().with_seed(21));
    let host = Kernel::new(&sim, "a").host();
    let worst = Arc::new(AtomicU64::new(0));
    let (weak, w) = (sim.downgrade(), Arc::clone(&worst));
    sim.spawn(host, move |ctx| {
        let sim = weak.upgrade().expect("the simulation is running this");
        for _ in 0..ROUNDS {
            let h = ctx.schedule_after(1_000_000_000_000, |_| panic!("cancelled"));
            ctx.cancel_timer(h);
            ctx.sleep(1_000);
            let (held, live, blocks) = sim.timeline_load();
            assert!(held <= 2 * live + 64, "{held} keys for {live} events");
            assert!(
                blocks <= held.div_ceil(32) + 66,
                "{blocks} blocks for {held} keys"
            );
            w.fetch_max(held as u64, Ordering::Relaxed);
        }
    });
    let report = sim.run_until_idle();
    assert_eq!(report.blocked, 0);
    assert_eq!(report.events, ROUNDS + 1);
    let (held, live, blocks) = sim.timeline_load();
    assert_eq!((held, live), (0, 0));
    assert!(blocks <= 66, "{blocks} blocks for no keys");
    assert!(worst.load(Ordering::Relaxed) >= 64, "compaction is lazy");
    assert_eq!(report.sched_hash, 17_518_434_058_027_017_092);
}

/// 200,000 machines on three horizons: what `resident_200k` holds, without
/// the protocol stack. The schedule is the binary heap's, and the paused
/// population snapshots and restores bit for bit.
#[test]
fn two_hundred_thousand_nappers_on_three_horizons() {
    const N: u64 = 200_000;
    let sim = nappers(N, 2);
    let paused = sim.run_until_time(HORIZONS[2]);
    assert!(paused.blocked > 0 && paused.events > N);
    let snap = sim
        .snapshot()
        .expect("parked machines are snapshot material");
    let whole = sim.run_until_idle();
    assert_eq!(whole.blocked, 0);
    assert_eq!(whole.peak_live, N as usize);
    assert_eq!(whole.events, 3 * N);
    assert_eq!(whole.sched_hash, 2_556_990_629_625_724_824);
    sim.restore(&snap).expect("a drained simulation restores");
    assert_eq!(sim.run_until_idle(), whole);
}

// ---------------------------------------------------------------------------
// Discarding and reseeding a simulation.
// ---------------------------------------------------------------------------

/// A coroutine parked where nothing will wake it keeps the simulation alive
/// through the `Ctx` on its stack; `kill_suspended` unwinds it — drop guards
/// run, in id order — and the last handle's drop then frees everything.
#[test]
fn killing_the_suspended_frees_a_simulation_that_did_not_finish() {
    struct Unwound(u64, Arc<Mutex<Vec<u64>>>);
    impl Drop for Unwound {
        fn drop(&mut self) {
            self.1.lock().unwrap().push(self.0);
        }
    }
    let sim = Sim::new(SimConfig::scheduled());
    let host = Kernel::new(&sim, "h0").host();
    let order = Arc::new(Mutex::new(Vec::new()));
    for id in 0..3 {
        let guard = Unwound(id, Arc::clone(&order));
        sim.spawn(host, move |ctx| {
            let _guard = guard;
            SharedSema::new(0).p(ctx);
            unreachable!("nothing signals the semaphore");
        });
    }
    assert_eq!(sim.run_until_idle().blocked, 3);
    assert!(!sim.is_quiescent());
    let weak = sim.downgrade();
    drop(sim);
    let sim = weak.upgrade().expect("the parked stacks hold it");
    assert_eq!(sim.kill_suspended(), 3);
    assert_eq!(*order.lock().unwrap(), [0, 1, 2]);
    assert!(sim.is_quiescent());
    assert_eq!(sim.kill_suspended(), 0);
    drop(sim);
    assert!(weak.upgrade().is_none());
}

#[test]
fn a_reseeded_simulation_draws_what_one_built_under_that_seed_draws() {
    let sim = Sim::new(SimConfig::scheduled().with_seed(4));
    assert_eq!(sim.reseed(9), 0, "no protocol, no boot-time draw");
    assert_eq!(sim.seed(), 9);
    let fresh = Sim::new(SimConfig::scheduled().with_seed(9));
    assert_eq!(sim.next_u64(), fresh.next_u64());
}

/// A draw no `reseed` hook repeats — one made after boot, here — cannot be
/// replayed under another seed, and `reseed` says how many there were.
#[test]
#[should_panic(expected = "had made 3 PRNG draw(s) but its protocols' reseed hooks redid 0")]
fn reseed_refuses_a_simulation_whose_draws_it_cannot_redo() {
    let sim = Sim::new(SimConfig::scheduled().with_seed(4));
    for _ in 0..3 {
        sim.next_u64();
    }
    sim.reseed(9);
}

// ---------------------------------------------------------------------------
// handover: the run loop is a coroutine's body, a fresh thunk a call on its
// stack, and a process takes the stack over when it first blocks. Reports
// and fingerprints below were captured before any of that, when every thunk
// was started on a coroutine of its own.
// ---------------------------------------------------------------------------

/// What `f` cost this thread in `(context switches, coroutines started)`.
fn switched(f: impl FnOnce()) -> (u64, u64) {
    let before = xkernel::vproc::counts();
    f();
    let after = xkernel::vproc::counts();
    (after.0 - before.0, after.1 - before.1)
}

/// Bodies that never block, block once and block fifty times, interleaved on
/// two hosts and signalling each other: every way a thunk can leave the
/// driver's stack, in one schedule.
fn handover_mix() -> (Sim, Arc<AtomicU64>) {
    let sim = Sim::new(SimConfig::scheduled().with_seed(23));
    let hosts = [Kernel::new(&sim, "a").host(), Kernel::new(&sim, "b").host()];
    let done = Arc::new(AtomicU64::new(0));
    let gate = SharedSema::labeled(0, "gate");
    for i in 0..30u64 {
        let (done, gate) = (Arc::clone(&done), gate.clone());
        sim.spawn(hosts[(i % 2) as usize], move |ctx| {
            match i % 3 {
                0 => ctx.charge(100 + i),
                1 => ctx.sleep(1_000 + 37 * i),
                _ => {
                    for k in 0..50 {
                        ctx.sleep(500 + 11 * i + k);
                    }
                }
            }
            if i % 2 == 0 {
                // Host a's processes queue behind one another too.
                if i % 4 == 0 {
                    gate.v(ctx);
                } else {
                    gate.p(ctx);
                }
            }
            done.fetch_add(1, Ordering::Relaxed);
        });
    }
    (sim, done)
}

#[test]
fn handover_bodies_that_block_never_once_and_fifty_times_make_the_same_run() {
    let (sim, done) = handover_mix();
    let report = sim.run_until_idle();
    assert_eq!(done.load(Ordering::Relaxed), 30);
    assert_eq!(
        (report.blocked, report.events, report.ended_at),
        (0, 540, 131_141_395)
    );
    assert_eq!((report.peak_live, report.fuel_used), (20, 535));
    let clocks: Vec<u64> = report.hosts.iter().map(|h| h.cpu_ns).collect();
    assert_eq!(clocks, [132_750_560, 132_600_575]);
    assert_eq!(report.sched_hash, 15_788_559_345_166_168_192);
    // Paused at every microsecond it is the same run.
    let (sim, _) = handover_mix();
    assert_eq!(run_sliced(&sim, 30, report.ended_at), report);
}

/// A process that blocks `k` times costs what it always did — the coroutine
/// it ends up owning, a switch in and out at its start and at each wake —
/// and one that never blocks costs nothing, where it used to cost a
/// coroutine and two switches. Both over the run's own driver (one start,
/// in and out once).
#[test]
fn handover_a_process_pays_for_a_stack_only_if_it_blocks() {
    let run = |blocks: u64| {
        let sim = Sim::new(SimConfig::scheduled());
        let host = Kernel::new(&sim, "a").host();
        sim.spawn(host, move |ctx| {
            for _ in 0..blocks {
                ctx.sleep(10);
            }
        });
        switched(|| assert_eq!(sim.run_until_idle().blocked, 0))
    };
    assert_eq!(run(0), (2, 1), "the run's driver and nothing else");
    for k in [1, 3, 50] {
        assert_eq!(run(k), (2 + 2 * k + 2, 1 + 1), "{k} blocks");
    }
}

/// A thousand processes blocked at once hold a thousand stacks; when they
/// exit, all but `IDLE_CAP` of those are unmapped and none stays in use.
#[test]
fn handover_a_thousand_blocked_processes_give_their_stacks_back() {
    use xkernel::vproc::{stacks, IDLE_CAP};
    let (idle, mapped) = stacks();
    assert_eq!((idle, mapped), (0, 0), "a test thread starts with no stack");
    let sim = Sim::new(SimConfig::scheduled());
    let host = Kernel::new(&sim, "a").host();
    let most = Arc::new(AtomicU64::new(0));
    for i in 0..1_000 {
        let most = Arc::clone(&most);
        sim.spawn(host, move |ctx| {
            ctx.sleep(1_000_000 + i);
            most.fetch_max(stacks().1 as u64, Ordering::Relaxed);
        });
    }
    let (switches, starts) = switched(|| {
        let report = sim.run_until_idle();
        assert_eq!((report.blocked, report.peak_live), (0, 1_000));
    });
    // Each process took a driver over; the last driver ended the run.
    assert_eq!((switches, starts), (2 * 1_001 + 2 * 1_000, 1_001));
    assert_eq!(most.load(Ordering::Relaxed), 1_001);
    let (idle, mapped) = stacks();
    assert_eq!(idle, IDLE_CAP);
    assert_eq!(mapped, idle, "every stack still mapped is an idle one");
}

fn panics_with(blocks: u32, text: &'static str) -> Sim {
    let sim = Sim::new(SimConfig::scheduled());
    let host = Kernel::new(&sim, "a").host();
    sim.spawn(host, move |ctx| {
        for _ in 0..blocks {
            ctx.sleep(10);
        }
        panic!("{text}");
    });
    // A bystander on either side of it is unharmed.
    sim.spawn(host, |ctx| ctx.sleep(1_000));
    sim
}

/// A body's panic is the process's, wherever the body was running when it
/// struck: filed once, with its text, and raised by the run.
#[test]
fn handover_a_panic_is_reported_once_with_its_text_before_or_after_blocking() {
    for (blocks, text) in [(0, "struck on the driver"), (3, "struck on its own stack")] {
        let sim = panics_with(blocks, text);
        let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run_until_idle();
        }))
        .expect_err("the run re-raises a process's panic");
        let said = raised.downcast_ref::<String>().expect("a formatted panic");
        assert_eq!(said, &format!("shepherd process panicked: {text}"));
        assert_eq!(said.matches(text).count(), 1);
        // The loop itself finished: the bystander ran out its sleep and
        // nothing is left over.
        let (held, live, _) = sim.timeline_load();
        assert_eq!((held, live), (0, 0));
        assert!(sim.is_quiescent());
    }
}

/// Processes parked on stacks they took over are reaped by a crash like any
/// other coroutine: unwound, drop guards run, in id order.
#[test]
fn handover_a_crash_reaps_five_hundred_processes_on_stacks_they_took_over() {
    struct Unwound(u64, Arc<Mutex<Vec<u64>>>);
    impl Drop for Unwound {
        fn drop(&mut self) {
            self.1.lock().unwrap().push(self.0);
        }
    }
    let sim = Sim::new(SimConfig::scheduled());
    let host = Kernel::new(&sim, "doomed").host();
    let order = Arc::new(Mutex::new(Vec::new()));
    for id in 0..500 {
        let guard = Unwound(id, Arc::clone(&order));
        sim.spawn(host, move |ctx| {
            let _guard = guard;
            ctx.sleep(10 + id);
            ctx.sleep(1_000_000_000);
            unreachable!("the host crashes first");
        });
    }
    sim.crash_at(500_000_000, host);
    let report = sim.run_until_idle();
    assert_eq!((report.blocked, report.peak_live), (0, 500));
    assert_eq!(report.hosts[0].crashes, 1);
    // Every process had blocked twice by then: once on the driver's stack,
    // once on what had become its own.
    assert_eq!((report.events, report.fuel_used), (500 + 500 + 1, 1_000));
    assert_eq!(report.hosts[0].cpu_ns, 390_000_000);
    assert!(
        order.lock().unwrap().iter().copied().eq(0..500),
        "reaped out of order"
    );
    assert_eq!(report.sched_hash, 15_875_656_191_405_600_598);
    assert_eq!(xkernel::vproc::stacks().1, xkernel::vproc::stacks().0);
}

/// A process cut off on a stack it took over — the driver's frames and
/// context are under its own — is unwound through them by
/// `kill_suspended`, and nothing keeps the simulation alive afterwards.
#[test]
fn handover_killing_processes_on_taken_over_stacks_frees_the_simulation() {
    let sim = Sim::new(SimConfig::scheduled());
    let host = Kernel::new(&sim, "h0").host();
    for i in 0..4 {
        sim.spawn(host, move |ctx| {
            for _ in 0..i {
                ctx.sleep(10);
            }
            SharedSema::new(0).p(ctx);
        });
    }
    assert_eq!(sim.run_until_idle().blocked, 4);
    let weak = sim.downgrade();
    drop(sim);
    let sim = weak.upgrade().expect("the parked stacks hold it");
    assert_eq!(sim.kill_suspended(), 4);
    assert!(sim.is_quiescent());
    drop(sim);
    assert!(weak.upgrade().is_none());
}

/// A machine's step runs on the driver's stack, so `Ctx::sleep` from one
/// would suspend the run loop itself; it is refused where it is made, by a
/// message that says what a machine does instead.
#[test]
#[should_panic(expected = "blocks by returning a VStep")]
fn handover_a_machine_that_calls_a_blocking_primitive_is_told_to_return_a_vstep() {
    struct Sleepy;
    impl VProc for Sleepy {
        fn resume(&mut self, ctx: &Ctx, _why: WakeReason) -> VStep {
            ctx.sleep(10);
            VStep::Done
        }
    }
    let sim = Sim::new(SimConfig::scheduled());
    let host = Kernel::new(&sim, "a").host();
    sim.spawn_vproc(host, Box::new(Sleepy));
    sim.run_until_idle();
}

/// The run loop does not nest: a process that asks for its own simulation
/// to be run is told so.
#[test]
#[should_panic(expected = "Sim::run_until_time called from inside a process")]
fn handover_run_until_time_from_inside_a_process_panics_by_name() {
    let sim = Sim::new(SimConfig::scheduled());
    let host = Kernel::new(&sim, "a").host();
    let weak = sim.downgrade();
    sim.spawn(host, move |_ctx| {
        weak.upgrade().expect("running").run_until_time(5);
    });
    sim.run_until_idle();
}

// ---------------------------------------------------------------------------
// A crash frees slots; their next tenants see none of the old keys.
// ---------------------------------------------------------------------------

/// When the doomed host crashes, restarts, its slots are refilled and the
/// dead waiters' semaphores signalled: milliseconds apart, far more than
/// the few the hosts' processes keep their CPUs busy for.
const CRASH: u64 = 20_000_000;
const RESTART: u64 = 25_000_000;
const REFILL: u64 = 30_000_000;
const SIGNAL: u64 = 80_000_000;
/// How long the doomed host's sleepers sleep: their wakes, purged by the
/// crash, would fall due while the refilled slots' tenants sleep. Past
/// 2²⁵ ns, unlike everything up to the refill, so the timeline holds the
/// purged keys unexamined until the slots have their new tenants.
const DOOMED_NAP: u64 = 50_000_000;
/// How long a refilled slot's tenant sleeps (plus a microsecond per
/// machine): past every purged wake.
const FRESH_NAP: u64 = 60_000_000;
const FRESH: u64 = 40;

/// Who did what when: `(who, what, at)`.
type Diary = Rc<std::cell::RefCell<Vec<(u64, &'static str, u64)>>>;

/// Sleeps once, or waits once on `sema`, and writes in the diary if it is
/// ever resumed after that.
struct Doomed {
    who: u64,
    sema: Option<(SharedSema, Option<u64>)>,
    diary: Diary,
    parked: bool,
}

impl VProc for Doomed {
    fn resume(&mut self, ctx: &Ctx, _why: WakeReason) -> VStep {
        if self.parked {
            self.diary
                .borrow_mut()
                .push((self.who, "resumed", ctx.now()));
            return VStep::Done;
        }
        self.parked = true;
        match self.sema.clone() {
            Some((sema, timeout)) => VStep::Wait { sema, timeout },
            None => VStep::Sleep(DOOMED_NAP + self.who),
        }
    }
}

/// A refilled slot's tenant: notes its start, sleeps `nap`, notes its
/// wake.
struct Fresh {
    who: u64,
    nap: u64,
    diary: Diary,
    started: bool,
}

impl VProc for Fresh {
    fn resume(&mut self, ctx: &Ctx, _why: WakeReason) -> VStep {
        let what = if self.started { "woke" } else { "started" };
        self.diary.borrow_mut().push((self.who, what, ctx.now()));
        if self.started {
            return VStep::Done;
        }
        self.started = true;
        VStep::Sleep(self.nap)
    }
}

/// The run: on the doomed host, coroutine and machine sleepers, untimed and
/// timed waiters of both kinds, two coroutines whose timed waits armed
/// their timers on the steady host, a waiter signalled (from a third host,
/// whose clock is well ahead) between the crash and its reaping, and
/// machines spawned to start just after the crash.
/// The crash kills or purges all of them; after the restart forty fresh
/// machines take the freed slots, and then every dead waiter's semaphore is
/// signalled on the restarted host.
fn crash_and_refill() -> (RunReport, CheckReport, Vec<(u64, &'static str, u64)>) {
    let sim = Sim::new(SimConfig::scheduled().with_seed(33).with_check());
    let doomed = Kernel::new(&sim, "doomed").host();
    let steady = Kernel::new(&sim, "steady").host();
    let ahead = Kernel::new(&sim, "ahead").host();
    let diary = Diary::default();
    let mut dead: Vec<SharedSema> = Vec::new();
    let note = |who: u64, d: &Diary, ctx: &Ctx| d.borrow_mut().push((who, "resumed", ctx.now()));
    for who in 0..4 {
        let d = Rc::clone(&diary);
        sim.spawn(doomed, move |ctx| {
            ctx.sleep(DOOMED_NAP + who);
            note(who, &d, ctx);
        });
    }
    for who in 10..14 {
        let (s, d) = (SharedSema::labeled(0, "dead.p"), Rc::clone(&diary));
        dead.push(s.clone());
        sim.spawn(doomed, move |ctx| {
            s.p(ctx);
            note(who, &d, ctx);
        });
    }
    for who in 20..24 {
        let (s, d) = (SharedSema::labeled(0, "dead.p_timeout"), Rc::clone(&diary));
        dead.push(s.clone());
        sim.spawn(doomed, move |ctx| {
            s.p_timeout(ctx, 2 * CRASH);
            note(who, &d, ctx);
        });
    }
    // Their timers sit on the steady host, which does not crash: one is
    // signalled before it fires, one fires first.
    for (who, timeout) in [(30, 2 * SIGNAL), (31, REFILL)] {
        let (s, d) = (SharedSema::labeled(0, "dead.elsewhere"), Rc::clone(&diary));
        dead.push(s.clone());
        sim.spawn(doomed, move |ctx| {
            s.p_timeout(&ctx.with_host(steady), timeout);
            note(who, &d, ctx);
        });
    }
    let late = SharedSema::labeled(0, "late");
    {
        let (s, d) = (late.clone(), Rc::clone(&diary));
        sim.spawn(doomed, move |ctx| {
            s.p(ctx);
            note(40, &d, ctx);
        });
    }
    // Its wake is due after the refill: the slot stays its until then.
    sim.spawn(ahead, move |ctx| {
        ctx.sleep(CRASH);
        ctx.charge(REFILL);
        late.v(ctx);
    });
    for who in 50..62 {
        let sema = match who % 3 {
            0 => None,
            1 => Some((SharedSema::labeled(0, "dead.wait"), None)),
            _ => Some((SharedSema::labeled(0, "dead.wait_timeout"), Some(2 * CRASH))),
        };
        dead.extend(sema.iter().map(|(s, _)| s.clone()));
        let diary = Rc::clone(&diary);
        let m = Doomed {
            who,
            sema,
            diary,
            parked: false,
        };
        sim.spawn_vproc(doomed, Box::new(m));
    }
    sim.crash_at(CRASH, doomed);
    sim.restart_at(RESTART, doomed);
    let d = Rc::clone(&diary);
    sim.spawn(steady, move |ctx| {
        // Machines whose start falls after the crash: its purge drops them.
        ctx.sleep(CRASH - 100_000);
        ctx.charge(200_000);
        for who in 70..74 {
            let m = Fresh {
                who,
                nap: 1,
                diary: Rc::clone(&d),
                started: false,
            };
            ctx.spawn_vproc_on(doomed, Box::new(m));
        }
        ctx.sleep(REFILL - ctx.now());
        for who in 100..100 + FRESH {
            let m = Fresh {
                who,
                nap: FRESH_NAP + 1_000 * (who - 100),
                diary: Rc::clone(&d),
                started: false,
            };
            ctx.spawn_vproc_on(doomed, Box::new(m));
        }
        // On the doomed host itself, so that no V crosses a host.
        ctx.sleep(SIGNAL - ctx.now());
        ctx.spawn_on(doomed, move |ctx| {
            for s in &dead {
                s.v(ctx);
            }
        });
    });
    let report = sim.run_until_idle();
    let check = sim.check_report();
    let diary = diary.borrow().clone();
    (report, check, diary)
}

/// A crash frees the slots of everything its host held — sleepers, waiters
/// timed and untimed, coroutines and machines, machines not yet started —
/// except those a key still names (a wake filed between the crash and the
/// reaping, a timer armed on another host), and fresh machines take them
/// over. None of the dead's keys reaches a new tenant: every fresh machine
/// starts once and wakes once, exactly when its own sleep ends, and no dead
/// process resumes. Signalling the dead waiters afterwards wakes nobody. The
/// schedule, the end time and the checker's whole report are the ones the
/// engine made when every wake and start was an event of its own.
#[test]
fn a_crash_frees_slots_that_fresh_processes_take_without_meeting_old_keys() {
    let (report, check, diary) = crash_and_refill();
    assert!(
        diary.iter().all(|&(who, _, _)| who >= 100),
        "a dead process ran: {diary:?}"
    );
    for who in 100..100 + FRESH {
        let mine: Vec<_> = diary.iter().filter(|e| e.0 == who).collect();
        let [(_, "started", start), (_, "woke", woke)] = mine[..] else {
            panic!("machine {who} started and woke once each: {mine:?}");
        };
        let due = start + FRESH_NAP + 1_000 * (who - 100);
        assert!(*woke >= due, "machine {who} woke at {woke}, before {due}");
    }
    assert_eq!(report.blocked, 0);
    assert_eq!(report.hosts[0].crashes, 1);
    assert_eq!(report.hosts[0].restarts, 1);
    // Pinned from the engine that filed every start and wake as an event
    // of its own.
    assert_eq!(report.sched_hash, 4_914_112_504_425_303_200);
    assert_eq!(report.ended_at, 100_439_000);
    assert_eq!(report.events, 136);
    assert_eq!(report.peak_live, 42);
    assert_eq!(
        format!("{check:?}"),
        "CheckReport { enabled: true, violations: [Violation { kind: CrossHostSignal, \
         lp: 14, host: 0, sema: Some(\"late\"), cycle: [], event_index: 31, \
         time: 20000000, detail: \"semaphore 'late' V'd from host2 wakes lp14 on host0: \
         cross-host shared-memory signalling that real machines cannot perform\" }], \
         lps: 72, semas: 19 }"
    );
}
