//! Small, fully-enumerable concurrency scenarios.
//!
//! Three toys exercise the checker end to end:
//!
//! * **handshake** — the acceptance scenario: three processes on one host
//!   chained through two semaphores (`lp0` signals `A`, `lp1` consumes
//!   `A` and signals `B`, `lp2` consumes `B`). Its schedule space is
//!   exactly the interleavings of the three spawns (3 · 2 = 6), small
//!   enough to visit exhaustively and prove the invariants on every one.
//! * **deadlock** — two toy *protocols* (`dl_ab`, `dl_ba`) whose boot
//!   processes acquire the same two mutex-style semaphores in opposite
//!   orders. The graph spec (`specs/bad/deadlock-toy.xk`) is rejected
//!   statically by XK015 (conflicting lock orders); built unchecked, it
//!   deadlocks on *every* schedule, and the wait-for-graph scan reports
//!   the exact cycle with a replayable repro string.
//! * **crosshost** — a semaphore shared across two simulated hosts, V'd
//!   on one and awaited on the other: the un-synchronized cross-host
//!   signal the checker flags as `CrossHostSignal`.

use std::any::Any;
use std::cell::Cell;
use std::rc::Rc;

use xkernel::check::{CheckReport, Violation, ViolationKind};
use xkernel::graph::{GraphArgs, ProtocolRegistry};
use xkernel::lint::{AddrKind, BlockPoint, ProtoContract};
use xkernel::prelude::*;
use xkernel::sim::{ScheduleChooser, SimConfig};

/// How long each deadlock-toy process sleeps between its first and second
/// acquire — long enough that both processes hold their first semaphore
/// before either attempts its second, on every schedule.
const DL_SLEEP_NS: u64 = 1_000_000;

/// The deliberately deadlocking two-protocol graph; kept in
/// `specs/bad/deadlock-toy.xk` for the lint suite, inlined here for the
/// dynamic runner (built with `build_unchecked` — the linter rejects it).
pub const DEADLOCK_TOY_GRAPH: &str = "ab: dl_ab\nba: dl_ba -> ab\n";

/// Outcome of one toy schedule: enough to assert invariants and replay.
pub struct ToyOutcome {
    /// Processes still blocked at drain.
    pub blocked: usize,
    /// Processes that ran to completion.
    pub done: usize,
    /// Scheduler events executed.
    pub events: u64,
    /// The schedule fingerprint.
    pub sched_hash: u64,
    /// The checker's full report.
    pub check: CheckReport,
    /// One repro string per violation, same order.
    pub repros: Vec<String>,
}

fn outcome(sim: &Sim, run: xkernel::sim::RunReport, done: usize) -> ToyOutcome {
    let check = sim.check_report();
    let repros = check.violations.iter().map(|v| sim.repro(v)).collect();
    ToyOutcome {
        blocked: run.blocked,
        done,
        events: run.events,
        sched_hash: run.sched_hash,
        check,
        repros,
    }
}

/// Runs the 3-process / 2-semaphore handshake under `chooser` (or the
/// default insertion-order schedule). Every schedule must complete with
/// no violations.
pub fn run_handshake(seed: u64, chooser: Option<Box<dyn ScheduleChooser>>) -> ToyOutcome {
    let sim = Sim::new(SimConfig::scheduled().with_seed(seed).with_check());
    let kernel = Kernel::new(&sim, "toy");
    let host = kernel.host();
    if let Some(ch) = chooser {
        sim.set_chooser(ch);
    }
    let a = SharedSema::labeled(0, "A");
    let b = SharedSema::labeled(0, "B");
    let done = Rc::new(Cell::new(0));
    {
        let (a, done) = (a.clone(), Rc::clone(&done));
        sim.spawn(host, move |ctx| {
            a.v(ctx);
            done.set(done.get() + 1);
        });
    }
    {
        let (a, b, done) = (a.clone(), b.clone(), Rc::clone(&done));
        sim.spawn(host, move |ctx| {
            a.p(ctx);
            b.v(ctx);
            done.set(done.get() + 1);
        });
    }
    {
        let (b, done) = (b.clone(), Rc::clone(&done));
        sim.spawn(host, move |ctx| {
            b.p(ctx);
            done.set(done.get() + 1);
        });
    }
    let run = sim.run_until_idle();
    outcome(&sim, run, done.get())
}

/// Runs the cross-host toy: a process on host 1 V's the semaphore a
/// process on host 0 is blocked on. Completes on every schedule, but the
/// checker must report exactly one `CrossHostSignal`.
pub fn run_crosshost(seed: u64, chooser: Option<Box<dyn ScheduleChooser>>) -> ToyOutcome {
    let sim = Sim::new(SimConfig::scheduled().with_seed(seed).with_check());
    let k0 = Kernel::new(&sim, "toy-a");
    let k1 = Kernel::new(&sim, "toy-b");
    if let Some(ch) = chooser {
        sim.set_chooser(ch);
    }
    let shared = SharedSema::labeled(0, "shared");
    let done = Rc::new(Cell::new(0));
    {
        let (s, done) = (shared.clone(), Rc::clone(&done));
        sim.spawn(k0.host(), move |ctx| {
            s.p(ctx);
            done.set(done.get() + 1);
        });
    }
    {
        let (s, done) = (shared.clone(), Rc::clone(&done));
        sim.spawn(k1.host(), move |ctx| {
            // Give the waiter time to block, so the V crosses hosts as a
            // wake rather than a count increment on every schedule.
            ctx.sleep(DL_SLEEP_NS);
            s.v(ctx);
            done.set(done.get() + 1);
        });
    }
    let run = sim.run_until_idle();
    outcome(&sim, run, done.get())
}

/// Runs the deadlock toy graph (built unchecked — the linter rejects it
/// via XK015) and returns the outcome; on every schedule both boot
/// processes end blocked and the scan reports the two-semaphore cycle.
pub fn run_deadlock_spec(seed: u64, chooser: Option<Box<dyn ScheduleChooser>>) -> ToyOutcome {
    let sim = Sim::new(SimConfig::scheduled().with_seed(seed).with_check());
    let kernel = Kernel::new(&sim, "dl");
    let mut reg = ProtocolRegistry::new();
    register_ctors(&mut reg);
    reg.build_unchecked(&sim, &kernel, DEADLOCK_TOY_GRAPH)
        .expect("deadlock toy graph builds");
    if let Some(ch) = chooser {
        sim.set_chooser(ch);
    }
    let run = sim.run_until_idle();
    outcome(&sim, run, 0)
}

/// The deadlock cycles in `out`, if any.
pub fn deadlock_cycles(out: &ToyOutcome) -> Vec<&Violation> {
    out.check
        .violations
        .iter()
        .filter(|v| v.kind == ViolationKind::DeadlockCycle)
        .collect()
}

/// Registers the deadlock-toy constructors and contracts (`dl_ab`,
/// `dl_ba`) into `reg`, so graph specs and the lint suite can name them.
pub fn register_ctors(reg: &mut ProtocolRegistry) {
    reg.add("dl_ab", |g: &GraphArgs<'_>| {
        Ok(Rc::new(DlAb {
            me: g.me,
            sem_a: SharedSema::labeled(1, "dl.sem_a"),
            sem_b: SharedSema::labeled(1, "dl.sem_b"),
        }) as ProtocolRef)
    });
    reg.add_contract(dl_ab_contract());
    reg.add("dl_ba", |g: &GraphArgs<'_>| {
        let below = g.kernel.proto_ref(g.down(0)?)?;
        let below: &dyn Any = &**below;
        let ab = below
            .downcast_ref::<DlAb>()
            .ok_or(XError::Unsupported("dl_ba must sit directly over dl_ab"))?;
        Ok(Rc::new(DlBa {
            me: g.me,
            sem_a: ab.sem_a.clone(),
            sem_b: ab.sem_b.clone(),
        }) as ProtocolRef)
    });
    reg.add_contract(dl_ba_contract());
}

/// Contract for `dl_ab`: declares lock order `dl.sem_a` before
/// `dl.sem_b`.
pub fn dl_ab_contract() -> ProtoContract {
    ProtoContract::new("dl_ab", AddrKind::Rpc)
        .blocks(&[BlockPoint::Sema])
        .locks(&["dl.sem_a", "dl.sem_b"])
}

/// Contract for `dl_ba`: the *opposite* order — merged with `dl_ab`'s,
/// the relation is cyclic and XK015 rejects any spec composing both.
pub fn dl_ba_contract() -> ProtoContract {
    ProtoContract::new("dl_ba", AddrKind::Rpc)
        .lower(&[AddrKind::Rpc])
        .blocks(&[BlockPoint::Sema])
        .locks(&["dl.sem_b", "dl.sem_a"])
}

/// Toy protocol whose boot process acquires `dl.sem_a` then `dl.sem_b`.
/// Owns the semaphore pair; `dl_ba` shares it by sitting above.
pub struct DlAb {
    me: ProtoId,
    sem_a: SharedSema,
    sem_b: SharedSema,
}

/// Toy protocol whose boot process acquires the pair in the *opposite*
/// order — the classic AB/BA deadlock.
pub struct DlBa {
    me: ProtoId,
    sem_a: SharedSema,
    sem_b: SharedSema,
}

fn deadlock_process(first: SharedSema, second: SharedSema) -> impl FnOnce(&Ctx) + 'static {
    move |ctx: &Ctx| {
        first.p(ctx);
        // Hold the first semaphore across a sleep so the peer process is
        // guaranteed to hold its own first semaphore too.
        ctx.sleep(DL_SLEEP_NS);
        second.p(ctx);
        // Unreachable when the peer is composed: both processes block on
        // their second acquire. Kept for the single-protocol case.
        second.v(ctx);
        first.v(ctx);
    }
}

impl Protocol for DlAb {
    fn name(&self) -> &'static str {
        "dl_ab"
    }

    fn id(&self) -> ProtoId {
        self.me
    }

    fn open(&self, _ctx: &Ctx, _upper: ProtoId, _parts: &ParticipantSet) -> XResult<SessionRef> {
        Err(XError::Unsupported("deadlock toy has no sessions"))
    }

    fn open_enable(&self, _ctx: &Ctx, _upper: ProtoId, _parts: &ParticipantSet) -> XResult<()> {
        Err(XError::Unsupported("deadlock toy has no sessions"))
    }

    fn demux(&self, _ctx: &Ctx, _lls: &SessionRef, _msg: Message) -> XResult<()> {
        Err(XError::Unsupported("deadlock toy has no traffic"))
    }

    fn boot(&self, ctx: &Ctx) -> XResult<()> {
        let f = deadlock_process(self.sem_a.clone(), self.sem_b.clone());
        ctx.spawn_on(ctx.host(), f);
        Ok(())
    }

    fn contract(&self) -> ProtoContract {
        dl_ab_contract()
    }
}

impl Protocol for DlBa {
    fn name(&self) -> &'static str {
        "dl_ba"
    }

    fn id(&self) -> ProtoId {
        self.me
    }

    fn open(&self, _ctx: &Ctx, _upper: ProtoId, _parts: &ParticipantSet) -> XResult<SessionRef> {
        Err(XError::Unsupported("deadlock toy has no sessions"))
    }

    fn open_enable(&self, _ctx: &Ctx, _upper: ProtoId, _parts: &ParticipantSet) -> XResult<()> {
        Err(XError::Unsupported("deadlock toy has no sessions"))
    }

    fn demux(&self, _ctx: &Ctx, _lls: &SessionRef, _msg: Message) -> XResult<()> {
        Err(XError::Unsupported("deadlock toy has no traffic"))
    }

    fn boot(&self, ctx: &Ctx) -> XResult<()> {
        let f = deadlock_process(self.sem_b.clone(), self.sem_a.clone());
        ctx.spawn_on(ctx.host(), f);
        Ok(())
    }

    fn contract(&self) -> ProtoContract {
        dl_ba_contract()
    }
}
