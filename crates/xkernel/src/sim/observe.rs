//! The observer seam: what the engine tells an observer ([`Probe`]), the
//! observers it tells ([`Observers`]: the tracer, the checker, the journal)
//! and what [`Sim`] and [`Ctx`] read back from them. A probe site is one call:
//! an inlined guard (one load of [`SimCore::observing`] and a branch)
//! in front of one out-of-line dispatch. No other module of `sim` names an
//! observer's state; a new consumer is one more arm here.

use std::cell::Cell;

use crate::check::{CheckCore, CheckReport};
use crate::journal::{Journal, JournalRecord, JOURNAL_VERSION};
use crate::proto::ProtoId;
use crate::trace::{
    breakdown_of, folded_of, CostBreakdown, Event, EventKind, FoldedLine, OpClass, SpanKey,
    TraceCore,
};

use super::handle::kernels_of;
use super::*;

/// What happened, as the engine tells its observers: exactly the events the
/// tracer, the checker and the journal consume. `lp` is a process id; `t` and
/// `now` read a host's clock after the event.
#[derive(Clone, Copy)]
pub(crate) enum Probe {
    /// `(index, t)`: the scheduler popped its `index`th event, due at `t`.
    Event(u64, Time),
    /// `(lp, host, idle, now)`: a Run event started `lp`; `host`'s clock jumped `idle`.
    Start(u64, HostId, Nanos, Time),
    /// `(lp, host, idle, switch, now, took)`: blocked `lp` resumed after `idle`, paying `switch`;
    /// `took` says it was woken, not timed out: a semaphore wait it concludes took a unit.
    Resume(u64, HostId, Nanos, Nanos, Time, bool),
    /// `(lp)`: a wake found `lp` gone or not blocked.
    StaleWake(u64),
    /// `(lp)`: `lp` was killed (crash, fuel, discard): late signals to it are expected.
    Kill(u64),
    /// `(lp)`: `lp` left the process table.
    Finish(u64),
    /// `(lp, host, sema, label)`: a P took a free unit.
    Acquire(Option<u64>, HostId, u64, Label),
    /// `(lp, host, sema, label)`: `lp` queued on `sema` and is about to block.
    WaitBegin(u64, HostId, u64, Label),
    /// `(lp, host, sema, label, woken)`: a V, handing the unit to `woken` if one waited.
    Release(Option<u64>, HostId, u64, Label, Option<u64>),
    /// `(host, key, class, ns, t)`: `ns` of `class` landed on `key`'s span stack.
    Charge(HostId, SpanKey, OpClass, Nanos, Time),
    /// `(host, key, proto, kind, len)`: a `kind` crossing of `len` bytes entered `proto`.
    SpanPush(HostId, SpanKey, ProtoId, EventKind, u64),
    /// `(key)`: the innermost layer on `key`'s span stack was left.
    SpanPop(SpanKey),
    /// `(host, key, kind, len)`: an annotation or a `len`-byte header, in `key`'s top layer.
    Note(HostId, SpanKey, EventKind, u64),
    /// A nondeterminism-relevant decision: a tie pick, a realized wire fault, a boot.
    Decision(JournalRecord),
}

/// The [`SimCore::observing`] bit of each observer.
const TRACE: u8 = 1;
const CHECK: u8 = 1 << 1;
const JOURNAL: u8 = 1 << 2;

impl Probe {
    /// The observers that consume this probe (a constant where it is built).
    #[inline]
    fn audience(&self) -> u8 {
        use Probe::*;
        match self {
            Start(..) | Resume(..) | Finish(_) => TRACE | CHECK,
            Charge(..) | SpanPush(..) | SpanPop(_) | Note(..) => TRACE,
            Event(..) | StaleWake(_) | Kill(_) => CHECK,
            Acquire(..) | WaitBegin(..) | Release(..) => CHECK,
            Decision(_) => JOURNAL,
        }
    }
}

/// The [`SimCore::observing`] mask a simulation starts with: trace and check
/// as configured, for good; the journal off until [`Sim::journal_enable`].
pub(super) fn mask_for(cfg: &SimConfig) -> Cell<u8> {
    Cell::new((if cfg.trace { TRACE } else { 0 }) | (if cfg.check { CHECK } else { 0 }))
}

impl SimCore {
    /// Whether an observer among `bits` is on: one load and a test.
    #[inline]
    fn observing(&self, bits: u8) -> bool {
        self.observing.get() & bits != 0
    }

    /// Whether the journal records: a journaled run files every tie pick.
    #[inline]
    pub(super) fn journaling(&self) -> bool {
        self.observing(JOURNAL)
    }

    /// Tells the observers what `p` builds, from code not holding the engine:
    /// `p` runs for its variant (a constant) and again only behind the guard,
    /// so a probe no observer hears builds nothing and enters no cell.
    #[inline]
    pub(super) fn probe(&self, p: impl Fn() -> Probe) {
        if self.observing(p().audience()) {
            self.probe_entering(p());
        }
    }

    /// [`SimCore::probe`] for a probe naming a semaphore, whose id only the
    /// checker reads and is drawn the first time one is named: `id` runs
    /// behind the guard only, and the variant is built with a placeholder.
    #[inline]
    pub(super) fn probe_sema(&self, id: impl FnOnce() -> u64, p: impl Fn(u64) -> Probe) {
        if self.observing(p(0).audience()) {
            self.probe_entering(p(id()));
        }
    }

    #[cold]
    #[inline(never)]
    fn probe_entering(&self, p: Probe) {
        self.engine.lock().observers.dispatch(self, p);
    }

    /// Turns journal recording on or off; trace and check stay as built.
    fn set_journaling(&self, on: bool) {
        let bit = if on { JOURNAL } else { 0 };
        let rest = self.observing.get() & !JOURNAL;
        self.observing.set(rest | bit);
    }
}

/// The observers' state, in the engine's cell. The engine reaches it by
/// probe; what reads it back is in this module.
#[derive(Default)]
pub(super) struct Observers {
    trace: TraceCore,
    check: CheckCore,
    journal: Vec<JournalRecord>,
}

impl Observers {
    /// [`SimCore::probe`], from code that holds the engine.
    #[inline]
    pub(super) fn probe(&mut self, core: &SimCore, p: impl Fn() -> Probe) {
        if core.observing(p().audience()) {
            self.dispatch(core, p());
        }
    }

    /// The one dispatch: every observer that is on takes the probes it
    /// consumes.
    #[cold]
    #[inline(never)]
    fn dispatch(&mut self, core: &SimCore, p: Probe) {
        let on = core.observing.get() & p.audience();
        if on & TRACE != 0 {
            // Inline mode charges nothing, so its clocks stay at 0.
            self.trace.observe(p, |host| core.host(host).cpu.get());
        }
        if on & CHECK != 0 {
            self.check.observe(p);
        }
        if let (true, Probe::Decision(record)) = (on & JOURNAL != 0, p) {
            self.journal.push(record);
        }
    }

    /// The per-layer cost ledger (empty unless tracing is on).
    pub(super) fn breakdown(&self, core: &SimCore) -> CostBreakdown {
        if !core.observing(TRACE) {
            return CostBreakdown::default();
        }
        breakdown_of(&self.trace, &kernels_of(core))
    }

    pub(super) fn journal_len(&self) -> usize {
        self.journal.len()
    }

    pub(super) fn journal_truncate(&mut self, len: usize) {
        self.journal.truncate(len);
    }
}

impl Sim {
    /// Whether structured tracing is enabled for this simulation.
    pub fn trace_enabled(&self) -> bool {
        self.core.observing(TRACE)
    }

    /// All recorded trace events, host-major in arrival order (empty
    /// unless tracing was enabled). Rings are bounded; old events are
    /// dropped first.
    pub fn trace_events(&self) -> Vec<Event> {
        self.core.engine.lock().observers.trace.events()
    }

    /// The protocol-reported annotations among the trace events, with the
    /// host each was noted on (replaces the old string trace lines).
    pub fn trace_notes(&self) -> Vec<(HostId, &'static str)> {
        self.trace_events()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::Note(n) => Some((e.host, n)),
                _ => None,
            })
            .collect()
    }

    /// The per-layer cost ledger accumulated so far (empty unless tracing
    /// was enabled).
    pub fn cost_breakdown(&self) -> CostBreakdown {
        self.core.engine.lock().observers.breakdown(&self.core)
    }

    /// Flamegraph-compatible folded-stack lines for the ledger accumulated
    /// so far, deterministically sorted.
    pub fn folded(&self) -> Vec<FoldedLine> {
        let g = self.core.engine.lock();
        folded_of(&g.observers.trace, &kernels_of(&self.core))
    }

    /// Whether the concurrency checker is enabled for this simulation.
    pub fn check_enabled(&self) -> bool {
        self.core.observing(CHECK)
    }

    /// The checker's findings. Runs the wait-for-graph scan over processes
    /// still blocked right now, so call it after [`Sim::run_until_idle`]
    /// (a blocked process mid-run is not yet a deadlock). Returns a
    /// default (disabled) report when checking is off.
    pub fn check_report(&self) -> CheckReport {
        if !self.check_enabled() {
            return CheckReport::default();
        }
        let g = self.core.engine.lock();
        let mut blocked: Vec<u64> = g.blocked().collect();
        blocked.sort_unstable();
        g.observers.check.report(&blocked)
    }

    /// Starts journal recording (see [`crate::journal`]), discarding any
    /// previously recorded decisions. Costs one load per potential decision
    /// when off.
    pub fn journal_enable(&self) {
        self.core.engine.lock().observers.journal.clear();
        self.core.set_journaling(true);
    }

    /// Stops recording and returns the journal, stamped with this
    /// simulation's seed and the schedule fingerprint accumulated so far —
    /// the cross-check a replay must reproduce.
    pub fn journal_take(&self) -> Journal {
        self.core.set_journaling(false);
        let mut g = self.core.engine.lock();
        Journal {
            version: JOURNAL_VERSION,
            seed: self.seed(),
            sched_hash: g.sched_hash,
            records: std::mem::take(&mut g.observers.journal),
        }
    }
}

impl Ctx {
    /// Whether structured tracing is enabled.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.core.observing(TRACE)
    }

    /// The per-layer cost ledger accumulated so far (empty unless tracing
    /// is enabled). Callable mid-run from inside a shepherd process, which
    /// is race-free in scheduled mode (one process runs at a time).
    pub fn cost_breakdown(&self) -> CostBreakdown {
        self.core.engine.lock().observers.breakdown(&self.core)
    }

    /// Clears the event rings and the cost ledger (live span stacks
    /// survive, so in-flight call chains stay attributed). Benchmarks call
    /// this after warmup to scope the ledger to the measured window.
    pub fn trace_clear(&self) {
        self.core.engine.lock().observers.trace.clear();
    }
}
