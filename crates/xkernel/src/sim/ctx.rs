//! [`Ctx`]: what a protocol operation sees of the simulator — the clock,
//! charging, timers, spawning and the blocking primitives.

use std::panic::panic_any;
use std::rc::Rc;
use std::sync::Arc;

use crate::cost::CostModel;
use crate::error::{Reject, XResult};
use crate::journal::JournalRecord;
use crate::kernel::Kernel;
use crate::msg::{Message, Popped};
use crate::proto::ProtoId;
use crate::trace::{EventKind, OpClass, SpanKey};
use crate::vproc;

use super::engine::{
    machine_fuel, narrow, CrashKill, EngineGuard, EvKind, FuelKill, Job, RunState, NO_TIMER,
    RESUME_KILLED, RESUME_NORMAL, RESUME_TIMEOUT,
};
use super::report::{bump, HostCell};
use super::*;

/// Execution context handed to every protocol operation: identifies the
/// current host and (in scheduled mode) the current shepherd process, and
/// provides time, charging, timers, and spawning.
#[derive(Clone)]
pub struct Ctx {
    pub(super) core: Rc<SimCore>,
    pub(super) host: HostId,
    /// `host`'s cell, resolved when the context is made or re-aimed, so a
    /// charge, a clock read or a kernel borrow is a load through it and not
    /// a host-table lookup. `None` while `host` has no kernel registered
    /// (the driver of a simulation with no host yet); [`Ctx::cell`] then
    /// looks it up.
    pub(super) cell: Option<Rc<HostCell>>,
    pub(super) lp: Option<LpId>,
}

impl Ctx {
    /// The host this context executes on.
    #[inline]
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Execution mode.
    #[inline]
    pub fn mode(&self) -> Mode {
        self.core.mode
    }

    /// The cost model in effect.
    #[inline]
    pub fn cost(&self) -> &CostModel {
        &self.core.cost
    }

    /// A shared handle to the kernel of the current host. Kept because
    /// `benchmark/` (which this repository's changes may not edit) calls it
    /// from its client bodies; protocols crossing a layer use
    /// [`Ctx::kernel_ref`], which touches no reference count.
    pub fn kernel(&self) -> Arc<Kernel> {
        Arc::clone(&self.cell().kernel)
    }

    /// The kernel of the current host, borrowed: what every layer crossing
    /// (`ctx.kernel_ref().demux_to(..)`, `.open(..)`, `.control(..)`) goes
    /// through, touching no reference count.
    #[inline]
    pub fn kernel_ref(&self) -> &Kernel {
        &self.cell().kernel
    }

    /// The kernel of another host.
    pub fn kernel_of(&self, host: HostId) -> Arc<Kernel> {
        Arc::clone(&self.core.host(host).kernel)
    }

    /// This context's host cell.
    #[inline]
    pub(super) fn cell(&self) -> &HostCell {
        match &self.cell {
            Some(cell) => cell,
            None => self.core.host(self.host),
        }
    }

    /// This context re-bound to another host (used by the inline network to
    /// continue the call chain on the destination kernel).
    #[inline]
    pub fn with_host(&self, host: HostId) -> Ctx {
        Ctx {
            core: Rc::clone(&self.core),
            host,
            cell: self.core.hosts.get(host.0).cloned(),
            lp: self.lp,
        }
    }

    /// Points this context at `host`, resolving its cell.
    #[inline]
    pub(super) fn aim(&mut self, host: HostId) {
        self.host = host;
        self.cell = self.core.hosts.get(host.0).cloned();
    }

    /// Current virtual time of this host's CPU (0 in inline mode).
    #[inline]
    pub fn now(&self) -> Time {
        if self.core.mode == Mode::Inline {
            return 0;
        }
        self.cell().cpu.get()
    }

    /// Charges `ns` of virtual CPU time to this host as unclassified
    /// protocol work. No-op in inline mode. Touches only the host's clock
    /// and fuel cells: no lock, no event queue.
    #[inline]
    pub fn charge(&self, ns: Nanos) {
        self.charge_class(OpClass::Compute, ns);
    }

    /// Charges `ns` of virtual CPU time to this host, attributed (when
    /// tracing is on) to the active layer under the given operation class.
    /// Every charge is also one fuel unit: the deterministic budget a
    /// [`SimConfig::with_fuel`] simulation kills runaway processes by.
    #[inline]
    pub fn charge_class(&self, class: OpClass, ns: Nanos) {
        if self.charges(ns) {
            self.charge_landed(class, ns);
        }
    }

    /// Whether a charge of `ns` lands: inline mode keeps no clock, and a
    /// zero charge is no charge. This guard is all a caller in another
    /// crate pays when the answer is no.
    #[inline]
    fn charges(&self, ns: Nanos) -> bool {
        self.core.mode == Mode::Scheduled && ns != 0
    }

    /// A charge that lands: clock, then fuel. Out of line, so that the
    /// guard in front of it is what gets inlined.
    #[inline(never)]
    fn charge_landed(&self, class: OpClass, ns: Nanos) {
        self.charge_clock(class, ns);
        self.fuel_tick();
    }

    /// The clock half of a charge that lands: advances the host clock and
    /// the host's fuel tally and attributes the time. The process then owes
    /// a [`Ctx::fuel_tick`]. Forced inline: the probe's (cold) branch would
    /// otherwise make it a call of its own on every landed charge.
    #[inline(always)]
    fn charge_clock(&self, class: OpClass, ns: Nanos) {
        let h = self.cell();
        bump(&h.fuel, 1);
        let t = bump(&h.cpu, ns);
        let charge = || Probe::Charge(self.host, self.span_key(), class, ns, t);
        self.core.probe(charge);
    }

    /// The fuel half of a charge: burns one unit of the running coroutine's
    /// budget and kills the process on the tick that exhausts it. Raised
    /// only after the charge has landed and with no lock held, so the kill
    /// point is clean.
    #[inline]
    fn fuel_tick(&self) {
        if self.core.fuel_limit.is_some() && vproc::fuel_tick() {
            panic_any(FuelKill);
        }
    }

    /// The span-stack key of this context: its shepherd process, or the
    /// host's setup stack outside any process.
    #[inline]
    fn span_key(&self) -> SpanKey {
        match self.lp {
            Some(lp) => SpanKey::Lp(lp.id),
            None => SpanKey::Host(self.host.0),
        }
    }

    /// Records a robustness event against this context's host. The per-host
    /// tallies surface in [`RunReport::hosts`].
    pub fn note(&self, ev: RobustEvent) {
        let Some(h) = self.core.hosts.get(self.host.0) else {
            return;
        };
        let tally = match ev {
            RobustEvent::Retransmit => &h.retransmits,
            RobustEvent::DuplicateSuppressed => &h.duplicates_suppressed,
            RobustEvent::TimeoutFired => &h.timeouts_fired,
        };
        bump(tally, 1);
    }

    /// Counts a frame `proto` refused in its host's row for `(proto, why)`
    /// and notes the reason in the trace: the demux seam's half of a
    /// [`Reject`] (see [`crate::proto::TracedProtocol`]).
    #[cold]
    #[inline(never)]
    pub(crate) fn refused(&self, proto: ProtoId, why: Reject) {
        self.trace_note(why.why());
        let mut rows = self.cell().rejects.lock();
        match rows.iter_mut().find(|r| (r.0, r.1) == (proto, why)) {
            Some(row) => row.2 += 1,
            None => rows.push((proto, why, 1)),
        }
    }

    /// This host's boot incarnation: 0 at first boot, bumped on every
    /// [`Sim::restart`].
    pub fn boot_epoch(&self) -> u32 {
        self.core
            .hosts
            .get(self.host.0)
            .map_or(0, |h| h.epoch.get())
    }

    /// Charges the cost of crossing one protocol layer. The kernel's demux
    /// choke point calls this; protocols call it for their downward calls.
    #[inline]
    pub fn charge_layer_call(&self) {
        self.charge_class(OpClass::LayerCall, self.core.cost.layer_call);
    }

    /// Creates a message holding `payload` under the simulation's
    /// header-buffer policy. Protocols create every outgoing message this
    /// way so the policy ablation governs the whole system.
    #[inline]
    pub fn msg(&self, payload: Vec<u8>) -> Message {
        Message::from_user_with(self.core.policy, payload)
    }

    /// Creates an empty message under the simulation's header policy.
    #[inline]
    pub fn empty_msg(&self) -> Message {
        Message::empty_with(self.core.policy)
    }

    /// Pushes a header onto `msg`, charging for the bytes touched and for
    /// any allocation the message's [`crate::msg::HeaderPolicy`] incurred.
    #[inline]
    pub fn push_header(&self, msg: &mut Message, header: &[u8]) {
        let stats = msg.push_header(header);
        if self.core.mode == Mode::Scheduled {
            let c = &self.core.cost;
            self.charge_class(OpClass::Header, header.len() as u64 * c.header_byte);
            self.charge_class(OpClass::Copy, stats.copied as u64 * c.copy_byte);
            if stats.allocated {
                self.charge_class(OpClass::Alloc, c.alloc);
            }
        }
        self.trace_event(EventKind::Header, header.len() as u64);
    }

    /// Pops an `n`-byte header from `msg`, charging for the bytes touched.
    #[inline]
    pub fn pop_header<'m>(&self, msg: &'m mut Message, n: usize) -> XResult<Popped<'m>> {
        if self.core.mode == Mode::Scheduled {
            let c = &self.core.cost;
            self.charge_class(OpClass::Header, n as u64 * c.header_byte);
        }
        let popped = msg.pop_header(n)?;
        if self.core.mode == Mode::Scheduled {
            let copied = popped.stats().copied as u64;
            self.charge_class(OpClass::Copy, copied * self.core.cost.copy_byte);
        }
        self.trace_event(EventKind::Header, n as u64);
        Ok(popped)
    }

    /// Spawns a shepherd process on `host` at the current time.
    pub fn spawn_on(&self, host: HostId, f: impl FnOnce(&Ctx) + 'static) {
        match self.core.mode {
            Mode::Inline => {
                let ctx = self.with_host(host);
                f(&ctx);
            }
            Mode::Scheduled => {
                let t = self.event_time();
                self.schedule_run_at(t, host, Box::new(f));
            }
        }
    }

    /// The timestamp outgoing actions of this context carry: the host CPU
    /// clock when inside a process, else the global event clock.
    #[inline]
    pub fn event_time(&self) -> Time {
        let cpu = self.cell().cpu.get();
        if self.lp.is_some() {
            // Inside a process the host clock alone decides.
            cpu
        } else {
            cpu.max(self.core.now.get())
        }
    }

    /// Spawns a stackless [`VProc`] machine as a shepherd process on
    /// `host` at the current time. Scheduled mode only (machines block by
    /// returning [`VStep`]s to the scheduler, which inline mode lacks).
    pub fn spawn_vproc_on(&self, host: HostId, m: Box<dyn VProc>) {
        assert_eq!(
            self.core.mode,
            Mode::Scheduled,
            "virtual-process machines require scheduled mode"
        );
        if self.accepts(host) {
            let t = self.event_time();
            let fuel = machine_fuel(self.core.fuel_limit);
            self.core.engine.lock().spawn_machine(t, host, m, fuel);
        }
    }

    /// Schedules `f` to run as a new shepherd process on `host` at absolute
    /// virtual time `t`. Scheduled mode only (inline callers use
    /// [`Ctx::spawn_on`]).
    pub fn schedule_run_at(&self, t: Time, host: HostId, f: Thunk) -> TimerHandle {
        self.file_job(t, host, Job::Body(f))
    }

    /// Files the delivery of `msg` to `rx` on `host` at absolute virtual
    /// time `t`: a new shepherd process there calls [`Receiver::receive`],
    /// as [`Ctx::schedule_run_at`] would run a body. Scheduled mode only.
    #[inline]
    pub fn deliver_at(
        &self,
        t: Time,
        host: HostId,
        rx: Rc<dyn Receiver>,
        msg: Message,
    ) -> TimerHandle {
        self.file_job(t, host, Job::Deliver(rx, msg))
    }

    /// Files `job` to start a process on `host` at `t`.
    #[inline]
    fn file_job(&self, t: Time, host: HostId, job: Job) -> TimerHandle {
        assert_eq!(
            self.core.mode,
            Mode::Scheduled,
            "absolute scheduling requires virtual time"
        );
        if !self.accepts(host) {
            return TimerHandle::NONE;
        }
        let host = narrow(host);
        self.core
            .engine
            .lock()
            .push_event(t, EvKind::Job { host, job })
    }

    /// Whether `host` takes new work. A crashed host arms no timers and
    /// accepts no deliveries; the work is silently dropped, exactly as its
    /// in-flight state was.
    fn accepts(&self, host: HostId) -> bool {
        !self.core.hosts.get(host.0).is_some_and(|h| h.down.get())
    }

    /// Arms a timer: after `dt` of virtual time, `f` runs as a new shepherd
    /// process on this host. In inline mode timers never fire and the
    /// returned handle is inert — protocols must therefore bound any state
    /// they would otherwise rely on a timer to reclaim.
    pub fn schedule_after(&self, dt: Nanos, f: impl FnOnce(&Ctx) + 'static) -> TimerHandle {
        if self.core.mode == Mode::Inline {
            return TimerHandle::NONE;
        }
        self.charge_class(OpClass::Timer, self.core.cost.timer_op);
        let t = self.event_time() + dt;
        self.schedule_run_at(t, self.host, Box::new(f))
    }

    /// Arms the timer a timed P of process `lp` on `sema` gives up by —
    /// after `dt`, as a new shepherd process on this host, as
    /// [`Ctx::schedule_after`] would — and records it in `lp`'s slot, under
    /// the same acquisition of the scheduler lock. Returns the timer's
    /// event-table slot, or [`NO_TIMER`] if this host armed none.
    pub(super) fn arm_timeout(&self, lp: LpId, dt: Nanos, sema: SharedSema) -> u32 {
        self.charge_class(OpClass::Timer, self.core.cost.timer_op);
        if !self.accepts(self.host) {
            return NO_TIMER;
        }
        let t = self.event_time() + dt;
        let mut g = self.core.engine.lock();
        g.arm_timeout(t, self.host, lp, sema)
    }

    /// Cancels a timer. Harmless if it already fired or is inert.
    pub fn cancel_timer(&self, h: TimerHandle) {
        if h == TimerHandle::NONE || self.core.mode == Mode::Inline {
            return;
        }
        self.charge_class(OpClass::Timer, self.core.cost.timer_op);
        self.core.engine.lock().cancel(h);
    }

    /// Blocks the current shepherd process until woken; returns why it woke.
    ///
    /// # Panics
    ///
    /// Panics in inline mode or outside a shepherd process: blocking there
    /// indicates either a lock-discipline violation or a workload that
    /// genuinely needs scheduled mode.
    pub(super) fn block_current(&self, how: Block) -> WakeReason {
        let lp = match (self.core.mode, self.lp) {
            (Mode::Scheduled, Some(lp)) => lp,
            (Mode::Inline, _) => panic!(
                "process would block in inline mode: the awaited event cannot \
                 occur (use scheduled mode for this workload)"
            ),
            (_, None) => panic!("blocking outside a shepherd process"),
        };
        let (g, charged) = self.block(&self.core, lp, RunState::Running, how);
        drop(g);
        if charged {
            // The switch charge's fuel tick, owed since `block` (a kill
            // here leaves the process marked blocked, which retiring it
            // ignores).
            self.fuel_tick();
        }
        // Suspend this stack; a driver's run loop picks the next event — the
        // one that called this body's thunk, or, if this is that driver's
        // stack, another that `Sim::run_until_time` starts. The next resume
        // lands right here, with the scheduler's verdict.
        match vproc::yield_now() {
            RESUME_NORMAL => WakeReason::Normal,
            RESUME_TIMEOUT => WakeReason::Timeout,
            // Host crashed while we were blocked: unwind this process;
            // `drive_coro` recognises the payload.
            RESUME_KILLED => panic_any(CrashKill),
            other => unreachable!("unknown resume token {other}"),
        }
    }

    /// The one blocking point, shared by coroutines ([`Ctx::sleep`],
    /// [`SharedSema::p`], [`SharedSema::p_timeout`]) and machines
    /// ([`VStep::Sleep`], [`VStep::Wait`]): pays the process switch, files
    /// the wake a sleep needs, marks `lp` blocked and releases the run
    /// token — under one acquisition of the scheduler lock, which it
    /// returns still held so the caller can park a machine's continuation
    /// (a coroutine's caller drops it and yields), with whether the switch
    /// was charged (and a coroutine so owes a [`Ctx::fuel_tick`]). `core`
    /// is this context's simulation, passed apart so the guard outlives the
    /// borrow of `self`; `from` is the state the caller takes the process
    /// to be in.
    ///
    /// # Panics
    ///
    /// Panics when a machine's step reaches a blocking primitive (`from`
    /// says [`RunState::Running`], the process table
    /// [`RunState::Stepping`]): the stack under it is the driver's, and
    /// suspending that would park the run loop as if it were the machine.
    pub(super) fn block<'a>(
        &self,
        core: &'a SimCore,
        lp: LpId,
        from: RunState,
        how: Block,
    ) -> (EngineGuard<'a>, bool) {
        // A sleep's wake is stamped from the host clock *before* the
        // switch charge lands.
        let wake_at = match how {
            Block::Sleep(dt) => Some(self.event_time() + dt),
            Block::Sema => None,
        };
        let charged = self.charges(core.cost.proc_switch);
        if charged {
            self.charge_clock(OpClass::Switch, core.cost.proc_switch);
        }
        let mut g = core.engine.lock();
        if let Some(t) = wake_at {
            g.wake_at(t, lp, WakeReason::Normal);
        }
        let st = g.lp_mut(lp).expect("current process registered");
        assert!(
            st.state == from,
            "a VProc machine called a blocking primitive (Ctx::sleep, \
             SharedSema::p, SharedSema::p_timeout): a machine has no stack to \
             park and blocks by returning a VStep"
        );
        st.state = RunState::Blocked;
        st.on_sema = wake_at.is_none();
        g.current = None;
        (g, charged)
    }

    /// Schedules a wake for a blocked process at this context's current
    /// time. A V passes the event-table slot of the timer the waiter's timed
    /// P armed ([`NO_TIMER`] if untimed): that timer is cancelled and paid
    /// for first, whether or not the process is still there. Used by
    /// [`SharedSema`]; stale wakes are prevented by that cancellation, and
    /// ignored defensively by the scheduler.
    pub(super) fn wake(&self, lp: LpId, reason: WakeReason, timer: u32) {
        if timer != NO_TIMER {
            self.charge_class(OpClass::Timer, self.core.cost.timer_op);
        }
        let t = self.event_time();
        self.core.engine.lock().wake(t, lp, reason, timer);
    }

    /// Suspends the current process for `dt` of virtual time. No-op in
    /// inline mode.
    pub fn sleep(&self, dt: Nanos) {
        if self.core.mode == Mode::Inline {
            return;
        }
        assert!(self.lp.is_some(), "sleep outside a shepherd process");
        self.block_current(Block::Sleep(dt));
    }

    /// Next value from the simulation PRNG.
    pub fn next_u64(&self) -> u64 {
        self.core.next_u64()
    }

    /// Records a realized network fault (called by simnet's transmit path
    /// after the fault schedule decides a packet's fate). No-op unless
    /// journaling is on. `kind` is one of the `crate::journal::FAULT_*`
    /// tags; `aux` carries the kind-specific detail.
    pub fn journal_fault(&self, lan: u32, index: u64, kind: u8, aux: u64) {
        let fault = JournalRecord::Fault {
            lan,
            index,
            kind,
            aux,
        };
        self.core.probe(|| Probe::Decision(fault));
    }

    /// Records a protocol annotation as a structured [`EventKind::Note`]
    /// event, attributed to the active layer. Free when tracing is off;
    /// notes are static strings so no formatting ever happens on the hot
    /// path.
    #[inline]
    pub fn trace_note(&self, note: &'static str) {
        self.trace_event(EventKind::Note(note), 0);
    }

    /// Records a structured trace event against the active layer.
    #[inline]
    fn trace_event(&self, kind: EventKind, len: u64) {
        let note = || Probe::Note(self.host, self.span_key(), kind, len);
        self.core.probe(note);
    }

    /// Enters a protocol layer's span: subsequent charges from this
    /// context (until the guard drops) are attributed to `proto`. The
    /// `dyn Session`/`dyn Protocol` wrappers in [`crate::proto`] call this
    /// at every push/demux boundary; protocol code never needs to.
    pub fn enter_layer(&self, proto: ProtoId, kind: EventKind, msg_len: u64) -> LayerSpan {
        let key = self.span_key();
        let inner = self.trace_enabled().then(|| {
            self.core
                .probe(|| Probe::SpanPush(self.host, key, proto, kind, msg_len));
            (Rc::clone(&self.core), key)
        });
        LayerSpan { inner }
    }
}

/// RAII guard for one layer's span: created by [`Ctx::enter_layer`], pops
/// the span frame when dropped (including during a crash unwind, so span
/// stacks stay balanced under [`Sim::crash_at`]). Inert when tracing is
/// off — no allocation, no locking.
pub struct LayerSpan {
    inner: Option<(Rc<SimCore>, SpanKey)>,
}

impl Drop for LayerSpan {
    fn drop(&mut self) {
        if let Some((core, key)) = self.inner.take() {
            core.probe(|| Probe::SpanPop(key));
        }
    }
}

/// How a process blocks (see [`Ctx::block`]): for a stretch of virtual
/// time, or on a semaphore it is already queued on.
#[derive(Clone, Copy)]
pub(super) enum Block {
    Sleep(Nanos),
    Sema,
}
