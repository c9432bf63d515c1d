//! Deterministic virtual-time execution engine.
//!
//! The x-kernel's concurrency model is the *shepherd process*: a light-weight
//! process that escorts one message up or down through the protocol objects,
//! blocking on a semaphore only when it must wait (for a reply, a free
//! channel, a timer). We reproduce that model exactly, in two modes:
//!
//! * [`Mode::Scheduled`] — a discrete-event simulation. Shepherd processes
//!   are *virtual processes* (see [`crate::vproc`]) multiplexed cooperatively
//!   on the scheduler's own thread: stackful coroutines for thunk bodies,
//!   stackless [`crate::vproc::VProc`] state machines for snapshot-capable
//!   or massive populations. Exactly one runs at a time and blocking happens
//!   only at the declared points (semaphore wait, timer expiry, wire
//!   delivery), so execution is fully deterministic (heap ties broken by
//!   insertion order). Virtual CPU time is charged per primitive operation
//!   (see [`CostModel`]) onto a per-host CPU timeline; the network schedules
//!   packet deliveries as timestamped events. This mode regenerates the
//!   paper's millisecond-scale tables. An optional *fuel* budget
//!   ([`SimConfig::with_fuel`]) kills a runaway process at a deterministic
//!   instant of the schedule.
//! * [`Mode::Inline`] — a synchronous zero-latency network: pushing a packet
//!   invokes the destination kernel's demux on the *same* thread, so an
//!   entire RPC round trip is one call chain with no blocking and no
//!   scheduling. `benchmark/` uses this mode to measure the real CPU cost of
//!   each protocol path on today's hardware. It doubles as a guard-discipline
//!   check: a session guard held across a lower `push` meets itself on the
//!   way back up, and the cell's re-entry assertion panics.
//!
//! The same protocol code runs unmodified in both modes.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::panic::panic_any;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use crate::cell::{OwnerCell, OwnerGuard};

pub use crate::cost::Nanos;
pub use crate::vproc::{VProc, VStep};

use crate::check::{CheckCore, CheckReport, Violation};
use crate::cost::CostModel;
use crate::error::{XError, XResult};
use crate::journal::{Journal, JournalRecord, JOURNAL_VERSION};
use crate::kernel::Kernel;
use crate::map::AppendTable;
use crate::msg::{HeaderPolicy, Message, Popped};
use crate::proto::{ProtoId, SnapBlob};
use crate::trace::{
    CostBreakdown, CostEntry, Event, EventKind, FoldedLine, OpClass, SpanKey, TraceCore,
    DEFAULT_RING_CAP, EMPTY_STACK,
};
use crate::vproc;

/// Virtual time, in nanoseconds since simulation start.
pub type Time = u64;

/// Identifies a simulated host (one kernel instance).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct HostId(pub usize);

/// Identifies a logical (shepherd) process: a never-reused id (allocated in
/// event order, which determinism depends on) plus the process-table slot
/// it occupies, so every lookup is a vector index checked against the id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LpId {
    id: u64,
    slot: u32,
}

/// Execution mode; see the module docs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Synchronous, same-thread delivery; no virtual time.
    Inline,
    /// Deterministic discrete-event simulation with virtual time.
    Scheduled,
}

/// Why a blocked process resumed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WakeReason {
    /// A V (or explicit wake) released it.
    Normal,
    /// Its timeout fired first.
    Timeout,
}

/// Handle for cancelling a scheduled timer: the event's sequence number and
/// the event-table slot it was filed in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimerHandle {
    seq: u64,
    slot: u32,
}

impl TimerHandle {
    /// A handle that refers to nothing (inline mode, or already fired).
    pub const NONE: TimerHandle = TimerHandle {
        seq: u64::MAX,
        slot: u32::MAX,
    };
}

/// Simulation construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Execution mode.
    pub mode: Mode,
    /// Per-primitive virtual CPU costs (ignored in inline mode).
    pub cost: CostModel,
    /// Seed for the simulation-wide deterministic PRNG.
    pub seed: u64,
    /// Whether to record trace events (tests only; costs nothing when off).
    pub trace: bool,
    /// Header-buffer policy for messages created via [`Ctx::msg`] — the
    /// paper's buffer-management design point (see [`crate::msg`]).
    pub policy: HeaderPolicy,
    /// Whether to run the concurrency checker (vector-clock happens-before
    /// tracking plus violation detection; see [`crate::check`]). Costs
    /// nothing when off, exactly like `trace`.
    pub check: bool,
    /// Deterministic fuel budget per virtual process, or `None` for
    /// unlimited. Coroutines pay one unit per charged operation; machines
    /// pay one unit per resume. Exhaustion kills the process reproducibly
    /// (counted in [`RunReport::fuel_exhausted`]).
    pub fuel: Option<u64>,
}

impl SimConfig {
    /// Scheduled mode with the Sun 3/75 calibration.
    pub fn scheduled() -> SimConfig {
        SimConfig {
            mode: Mode::Scheduled,
            cost: CostModel::sun3_75(),
            seed: 0x5eed,
            trace: false,
            policy: HeaderPolicy::default(),
            check: false,
            fuel: None,
        }
    }

    /// Inline mode (host-time measurement / fast tests).
    pub fn inline_mode() -> SimConfig {
        SimConfig {
            mode: Mode::Inline,
            cost: CostModel::zero(),
            seed: 0x5eed,
            trace: false,
            policy: HeaderPolicy::default(),
            check: false,
            fuel: None,
        }
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> SimConfig {
        self.seed = seed;
        self
    }

    /// Enables tracing.
    pub fn with_trace(mut self) -> SimConfig {
        self.trace = true;
        self
    }

    /// Replaces the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> SimConfig {
        self.cost = cost;
        self
    }

    /// Replaces the header-buffer policy.
    pub fn with_policy(mut self, policy: HeaderPolicy) -> SimConfig {
        self.policy = policy;
        self
    }

    /// Enables the concurrency checker.
    pub fn with_check(mut self) -> SimConfig {
        self.check = true;
        self
    }

    /// Sets the per-process fuel budget (see [`SimConfig::fuel`]).
    pub fn with_fuel(mut self, fuel: u64) -> SimConfig {
        self.fuel = Some(fuel);
        self
    }
}

/// Outcome of [`Sim::run_until_idle`]. Derives `Eq` so chaos tests can
/// assert bit-identical runs for identical seeds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// Virtual time of the last processed event.
    pub ended_at: Time,
    /// Number of events executed.
    pub events: u64,
    /// Processes still blocked when the event queue drained (deadlock if
    /// non-zero and the workload expected to finish).
    pub blocked: usize,
    /// Per-host robustness counters, indexed by [`HostId`].
    pub hosts: Vec<HostStats>,
    /// Per-layer cost attribution (empty unless tracing was enabled; see
    /// [`crate::trace`]).
    pub breakdown: CostBreakdown,
    /// FNV-1a fold of every live event the scheduler processed, in order:
    /// the run's schedule fingerprint. Two runs with equal hashes executed
    /// the same interleaving; xcheck repro strings embed it.
    pub sched_hash: u64,
    /// Total fuel charged across all hosts: one unit per charged operation
    /// plus one per machine resume. A pure function of the schedule, so
    /// replay-stable.
    pub fuel_used: u64,
    /// Processes killed by fuel exhaustion (always 0 without
    /// [`SimConfig::with_fuel`]).
    pub fuel_exhausted: u64,
    /// High-water mark of simultaneously live processes — the number the
    /// million-client experiments exist to push.
    pub peak_live: usize,
}

/// Per-host robustness counters accumulated during a run. Protocols report
/// the first four via [`Ctx::note`]; the crash/restart machinery maintains
/// the rest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostStats {
    /// Request retransmissions sent by this host's protocols.
    pub retransmits: u64,
    /// Duplicate requests this host suppressed (ack/resend/drop instead of
    /// re-executing).
    pub duplicates_suppressed: u64,
    /// Corrupt frames a checksum on this host rejected.
    pub corrupt_rejected: u64,
    /// Retransmission timeouts that fired on this host.
    pub timeouts_fired: u64,
    /// Times this host crashed.
    pub crashes: u64,
    /// Times this host restarted.
    pub restarts: u64,
    /// The host's final virtual CPU clock, in nanoseconds. With tracing on,
    /// the conservation invariant holds: the host's
    /// [`RunReport::breakdown`] entries sum to exactly this value.
    pub cpu_ns: u64,
}

/// A robustness event a protocol reports via [`Ctx::note`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RobustEvent {
    /// A request was retransmitted.
    Retransmit,
    /// A duplicate request was suppressed instead of re-executed.
    DuplicateSuppressed,
    /// A corrupt frame was rejected by a checksum.
    CorruptRejected,
    /// A retransmission timeout fired.
    TimeoutFired,
}

/// A boxed shepherd-process body.
pub type Thunk = Box<dyn FnOnce(&Ctx) + Send + 'static>;

/// A scheduling-decision oracle for xcheck's bounded schedule exploration.
///
/// The simulator is deterministic: heap ties (events at the same virtual
/// time) break by insertion order. Installing a chooser via
/// [`Sim::set_chooser`] turns every such tie into a *forced-choice point*:
/// the chooser is handed the number of tied live events (in insertion
/// order) and picks which runs first. Enumerating chooser decisions
/// enumerates schedules; see `crates/xcheck`.
pub trait ScheduleChooser: Send {
    /// Picks which of `n` (≥ 2) same-time events to process next; returns
    /// an index in `0..n` (out-of-range values are clamped).
    fn choose(&mut self, n: usize) -> usize;
}

/// FNV-1a offset basis / prime, folding one u64 at a time.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_fold(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

/// The body a fresh process starts from: a thunk (run as a stackful
/// coroutine, so it may block anywhere) or a stackless [`VProc`] machine
/// (runs on the scheduler's stack, blocks by returning [`VStep`]s).
enum ProcBody {
    Thunk(Thunk),
    Machine(Box<dyn VProc>),
}

/// A machine and its remaining fuel (`u64::MAX` = unlimited; coroutines
/// carry their budget inside the coroutine instead).
struct Machine {
    m: Box<dyn VProc>,
    fuel: u64,
}

/// The suspended form of a blocked process.
enum LpBody {
    Coro(vproc::Coro),
    Machine(Machine),
}

enum EvKind {
    Run { host: HostId, body: ProcBody },
    Wake { lp: LpId, reason: WakeReason },
    Crash { host: HostId },
    Restart { host: HostId },
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RunState {
    Running,
    Blocked,
    /// The host crashed while this process was blocked; the scheduler reaps
    /// it (unwinding its coroutine via [`CrashKill`]) at the next
    /// deterministic reap point.
    Killed,
}

/// Panic payload used to unwind a shepherd coroutine whose host crashed.
/// Not a failure: [`drive_coro`] filters it out of the panic record.
struct CrashKill;

/// Panic payload used to unwind a shepherd coroutine whose fuel ran out.
/// Filtered like [`CrashKill`], but tallied in [`RunReport::fuel_exhausted`].
struct FuelKill;

/// What the scheduler hands a coroutine when it resumes it (the value
/// [`vproc::yield_now`] returns): why it woke, or that its host crashed.
const RESUME_NORMAL: u64 = 0;
const RESUME_TIMEOUT: u64 = 1;
const RESUME_KILLED: u64 = 2;

struct LpState {
    host: HostId,
    state: RunState,
    /// The suspended continuation; `None` while the process is running (its
    /// body is on the driver's stack) or before its first step.
    body: Option<LpBody>,
    /// The checker id of the semaphore a blocked process is waiting on
    /// (`None` for timer blocks); the scheduler closes the wait out when it
    /// resumes the process.
    wait_sema: Option<u64>,
}

struct Task {
    lp: LpId,
    host: HostId,
    body: ProcBody,
}

/// A table whose entries are addressed by `(id, slot)`: `slot` indexes the
/// vector and `id` — a sequence number that is never reused — is the
/// generation, so an address that outlived its entry misses instead of
/// aliasing the slot's next tenant. Freed slots are reused last-in
/// first-out, which keeps the table as dense as its live population.
struct Slab<T> {
    slots: Vec<(u64, Option<T>)>,
    free: Vec<u32>,
    live: usize,
}

impl<T> Slab<T> {
    fn new() -> Slab<T> {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    fn len(&self) -> usize {
        self.live
    }

    fn insert(&mut self, id: u64, value: T) -> u32 {
        self.live += 1;
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = (id, Some(value));
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("slab outgrew u32 slots");
                self.slots.push((id, Some(value)));
                slot
            }
        }
    }

    fn get(&self, id: u64, slot: u32) -> Option<&T> {
        match self.slots.get(slot as usize) {
            Some((i, v)) if *i == id => v.as_ref(),
            _ => None,
        }
    }

    fn get_mut(&mut self, id: u64, slot: u32) -> Option<&mut T> {
        match self.slots.get_mut(slot as usize) {
            Some((i, v)) if *i == id => v.as_mut(),
            _ => None,
        }
    }

    fn remove(&mut self, id: u64, slot: u32) -> Option<T> {
        match self.slots.get_mut(slot as usize) {
            Some((i, v)) if *i == id && v.is_some() => {
                self.live -= 1;
                self.free.push(slot);
                v.take()
            }
            _ => None,
        }
    }

    /// Live entries as `(id, slot, value)`, in slot order.
    fn iter(&self) -> impl Iterator<Item = (u64, u32, &T)> {
        (0u32..)
            .zip(&self.slots)
            .filter_map(|(slot, (id, v))| v.as_ref().map(|v| (*id, slot, v)))
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = (u64, u32, &mut T)> {
        (0u32..)
            .zip(&mut self.slots)
            .filter_map(|(slot, (id, v))| v.as_mut().map(|v| (*id, slot, v)))
    }

    /// Removes every entry `dead` selects.
    fn remove_where(&mut self, mut dead: impl FnMut(&T) -> bool) {
        for (slot, (_, v)) in (0u32..).zip(&mut self.slots) {
            if v.as_ref().is_some_and(&mut dead) {
                *v = None;
                self.live -= 1;
                self.free.push(slot);
            }
        }
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.live = 0;
    }
}

/// A queued event's position in the timeline: `(time, seq, slot)`. `seq`
/// breaks time ties in insertion order; `slot` is where the event's body
/// sits in [`Engine::events`].
type HeapKey = Reverse<(Time, u64, u32)>;

/// Everything the scheduler owns that is more than a scalar: the event
/// queue, the process table, the run token. One thread drives a simulation
/// at a time, so this sits behind the simulator's one lock
/// ([`SimCore::engine`]): the run loop holds it across [`advance`] and
/// releases it only while a process body runs; a process takes it once per
/// scheduling operation (arm, cancel, wake, block).
struct Engine {
    seq: u64,
    /// The timeline. Entries whose event is gone from `events` (cancelled,
    /// or purged by a crash) are tombstones, skipped when they surface.
    heap: BinaryHeap<HeapKey>,
    /// Pending event bodies, addressed by `(seq, slot)`.
    events: Slab<EvKind>,
    /// Live processes, addressed by [`LpId`].
    lps: Slab<LpState>,
    next_lp: u64,
    current: Option<LpId>,
    executed: u64,
    panics: Vec<String>,
    /// Processes killed by a crash while blocked, queued for deterministic
    /// reaping (in id order) at the top of the run loop.
    reap: Vec<LpId>,
    /// Processes killed by fuel exhaustion.
    fuel_exhausted: u64,
    /// High-water mark of `lps.len()`.
    peak_live: usize,
    /// Schedule-exploration oracle; `None` (the default) keeps the plain
    /// deterministic insertion-order tie-break.
    chooser: Option<Box<dyn ScheduleChooser>>,
    /// Running FNV-1a fold over every live event processed (time, seq,
    /// kind tag). Maintained unconditionally — three integer ops per
    /// event — so every run has a schedule fingerprint.
    sched_hash: u64,
    /// Structured trace state; touched only when [`SimCore::trace_on`].
    trace: TraceCore,
    /// Concurrency-checker state; touched only when [`SimCore::check_on`].
    check: CheckCore,
    /// Recorded nondeterminism-relevant decisions; touched only while
    /// [`SimCore::journal_on`].
    journal: Vec<JournalRecord>,
}

impl Engine {
    /// Files `kind` at time `t`; the returned handle cancels it.
    fn push_event(&mut self, t: Time, kind: EvKind) -> TimerHandle {
        let seq = self.seq;
        self.seq += 1;
        let slot = self.events.insert(seq, kind);
        self.heap.push(Reverse((t, seq, slot)));
        TimerHandle { seq, slot }
    }

    fn lp_mut(&mut self, lp: LpId) -> Option<&mut LpState> {
        self.lps.get_mut(lp.id, lp.slot)
    }

    /// Ids of the processes currently blocked, in table order.
    fn blocked(&self) -> impl Iterator<Item = u64> + '_ {
        self.lps
            .iter()
            .filter(|(_, _, st)| st.state == RunState::Blocked)
            .map(|(id, _, _)| id)
    }
}

/// One host's kernel, clock and counters. Every field but the kernel is a
/// scalar cell read and written with relaxed atomic loads and stores (never
/// a read-modify-write): only the thread driving the simulation touches
/// them, and a simulation changes threads only through a real
/// synchronisation point, which orders one driver's writes before the
/// next's reads (the contract [`crate::cell`] states). That keeps the
/// charging path ([`Ctx::charge_class`], [`Ctx::now`], [`Ctx::note`]) free
/// of any guard while [`Sim`] stays `Send + Sync`.
struct HostCell {
    kernel: Arc<Kernel>,
    cpu: AtomicU64,
    /// Fuel charged on this host: one unit per charged operation plus one
    /// per machine resume ([`RunReport::fuel_used`] is the sum).
    fuel: AtomicU64,
    down: AtomicBool,
    epoch: AtomicU32,
    retransmits: AtomicU64,
    duplicates_suppressed: AtomicU64,
    corrupt_rejected: AtomicU64,
    timeouts_fired: AtomicU64,
    crashes: AtomicU64,
    restarts: AtomicU64,
}

/// `cell += by` for a cell only the driving thread writes.
#[inline]
fn bump(cell: &AtomicU64, by: u64) -> u64 {
    let v = cell.load(Relaxed) + by;
    cell.store(v, Relaxed);
    v
}

impl HostCell {
    fn new(kernel: Arc<Kernel>) -> HostCell {
        HostCell {
            kernel,
            cpu: AtomicU64::new(0),
            fuel: AtomicU64::new(0),
            down: AtomicBool::new(false),
            epoch: AtomicU32::new(0),
            retransmits: AtomicU64::new(0),
            duplicates_suppressed: AtomicU64::new(0),
            corrupt_rejected: AtomicU64::new(0),
            timeouts_fired: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
        }
    }

    /// An event at time `t` reaches this host: the clock jumps over the
    /// idle gap (if `t` is ahead of it) and then pays `extra`. Returns the
    /// idle time skipped and the new clock.
    fn arrive(&self, t: Time, extra: Nanos) -> (Nanos, Time) {
        let cpu = self.cpu.load(Relaxed);
        let now = cpu.max(t) + extra;
        self.cpu.store(now, Relaxed);
        (t.saturating_sub(cpu), now)
    }

    fn stats(&self) -> HostStats {
        HostStats {
            retransmits: self.retransmits.load(Relaxed),
            duplicates_suppressed: self.duplicates_suppressed.load(Relaxed),
            corrupt_rejected: self.corrupt_rejected.load(Relaxed),
            timeouts_fired: self.timeouts_fired.load(Relaxed),
            crashes: self.crashes.load(Relaxed),
            restarts: self.restarts.load(Relaxed),
            cpu_ns: self.cpu.load(Relaxed),
        }
    }

    fn snap(&self) -> SnapHost {
        SnapHost {
            down: self.down.load(Relaxed),
            epoch: self.epoch.load(Relaxed),
            fuel: self.fuel.load(Relaxed),
            stats: self.stats(),
        }
    }

    fn restore(&self, snap: &SnapHost) {
        let s = &snap.stats;
        self.cpu.store(s.cpu_ns, Relaxed);
        self.fuel.store(snap.fuel, Relaxed);
        self.down.store(snap.down, Relaxed);
        self.epoch.store(snap.epoch, Relaxed);
        self.retransmits.store(s.retransmits, Relaxed);
        self.duplicates_suppressed
            .store(s.duplicates_suppressed, Relaxed);
        self.corrupt_rejected.store(s.corrupt_rejected, Relaxed);
        self.timeouts_fired.store(s.timeouts_fired, Relaxed);
        self.crashes.store(s.crashes, Relaxed);
        self.restarts.store(s.restarts, Relaxed);
    }
}

/// Shared simulator state.
pub struct SimCore {
    mode: Mode,
    cost: CostModel,
    policy: HeaderPolicy,
    /// Per-process fuel budget, from [`SimConfig::fuel`].
    fuel_limit: Option<u64>,
    /// Global virtual time: the time of the last processed event. A scalar
    /// cell like those of [`HostCell`].
    now: AtomicU64,
    /// The SplitMix64 state word of the simulation PRNG; a scalar cell too.
    rng: AtomicU64,
    /// Hosts in [`HostId`] order; appended to by [`Sim::add_kernel`] and
    /// read without a lock.
    hosts: AppendTable<HostCell>,
    /// The scheduler's compound state — and the observers' — in the
    /// simulator's one cell.
    engine: OwnerCell<Engine>,
    /// Plain flag checked before any trace work; when false no hook takes
    /// the lock for tracing's sake (the zero-overhead-when-disabled
    /// guarantee).
    trace_on: bool,
    /// Plain flag checked before any checker work (same guarantee as
    /// `trace_on`).
    check_on: bool,
    /// Whether journal recording is on. Toggleable at run time (unlike
    /// `trace_on`/`check_on`) so recording can be scoped to a window; a
    /// relaxed load guards every journal touch, so recording costs nothing
    /// when off.
    journal_on: AtomicBool,
    /// The configured seed, kept for repro strings.
    seed: u64,
}

impl SimCore {
    #[inline]
    fn host(&self, host: HostId) -> &HostCell {
        self.hosts
            .get(host.0)
            .expect("host id belongs to no registered kernel")
    }

    /// Next value from the simulation-wide deterministic PRNG (SplitMix64).
    fn next_u64(&self) -> u64 {
        let s = self.rng.load(Relaxed).wrapping_add(0x9e37_79b9_7f4a_7c15);
        self.rng.store(s, Relaxed);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Appends `record()` to the journal in `g` if recording is on.
    fn journal(&self, g: &mut Engine, record: impl FnOnce() -> JournalRecord) {
        if self.journal_on.load(Relaxed) {
            g.journal.push(record());
        }
    }
}

/// The simulator: owns hosts, time, and shepherd processes.
#[derive(Clone)]
pub struct Sim {
    core: Arc<SimCore>,
}

/// `Sim` handles cross threads — `xkernel::par` workers hand finished
/// simulations back, a quiescent rig can be moved whole: every shared field
/// is an atomic cell or sits in an [`OwnerCell`], under the one-driver
/// contract [`crate::cell`] states.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Sim>();
};

impl Sim {
    /// Creates a simulator.
    pub fn new(cfg: SimConfig) -> Sim {
        if cfg.fuel.is_some() {
            // Fuel kills unwind coroutines with a filtered panic payload;
            // install the hook up front so the first kill prints nothing.
            install_crash_hook();
        }
        Sim {
            core: Arc::new(SimCore {
                mode: cfg.mode,
                cost: cfg.cost,
                policy: cfg.policy,
                fuel_limit: cfg.fuel,
                now: AtomicU64::new(0),
                rng: AtomicU64::new(cfg.seed | 1),
                hosts: AppendTable::new(),
                engine: OwnerCell::new(Engine {
                    seq: 0,
                    heap: BinaryHeap::new(),
                    events: Slab::new(),
                    lps: Slab::new(),
                    next_lp: 0,
                    current: None,
                    executed: 0,
                    panics: Vec::new(),
                    reap: Vec::new(),
                    fuel_exhausted: 0,
                    peak_live: 0,
                    chooser: None,
                    sched_hash: FNV_OFFSET,
                    trace: TraceCore::new(DEFAULT_RING_CAP),
                    check: CheckCore::default(),
                    journal: Vec::new(),
                }),
                trace_on: cfg.trace,
                check_on: cfg.check,
                journal_on: AtomicBool::new(false),
                seed: cfg.seed,
            }),
        }
    }

    /// Execution mode.
    pub fn mode(&self) -> Mode {
        self.core.mode
    }

    /// The cost model in effect.
    pub fn cost(&self) -> &CostModel {
        &self.core.cost
    }

    /// Registers a kernel, allocating its host id. Called by `Kernel::new`.
    pub(crate) fn add_kernel(&self, k: &Arc<Kernel>) -> HostId {
        // The engine lock serializes registrations; readers need none.
        let _g = self.core.engine.lock();
        HostId(self.core.hosts.push(HostCell::new(Arc::clone(k))))
    }

    /// The kernel running on `host`.
    pub fn kernel_of(&self, host: HostId) -> Arc<Kernel> {
        Arc::clone(&self.core.host(host).kernel)
    }

    /// All registered kernels.
    pub fn kernels(&self) -> Vec<Arc<Kernel>> {
        kernels_of(&self.core)
    }

    /// A handle that does not keep the simulation alive (see [`WeakSim`]).
    pub fn downgrade(&self) -> WeakSim {
        WeakSim {
            core: Arc::downgrade(&self.core),
        }
    }

    /// A context bound to `host` but to no logical process. Suitable for
    /// setup (graph building, enables) and for everything in inline mode;
    /// blocking from it panics.
    pub fn ctx(&self, host: HostId) -> Ctx {
        Ctx {
            core: Arc::clone(&self.core),
            host,
            lp: None,
        }
    }

    /// Spawns a shepherd process on `host`. In scheduled mode it is queued
    /// at the current virtual time and run by [`Sim::run_until_idle`]; in
    /// inline mode it executes immediately on the calling thread.
    pub fn spawn(&self, host: HostId, f: impl FnOnce(&Ctx) + Send + 'static) {
        self.ctx(host).spawn_on(host, f);
    }

    /// Schedules a crash of `host` at absolute virtual time `t`. At that
    /// instant every in-flight message addressed to the host, every timer
    /// armed on it, and every blocked process running on it is discarded;
    /// further deliveries are dropped until a restart. Scheduled mode only.
    pub fn crash_at(&self, t: Time, host: HostId) {
        assert_eq!(
            self.core.mode,
            Mode::Scheduled,
            "crash/restart require virtual time"
        );
        install_crash_hook();
        self.core
            .engine
            .lock()
            .push_event(t, EvKind::Crash { host });
    }

    /// Crashes `host` at the current virtual time (see [`Sim::crash_at`]).
    pub fn crash(&self, host: HostId) {
        let t = self.virtual_now();
        self.crash_at(t, host);
    }

    /// Schedules a restart of a crashed `host` at absolute virtual time `t`:
    /// the host's boot epoch is bumped and every protocol's
    /// [`crate::proto::Protocol::reboot`] hook runs as a fresh shepherd
    /// process (protocols shed per-connection state and draw new boot
    /// incarnation ids there). Scheduled mode only.
    pub fn restart_at(&self, t: Time, host: HostId) {
        assert_eq!(
            self.core.mode,
            Mode::Scheduled,
            "crash/restart require virtual time"
        );
        self.core
            .engine
            .lock()
            .push_event(t, EvKind::Restart { host });
    }

    /// Restarts `host` at the current virtual time (see [`Sim::restart_at`]).
    pub fn restart(&self, host: HostId) {
        let t = self.virtual_now();
        self.restart_at(t, host);
    }

    /// Robustness counters for `host` (also in [`RunReport::hosts`]).
    pub fn host_stats(&self, host: HostId) -> HostStats {
        self.core.host(host).stats()
    }

    /// How many times `host` has restarted (0 until its first restart).
    pub fn boot_epoch(&self, host: HostId) -> u32 {
        self.core.host(host).epoch.load(Relaxed)
    }

    /// Whether `host` is currently crashed.
    pub fn is_down(&self, host: HostId) -> bool {
        self.core.host(host).down.load(Relaxed)
    }

    /// Runs queued events until none remain. Scheduled mode only.
    ///
    /// # Panics
    ///
    /// Re-raises (as a panic) the first panic that occurred inside any
    /// shepherd process, so test failures surface cleanly.
    pub fn run_until_idle(&self) -> RunReport {
        self.run_until_time(Time::MAX)
    }

    /// Runs queued events whose time is `<= stop`, then pauses. Later
    /// events stay queued and blocked processes stay suspended, so the run
    /// continues with another `run_until_time`/[`Sim::run_until_idle`]
    /// call; the returned report describes the state at the pause. When
    /// every process suspended at the pause is a forkable [`VProc`]
    /// machine parked on a timer, the paused instant is
    /// [`Sim::snapshot`]-eligible. Scheduled mode only.
    pub fn run_until_time(&self, stop: Time) -> RunReport {
        assert_eq!(
            self.core.mode,
            Mode::Scheduled,
            "run_until_time is meaningful only in scheduled mode"
        );
        let core = &self.core;
        // The context machines run under: built once per run, re-aimed at
        // each machine for the duration of its step.
        let mut mctx = self.ctx(HostId(0));
        let mut g = core.engine.lock();
        loop {
            // Reap crash-killed processes first, in ascending id order, so
            // their unwinds land at a deterministic point of the schedule.
            // Only `advance` queues processes here, so one sort covers the
            // batch.
            if !g.reap.is_empty() {
                let mut batch = std::mem::take(&mut g.reap);
                batch.sort_unstable_by_key(|lp| lp.id);
                for lp in batch {
                    g = reap_lp(core, g, lp);
                }
                continue;
            }
            g = match advance(core, &mut g, stop) {
                Next::Task(task) => run_task(core, g, &mut mctx, task),
                Next::Resume(woken) => resume_lp(core, g, &mut mctx, woken),
                Next::Drained if g.reap.is_empty() => break,
                Next::Drained => g,
            };
        }
        let report = RunReport {
            ended_at: core.now.load(Relaxed),
            events: g.executed,
            blocked: g.blocked().count(),
            hosts: core.hosts.iter().map(HostCell::stats).collect(),
            breakdown: breakdown_of(core, &g.trace),
            sched_hash: g.sched_hash,
            fuel_used: core.hosts.iter().map(|h| h.fuel.load(Relaxed)).sum(),
            fuel_exhausted: g.fuel_exhausted,
            peak_live: g.peak_live,
        };
        let panic = g.panics.first().cloned();
        drop(g);
        if let Some(p) = panic {
            panic!("shepherd process panicked: {p}");
        }
        report
    }

    /// Spawns a stackless [`VProc`] machine as a shepherd process on
    /// `host`, queued at the current virtual time. Scheduled mode only —
    /// machines have no meaning without a scheduler to perform their
    /// blocking points.
    pub fn spawn_vproc(&self, host: HostId, m: Box<dyn VProc>) {
        self.ctx(host).spawn_vproc_on(host, m);
    }

    /// Virtual CPU time of `host`.
    pub fn now_of(&self, host: HostId) -> Time {
        self.core.host(host).cpu.load(Relaxed)
    }

    /// Global virtual time (time of the last processed event).
    pub fn virtual_now(&self) -> Time {
        self.core.now.load(Relaxed)
    }

    /// Next value from the simulation-wide deterministic PRNG (SplitMix64).
    pub fn next_u64(&self) -> u64 {
        self.core.next_u64()
    }

    /// Whether structured tracing is enabled for this simulation.
    pub fn trace_enabled(&self) -> bool {
        self.core.trace_on
    }

    /// All recorded trace events, host-major in arrival order (empty
    /// unless tracing was enabled). Rings are bounded; old events are
    /// dropped first.
    pub fn trace_events(&self) -> Vec<Event> {
        if !self.core.trace_on {
            return Vec::new();
        }
        self.core.engine.lock().trace.events()
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
        breakdown_of(&self.core, &self.core.engine.lock().trace)
    }

    /// Flamegraph-compatible folded-stack lines for the ledger accumulated
    /// so far, deterministically sorted.
    pub fn folded(&self) -> Vec<FoldedLine> {
        folded_of(&self.core, &self.core.engine.lock().trace)
    }

    /// Clears the event rings and the cost ledger (live span stacks
    /// survive, so in-flight call chains stay attributed). Benchmarks call
    /// this after warmup to scope the ledger to the measured window.
    pub fn trace_clear(&self) {
        if !self.core.trace_on {
            return;
        }
        self.core.engine.lock().trace.clear();
    }

    /// Whether the concurrency checker is enabled for this simulation.
    pub fn check_enabled(&self) -> bool {
        self.core.check_on
    }

    /// The configured PRNG seed (embedded in repro strings).
    pub fn seed(&self) -> u64 {
        self.core.seed
    }

    /// The schedule fingerprint accumulated so far (see
    /// [`RunReport::sched_hash`]).
    pub fn sched_hash(&self) -> u64 {
        self.core.engine.lock().sched_hash
    }

    /// Installs a scheduling oracle: every same-time event tie becomes a
    /// forced-choice point decided by `chooser`. Used by xcheck's bounded
    /// schedule exploration; replaces any previous chooser.
    pub fn set_chooser(&self, chooser: Box<dyn ScheduleChooser>) {
        self.core.engine.lock().chooser = Some(chooser);
    }

    /// The checker's findings. Runs the wait-for-graph scan over processes
    /// still blocked right now, so call it after [`Sim::run_until_idle`]
    /// (a blocked process mid-run is not yet a deadlock). Returns a
    /// default (disabled) report when checking is off.
    pub fn check_report(&self) -> CheckReport {
        if !self.core.check_on {
            return CheckReport::default();
        }
        let g = self.core.engine.lock();
        let mut blocked: Vec<u64> = g.blocked().collect();
        blocked.sort_unstable();
        g.check.report(&blocked)
    }

    /// The replayable repro string for `v` under this run's seed and
    /// schedule fingerprint (see [`crate::check::parse_repro`]).
    pub fn repro(&self, v: &Violation) -> String {
        v.repro(self.core.seed, self.sched_hash())
    }

    /// Starts journal recording (see [`crate::journal`]), discarding any
    /// previously recorded decisions. Costs one relaxed atomic load per
    /// potential decision when off.
    pub fn journal_enable(&self) {
        self.core.engine.lock().journal.clear();
        self.core.journal_on.store(true, Relaxed);
    }

    /// Whether journal recording is currently on.
    pub fn journal_enabled(&self) -> bool {
        self.core.journal_on.load(Relaxed)
    }

    /// Stops recording and returns the journal, stamped with this
    /// simulation's seed and the schedule fingerprint accumulated so far —
    /// the cross-check a replay must reproduce.
    pub fn journal_take(&self) -> Journal {
        self.core.journal_on.store(false, Relaxed);
        let mut g = self.core.engine.lock();
        Journal {
            version: JOURNAL_VERSION,
            seed: self.core.seed,
            sched_hash: g.sched_hash,
            records: std::mem::take(&mut g.journal),
        }
    }

    /// Captures the complete mutable state of a *quiescent* simulation: the
    /// scheduler scalars (virtual clock, event/process id counters, the
    /// `sched_hash` fingerprint), the PRNG position, per-host clocks,
    /// crash/boot state and robustness counters, and every protocol's
    /// private state via [`crate::proto::Protocol::snap`]. Quiescent means
    /// either [`Sim::run_until_idle`] has drained — no pending events, no
    /// live processes — or the run is paused (see [`Sim::run_until_time`])
    /// with every live process a *forkable* [`VProc`] machine suspended at
    /// a timer blocking point: such continuations are pure data, captured
    /// via [`VProc::fork`] together with their pending wake events (stale
    /// ones included — the `sched_hash` identity folds them too).
    ///
    /// [`Sim::restore`] rewinds the *same* simulator (same kernels, same
    /// protocol graph) to this state; a restored run is bit-identical to
    /// one that never snapshotted. Deliberately not captured: trace rings,
    /// the cost ledger, and checker state — observability, not behavior.
    pub fn snapshot(&self) -> XResult<SimSnapshot> {
        if self.core.mode != Mode::Scheduled {
            return Err(XError::Unsupported("snapshot in inline mode"));
        }
        let core = &self.core;
        let g = core.engine.lock();
        require_quiescent(&g)?;
        // Every pending event is a Wake (eligibility above); capture each
        // with the time its heap entry carries, sorted by seq so restore
        // rebuilds the identical queue. Stale wakes (their process already
        // gone) are captured too: the scheduler still processes — and
        // hashes — them.
        let mut wakes: Vec<SnapWake> = g
            .heap
            .iter()
            .filter_map(|&Reverse((t, seq, slot))| match g.events.get(seq, slot) {
                Some(&EvKind::Wake { lp, reason }) => Some(SnapWake {
                    t,
                    seq,
                    lp: lp.id,
                    reason,
                }),
                _ => None,
            })
            .collect();
        wakes.sort_unstable_by_key(|w| w.seq);
        let mut machines: Vec<SnapMachine> = g
            .lps
            .iter()
            .map(|(id, _, st)| {
                let Some(LpBody::Machine(c)) = &st.body else {
                    unreachable!("eligibility admits only machine continuations");
                };
                SnapMachine {
                    lp: id,
                    host: st.host,
                    fuel: c.fuel,
                    m: c.m
                        .fork()
                        .expect("eligibility admits only forkable machines"),
                }
            })
            .collect();
        machines.sort_unstable_by_key(|sm| sm.lp);
        let mut snap = SimSnapshot {
            now: core.now.load(Relaxed),
            seq: g.seq,
            next_lp: g.next_lp,
            executed: g.executed,
            sched_hash: g.sched_hash,
            rng: core.rng.load(Relaxed),
            journal_len: g.journal.len(),
            hosts: core.hosts.iter().map(HostCell::snap).collect(),
            fuel_exhausted: g.fuel_exhausted,
            peak_live: g.peak_live,
            wakes,
            machines,
            protos: Vec::new(),
        };
        drop(g);
        for k in kernels_of(core) {
            let ctx = self.ctx(k.host());
            snap.protos.push(
                k.protocol_slots()
                    .iter()
                    .map(|slot| slot.as_ref().and_then(|p| p.snap(&ctx)))
                    .collect(),
            );
        }
        Ok(snap)
    }

    /// Rewinds this simulator to `snap` (which [`Sim::snapshot`] captured
    /// from the *same* simulator). Requires quiescence, exactly like
    /// snapshotting. Scheduler scalars, PRNG, host clocks, and every
    /// protocol's private state are overwritten in place; the journal is
    /// truncated to its capture-time length so a resumed recording matches
    /// an uninterrupted one.
    pub fn restore(&self, snap: &SimSnapshot) -> XResult<()> {
        if self.core.mode != Mode::Scheduled {
            return Err(XError::Unsupported("restore in inline mode"));
        }
        let core = &self.core;
        if core.hosts.len() != snap.hosts.len() {
            return Err(XError::Config(format!(
                "snapshot holds {} hosts but the simulator has {}",
                snap.hosts.len(),
                core.hosts.len()
            )));
        }
        {
            let mut g = core.engine.lock();
            require_quiescent(&g)?;
            core.now.store(snap.now, Relaxed);
            g.seq = snap.seq;
            g.next_lp = snap.next_lp;
            g.executed = snap.executed;
            g.sched_hash = snap.sched_hash;
            g.fuel_exhausted = snap.fuel_exhausted;
            g.peak_live = snap.peak_live;
            // The heap may hold entries for cancelled or already-drained
            // events; with `seq` rewound they would alias freshly allocated
            // sequence numbers, so they must go — as must any machine
            // continuations of the pre-restore present, which the
            // snapshot's copies replace wholesale.
            g.heap.clear();
            g.events.clear();
            g.lps.clear();
            g.reap.clear();
            g.panics.clear();
            // Machines first (sorted by id), so each wake can find the slot
            // its process landed in.
            let mut slots = Vec::with_capacity(snap.machines.len());
            for sm in &snap.machines {
                let m = sm.m.fork().ok_or_else(|| {
                    XError::Config("snapshotted machine refused to fork on restore".into())
                })?;
                let body = LpBody::Machine(Machine { m, fuel: sm.fuel });
                slots.push(g.lps.insert(
                    sm.lp,
                    LpState {
                        host: sm.host,
                        state: RunState::Blocked,
                        body: Some(body),
                        wait_sema: None,
                    },
                ));
            }
            for w in &snap.wakes {
                // A stale wake's process is gone; any slot misses for it.
                let slot = snap
                    .machines
                    .binary_search_by_key(&w.lp, |sm| sm.lp)
                    .map_or(u32::MAX, |i| slots[i]);
                let kind = EvKind::Wake {
                    lp: LpId { id: w.lp, slot },
                    reason: w.reason,
                };
                let ev_slot = g.events.insert(w.seq, kind);
                g.heap.push(Reverse((w.t, w.seq, ev_slot)));
            }
            g.journal.truncate(snap.journal_len);
        }
        for (h, sh) in core.hosts.iter().zip(&snap.hosts) {
            h.restore(sh);
        }
        core.rng.store(snap.rng, Relaxed);
        let kernels = kernels_of(core);
        if kernels.len() != snap.protos.len() {
            return Err(XError::Config(
                "snapshot is from a different rig (kernel count mismatch)".into(),
            ));
        }
        for (k, blobs) in kernels.iter().zip(&snap.protos) {
            let ctx = self.ctx(k.host());
            let slots = k.protocol_slots();
            if slots.len() != blobs.len() {
                return Err(XError::Config(format!(
                    "snapshot is from a different rig ({} protocol slots vs {} on {})",
                    blobs.len(),
                    slots.len(),
                    k.name()
                )));
            }
            for (slot, blob) in slots.iter().zip(blobs) {
                if let (Some(p), Some(b)) = (slot, blob) {
                    p.restore_snap(&ctx, b)?;
                }
            }
        }
        Ok(())
    }
}

/// A [`Sim`] handle that does not keep the simulation alive: it upgrades
/// only while some `Sim`, [`Ctx`] or suspended process still does.
#[derive(Clone)]
pub struct WeakSim {
    core: std::sync::Weak<SimCore>,
}

impl WeakSim {
    /// The simulation, if it is still alive.
    pub fn upgrade(&self) -> Option<Sim> {
        self.core.upgrade().map(|core| Sim { core })
    }
}

/// Errors unless the simulator is quiescent: fully drained, or paused with
/// only forkable machine continuations suspended on timers (every pending
/// event a Wake). Anything else — a running process, a suspended
/// *coroutine* (opaque stack), a machine parked on a semaphore (waiter
/// queues don't round-trip), an unforkable machine, a pending
/// Run/Crash/Restart — is not snapshot material.
fn require_quiescent(g: &Engine) -> XResult<()> {
    let eligible = g.current.is_none()
        && g.reap.is_empty()
        && g.events
            .iter()
            .all(|(_, _, e)| matches!(e, EvKind::Wake { .. }))
        && g.lps.iter().all(|(_, _, st)| {
            st.state == RunState::Blocked
                && st.wait_sema.is_none()
                && matches!(&st.body, Some(LpBody::Machine(c)) if c.m.fork().is_some())
        });
    if eligible {
        Ok(())
    } else {
        Err(XError::Config(format!(
            "snapshot/restore require a quiescent simulator \
             ({} pending event(s), {} live process(es)); \
             run_until_idle first",
            g.events.len(),
            g.lps.len()
        )))
    }
}

/// Every registered kernel, in host order.
fn kernels_of(core: &SimCore) -> Vec<Arc<Kernel>> {
    core.hosts.iter().map(|h| Arc::clone(&h.kernel)).collect()
}

/// A pending wake event captured in a snapshot.
struct SnapWake {
    t: Time,
    seq: u64,
    lp: u64,
    reason: WakeReason,
}

/// A suspended machine continuation captured in a snapshot (via
/// [`VProc::fork`]); restore re-forks it so the snapshot stays reusable.
struct SnapMachine {
    lp: u64,
    host: HostId,
    fuel: u64,
    m: Box<dyn VProc>,
}

/// One host's scalars captured in a snapshot (`stats.cpu_ns` is its clock).
struct SnapHost {
    down: bool,
    epoch: u32,
    fuel: u64,
    stats: HostStats,
}

/// An opaque whole-sim snapshot; see [`Sim::snapshot`]. Holds the scheduler
/// scalars, PRNG position, per-host state, any suspended machine
/// continuations with their pending wakes, and one
/// [`crate::proto::SnapBlob`] per protocol slot per host.
pub struct SimSnapshot {
    now: Time,
    seq: u64,
    next_lp: u64,
    executed: u64,
    sched_hash: u64,
    rng: u64,
    journal_len: usize,
    hosts: Vec<SnapHost>,
    fuel_exhausted: u64,
    peak_live: usize,
    wakes: Vec<SnapWake>,
    machines: Vec<SnapMachine>,
    protos: Vec<Vec<Option<SnapBlob>>>,
}

impl SimSnapshot {
    /// The schedule fingerprint at capture time.
    pub fn sched_hash(&self) -> u64 {
        self.sched_hash
    }

    /// Global virtual time at capture.
    pub fn now(&self) -> Time {
        self.now
    }
}

/// Builds the sorted per-layer breakdown from the trace ledger, resolving
/// innermost-layer protocol ids to instance names via the hosts' kernels.
fn breakdown_of(core: &SimCore, tr: &TraceCore) -> CostBreakdown {
    if !core.trace_on {
        return CostBreakdown::default();
    }
    let kernels = kernels_of(core);
    let mut agg: HashMap<(usize, Option<ProtoId>, OpClass), Nanos> = HashMap::new();
    for (host, frames, class, ns) in tr.rows() {
        *agg.entry((host, frames.last().copied(), class))
            .or_insert(0) += ns;
    }
    let mut entries: Vec<CostEntry> = agg
        .into_iter()
        .map(|((host, top, class), ns)| CostEntry {
            host: HostId(host),
            proto: proto_frame_name(&kernels, host, top),
            class,
            ns,
        })
        .collect();
    entries.sort();
    CostBreakdown { entries }
}

/// Builds the sorted folded-stack lines from the trace ledger.
fn folded_of(core: &SimCore, tr: &TraceCore) -> Vec<FoldedLine> {
    if !core.trace_on {
        return Vec::new();
    }
    let kernels = kernels_of(core);
    let mut lines: Vec<FoldedLine> = tr
        .rows()
        .into_iter()
        .map(|(host, frames, class, ns)| {
            let host_name = kernels
                .get(host)
                .map(|k| k.name().to_string())
                .unwrap_or_else(|| format!("host{host}"));
            let mut out = Vec::with_capacity(frames.len() + 2);
            out.push(host_name);
            for p in frames {
                out.push(proto_frame_name(&kernels, host, Some(*p)));
            }
            out.push(class.as_str().to_string());
            FoldedLine {
                host: HostId(host),
                frames: out,
                ns,
            }
        })
        .collect();
    lines.sort();
    lines
}

/// The display name for a span frame: the protocol's configured instance
/// name, or `"(host)"` for the empty stack.
fn proto_frame_name(kernels: &[Arc<Kernel>], host: usize, proto: Option<ProtoId>) -> String {
    match proto {
        None => "(host)".to_string(),
        Some(p) => kernels
            .get(host)
            .and_then(|k| k.name_of(p))
            .unwrap_or_else(|| format!("p{}", p.0)),
    }
}

/// A blocked process [`advance`] just woke, lifted out of the process table
/// under the lock `advance` already held so the driver can resume it
/// without another lookup.
struct Woken {
    lp: LpId,
    host: HostId,
    body: LpBody,
    reason: WakeReason,
    /// The semaphore wait this wake concludes, if any (checker id).
    waited: Option<u64>,
}

/// What the event loop decided after [`advance`] processed events.
enum Next {
    /// A fresh shepherd process must run; the run token (`current`) is
    /// already set to it. The driver executes its body.
    Task(Task),
    /// A blocked process was woken; the token is set to it. The driver
    /// resumes the continuation it is handed.
    Resume(Woken),
    /// No live events remain at or before the stop time.
    Drained,
}

/// Drives the event loop forward: pops live events in deterministic order
/// and processes them until a process claims the run token or the queue
/// drains (or passes `stop`). Must be called with the token free
/// (`current == None`).
fn advance(core: &Arc<SimCore>, g: &mut Engine, stop: Time) -> Next {
    loop {
        // Pop the next live event.
        let next = loop {
            match g.heap.pop() {
                None => break None,
                Some(Reverse((t, seq, slot))) => {
                    if g.events.get(seq, slot).is_none() {
                        continue; // Cancelled; skip the tombstone.
                    }
                    if t > stop {
                        // Beyond the pause point: put it back untouched
                        // (before any chooser tie-collection, so pausing
                        // never consumes exploration decisions).
                        g.heap.push(Reverse((t, seq, slot)));
                        break None;
                    }
                    if g.chooser.is_none() {
                        break Some((t, seq, slot));
                    }
                    // A chooser is installed: same-time ties are forced-
                    // choice points. Collect every live event tied at `t`
                    // (they surface seq-ascending), let the chooser pick,
                    // and restore the rest.
                    let mut ties = vec![(t, seq, slot)];
                    while let Some(&Reverse((t2, s2, slot2))) = g.heap.peek() {
                        if t2 != t {
                            break;
                        }
                        g.heap.pop();
                        if g.events.get(s2, slot2).is_some() {
                            ties.push((t2, s2, slot2));
                        }
                    }
                    let pick = if ties.len() > 1 {
                        let n = ties.len();
                        let pick = g
                            .chooser
                            .as_mut()
                            .expect("chooser checked present")
                            .choose(n)
                            .min(n - 1);
                        core.journal(g, || JournalRecord::TiePick {
                            n: n as u32,
                            pick: pick as u32,
                        });
                        pick
                    } else {
                        0
                    };
                    let chosen = ties.remove(pick);
                    for &e in &ties {
                        g.heap.push(Reverse(e));
                    }
                    break Some(chosen);
                }
            }
        };
        let Some((t, seq, slot)) = next else {
            return Next::Drained;
        };
        core.now.store(t, Relaxed);
        g.executed += 1;
        let kind = g.events.remove(seq, slot).expect("event checked present");
        g.sched_hash = fnv_fold(
            fnv_fold(fnv_fold(g.sched_hash, t), seq),
            match &kind {
                EvKind::Run { .. } => 1,
                EvKind::Wake { .. } => 2,
                EvKind::Crash { .. } => 3,
                EvKind::Restart { .. } => 4,
            },
        );
        if core.check_on {
            let executed = g.executed;
            g.check.tick_event(executed, t);
        }
        match kind {
            EvKind::Run { host, body } => {
                let h = core.host(host);
                if h.down.load(Relaxed) {
                    continue; // Scheduled before the crash; dies with it.
                }
                return Next::Task(start_lp(core, g, host, body, h.arrive(t, 0), seq));
            }
            EvKind::Crash { host } => {
                let h = core.host(host);
                if h.down.load(Relaxed) {
                    continue; // Already down.
                }
                h.down.store(true, Relaxed);
                bump(&h.crashes, 1);
                core.journal(g, || JournalRecord::Boot {
                    host: host.0 as u32,
                    kind: 0,
                    t,
                });
                // In-flight deliveries, timers, and spawned runs on the
                // host die with it, as do pending wakes for its
                // processes. Crash/Restart events survive — a scheduled
                // restart must not be purged by its own crash.
                let Engine {
                    events,
                    lps,
                    reap,
                    check,
                    ..
                } = &mut *g;
                events.remove_where(|k| match k {
                    EvKind::Run { host: h, .. } => *h == host,
                    EvKind::Wake { lp, .. } => {
                        lps.get(lp.id, lp.slot).is_some_and(|s| s.host == host)
                    }
                    _ => false,
                });
                // Blocked processes on the host are killed: the run loop
                // reaps them (unwinding coroutines via a filtered panic)
                // at its next deterministic reap point.
                for (id, slot, st) in lps.iter_mut() {
                    if st.host == host && st.state == RunState::Blocked {
                        st.state = RunState::Killed;
                        reap.push(LpId { id, slot });
                    }
                }
                if core.check_on {
                    // Every process of the crashed host had its pending
                    // wakes purged; late signals to them are expected, not
                    // lost wakeups.
                    let mut doomed: Vec<u64> = lps
                        .iter()
                        .filter(|(_, _, s)| s.host == host)
                        .map(|(id, _, _)| id)
                        .collect();
                    doomed.sort_unstable();
                    for lp in doomed {
                        check.on_lp_killed(lp);
                    }
                }
            }
            EvKind::Restart { host } => {
                let h = core.host(host);
                if !h.down.load(Relaxed) {
                    continue; // Not down; nothing to restart.
                }
                h.down.store(false, Relaxed);
                h.epoch.store(h.epoch.load(Relaxed) + 1, Relaxed);
                bump(&h.restarts, 1);
                let jumped = h.arrive(t, 0);
                core.journal(g, || JournalRecord::Boot {
                    host: host.0 as u32,
                    kind: 1,
                    t,
                });
                // The kernel reboots as a fresh shepherd process, giving
                // every protocol its reboot hook.
                let f: Thunk = Box::new(move |ctx: &Ctx| {
                    if let Err(e) = ctx.kernel_ref().reboot_protocols(ctx) {
                        panic!("reboot failed on host {}: {e}", ctx.host().0);
                    }
                });
                return Next::Task(start_lp(core, g, host, ProcBody::Thunk(f), jumped, seq));
            }
            EvKind::Wake { lp, reason } => {
                let Some(st) = g.lp_mut(lp).filter(|st| st.state == RunState::Blocked) else {
                    // Process already gone, or not blocked (cancellation
                    // should prevent the latter): a stale wake.
                    if core.check_on {
                        g.check.on_stale_wake(lp.id);
                    }
                    continue;
                };
                let host = st.host;
                st.state = RunState::Running;
                let woken = Woken {
                    lp,
                    host,
                    body: st.body.take().expect("blocked process has a continuation"),
                    reason,
                    waited: st.wait_sema.take(),
                };
                g.current = Some(lp);
                let switch = core.cost.proc_switch;
                let (idle, now) = core.host(host).arrive(t, switch);
                // Both the wait and the resume switch belong to the woken
                // process's span stack (e.g. CHANNEL blocked for a reply).
                if core.trace_on {
                    let key = SpanKey::Lp(lp.id);
                    g.trace.attribute(host.0, key, OpClass::Idle, idle, now);
                    g.trace.attribute(host.0, key, OpClass::Switch, switch, now);
                }
                return Next::Resume(woken);
            }
        }
    }
}

/// Registers a fresh logical process on `host` (ids allocated in event
/// order, which determinism depends on) and claims the run token for it.
/// `jumped` is what [`HostCell::arrive`] reported for the event (`seq`)
/// that starts it.
fn start_lp(
    core: &SimCore,
    g: &mut Engine,
    host: HostId,
    body: ProcBody,
    (idle, now): (Nanos, Time),
    seq: u64,
) -> Task {
    // The fresh process has no span stack yet; the host sat idle (wire
    // latency, timer wait) until this event.
    if core.trace_on && idle > 0 {
        g.trace
            .attribute_stack(host.0, EMPTY_STACK, None, OpClass::Idle, idle, now);
    }
    let id = g.next_lp;
    g.next_lp += 1;
    let slot = g.lps.insert(
        id,
        LpState {
            host,
            state: RunState::Running,
            body: None,
            wait_sema: None,
        },
    );
    g.peak_live = g.peak_live.max(g.lps.len());
    let lp = LpId { id, slot };
    g.current = Some(lp);
    if core.check_on {
        // The new process inherits its spawner's clock via the deposit
        // keyed by the starting event's seq (if one was made).
        g.check.on_lp_start(id, host.0, seq);
    }
    Task { lp, host, body }
}

/// Installs (once, process-wide) a panic hook that silences the
/// [`CrashKill`]/[`FuelKill`] unwinds used to reap killed processes;
/// everything else is forwarded to the previous hook.
fn install_crash_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<CrashKill>() || info.payload().is::<FuelKill>() {
                return;
            }
            prev(info);
        }));
    });
}

/// The scheduler lock as the run loop passes it around: every driver below
/// takes the guard, releases it only while the process body runs, and hands
/// it back re-acquired, so one process step costs one release/acquire pair.
type EngineGuard<'a> = OwnerGuard<'a, Engine>;

/// Starts a fresh process's body. Thunks run as a coroutine until they
/// block or finish; machines step on this stack under
/// `mctx`, the run loop's reusable machine context. The run token is
/// already `task.lp`.
fn run_task<'a>(
    core: &'a Arc<SimCore>,
    g: EngineGuard<'a>,
    mctx: &mut Ctx,
    task: Task,
) -> EngineGuard<'a> {
    let Task { lp, host, body } = task;
    let fuel = core.fuel_limit.unwrap_or(u64::MAX);
    match body {
        ProcBody::Thunk(f) => {
            // A coroutine keeps its context on its own stack across yields.
            let ctx = Ctx {
                core: Arc::clone(core),
                host,
                lp: Some(lp),
            };
            drive_coro(core, g, lp, vproc::Coro::new(f, ctx, fuel), RESUME_NORMAL)
        }
        ProcBody::Machine(m) => {
            drop(g);
            step_machine(
                core,
                mctx,
                lp,
                host,
                Machine { m, fuel },
                WakeReason::Normal,
            )
        }
    }
}

/// Resumes a coroutine, handing it `token`, and parks or retires it
/// afterwards.
fn drive_coro<'a>(
    core: &'a Arc<SimCore>,
    g: EngineGuard<'a>,
    lp: LpId,
    mut coro: vproc::Coro,
    token: u64,
) -> EngineGuard<'a> {
    drop(g);
    let finished = coro.resume(token);
    let mut g = core.engine.lock();
    if finished {
        if let Some(p) = coro.retire() {
            if p.is::<CrashKill>() {
                // Normal death of a process whose host crashed.
            } else if p.is::<FuelKill>() {
                g.fuel_exhausted += 1;
                if core.check_on {
                    // Killed mid-protocol: late signals to it are expected,
                    // not lost wakeups.
                    g.check.on_lp_killed(lp.id);
                }
            } else {
                let text = p
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                g.panics.push(text);
            }
        }
        finalize_lp(core, &mut g, lp);
    } else {
        // Blocked: `Ctx::block` already marked it and released the run
        // token; park the suspended stack with the process.
        g.lp_mut(lp)
            .expect("suspended process still registered")
            .body = Some(LpBody::Coro(coro));
    }
    g
}

/// Resumes a blocked process the scheduler just woke. The run token is
/// already `woken.lp`.
fn resume_lp<'a>(
    core: &'a Arc<SimCore>,
    mut g: EngineGuard<'a>,
    mctx: &mut Ctx,
    woken: Woken,
) -> EngineGuard<'a> {
    let Woken {
        lp,
        host,
        body,
        reason,
        waited,
    } = woken;
    if core.check_on {
        if let Some(sema_id) = waited {
            // The scheduler performed the wait; close it out as the
            // process resumes.
            g.check
                .on_wait_end(lp.id, sema_id, reason == WakeReason::Normal);
        }
    }
    match body {
        LpBody::Coro(coro) => {
            let token = match reason {
                WakeReason::Normal => RESUME_NORMAL,
                WakeReason::Timeout => RESUME_TIMEOUT,
            };
            drive_coro(core, g, lp, coro, token)
        }
        LpBody::Machine(c) => {
            drop(g);
            step_machine(core, mctx, lp, host, c, reason)
        }
    }
}

/// Runs a machine from one blocking point to the next (or to completion),
/// performing the returned [`VStep`]s on its behalf. Called without the
/// scheduler lock, with the run token `lp`; returns holding the lock. The
/// machine borrows `ctx` (re-aimed at it here) only while it runs, so a
/// parked machine holds no reference to the simulation.
fn step_machine<'a>(
    core: &'a Arc<SimCore>,
    ctx: &mut Ctx,
    lp: LpId,
    host: HostId,
    mut c: Machine,
    mut reason: WakeReason,
) -> EngineGuard<'a> {
    ctx.host = host;
    ctx.lp = Some(lp);
    let ctx = &*ctx;
    let host = core.host(host);
    loop {
        // Machines pay one fuel unit per resume; exhaustion kills the
        // process at this deterministic point, like a coroutine's FuelKill.
        if c.fuel == 0 {
            let mut g = core.engine.lock();
            g.fuel_exhausted += 1;
            finalize_lp(core, &mut g, lp);
            if core.check_on {
                g.check.on_lp_killed(lp.id);
            }
            return g;
        }
        if c.fuel != u64::MAX {
            c.fuel -= 1;
        }
        bump(&host.fuel, 1);
        let how = match c.m.resume(ctx, reason) {
            VStep::Done => {
                let mut g = core.engine.lock();
                finalize_lp(core, &mut g, lp);
                return g;
            }
            VStep::Sleep(dt) => Block::Sleep(dt),
            VStep::Wait { sema, timeout } => {
                if sema.wait_begin(ctx, timeout) != Enqueued::Queued {
                    // Fast path: a unit was available; no block happened.
                    reason = WakeReason::Normal;
                    continue;
                }
                Block::Sema(sema.0.id)
            }
        };
        let (mut g, _) = ctx.block(core, lp, how);
        g.lp_mut(lp).expect("machine process registered").body = Some(LpBody::Machine(c));
        return g;
    }
}

/// Retires a finished or killed process: releases the run token if it holds
/// it, unregisters it, and discards its span stack.
fn finalize_lp(core: &SimCore, g: &mut Engine, lp: LpId) {
    if g.current == Some(lp) {
        g.current = None;
    }
    g.lps.remove(lp.id, lp.slot);
    if core.trace_on {
        // The guards unwound with the process; discard its (empty) span
        // stack so the table doesn't grow with process count.
        g.trace.drop_key(SpanKey::Lp(lp.id));
    }
}

/// Reaps one crash-killed process: a coroutine is resumed so it unwinds via
/// [`CrashKill`] (running its drop guards), a machine is simply dropped.
/// Called with the run token free.
fn reap_lp<'a>(core: &'a Arc<SimCore>, mut g: EngineGuard<'a>, lp: LpId) -> EngineGuard<'a> {
    let body = match g.lp_mut(lp) {
        Some(st) if st.state == RunState::Killed => st.body.take(),
        // Already gone (e.g. reaped via an earlier crash); nothing to do.
        _ => return g,
    };
    match body {
        // The resumed `Ctx::block_current` sees the kill token and unwinds
        // with CrashKill; the coroutine finishes, so drive_coro retires it.
        Some(LpBody::Coro(coro)) => drive_coro(core, g, lp, coro, RESUME_KILLED),
        Some(LpBody::Machine(_)) | None => {
            finalize_lp(core, &mut g, lp);
            g
        }
    }
}

/// Execution context handed to every protocol operation: identifies the
/// current host and (in scheduled mode) the current shepherd process, and
/// provides time, charging, timers, and spawning.
#[derive(Clone)]
pub struct Ctx {
    core: Arc<SimCore>,
    host: HostId,
    lp: Option<LpId>,
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

    /// A shared handle to the kernel of the current host, for set-up code
    /// that keeps it. Protocols crossing a layer use [`Ctx::kernel_ref`].
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
    fn cell(&self) -> &HostCell {
        self.core.host(self.host)
    }

    /// This context re-bound to another host (used by the inline network to
    /// continue the call chain on the destination kernel).
    pub fn with_host(&self, host: HostId) -> Ctx {
        Ctx {
            core: Arc::clone(&self.core),
            host,
            lp: self.lp,
        }
    }

    /// Current virtual time of this host's CPU (0 in inline mode).
    #[inline]
    pub fn now(&self) -> Time {
        if self.core.mode == Mode::Inline {
            return 0;
        }
        self.cell().cpu.load(Relaxed)
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
    /// a [`Ctx::fuel_tick`].
    #[inline]
    fn charge_clock(&self, class: OpClass, ns: Nanos) {
        let h = self.cell();
        bump(&h.fuel, 1);
        let t = bump(&h.cpu, ns);
        if self.core.trace_on {
            self.attribute(class, ns, t);
        }
    }

    /// The traced half of a charge: `ns` of `class`, ending at host time
    /// `t`, goes to the active layer's ledger entry.
    #[cold]
    #[inline(never)]
    fn attribute(&self, class: OpClass, ns: Nanos, t: Time) {
        self.core
            .engine
            .lock()
            .trace
            .attribute(self.host.0, self.span_key(), class, ns, t);
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
            RobustEvent::CorruptRejected => &h.corrupt_rejected,
            RobustEvent::TimeoutFired => &h.timeouts_fired,
        };
        bump(tally, 1);
    }

    /// This host's boot incarnation: 0 at first boot, bumped on every
    /// [`Sim::restart`].
    pub fn boot_epoch(&self) -> u32 {
        self.core
            .hosts
            .get(self.host.0)
            .map_or(0, |h| h.epoch.load(Relaxed))
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
    pub fn spawn_on(&self, host: HostId, f: impl FnOnce(&Ctx) + Send + 'static) {
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
        let cpu = self.cell().cpu.load(Relaxed);
        if self.lp.is_some() {
            // Inside a process the host clock alone decides.
            cpu
        } else {
            cpu.max(self.core.now.load(Relaxed))
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
        let t = self.event_time();
        self.schedule_proc_at(t, host, ProcBody::Machine(m));
    }

    /// Schedules `f` to run as a new shepherd process on `host` at absolute
    /// virtual time `t`. Scheduled mode only (inline callers use
    /// [`Ctx::spawn_on`]).
    pub fn schedule_run_at(&self, t: Time, host: HostId, f: Thunk) -> TimerHandle {
        self.schedule_proc_at(t, host, ProcBody::Thunk(f))
    }

    fn schedule_proc_at(&self, t: Time, host: HostId, body: ProcBody) -> TimerHandle {
        assert_eq!(
            self.core.mode,
            Mode::Scheduled,
            "absolute scheduling requires virtual time"
        );
        if self
            .core
            .hosts
            .get(host.0)
            .is_some_and(|h| h.down.load(Relaxed))
        {
            // A crashed host arms no timers and accepts no deliveries; the
            // work is silently dropped, exactly as its in-flight state was.
            return TimerHandle::NONE;
        }
        let mut g = self.core.engine.lock();
        let handle = g.push_event(t, EvKind::Run { host, body });
        if let (true, Some(lp)) = (self.core.check_on, self.lp) {
            // Fork edge: deposit the spawner's clock under the new Run
            // event's seq; the spawned process joins it at start.
            g.check.on_spawn(lp.id, handle.seq);
        }
        handle
    }

    /// Arms a timer: after `dt` of virtual time, `f` runs as a new shepherd
    /// process on this host. In inline mode timers never fire and the
    /// returned handle is inert — protocols must therefore bound any state
    /// they would otherwise rely on a timer to reclaim.
    pub fn schedule_after(&self, dt: Nanos, f: impl FnOnce(&Ctx) + Send + 'static) -> TimerHandle {
        if self.core.mode == Mode::Inline {
            return TimerHandle::NONE;
        }
        self.charge_class(OpClass::Timer, self.core.cost.timer_op);
        let t = self.event_time() + dt;
        self.schedule_run_at(t, self.host, Box::new(f))
    }

    /// Cancels a timer. Harmless if it already fired or is inert.
    pub fn cancel_timer(&self, h: TimerHandle) {
        if h == TimerHandle::NONE || self.core.mode == Mode::Inline {
            return;
        }
        self.charge_class(OpClass::Timer, self.core.cost.timer_op);
        self.core.engine.lock().events.remove(h.seq, h.slot);
    }

    /// Blocks the current shepherd process until woken; returns why it woke.
    ///
    /// # Panics
    ///
    /// Panics in inline mode or outside a shepherd process: blocking there
    /// indicates either a lock-discipline violation or a workload that
    /// genuinely needs scheduled mode.
    fn block_current(&self, how: Block) -> WakeReason {
        let lp = match (self.core.mode, self.lp) {
            (Mode::Scheduled, Some(lp)) => lp,
            (Mode::Inline, _) => panic!(
                "process would block in inline mode: the awaited event cannot \
                 occur (use scheduled mode for this workload)"
            ),
            (_, None) => panic!("blocking outside a shepherd process"),
        };
        let (g, charged) = self.block(&self.core, lp, how);
        drop(g);
        if charged {
            // The switch charge's fuel tick, owed since `block` (a kill
            // here leaves the process marked blocked, which retiring it
            // ignores).
            self.fuel_tick();
        }
        // Suspend this coroutine; the scheduler's run loop picks the next
        // event. The next resume lands right here, with the scheduler's
        // verdict.
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
    /// [`Sema::p`], [`SharedSema::p_timeout`]) and machines
    /// ([`VStep::Sleep`], [`VStep::Wait`]): pays the process switch, files
    /// the wake a sleep needs, marks `lp` blocked and releases the run
    /// token — under one acquisition of the scheduler lock, which it
    /// returns still held so the caller can park a machine's continuation
    /// (a coroutine's caller drops it and yields), with whether the switch
    /// was charged (and a coroutine so owes a [`Ctx::fuel_tick`]). `core`
    /// is this context's simulation, passed apart so the guard outlives the
    /// borrow of `self`.
    fn block<'a>(&self, core: &'a SimCore, lp: LpId, how: Block) -> (EngineGuard<'a>, bool) {
        // A sleep's wake is stamped from the host clock *before* the
        // switch charge lands.
        let (wake_at, wait_sema) = match how {
            Block::Sleep(dt) => (Some(self.event_time() + dt), None),
            Block::Sema(id) => (None, Some(id)),
        };
        let charged = self.charges(core.cost.proc_switch);
        if charged {
            self.charge_clock(OpClass::Switch, core.cost.proc_switch);
        }
        let mut g = core.engine.lock();
        if let Some(t) = wake_at {
            let reason = WakeReason::Normal;
            g.push_event(t, EvKind::Wake { lp, reason });
        }
        let st = g.lp_mut(lp).expect("current process registered");
        st.state = RunState::Blocked;
        st.wait_sema = wait_sema;
        g.current = None;
        (g, charged)
    }

    /// Schedules a wake for a blocked process at this context's current
    /// time, first cancelling (and paying for) the timeout timer `cancel`
    /// that would otherwise wake it. Used by [`Sema`]; stale wakes are
    /// prevented by that cancellation, and ignored defensively by the
    /// scheduler.
    fn wake(&self, lp: LpId, reason: WakeReason, cancel: Option<TimerHandle>) {
        let cancel = cancel.filter(|h| *h != TimerHandle::NONE);
        if cancel.is_some() {
            self.charge_class(OpClass::Timer, self.core.cost.timer_op);
        }
        let t = self.event_time();
        let mut g = self.core.engine.lock();
        if let Some(h) = cancel {
            g.events.remove(h.seq, h.slot);
        }
        g.push_event(t, EvKind::Wake { lp, reason });
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
        if !self.core.journal_on.load(Relaxed) {
            return;
        }
        self.core.engine.lock().journal.push(JournalRecord::Fault {
            lan,
            index,
            kind,
            aux,
        });
    }

    /// Whether structured tracing is enabled.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.core.trace_on
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
        if self.core.trace_on {
            self.record_event(kind, len);
        }
    }

    /// The traced half of [`Ctx::trace_event`].
    #[cold]
    #[inline(never)]
    fn record_event(&self, kind: EventKind, len: u64) {
        let t = self.now();
        let mut g = self.core.engine.lock();
        let tr = &mut g.trace;
        let proto = tr.top(self.span_key());
        tr.record(Event {
            host: self.host,
            t,
            proto,
            kind,
            len,
            ns: 0,
        });
    }

    /// Enters a protocol layer's span: subsequent charges from this
    /// context (until the guard drops) are attributed to `proto`. The
    /// `dyn Session`/`dyn Protocol` wrappers in [`crate::proto`] call this
    /// at every push/demux boundary; protocol code never needs to.
    pub fn enter_layer(&self, proto: ProtoId, kind: EventKind, msg_len: u64) -> LayerSpan {
        if !self.core.trace_on {
            return LayerSpan { inner: None };
        }
        let t = self.now();
        let key = self.span_key();
        let mut g = self.core.engine.lock();
        let tr = &mut g.trace;
        tr.span_push(key, proto);
        tr.record(Event {
            host: self.host,
            t,
            proto: Some(proto),
            kind,
            len: msg_len,
            ns: 0,
        });
        LayerSpan {
            inner: Some((Arc::clone(&self.core), key)),
        }
    }

    /// The per-layer cost ledger accumulated so far (empty unless tracing
    /// is enabled). Callable mid-run from inside a shepherd process, which
    /// is race-free in scheduled mode (one process runs at a time).
    pub fn cost_breakdown(&self) -> CostBreakdown {
        breakdown_of(&self.core, &self.core.engine.lock().trace)
    }

    /// Clears the event rings and cost ledger; see [`Sim::trace_clear`].
    pub fn trace_clear(&self) {
        if !self.core.trace_on {
            return;
        }
        self.core.engine.lock().trace.clear();
    }
}

/// RAII guard for one layer's span: created by [`Ctx::enter_layer`], pops
/// the span frame when dropped (including during a crash unwind, so span
/// stacks stay balanced under [`Sim::crash_at`]). Inert when tracing is
/// off — no allocation, no locking.
pub struct LayerSpan {
    inner: Option<(Arc<SimCore>, SpanKey)>,
}

impl Drop for LayerSpan {
    fn drop(&mut self) {
        if let Some((core, key)) = self.inner.take() {
            core.engine.lock().trace.span_pop(key);
        }
    }
}

/// How a process blocks (see [`Ctx::block`]): for a stretch of virtual
/// time, or on the semaphore with the given checker id.
#[derive(Clone, Copy)]
enum Block {
    Sleep(Nanos),
    Sema(u64),
}

/// What the front half of a P found (see [`Sema::enqueue`]).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Enqueued {
    /// A unit was free and is now held; no wait.
    Acquired,
    /// No unit is free and inline mode cannot wait for one.
    Inline,
    /// The process is queued as a waiter and must block.
    Queued,
}

struct Waiter {
    lp: LpId,
    timer: Option<TimerHandle>,
    seq: u64,
}

struct SemaState {
    count: i64,
    waiters: VecDeque<Waiter>,
    next_seq: u64,
}

/// A counting semaphore integrated with the simulator: P blocks the shepherd
/// process in scheduled mode; in inline mode P on a zero count is a
/// programming error for plain [`Sema::p`] and a clean `false` for
/// [`SharedSema::p_timeout`] (the awaited event can never arrive inline, so the
/// timeout outcome is the truthful one).
pub struct Sema {
    st: OwnerCell<SemaState>,
    /// Globally unique identity for the checker's holding/wait-for maps.
    id: u64,
    /// Human-readable label for violation reports.
    label: &'static str,
}

/// Source of [`Sema::id`] values; process-wide so distinct simulations
/// never alias.
static NEXT_SEMA_ID: AtomicU64 = AtomicU64::new(0);

impl Sema {
    /// A semaphore with the given initial count.
    pub fn new(initial: i64) -> Sema {
        Sema::labeled(initial, "sema")
    }

    /// A semaphore with the given initial count and a label that xcheck
    /// violation reports (deadlock cycles, double waits) will carry.
    pub fn labeled(initial: i64, label: &'static str) -> Sema {
        Sema {
            st: OwnerCell::new(SemaState {
                count: initial,
                waiters: VecDeque::new(),
                next_seq: 0,
            }),
            id: NEXT_SEMA_ID.fetch_add(1, Relaxed),
            label,
        }
    }

    /// Current count (tests/introspection).
    pub fn count(&self) -> i64 {
        self.st.lock().count
    }

    /// Captures `(count, next_seq)` for a whole-sim snapshot. Legal only at
    /// a quiescent instant — no process can be parked on the semaphore
    /// then, so losing the (empty) waiter queue is sound.
    pub fn snap_state(&self) -> (i64, u64) {
        let st = self.st.lock();
        debug_assert!(
            st.waiters.is_empty(),
            "sema snapshot with waiters parked (not quiescent)"
        );
        (st.count, st.next_seq)
    }

    /// Restores state captured by [`Sema::snap_state`]. Same quiescence
    /// requirement; any stray waiters are dropped.
    pub fn restore_state(&self, (count, next_seq): (i64, u64)) {
        let mut st = self.st.lock();
        st.waiters.clear();
        st.count = count;
        st.next_seq = next_seq;
    }

    /// The front half of every P — [`Sema::p`], [`SharedSema::p_timeout`]
    /// and a machine's [`VStep::Wait`] alike: pays the semaphore operation,
    /// takes a unit if one is free, and otherwise queues the process as a
    /// waiter. With `timeout`, a queued waiter also gets the timer that
    /// gives up for it: `timeout` carries the shared handle the timer's
    /// process needs to find this semaphore again.
    fn enqueue(&self, ctx: &Ctx, timeout: Option<(&Arc<Sema>, Nanos)>) -> Enqueued {
        ctx.charge_class(OpClass::Sema, ctx.cost().sema_op);
        let mut st = self.st.lock();
        if st.count > 0 {
            st.count -= 1;
            drop(st);
            if let (true, Some(lp)) = (ctx.core.check_on, ctx.lp) {
                ctx.core
                    .engine
                    .lock()
                    .check
                    .on_acquire(lp.id, self.id, self.label, ctx.host.0);
            }
            return Enqueued::Acquired;
        }
        if ctx.mode() == Mode::Inline {
            return Enqueued::Inline;
        }
        let lp = ctx.lp.expect("P outside a shepherd process");
        let seq = st.next_seq;
        st.next_seq += 1;
        st.waiters.push_back(Waiter {
            lp,
            timer: None,
            seq,
        });
        drop(st);
        if ctx.core.check_on {
            ctx.core
                .engine
                .lock()
                .check
                .on_wait_begin(lp.id, self.id, self.label, ctx.host.0);
        }
        if let Some((me, dt)) = timeout {
            let me = Arc::clone(me);
            let timer = ctx.schedule_after(dt, move |tctx| {
                let mut st = me.st.lock();
                if let Some(pos) = st.waiters.iter().position(|w| w.seq == seq) {
                    st.waiters.remove(pos);
                    drop(st);
                    tctx.wake(lp, WakeReason::Timeout, None);
                }
            });
            let mut st = self.st.lock();
            if let Some(w) = st.waiters.iter_mut().find(|w| w.seq == seq) {
                w.timer = Some(timer);
            }
        }
        Enqueued::Queued
    }

    /// P: acquire one unit, blocking until available.
    pub fn p(&self, ctx: &Ctx) {
        match self.enqueue(ctx, None) {
            Enqueued::Acquired => {}
            Enqueued::Inline => panic!("Sema::p would block in inline mode"),
            Enqueued::Queued => {
                let reason = ctx.block_current(Block::Sema(self.id));
                debug_assert_eq!(reason, WakeReason::Normal, "untimed P woke by timeout");
            }
        }
    }

    /// V: release one unit, waking the longest-waiting process if any.
    pub fn v(&self, ctx: &Ctx) {
        ctx.charge_class(OpClass::Sema, ctx.cost().sema_op);
        let woken = {
            let mut st = self.st.lock();
            let woken = st.waiters.pop_front();
            if woken.is_none() {
                st.count += 1;
            }
            woken
        };
        if ctx.core.check_on {
            ctx.core.engine.lock().check.on_release(
                ctx.lp.map(|l| l.id),
                self.id,
                self.label,
                ctx.host.0,
                woken.as_ref().map(|w| w.lp.id),
            );
        }
        if let Some(w) = woken {
            ctx.wake(w.lp, WakeReason::Normal, w.timer);
        }
    }
}

/// The shareable semaphore: a thin `Arc` wrapper whose
/// [`SharedSema::p_timeout`] can safely hand the semaphore to its timeout
/// closure.
#[derive(Clone)]
pub struct SharedSema(Arc<Sema>);

impl SharedSema {
    /// A shareable semaphore with the given initial count.
    pub fn new(initial: i64) -> SharedSema {
        SharedSema(Arc::new(Sema::new(initial)))
    }

    /// A shareable labeled semaphore (see [`Sema::labeled`]).
    pub fn labeled(initial: i64, label: &'static str) -> SharedSema {
        SharedSema(Arc::new(Sema::labeled(initial, label)))
    }

    /// Current count.
    pub fn count(&self) -> i64 {
        self.0.count()
    }

    /// Captures `(count, next_seq)`; see [`Sema::snap_state`].
    pub fn snap_state(&self) -> (i64, u64) {
        self.0.snap_state()
    }

    /// Restores captured state; see [`Sema::restore_state`].
    pub fn restore_state(&self, state: (i64, u64)) {
        self.0.restore_state(state)
    }

    /// P: acquire, blocking.
    pub fn p(&self, ctx: &Ctx) {
        self.0.p(ctx)
    }

    /// V: release.
    pub fn v(&self, ctx: &Ctx) {
        self.0.v(ctx)
    }

    /// P with timeout; `true` if acquired.
    pub fn p_timeout(&self, ctx: &Ctx, dt: Nanos) -> bool {
        match self.wait_begin(ctx, Some(dt)) {
            Enqueued::Acquired => true,
            Enqueued::Inline => false,
            Enqueued::Queued => {
                matches!(
                    ctx.block_current(Block::Sema(self.0.id)),
                    WakeReason::Normal
                )
            }
        }
    }

    /// Everything of a (possibly timed) P short of the block itself; see
    /// [`Sema::enqueue`]. The scheduler closes the wait out (the checker's
    /// wait-end hook) when it resumes the process.
    fn wait_begin(&self, ctx: &Ctx, timeout: Option<Nanos>) -> Enqueued {
        self.0.enqueue(ctx, timeout.map(|dt| (&self.0, dt)))
    }
}
