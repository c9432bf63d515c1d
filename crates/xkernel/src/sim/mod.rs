//! Deterministic virtual-time execution engine.
//!
//! The x-kernel's concurrency model is the *shepherd process*: a light-weight
//! process that escorts one message up or down through the protocol objects,
//! blocking on a semaphore only when it must wait (for a reply, a free
//! channel, a timer). We reproduce that model exactly, in two modes:
//!
//! * [`Mode::Scheduled`] — a discrete-event simulation. Shepherd processes
//!   are *virtual processes* (see [`crate::vproc`]) multiplexed cooperatively
//!   on the scheduler's own thread: thunk bodies, which start as a call on
//!   the stack the run loop is on and keep that stack — a coroutine — from
//!   their first block, and stackless [`crate::vproc::VProc`] state machines
//!   for snapshot-capable or massive populations. Exactly one runs at a
//!   time and blocking happens only at the declared points (semaphore wait,
//!   timer expiry, wire delivery), so execution is fully deterministic
//!   (heap ties broken by insertion order). Virtual CPU time is charged per primitive operation
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

mod ctx;
mod engine;
mod handle;
mod observe;
mod report;
mod sema;
mod snapshot;
mod timeline;

pub use crate::cost::Nanos;
pub use crate::vproc::{VProc, VStep};

pub use ctx::{Ctx, LayerSpan};
pub use engine::Sim;
pub use handle::{SimCore, WeakSim};
pub(crate) use observe::Probe;
pub use report::{HostStats, RejectRow, RobustEvent, RunReport};
pub(crate) use sema::Label;
pub use sema::SharedSema;
pub use snapshot::SimSnapshot;

use crate::cost::CostModel;
use crate::msg::{HeaderPolicy, Message};

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
    /// Whether to record trace events and the per-layer cost ledger (tests,
    /// `benchmark/`'s per-layer run, `xbench xprof`). Fixed at construction;
    /// off, a probe site costs one load and a branch.
    pub trace: bool,
    /// Header-buffer policy for messages created via [`Ctx::msg`] — the
    /// paper's buffer-management design point (see [`crate::msg`]).
    pub policy: HeaderPolicy,
    /// Whether to run the concurrency checker (a holding table and a
    /// wait-for graph over live processes; see [`crate::check`]). Fixed at
    /// construction; on, its cost per call stays flat however long the run.
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

/// A boxed shepherd-process body.
pub type Thunk = Box<dyn FnOnce(&Ctx) + 'static>;

/// What a frame filed with [`Ctx::deliver_at`] is handed to: a device that
/// passes what arrives up its host's stack. The delivery runs as a fresh
/// shepherd process on the receiving host, as a [`Thunk`] would, but the
/// event holds the receiver and the frame themselves, so filing one boxes
/// nothing.
pub trait Receiver {
    /// Takes `msg`, arrived at this receiver's host, in the process `ctx`
    /// runs.
    fn receive(&self, ctx: &Ctx, msg: Message);
}

/// A scheduling-decision oracle for xcheck's bounded schedule exploration.
///
/// The simulator is deterministic: heap ties (events at the same virtual
/// time) break by insertion order. Installing a chooser via
/// [`Sim::set_chooser`] turns every such tie into a *forced-choice point*:
/// the chooser is handed the number of tied live events (in insertion
/// order) and picks which runs first. Enumerating chooser decisions
/// enumerates schedules; see `crates/xcheck`.
pub trait ScheduleChooser {
    /// Picks which of `n` (≥ 2) same-time events to process next; returns
    /// an index in `0..n` (out-of-range values are clamped).
    fn choose(&mut self, n: usize) -> usize;
}
