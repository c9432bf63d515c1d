//! What a run reports: [`RunReport`] and the per-host counters behind
//! [`HostStats`].

use std::cell::Cell;
use std::sync::Arc;

use crate::cell::OwnerCell;
use crate::error::Reject;
use crate::kernel::Kernel;
use crate::proto::ProtoId;
use crate::trace::CostBreakdown;

use super::*;

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
/// retransmits, suppressed duplicates and timeouts via [`Ctx::note`]; the
/// demux seam counts refusals (see [`Sim::rejects`]); the crash/restart
/// machinery maintains the rest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostStats {
    /// Request retransmissions sent by this host's protocols.
    pub retransmits: u64,
    /// Duplicate requests this host suppressed (ack/resend/drop instead of
    /// re-executing).
    pub duplicates_suppressed: u64,
    /// Frames this host's layers refused as corrupt: the sum of its
    /// [`Reject::Corrupt`] rows in [`Sim::rejects`].
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
    /// A retransmission timeout fired.
    TimeoutFired,
}

/// One row of [`Sim::rejects`]: the frames one layer on one host refused
/// for one reason.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RejectRow<'k> {
    /// The refusing host.
    pub host: HostId,
    /// The refusing protocol.
    pub proto: ProtoId,
    /// That protocol's kind ([`crate::kernel::Kernel::kind_of`]).
    pub layer: &'k str,
    /// Why.
    pub why: Reject,
    /// Frames refused.
    pub count: u64,
}

/// One host's kernel, clock and counters. The charging path
/// ([`Ctx::charge_class`], [`Ctx::now`], [`Ctx::note`]) reads plain
/// [`Cell`]s: loads and stores with no guard.
pub(super) struct HostCell {
    pub(super) kernel: Arc<Kernel>,
    pub(super) cpu: Cell<u64>,
    /// Fuel charged on this host: one unit per charged operation plus one
    /// per machine resume ([`RunReport::fuel_used`] is the sum).
    pub(super) fuel: Cell<u64>,
    pub(super) down: Cell<bool>,
    pub(super) epoch: Cell<u32>,
    pub(super) retransmits: Cell<u64>,
    pub(super) duplicates_suppressed: Cell<u64>,
    pub(super) timeouts_fired: Cell<u64>,
    pub(super) crashes: Cell<u64>,
    pub(super) restarts: Cell<u64>,
    /// `(protocol, reason, frames)` refused at the demux seam; a row exists
    /// from its first refusal on, so the next allocates nothing.
    pub(super) rejects: OwnerCell<Vec<(ProtoId, Reject, u64)>>,
}

/// `cell += by`; the new value.
#[inline]
pub(super) fn bump(cell: &Cell<u64>, by: u64) -> u64 {
    let v = cell.get() + by;
    cell.set(v);
    v
}

impl HostCell {
    pub(super) fn new(kernel: Arc<Kernel>) -> HostCell {
        HostCell {
            kernel,
            cpu: Cell::new(0),
            fuel: Cell::new(0),
            down: Cell::new(false),
            epoch: Cell::new(0),
            retransmits: Cell::new(0),
            duplicates_suppressed: Cell::new(0),
            timeouts_fired: Cell::new(0),
            crashes: Cell::new(0),
            restarts: Cell::new(0),
            rejects: OwnerCell::new(Vec::new()),
        }
    }

    /// An event at time `t` reaches this host: the clock jumps over the
    /// idle gap (if `t` is ahead of it) and then pays `extra`. Returns the
    /// idle time skipped and the new clock.
    pub(super) fn arrive(&self, t: Time, extra: Nanos) -> (Nanos, Time) {
        let cpu = self.cpu.get();
        let now = cpu.max(t) + extra;
        self.cpu.set(now);
        (t.saturating_sub(cpu), now)
    }

    pub(super) fn stats(&self) -> HostStats {
        HostStats {
            retransmits: self.retransmits.get(),
            duplicates_suppressed: self.duplicates_suppressed.get(),
            corrupt_rejected: self
                .rejects
                .lock()
                .iter()
                .filter(|r| matches!(r.1, Reject::Corrupt(_)))
                .map(|r| r.2)
                .sum(),
            timeouts_fired: self.timeouts_fired.get(),
            crashes: self.crashes.get(),
            restarts: self.restarts.get(),
            cpu_ns: self.cpu.get(),
        }
    }
}
