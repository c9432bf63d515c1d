//! Fault-timeline bisection: minimize a failing chaos scenario to the
//! single injected fault that breaks it.
//!
//! A failing scenario under a heavy profile realizes dozens of wire
//! faults; usually one of them (a drop in exactly the wrong window, a
//! duplicate racing a retransmission) is what actually trips the
//! invariant. The bisector binary-searches the recorded fault timeline:
//!
//! 1. Run once with fault *recording* on — every suppressible decision
//!    (drop, duplicate, corruption; not delays, which are timing rather
//!    than faults) is logged with its global packet index.
//! 2. Probe with a suppression cutoff: faults at packet index >= cutoff
//!    are overridden to clean delivery. Crucially the fault schedule
//!    still consumes *identical PRNG draws* for every packet, so the
//!    prefix before the cutoff replays bit-exactly (see
//!    [`simnet::SimNet::suppress_faults_from`]).
//! 3. Binary-search the smallest kept prefix that still fails. The last
//!    event of that prefix is the culprit: keeping everything before it
//!    passes, adding it back fails.
//!
//! The outcome carries a replayable repro string — scenario coordinates
//! plus the cutoff — so the minimized failure is two integers away for
//! anyone with the repo.

use simnet::FaultEvent;

use crate::{ChaosReport, FaultRecording, RunOpts, Scenario};

/// A minimized failure: the single fault event whose suppression flips
/// the scenario from failing to passing.
#[derive(Clone, Debug)]
pub struct BisectOutcome {
    /// The culprit fault event (pre-suppression decision, wire time, and
    /// global packet index).
    pub culprit: FaultEvent,
    /// Recorded fault events kept (realized) in the minimal failing run —
    /// the culprit is the last of them.
    pub kept: usize,
    /// Total fault events the unsuppressed run recorded.
    pub total: usize,
    /// Scenario probes the search spent (excluding the initial full run).
    pub probes: u32,
    /// Invariant failures of the minimal failing run.
    pub failures: Vec<String>,
    /// A replayable description: scenario coordinates plus the
    /// suppression cutoffs that fail and pass.
    pub repro: String,
}

/// Why a scenario cannot be bisected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BisectError {
    /// The full (unsuppressed) run satisfies every invariant.
    NoFailure,
    /// The run fails even with every fault suppressed: the failure is not
    /// caused by the injected drop/duplicate/corrupt events (a genuine
    /// protocol bug, or a delay-induced failure bisection cannot reach).
    NotFaultInduced,
    /// The run fails but recorded no suppressible fault events.
    NoFaultsRecorded,
}

impl std::fmt::Display for BisectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BisectError::NoFailure => write!(f, "scenario passes; nothing to bisect"),
            BisectError::NotFaultInduced => {
                write!(f, "scenario fails with all faults suppressed")
            }
            BisectError::NoFaultsRecorded => {
                write!(f, "scenario fails but no suppressible fault was recorded")
            }
        }
    }
}

/// The suppression cutoff that keeps (realizes) exactly `events[..k]`:
/// one past the last kept event's packet index, or 0 to suppress all.
fn cutoff_keeping(events: &[FaultEvent], k: usize) -> u64 {
    if k == 0 {
        0
    } else {
        events[k - 1].index + 1
    }
}

/// One probe: `sc` with fault recording on and every recorded-class fault
/// at packet index >= `suppress_from` suppressed.
fn probe(sc: &Scenario, suppress_from: Option<u64>) -> (ChaosReport, Vec<FaultEvent>) {
    let out = sc.run_with(RunOpts {
        record_faults: FaultRecording::On { suppress_from },
        ..RunOpts::default()
    });
    (out.report, out.faults)
}

/// Bisects `sc`'s injected-fault timeline down to the first fault event
/// whose suppression makes every invariant pass.
///
/// Each probe is a whole fresh scenario run (determinism makes this
/// sound: the same seed and cutoff always reproduce the same run), so
/// the cost is `O(log n)` runs for `n` recorded faults.
pub fn bisect(sc: &Scenario) -> Result<BisectOutcome, BisectError> {
    let (full, events) = probe(sc, None);
    if sc.invariant_failures(&full).is_empty() {
        return Err(BisectError::NoFailure);
    }
    if events.is_empty() {
        return Err(BisectError::NoFaultsRecorded);
    }

    let mut probes = 0u32;
    let mut fails_keeping = |k: usize| -> (bool, Vec<String>) {
        probes += 1;
        let (r, _) = probe(sc, Some(cutoff_keeping(&events, k)));
        let f = sc.invariant_failures(&r);
        (!f.is_empty(), f)
    };

    // Sanity anchor: suppressing everything must pass, or the failure is
    // not fault-induced and the search space is wrong.
    if fails_keeping(0).0 {
        return Err(BisectError::NotFaultInduced);
    }

    // Invariant: keeping `lo` events passes, keeping `hi` fails.
    let (mut lo, mut hi) = (0usize, events.len());
    let mut hi_failures = sc.invariant_failures(&full);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let (fails, failures) = fails_keeping(mid);
        if fails {
            hi = mid;
            hi_failures = failures;
        } else {
            lo = mid;
        }
    }

    let culprit = events[hi - 1];
    let repro = format!(
        "{}/{:?}/seed={} calls={} population={}: \
         suppress_from={} fails, suppress_from={} passes; \
         culprit packet #{} at t={}ns: {:?}",
        sc.stack.name(),
        sc.profile,
        sc.seed,
        sc.calls,
        sc.population.max(1),
        cutoff_keeping(&events, hi),
        cutoff_keeping(&events, lo),
        culprit.index,
        culprit.at,
        culprit.decision,
    );
    Ok(BisectOutcome {
        culprit,
        kept: hi,
        total: events.len(),
        probes,
        failures: hi_failures,
        repro,
    })
}
