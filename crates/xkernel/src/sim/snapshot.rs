//! Snapshot and restore of a quiescent simulation.

use std::any::Any;

use crate::error::{Reject, XError, XResult};
use crate::keep::Keep;
use crate::proto::ProtoId;

use super::engine::{Engine, EvKind, LpBody, LpState, Pending, RunState, PROC_KEY};
use super::handle::kernels_of;
use super::report::HostCell;
use super::*;

impl Sim {
    /// Captures the complete mutable state of a *quiescent* simulation: the
    /// scheduler scalars (virtual clock, event/process id counters, the
    /// `sched_hash` fingerprint), the PRNG position and seed, per-host clocks,
    /// crash/boot state and robustness counters, and every protocol's
    /// configuration, sessions and values as its
    /// [`crate::proto::Protocol::keeps`] declares them. Quiescent means
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
        // Every pending key is a wake (eligibility above): a parked
        // machine's, in its slot, or a free-standing one. Capture each with
        // the time its timeline key carries, sorted by seq so restore
        // rebuilds the identical queue. Stale wakes (their process already
        // gone) are captured too: the scheduler still processes — and
        // hashes — them.
        let mut wakes: Vec<SnapWake> = g
            .timeline
            .iter()
            .filter_map(|&(t, seq, slot)| {
                let (lp, reason) = if slot & PROC_KEY != 0 {
                    g.lps.wake_in(seq, slot & !PROC_KEY)?
                } else {
                    match g.events.get(seq, slot)? {
                        &EvKind::Wake { lp, reason } => (lp.id, reason),
                        _ => return None,
                    }
                };
                Some(SnapWake { t, seq, lp, reason })
            })
            .collect();
        wakes.sort_unstable_by_key(|w| w.seq);
        let mut machines: Vec<SnapMachine> = g
            .lps
            .iter()
            .map(|(id, _, st)| {
                let Some(LpBody::Machine { m, fuel }) = &st.body else {
                    unreachable!("eligibility admits only machine continuations");
                };
                SnapMachine {
                    lp: id,
                    host: st.host(),
                    fuel: *fuel,
                    m: m.fork().expect("eligibility admits only forkable machines"),
                }
            })
            .collect();
        machines.sort_unstable_by_key(|sm| sm.lp);
        let mut snap = SimSnapshot {
            now: core.now.get(),
            seq: g.seq,
            next_lp: g.next_lp,
            executed: g.executed,
            sched_hash: g.sched_hash,
            rng: core.rng.get(),
            seed: self.seed(),
            journal_len: g.observers.journal_len(),
            hosts: core.hosts.iter().map(|h| h.save()).collect(),
            fuel_exhausted: g.fuel_exhausted,
            peak_live: g.peak_live,
            wakes,
            machines,
            protos: Vec::new(),
        };
        drop(g);
        for k in kernels_of(core) {
            let mut saved = Vec::new();
            k.keep_walk(&mut Keep::save(&mut saved));
            snap.protos.push(SnapKernel {
                slots: k.protocol_slots().count(),
                saved,
            });
        }
        Ok(snap)
    }

    /// Whether [`Sim::snapshot`] and [`Sim::restore`] would accept the
    /// simulation as it stands (a scheduled one; inline mode never is).
    pub fn is_quiescent(&self) -> bool {
        self.core.mode == Mode::Scheduled && require_quiescent(&self.core.engine.lock()).is_ok()
    }

    /// Rewinds this simulator to `snap` (which [`Sim::snapshot`] captured
    /// from the *same* simulator). Requires quiescence, exactly like
    /// snapshotting. Scheduler scalars, PRNG, host clocks, and every
    /// protocol's declared state are overwritten in place (its scratch is
    /// emptied); the journal is
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
            core.now.set(snap.now);
            g.seq = snap.seq;
            g.next_lp = snap.next_lp;
            g.executed = snap.executed;
            g.sched_hash = snap.sched_hash;
            g.fuel_exhausted = snap.fuel_exhausted;
            g.peak_live = snap.peak_live;
            // The timeline may hold keys for cancelled or already-drained
            // events; with `seq` rewound they would alias freshly allocated
            // sequence numbers, so they must go — as must any machine
            // continuations of the pre-restore present, which the
            // snapshot's copies replace wholesale.
            g.timeline.clear();
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
                let body = LpBody::Machine { m, fuel: sm.fuel };
                let st = LpState::new(sm.host, RunState::Blocked, Some(body));
                slots.push(g.lps.insert(sm.lp, st));
            }
            for w in &snap.wakes {
                // A stale wake's process is gone: it is filed free-standing.
                match snap.machines.binary_search_by_key(&w.lp, |sm| sm.lp) {
                    Ok(i) => g.file_key(w.t, w.seq, slots[i], Pending::Wake(w.reason)),
                    Err(_) => {
                        let kind = EvKind::Wake {
                            lp: LpId {
                                id: w.lp,
                                slot: u32::MAX,
                            },
                            reason: w.reason,
                        };
                        let ev_slot = g.events.insert(w.seq, kind);
                        g.timeline.push((w.t, w.seq, ev_slot));
                    }
                }
            }
            g.observers.journal_truncate(snap.journal_len);
        }
        for (h, sh) in core.hosts.iter().zip(&snap.hosts) {
            h.restore(sh);
        }
        core.rng.set(snap.rng);
        core.seed.set(snap.seed);
        if core.hosts.len() != snap.protos.len() {
            return Err(XError::Config(
                "snapshot is from a different rig (kernel count mismatch)".into(),
            ));
        }
        // Walked in place, not collected: a chaos run restores a rig once a
        // scenario.
        for (h, sk) in core.hosts.iter().zip(&snap.protos) {
            let k = &h.kernel;
            let slots = k.protocol_slots().count();
            if slots != sk.slots {
                return Err(XError::Config(format!(
                    "snapshot is from a different rig ({} protocol slots vs {} on {})",
                    sk.slots,
                    slots,
                    k.name()
                )));
            }
            let mut keep = Keep::restore(&sk.saved);
            k.keep_walk(&mut keep);
            if !keep.matched() {
                return Err(XError::Config(format!(
                    "snapshot is from a different rig (protocol state on {} does not match)",
                    k.name()
                )));
            }
        }
        Ok(())
    }
}

/// Errors unless the simulator is quiescent: fully drained, or paused with
/// only forkable machine continuations suspended on timers (every pending
/// event a wake). Anything else — a running process, a suspended
/// *coroutine* (opaque stack), a machine parked on a semaphore (waiter
/// queues don't round-trip), an unforkable machine, a machine spawned but
/// not started, a pending thunk/crash/restart — is not snapshot material.
fn require_quiescent(g: &Engine) -> XResult<()> {
    let eligible = g.current.is_none()
        && g.reap.is_empty()
        && g.events
            .iter()
            .all(|(_, _, e)| matches!(e, EvKind::Wake { .. }))
        && g.lps.iter().all(|(_, _, st)| {
            st.state == RunState::Blocked
                && !st.on_sema
                && matches!(&st.body, Some(LpBody::Machine { m, .. }) if m.fork().is_some())
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
    fuel: u32,
    m: Box<dyn VProc>,
}

/// One host's scalars and refusal rows captured in a snapshot
/// (`stats.cpu_ns` is its clock).
struct SnapHost {
    down: bool,
    epoch: u32,
    fuel: u64,
    stats: HostStats,
    rejects: Vec<(ProtoId, Reject, u64)>,
}

impl HostCell {
    fn save(&self) -> SnapHost {
        SnapHost {
            down: self.down.get(),
            epoch: self.epoch.get(),
            fuel: self.fuel.get(),
            stats: self.stats(),
            rejects: self.rejects.lock().clone(),
        }
    }

    fn restore(&self, snap: &SnapHost) {
        let s = &snap.stats;
        self.cpu.set(s.cpu_ns);
        self.fuel.set(snap.fuel);
        self.down.set(snap.down);
        self.epoch.set(snap.epoch);
        self.retransmits.set(s.retransmits);
        self.duplicates_suppressed.set(s.duplicates_suppressed);
        self.rejects.lock().clone_from(&snap.rejects);
        self.timeouts_fired.set(s.timeouts_fired);
        self.crashes.set(s.crashes);
        self.restarts.set(s.restarts);
    }
}

/// One kernel's protocol state in a snapshot: what a save walk over its
/// protocols' declarations left, in declaration order.
struct SnapKernel {
    slots: usize,
    saved: Vec<Box<dyn Any>>,
}

/// An opaque whole-sim snapshot; see [`Sim::snapshot`]. Holds the scheduler
/// scalars, PRNG position, per-host state, any suspended machine
/// continuations with their pending wakes, and each kernel's protocol state
/// ([`crate::keep`]).
pub struct SimSnapshot {
    now: Time,
    seq: u64,
    next_lp: u64,
    executed: u64,
    sched_hash: u64,
    rng: u64,
    /// The seed `rng` has been counting from (a [`Sim::reseed`] moves both).
    seed: u64,
    journal_len: usize,
    hosts: Vec<SnapHost>,
    fuel_exhausted: u64,
    peak_live: usize,
    wakes: Vec<SnapWake>,
    machines: Vec<SnapMachine>,
    protos: Vec<SnapKernel>,
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
