//! xcheck's dynamic half: violation detection for the shepherd-process
//! machinery.
//!
//! [`CheckCore`] mirrors the synchronization events the simulator performs —
//! process starts and exits, semaphore P/V, wakes, crashes — into a holding
//! table (the units each live process holds) and a wait table (the
//! semaphore each blocked process waits on). A process's entry goes when it
//! exits, so the cost of a probe does not grow with the run. It is one of
//! the simulator's observers, reached through the same guard as xtrace: one
//! load of the observer mask and a branch per probe site, and the
//! simulator's one lock only for a probe some observer hears. Four
//! violation classes are detected:
//!
//! * **Double wait** — a process P's a semaphore it already holds a unit
//!   of: with a binary count that is self-deadlock.
//! * **Lost wakeup** — a wake arrives for a process that is gone or not
//!   blocked (outside a crash, where purged wakes are expected), or a
//!   process is still blocked at queue drain with no pending signaler.
//! * **Deadlock cycle** — the wait-for graph over blocked processes
//!   (process → awaited semaphore → holders) contains a cycle.
//! * **Cross-host signal** — a V (or wake) whose releaser runs on a
//!   different simulated host than the waiter: shared-memory signalling
//!   across machines that real hardware would not provide.
//!
//! Every violation carries the event index it surfaced at and renders a
//! replayable repro string over the run's `(seed, sched_trace_hash)` pair
//! — re-running the same scenario with the same seed and scheduler
//! decisions reproduces the violation at the same index.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::sim::{HostId, Probe, Time};

/// The class of a detected concurrency violation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ViolationKind {
    /// P on a semaphore the process already holds a unit of.
    DoubleWait,
    /// A wake with no blocked waiter, or a waiter no signal can reach.
    LostWakeup,
    /// A cycle in the wait-for graph over blocked processes.
    DeadlockCycle,
    /// A V/wake crossing simulated-host boundaries.
    CrossHostSignal,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ViolationKind::DoubleWait => "DoubleWait",
            ViolationKind::LostWakeup => "LostWakeup",
            ViolationKind::DeadlockCycle => "DeadlockCycle",
            ViolationKind::CrossHostSignal => "CrossHostSignal",
        })
    }
}

/// One detected violation, with everything needed to reproduce it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Violation {
    /// What went wrong.
    pub kind: ViolationKind,
    /// The logical process at the center of the violation.
    pub lp: u64,
    /// The host that process runs (or ran) on.
    pub host: usize,
    /// The semaphore involved, by label, if one is.
    pub sema: Option<&'static str>,
    /// For deadlocks: the cycle, alternating `lp<N>` and semaphore labels,
    /// closed (first element repeated last).
    pub cycle: Vec<String>,
    /// Scheduler event index the violation surfaced at.
    pub event_index: u64,
    /// Virtual time the violation surfaced at.
    pub time: Time,
    /// Human-readable description.
    pub detail: String,
}

impl Violation {
    /// Renders the replayable repro string for this violation under the
    /// run's seed and schedule hash. Parse it back with [`parse_repro`].
    pub fn repro(&self, seed: u64, sched_hash: u64) -> String {
        format!(
            "xcheck://seed=0x{seed:x}/sched=0x{sched_hash:016x}/ev={}",
            self.event_index
        )
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} lp{} host{} ev{} t{}: {}",
            self.kind, self.lp, self.host, self.event_index, self.time, self.detail
        )
    }
}

/// A parsed repro string: the coordinates that pin one violation to one
/// schedule of one seeded run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Repro {
    /// The run's PRNG seed.
    pub seed: u64,
    /// The run's scheduler-trace hash (every popped event folded in order).
    pub sched_hash: u64,
    /// The event index the violation surfaced at.
    pub event_index: u64,
}

/// Parses a string produced by [`Violation::repro`].
pub fn parse_repro(s: &str) -> Option<Repro> {
    let rest = s.strip_prefix("xcheck://")?;
    let mut seed = None;
    let mut sched = None;
    let mut ev = None;
    for part in rest.split('/') {
        let (k, v) = part.split_once('=')?;
        match k {
            "seed" => seed = u64::from_str_radix(v.strip_prefix("0x")?, 16).ok(),
            "sched" => sched = u64::from_str_radix(v.strip_prefix("0x")?, 16).ok(),
            "ev" => ev = v.parse().ok(),
            _ => return None,
        }
    }
    Some(Repro {
        seed: seed?,
        sched_hash: sched?,
        event_index: ev?,
    })
}

/// Summary of what the checker observed, returned by `Sim::check_report`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Whether checking was enabled (all other fields are empty if not).
    pub enabled: bool,
    /// Every violation detected, in detection order (deadlock/lost-wakeup
    /// scans of still-blocked processes run at report time and come last).
    pub violations: Vec<Violation>,
    /// Logical processes started while the checker watched.
    pub lps: usize,
    /// Distinct semaphores that participated in a P or V.
    pub semas: usize,
}

/// Per-process wait bookkeeping: which semaphore a blocked process is
/// parked on.
#[derive(Clone, Copy)]
struct Waiting {
    sema: u64,
    label: &'static str,
}

/// What the checker knows of one live process.
struct Proc {
    host: usize,
    /// One semaphore id per unit held of a lock-style semaphore.
    held: Vec<u64>,
    /// The semaphore it is blocked on, if any.
    waiting: Option<Waiting>,
}

/// The checker state: one of the simulator's observers, in its engine's
/// cell, fed by probe only while checking is on.
#[derive(Default)]
pub(crate) struct CheckCore {
    /// Mirrors of the scheduler's event counter and clock, updated as each
    /// event is popped, so violations can cite their position.
    event_index: u64,
    now: Time,
    /// Live processes, each dropped as it finishes.
    procs: HashMap<u64, Proc>,
    /// Holding lists of finished processes, reused so a warm run allocates
    /// nothing.
    spare: Vec<Vec<u64>>,
    /// Processes started.
    started: usize,
    /// Semaphore id → label, for reporting.
    sema_label: HashMap<u64, &'static str>,
    /// Killed processes and their hosts, kept past their exit: a late wake
    /// to one is not a lost wakeup, and a V still reaching one is checked
    /// against its host.
    crashed: HashMap<u64, usize>,
    /// Semaphores proven signal-style: some V came from a process holding
    /// no unit (a reply/condition semaphore, not a mutex). Holding-based
    /// checks (double wait, wait-for-graph holders) only apply to
    /// lock-style semaphores, where P and V pair within one process.
    signal_style: HashSet<u64>,
    violations: Vec<Violation>,
}

impl CheckCore {
    /// `lp`'s entry, made on first sight on `host`.
    fn proc(&mut self, lp: u64, host: HostId) -> &mut Proc {
        let spare = &mut self.spare;
        self.procs.entry(lp).or_insert_with(|| Proc {
            host: host.0,
            held: spare.pop().unwrap_or_default(),
            waiting: None,
        })
    }

    /// `lp` takes a unit of `sema`: only a lock-style unit is worth keeping.
    fn take_unit(&mut self, lp: u64, host: HostId, sema: u64) {
        if !self.signal_style.contains(&sema) {
            self.proc(lp, host).held.push(sema);
        }
    }

    fn host_of(&self, lp: u64) -> usize {
        match self.procs.get(&lp) {
            Some(p) => p.host,
            None => self.crashed.get(&lp).copied().unwrap_or(usize::MAX),
        }
    }

    fn waiting(&self, lp: u64) -> Option<&Waiting> {
        self.procs.get(&lp)?.waiting.as_ref()
    }

    /// Mirrors one probe into the tables.
    pub(crate) fn observe(&mut self, p: Probe) {
        match p {
            Probe::Event(index, t) => {
                self.event_index = index;
                self.now = t;
            }
            Probe::Start(lp, host, ..) => {
                self.started += 1;
                self.proc(lp, host);
            }
            Probe::Finish(lp) => {
                if let Some(mut p) = self.procs.remove(&lp) {
                    p.held.clear();
                    self.spare.push(p.held);
                }
            }
            // The scheduler performed the wait this process began; it closes
            // out as the process resumes, with a unit unless it timed out.
            Probe::Resume(lp, host, .., took) => {
                let waited = self.procs.get_mut(&lp).and_then(|p| p.waiting.take());
                if let (Some(w), true) = (waited, took) {
                    self.take_unit(lp, host, w.sema);
                }
            }
            // A wake nothing waits for is lost, unless its process was
            // killed: a late V racing the crash purge is expected.
            Probe::StaleWake(lp) if !self.crashed.contains_key(&lp) => {
                self.violations.push(Violation {
                    kind: ViolationKind::LostWakeup,
                    lp,
                    host: self.host_of(lp),
                    sema: None,
                    cycle: Vec::new(),
                    event_index: self.event_index,
                    time: self.now,
                    detail: format!(
                        "wake delivered to lp{lp}, which is not blocked: the signal \
                         raced its consumer and is lost"
                    ),
                });
            }
            Probe::Kill(lp) => {
                self.crashed.insert(lp, self.host_of(lp));
                if let Some(p) = self.procs.get_mut(&lp) {
                    p.waiting = None;
                }
            }
            Probe::Acquire(Some(lp), host, sema, label) => {
                self.sema_label.insert(sema, label.as_str());
                self.take_unit(lp, host, sema);
            }
            Probe::WaitBegin(lp, host, sema, label) => {
                let label = label.as_str();
                self.sema_label.insert(sema, label);
                let lock_style = !self.signal_style.contains(&sema);
                let p = self.proc(lp, host);
                p.waiting = Some(Waiting { sema, label });
                let double = lock_style && p.held.contains(&sema);
                if double {
                    self.violations.push(Violation {
                        kind: ViolationKind::DoubleWait,
                        lp,
                        host: host.0,
                        sema: Some(label),
                        cycle: Vec::new(),
                        event_index: self.event_index,
                        time: self.now,
                        detail: format!(
                            "lp{lp} blocks on semaphore '{label}' while already holding a \
                             unit of it: nothing else can V it first (recursive acquire)"
                        ),
                    });
                }
            }
            // A V from a non-holder is a signal, not an unlock: holding-based
            // checks no longer apply to its semaphore. A directly woken
            // waiter is checked for host affinity.
            Probe::Release(lp, host, sema, label, woken) => {
                let label = label.as_str();
                self.sema_label.insert(sema, label);
                let unit = lp.and_then(|lp| self.procs.get_mut(&lp)).and_then(|p| {
                    let i = p.held.iter().position(|&s| s == sema)?;
                    Some(p.held.swap_remove(i))
                });
                if unit.is_none() {
                    self.signal_style.insert(sema);
                }
                if let Some(w) = woken {
                    let waiter_host = self.host_of(w);
                    if waiter_host != usize::MAX && waiter_host != host.0 {
                        self.violations.push(Violation {
                            kind: ViolationKind::CrossHostSignal,
                            lp: w,
                            host: waiter_host,
                            sema: Some(label),
                            cycle: Vec::new(),
                            event_index: self.event_index,
                            time: self.now,
                            detail: format!(
                                "semaphore '{label}' V'd from host{} wakes lp{w} on \
                                 host{waiter_host}: cross-host shared-memory signalling \
                                 that real machines cannot perform",
                                host.0
                            ),
                        });
                    }
                }
            }
            _ => {}
        }
    }

    /// Builds the final report. `blocked` lists the processes still parked
    /// when the event queue drained (sorted by the caller): the wait-for
    /// graph over them yields deadlock cycles; blocked processes outside
    /// any cycle are lost wakeups (nothing pending can signal them).
    pub(crate) fn report(&self, blocked: &[u64]) -> CheckReport {
        let mut violations = self.violations.clone();
        // sema → holders, lock-style semaphores only (a signal-style
        // sema's "holders" are just past waiters), sorted for
        // deterministic cycle enumeration.
        let mut holders: HashMap<u64, Vec<u64>> = HashMap::new();
        for (&lp, p) in &self.procs {
            for &sema in &p.held {
                if !self.signal_style.contains(&sema) {
                    holders.entry(sema).or_default().push(lp);
                }
            }
        }
        for hs in holders.values_mut() {
            hs.sort_unstable();
            hs.dedup();
        }
        let mut in_cycle: HashSet<u64> = HashSet::new();
        let mut reported: HashSet<Vec<u64>> = HashSet::new();
        for &start in blocked {
            let mut path: Vec<u64> = Vec::new();
            self.find_cycles(
                start,
                &holders,
                &mut path,
                &mut in_cycle,
                &mut reported,
                &mut violations,
            );
        }
        for &lp in blocked {
            if !in_cycle.contains(&lp) {
                let w = self.waiting(lp);
                violations.push(Violation {
                    kind: ViolationKind::LostWakeup,
                    lp,
                    host: self.host_of(lp),
                    sema: w.map(|w| w.label),
                    cycle: Vec::new(),
                    event_index: self.event_index,
                    time: self.now,
                    detail: match w {
                        Some(w) => format!(
                            "lp{lp} is still blocked on '{}' at queue drain with no \
                             pending signaler: the wakeup was lost",
                            w.label
                        ),
                        None => format!("lp{lp} is blocked outside any tracked semaphore wait"),
                    },
                });
            }
        }
        CheckReport {
            enabled: true,
            violations,
            lps: self.started,
            semas: self.sema_label.len(),
        }
    }

    /// DFS over the wait-for graph (lp → awaited sema → holder lps). On a
    /// cycle, reports it once (normalized to start at its smallest lp).
    fn find_cycles(
        &self,
        lp: u64,
        holders: &HashMap<u64, Vec<u64>>,
        path: &mut Vec<u64>,
        in_cycle: &mut HashSet<u64>,
        reported: &mut HashSet<Vec<u64>>,
        violations: &mut Vec<Violation>,
    ) {
        if let Some(pos) = path.iter().position(|&p| p == lp) {
            let cycle_lps: Vec<u64> = path[pos..].to_vec();
            // Normalize: rotate so the smallest lp leads.
            let min_idx = cycle_lps
                .iter()
                .enumerate()
                .min_by_key(|(_, &v)| v)
                .map(|(i, _)| i)
                .unwrap_or(0);
            let mut normalized: Vec<u64> = cycle_lps[min_idx..].to_vec();
            normalized.extend_from_slice(&cycle_lps[..min_idx]);
            if !reported.insert(normalized.clone()) {
                return;
            }
            in_cycle.extend(&normalized);
            // Render the closed cycle alternating lp and sema labels.
            let mut cycle: Vec<String> = Vec::new();
            let mut prose: Vec<String> = Vec::new();
            for (i, &p) in normalized.iter().enumerate() {
                let w = self.waiting(p).expect("cycle member is blocked");
                cycle.push(format!("lp{p}"));
                cycle.push(w.label.to_string());
                let next = normalized[(i + 1) % normalized.len()];
                prose.push(format!("lp{p} waits on '{}' held by lp{next}", w.label));
            }
            cycle.push(format!("lp{}", normalized[0]));
            let head = normalized[0];
            violations.push(Violation {
                kind: ViolationKind::DeadlockCycle,
                lp: head,
                host: self.host_of(head),
                sema: self.waiting(head).map(|w| w.label),
                cycle,
                event_index: self.event_index,
                time: self.now,
                detail: format!("deadlock cycle: {}", prose.join("; ")),
            });
            return;
        }
        let Some(w) = self.waiting(lp) else {
            return; // not blocked on anything tracked: chain ends
        };
        path.push(lp);
        if let Some(hs) = holders.get(&w.sema) {
            for &h in hs {
                if h != lp {
                    self.find_cycles(h, holders, path, in_cycle, reported, violations);
                }
            }
        }
        path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Label;

    fn acquire(c: &mut CheckCore, lp: u64, sema: u64, label: &'static str, host: usize) {
        c.observe(Probe::Acquire(
            Some(lp),
            HostId(host),
            sema,
            Label::of(label),
        ));
    }

    fn wait_begin(c: &mut CheckCore, lp: u64, sema: u64, label: &'static str, host: usize) {
        c.observe(Probe::WaitBegin(lp, HostId(host), sema, Label::of(label)));
    }

    fn release(c: &mut CheckCore, lp: u64, sema: u64, label: &'static str, woken: Option<u64>) {
        let label = Label::of(label);
        c.observe(Probe::Release(Some(lp), HostId(0), sema, label, woken));
    }

    #[test]
    fn repro_strings_roundtrip() {
        let v = Violation {
            kind: ViolationKind::DeadlockCycle,
            lp: 3,
            host: 0,
            sema: Some("A"),
            cycle: Vec::new(),
            event_index: 41,
            time: 1000,
            detail: String::new(),
        };
        let s = v.repro(0x5eed, 0xdead_beef_cafe_f00d);
        let r = parse_repro(&s).expect("parses");
        assert_eq!(
            r,
            Repro {
                seed: 0x5eed,
                sched_hash: 0xdead_beef_cafe_f00d,
                event_index: 41
            }
        );
        assert!(parse_repro("xcheck://seed=0x1/bogus=2").is_none());
        assert!(parse_repro("not-a-repro").is_none());
    }

    #[test]
    fn wait_for_cycle_is_detected_and_normalized() {
        let mut c = CheckCore::default();
        // lp0 holds A waits B; lp1 holds B waits A.
        acquire(&mut c, 0, 100, "A", 0);
        acquire(&mut c, 1, 101, "B", 0);
        wait_begin(&mut c, 0, 101, "B", 0);
        wait_begin(&mut c, 1, 100, "A", 0);
        let r = c.report(&[0, 1]);
        let dead: Vec<&Violation> = r
            .violations
            .iter()
            .filter(|v| v.kind == ViolationKind::DeadlockCycle)
            .collect();
        assert_eq!(dead.len(), 1, "{:?}", r.violations);
        assert_eq!(dead[0].lp, 0);
        assert_eq!(dead[0].cycle, vec!["lp0", "B", "lp1", "A", "lp0"]);
        // Both members are in the cycle: no LostWakeup reported.
        assert!(!r
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::LostWakeup));
    }

    #[test]
    fn blocked_without_signaler_is_a_lost_wakeup() {
        let mut c = CheckCore::default();
        wait_begin(&mut c, 0, 100, "orphan", 0);
        let r = c.report(&[0]);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].kind, ViolationKind::LostWakeup);
        assert_eq!(r.violations[0].sema, Some("orphan"));
    }

    #[test]
    fn double_wait_and_cross_host_fire() {
        let mut c = CheckCore::default();
        acquire(&mut c, 0, 100, "pool", 0);
        wait_begin(&mut c, 0, 100, "pool", 0);
        assert_eq!(c.violations.len(), 1);
        assert_eq!(c.violations[0].kind, ViolationKind::DoubleWait);
        // lp1 on host1 is woken by a V from host0.
        wait_begin(&mut c, 1, 101, "xhost", 1);
        release(&mut c, 2, 101, "xhost", Some(1));
        assert!(c
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::CrossHostSignal && v.lp == 1));
    }

    #[test]
    fn a_wait_closes_out_on_the_checkers_own_record() {
        let mut c = CheckCore::default();
        let resume = |c: &mut CheckCore, lp, took| {
            c.observe(Probe::Resume(lp, HostId(0), 0, 0, 0, took));
        };
        // A wait that ends in a wake took a unit of the semaphore it began
        // on: waiting there again is a double wait.
        c.observe(Probe::Start(0, HostId(0), 0, 0));
        wait_begin(&mut c, 0, 100, "m", 0);
        resume(&mut c, 0, true);
        assert!(c.waiting(0).is_none());
        wait_begin(&mut c, 0, 100, "m", 0);
        assert_eq!(c.violations.len(), 1);
        assert_eq!(c.violations[0].kind, ViolationKind::DoubleWait);
        // One that timed out took nothing, and a sleeper's wake closes
        // nothing out.
        c.observe(Probe::Start(1, HostId(0), 0, 0));
        wait_begin(&mut c, 1, 101, "t", 0);
        resume(&mut c, 1, false);
        resume(&mut c, 1, true);
        wait_begin(&mut c, 1, 101, "t", 0);
        assert_eq!(c.violations.len(), 1, "{:?}", c.violations);
    }

    #[test]
    fn exited_processes_leave_nothing_behind() {
        let mut c = CheckCore::default();
        for lp in 0..100 {
            c.observe(Probe::Start(lp, HostId(0), 0, 0));
            acquire(&mut c, lp, 100, "s", 0);
            release(&mut c, lp, 100, "s", None);
            acquire(&mut c, lp, 101, "kept", 0);
            c.observe(Probe::Finish(lp));
        }
        assert!(c.procs.is_empty(), "{} entries left", c.procs.len());
        assert_eq!(c.spare.len(), 1, "one holding list, reused");
        // A killed process's late wake is expected, not lost, after it exits.
        c.observe(Probe::Start(100, HostId(1), 0, 0));
        wait_begin(&mut c, 100, 102, "w", 1);
        c.observe(Probe::Kill(100));
        c.observe(Probe::Finish(100));
        c.observe(Probe::StaleWake(100));
        assert!(c.procs.is_empty());
        let r = c.report(&[]);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!((r.lps, r.semas), (101, 3));
        // A V still reaching it from another host is checked against the
        // host it ran on.
        c.observe(Probe::Release(
            None,
            HostId(0),
            102,
            Label::of("w"),
            Some(100),
        ));
        assert_eq!(c.violations[0].kind, ViolationKind::CrossHostSignal);
        assert_eq!(c.violations[0].host, 1);
    }
}
