//! xcheck — bounded schedule exploration for the x-kernel simulator.
//!
//! The static pass (`xkernel::lint`, rules XK011–XK015) checks what a
//! protocol *declares* about its blocking behaviour; the dynamic checker
//! (`xkernel::check`) watches one schedule execute. This crate closes
//! the loop by asking: *which* schedules? Small scenarios are enumerated
//! exhaustively — every forced-choice scheduler decision (a same-time
//! event tie) is a branch point, and [`explore::explore`] drives a
//! depth-first walk over the whole tree, proving the chaos invariants
//! and the absence of checker violations on **every** interleaving.
//! Larger scenarios (the full RPC stacks under chaos profiles) are
//! random-walked with seeded [`explore::WalkChooser`]s instead.
//!
//! Everything a run reports is replayable: violations carry
//! `xcheck://seed=…/sched=…/ev=…` repro strings, an explored schedule is
//! its journal ([`xkernel::journal`]), and the `sched_hash` fingerprint
//! lets a rerun assert it walked the identical schedule.

#![warn(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod explore;
pub mod summary;
pub mod toys;

use chaos::{RunOpts, Scenario};
use explore::WalkChooser;

/// Outcome of one random-walk chaos run under the checker.
pub struct ChaosWalkOutcome {
    /// The walk's seed (feed back to `WalkChooser::new` to replay).
    pub walk_seed: u64,
    /// Schedule fingerprint of the walk.
    pub sched_hash: u64,
    /// Checker violations found on this schedule.
    pub violations: usize,
    /// Repro strings, one per violation.
    pub repros: Vec<String>,
    /// Chaos invariant failures (empty on a healthy stack).
    pub invariant_failures: Vec<String>,
}

/// Runs `walks` seeded random walks of `scenario` with the dynamic
/// checker enabled, perturbing the schedule with a fresh
/// [`WalkChooser`] per walk. Returns one outcome per walk; callers
/// assert that violations and invariant failures are empty.
pub fn walk_chaos(scenario: &Scenario, walks: usize, seed: u64) -> Vec<ChaosWalkOutcome> {
    (0..walks)
        .map(|w| {
            let walk_seed = seed
                .wrapping_add(w as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let out = scenario.run_with(RunOpts {
                check: true,
                chooser: Some(Box::new(WalkChooser::new(walk_seed))),
                ..RunOpts::default()
            });
            let violations = out.sim.check_report().violations;
            let outcome = ChaosWalkOutcome {
                walk_seed,
                sched_hash: out.report.run.sched_hash,
                violations: violations.len(),
                repros: violations.iter().map(|v| out.sim.repro(v)).collect(),
                invariant_failures: scenario.invariant_failures(&out.report),
            };
            // A walk that ended in a deadlock leaves its processes suspended,
            // and a suspended coroutine holds the simulation alive.
            out.sim.kill_suspended();
            outcome
        })
        .collect()
}
