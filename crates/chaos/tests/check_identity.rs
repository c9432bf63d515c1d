//! The dynamic checker finds nothing on the real RPC stacks. That a checked
//! run reports what the plain run reports, on every scenario of the chaos
//! matrix, is `run_paths.rs`'s checked column.

use chaos::{RunOpts, RunOutcome, Scenario, StackKind};
use xkernel::check::CheckReport;

/// `sc` under the checker: the outcome, what the checker found, and one
/// replayable repro string per violation.
fn under_checker(sc: &Scenario) -> (RunOutcome, CheckReport, Vec<String>) {
    let out = sc.run_with(RunOpts {
        check: true,
        ..RunOpts::default()
    });
    let check = out.sim.check_report();
    let repros = check.violations.iter().map(|v| out.sim.repro(v)).collect();
    (out, check, repros)
}

/// The real RPC stacks exercise the checker's full vocabulary: reply
/// semaphores (signal-style), pool semaphores, timeout waits — none may
/// surface as false positives.
#[test]
fn repeated_calls_do_not_false_positive_on_reply_semaphores() {
    let sc = Scenario {
        stack: StackKind::Paper(xrpc::stacks::L_RPC_VIP),
        profile: chaos::Profile::FaultFree,
        seed: 3,
        calls: 8,
        population: 2,
    };
    let (_, check, repros) = under_checker(&sc);
    assert!(
        check.violations.is_empty(),
        "reply semaphores are P'd repeatedly by design: {:?}",
        repros
    );
    assert_eq!(
        (check.lps, check.semas),
        (37, 18),
        "processes and semaphores seen"
    );
}
