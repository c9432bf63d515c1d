//! The dynamic checker only observes: every scenario of the whole chaos
//! matrix run with checking enabled produces a report **bit-identical**
//! (`Eq`) to the plain run — same virtual end time, same counters, same
//! schedule fingerprint — and the checker finds no violations on any of
//! them.

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

#[test]
fn checked_runs_are_bit_identical_to_plain_runs() {
    let matrix = chaos::full_matrix(11, 5, 8);
    assert_eq!(matrix.len(), 215, "every stack × profile cell, five seeds");
    for sc in &matrix {
        let plain = sc.run();
        let (verified, check, repros) = under_checker(sc);
        assert_eq!(
            plain, verified.report,
            "{sc:?}: checking must be a pure observer"
        );
        assert!(check.enabled && check.lps > 0, "checker actually ran");
        assert!(check.violations.is_empty(), "{sc:?}: {repros:?}");
        let invariant_failures = sc.invariant_failures(&verified.report);
        assert!(invariant_failures.is_empty(), "{invariant_failures:?}");
    }
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
