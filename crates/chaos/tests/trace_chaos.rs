//! Chaos-scenario assertions over the xtrace cost ledger.
//!
//! The attribution machinery has to hold up under adversity, not just on
//! the quiet measurement wire: faults trigger retransmission timers, crash
//! paths, and scheduler churn, all of which mutate host clocks through
//! different code paths. **Conservation under faults**: for every host, the
//! traced ledger's buckets sum to exactly the host's final CPU clock. That
//! tracing leaves the rest of the report as the untraced run has it, on
//! every scenario of the chaos matrix, is `run_paths.rs`'s traced column.

use chaos::{ChaosReport, Profile, RunOpts, Scenario, StackKind};
use xkernel::prelude::HostId;
use xrpc::stacks::{L_RPC_VIP, M_RPC_IP};

/// `sc` with structured tracing on: the report carries the cost ledger.
fn traced(sc: &Scenario) -> ChaosReport {
    sc.run_with(RunOpts {
        trace: true,
        ..RunOpts::default()
    })
    .report
}

fn assert_conserved(r: &ChaosReport) {
    assert!(
        !r.run.breakdown.is_empty(),
        "{}: traced run produced no ledger",
        r.label
    );
    for (h, stats) in r.run.hosts.iter().enumerate() {
        let attributed = r.run.breakdown.host_total(HostId(h));
        assert_eq!(
            attributed, stats.cpu_ns,
            "{}: host {h} ledger ({attributed} ns) must equal its final \
             CPU clock ({} ns) — some charge path is unattributed",
            r.label, stats.cpu_ns
        );
    }
}

#[test]
fn ledger_conserves_under_loss_and_chaos() {
    let scenarios = [
        Scenario {
            stack: StackKind::Paper(L_RPC_VIP),
            profile: Profile::Lossy,
            seed: 11,
            calls: 4,
            population: 1,
        },
        Scenario {
            stack: StackKind::Paper(M_RPC_IP),
            profile: Profile::Chaotic,
            seed: 12,
            calls: 4,
            population: 1,
        },
        Scenario {
            stack: StackKind::SunRpcChannel,
            profile: Profile::Bursty,
            seed: 13,
            calls: 3,
            population: 1,
        },
        Scenario {
            stack: StackKind::Psync,
            profile: Profile::Jittery,
            seed: 14,
            calls: 3,
            population: 1,
        },
    ];
    for sc in &scenarios {
        let r = traced(sc);
        sc.check(&r);
        assert_conserved(&r);
    }
}
