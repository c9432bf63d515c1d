//! Fork-from-snapshot policy sweeps: every branch starts from the same
//! warmed state, so report differences are attributable to policy alone.
//! That a baseline branch equals a from-scratch run, and that identical
//! policy points fork to identical reports, is the fork column of
//! `crates/chaos/tests/run_paths.rs`.

use xload::{fork_sweep, GenMode, LoadSpec, LoadStack, PolicyPoint, Topology};

fn overloaded_sunrpc(seed: u64) -> LoadSpec {
    // A deliberately tiny drop-policy pool under open-loop pressure: the
    // server sheds requests, clients retransmit, and the RTO knobs become
    // observable in completion counts and the latency tail.
    LoadSpec {
        stack: LoadStack::SunRpcUdp,
        topo: Topology::Segment { hosts: 2 },
        gen: GenMode::Open { rate_cps: 2_000 },
        duration_ns: 200_000_000,
        payload: 64,
        seed,
        shepherds: 1,
        pending: 1,
        reject: false,
        trace: false,
    }
}

#[test]
fn rto_policy_is_observable_under_overload() {
    // Under a shedding server, a 10 ms no-backoff retry recovers dropped
    // calls the 150 ms default cannot fit into the window: the policy must
    // move completions or the latency distribution.
    let spec = overloaded_sunrpc(3);
    let out = fork_sweep(
        &spec,
        &[
            PolicyPoint::baseline(),
            PolicyPoint {
                timeout_ns: Some(10_000_000),
                backoff: Some(0),
            },
        ],
    );
    assert!(out.warmed_at > 0, "warm-up consumed virtual time");
    let labels: Vec<&str> = out.branches.iter().map(|b| b.policy.as_str()).collect();
    assert_eq!(labels, ["baseline", "t=10000000/b=0"]);
    let (base, quick) = (&out.branches[0].report, &out.branches[1].report);
    assert_eq!(base.attempted, quick.attempted, "same open-loop schedule");
    assert!(
        base.completed != quick.completed || base.latency != quick.latency,
        "RTO policy changed nothing observable: {base:?} vs {quick:?}"
    );
}
