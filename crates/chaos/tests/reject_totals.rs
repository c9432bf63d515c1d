//! The chaos matrix's corrupting cells — [`Profile::Chaotic`] on every
//! stack whose frames cross a checksum — reject exactly the pinned number of
//! corrupt frames on each host. The totals were measured before refusals
//! moved to the demux seam and must not move with it. Every one of them is
//! IP's header checksum: a corrupting fault flips the first byte after the
//! Ethernet header.

use chaos::{Profile, RunOpts, Scenario, StackKind};
use xkernel::error::Reject;

/// Seeds per corrupting cell.
const SEEDS: u64 = 8;

/// Calls per scenario.
const CALLS: u32 = 16;

/// Per-host `corrupt_rejected`, one row per (stack, seed), in matrix order.
const PINNED: &[(&str, u64, [u64; 2])] = &[
    ("M_RPC-IP", 0, [3, 0]),
    ("M_RPC-IP", 1, [3, 0]),
    ("M_RPC-IP", 2, [2, 0]),
    ("M_RPC-IP", 3, [1, 0]),
    ("M_RPC-IP", 4, [0, 0]),
    ("M_RPC-IP", 5, [1, 0]),
    ("M_RPC-IP", 6, [0, 3]),
    ("M_RPC-IP", 7, [0, 3]),
    ("SUNRPC-UDP", 0, [4, 1]),
    ("SUNRPC-UDP", 1, [4, 1]),
    ("SUNRPC-UDP", 2, [2, 0]),
    ("SUNRPC-UDP", 3, [0, 1]),
    ("SUNRPC-UDP", 4, [0, 0]),
    ("SUNRPC-UDP", 5, [2, 0]),
    ("SUNRPC-UDP", 6, [0, 1]),
    ("SUNRPC-UDP", 7, [0, 1]),
];

#[test]
fn corrupting_cells_reject_the_pinned_totals() {
    let mut stacks = StackKind::all_paper();
    stacks.push(StackKind::SunRpcUdp);
    let mut got = Vec::new();
    for stack in stacks.into_iter().filter(StackKind::checksummed) {
        for seed in 0..SEEDS {
            let sc = Scenario {
                stack,
                profile: Profile::Chaotic,
                seed,
                calls: CALLS,
                population: 1,
            };
            let out = sc.run_with(RunOpts::default());
            let r = &out.report;
            sc.check(r);
            for row in out.sim.rejects() {
                assert_eq!(
                    (row.layer, row.why),
                    ("ip", Reject::Corrupt("ip header checksum")),
                    "{}",
                    r.label
                );
            }
            let hosts = &r.run.hosts;
            got.push((
                stack.name(),
                seed,
                [hosts[0].corrupt_rejected, hosts[1].corrupt_rejected],
            ));
        }
    }
    assert_eq!(got, PINNED);
}
