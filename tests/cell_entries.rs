//! How many `OwnerCell` entries a warm inline null call makes, per stack.
//!
//! Every entry is a load and two stores now, not two read-modify-writes, but
//! it is still work on the one path every workload shares, and it is exact:
//! the same call enters the same cells in the same order on every run. The
//! counts below are what DESIGN.md §12's per-protocol table adds up to; a
//! protocol that starts entering a table twice where once would do fails
//! here before any benchmark could see it. Debug builds only — release
//! builds carry no counter.
#![cfg(debug_assertions)]

use inet::testbed::{base_registry, two_hosts};
use inet::with_concrete;
use sunrpc::sunselect::SunSelect;
use xkernel::cell::entries;
use xkernel::graph::ProtocolRegistry;
use xkernel::sim::SimConfig;
use xrpc::procs::NULL_PROC;
use xrpc::stacks::{L_RPC_VIP, L_RPC_VIPSIZE, M_RPC_ETH, M_RPC_IP, M_RPC_VIP};

fn registry() -> ProtocolRegistry {
    let mut reg = base_registry();
    xrpc::register_ctors(&mut reg);
    sunrpc::register_ctors(&mut reg);
    reg
}

/// Entries made by the third of three identical calls: the first resolves
/// addresses and opens sessions, the second proves the path is warm.
fn third_call_entries(mut call: impl FnMut()) -> u64 {
    call();
    call();
    let before = entries();
    call();
    entries() - before
}

#[test]
fn a_warm_inline_null_call_enters_no_more_cells_than_pinned() {
    let reg = registry();
    for (stack, pinned) in [
        (M_RPC_ETH, 19),
        (M_RPC_IP, 25),
        (M_RPC_VIP, 19),
        (L_RPC_VIP, 28),
        (L_RPC_VIPSIZE, 21),
    ] {
        let tb = two_hosts(SimConfig::inline_mode(), &reg, stack.graph).expect("testbed builds");
        xrpc::procs::register_standard(&tb.server, stack.entry).expect("procedures register");
        let ctx = tb.sim.ctx(tb.client.host());
        let n = third_call_entries(|| {
            let reply = xrpc::call(
                &ctx,
                &tb.client,
                stack.entry,
                tb.server_ip,
                NULL_PROC,
                Vec::new(),
            );
            assert_eq!(reply.expect("null call completes"), Vec::<u8>::new());
        });
        assert!(
            (1..=pinned).contains(&n),
            "{}: {n} cell entries per warm null call, pinned at {pinned}",
            stack.name
        );
    }
}

#[test]
fn a_warm_inline_sun_rpc_null_call_enters_no_more_cells_than_pinned() {
    const PROG: u32 = 100_003;
    const VERS: u32 = 2;
    const PROC: u32 = 1;
    let tb = two_hosts(
        SimConfig::inline_mode(),
        &registry(),
        chaos::SUNRPC_UDP_GRAPH,
    )
    .expect("testbed builds");
    with_concrete::<SunSelect, _>(&tb.server, "sunselect", |s| {
        s.serve(PROG, VERS, PROC, |ctx, _msg| Ok(ctx.empty_msg()));
    })
    .expect("sunselect registered");
    let ctx = tb.sim.ctx(tb.client.host());
    let n = third_call_entries(|| {
        let reply = with_concrete::<SunSelect, _>(&tb.client, "sunselect", |s| {
            s.call(&ctx, tb.server_ip, PROG, VERS, PROC, Vec::new())
        })
        .expect("sunselect registered");
        assert_eq!(reply.expect("null call completes"), Vec::<u8>::new());
    });
    assert!(
        (1..=22).contains(&n),
        "SUNRPC-UDP: {n} cell entries per warm null call, pinned at 22"
    );
}
