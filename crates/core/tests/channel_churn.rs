//! Channel-id churn: CHANNEL's and M_RPC's allocator (one, in `xrpc::txn`)
//! hands out 16-bit channel numbers and must never re-issue one that still
//! names a live client channel — after a wrap, an aliased id would let a
//! late retransmission or reply land in the wrong conversation. These tests
//! pin the liveness skip across full wraps of the id space and prove RPC
//! still works afterwards.

use inet::testbed::{base_registry, two_hosts};
use inet::with_concrete;
use xkernel::sim::SimConfig;
use xrpc::channel::Channel;
use xrpc::mrpc::Mrpc;
use xrpc::procs::ECHO_PROC;
use xrpc::stacks::{StackDef, L_RPC_VIP, M_RPC_VIP};

/// One call opens the per-peer channel pool; then `alloc` (the protocol's
/// allocator, reached through `with_concrete`) is driven through two full
/// wraps of the id space, and a second call must still complete.
fn ids_skip_live_channels_across_two_wraps(
    stack: &StackDef,
    alloc: impl Fn(&inet::testbed::TwoHosts) -> u16,
) {
    let mut reg = base_registry();
    xrpc::register_ctors(&mut reg);
    let tb = two_hosts(SimConfig::inline_mode(), &reg, stack.graph).expect("testbed builds");
    xrpc::procs::register_standard(&tb.server, stack.entry).expect("procs register");

    // One call opens the per-peer channel pool, leaving a block of live
    // client channels starting at id 1.
    let ctx = tb.sim.ctx(tb.client.host());
    let echo =
        |body: Vec<u8>| xrpc::call(&ctx, &tb.client, stack.entry, tb.server_ip, ECHO_PROC, body);
    assert_eq!(
        echo(vec![0x42u8; 24]).expect("echo over the fresh pool"),
        vec![0x42u8; 24]
    );

    // Ids 1..first are the pool's live channels; `first` is the next free
    // id the allocator would hand a new conversation.
    let first = alloc(&tb);
    assert!(first > 1, "the pool holds at least one live channel");
    // Two full wraps of the 16-bit id space: no live id may ever be
    // re-issued while its channel exists.
    for _ in 0..(2 * 65_536u32) {
        let c = alloc(&tb);
        assert!(
            !(1..first).contains(&c),
            "{}: live channel id {c} re-issued (pool is 1..{first})",
            stack.name
        );
        assert_ne!(c, 0, "{}: channel 0 is reserved", stack.name);
    }

    // The stack still works after the allocator wrapped: a fresh call on
    // the existing pool completes with an intact reply.
    assert_eq!(
        echo(vec![0x43u8; 24]).expect("echo after wrap"),
        vec![0x43u8; 24]
    );
}

#[test]
fn channel_ids_skip_live_sessions_across_two_wraps() {
    ids_skip_live_channels_across_two_wraps(&L_RPC_VIP, |tb| {
        with_concrete::<Channel, _>(&tb.client, "channel", |ch| ch.alloc_channel())
            .expect("channel downcast")
    });
}

#[test]
fn mrpc_channel_ids_skip_live_channels_across_two_wraps() {
    ids_skip_live_channels_across_two_wraps(&M_RPC_VIP, |tb| {
        with_concrete::<Mrpc, _>(&tb.client, "mrpc", |m| m.alloc_channel()).expect("mrpc downcast")
    });
}

#[test]
fn channel_allocation_is_deterministic_per_seed() {
    // Two identically-seeded worlds allocate identical channel ids — the
    // allocator consults only kernel-local state, never ambient entropy.
    let ids = |seed: u64| {
        let mut reg = base_registry();
        xrpc::register_ctors(&mut reg);
        let tb = two_hosts(
            SimConfig::scheduled().with_seed(seed),
            &reg,
            L_RPC_VIP.graph,
        )
        .expect("testbed builds");
        with_concrete::<Channel, _>(&tb.client, "channel", |ch| {
            (0..16).map(|_| ch.alloc_channel()).collect::<Vec<u16>>()
        })
        .expect("channel downcast")
    };
    assert_eq!(ids(7), ids(7));
}
