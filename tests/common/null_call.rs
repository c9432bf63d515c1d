//! The warm inline null call, per stack, for the tests that pin what one
//! costs: cell entries (`tests/cell_entries.rs`) and allocations
//! (`tests/alloc_per_call.rs`).

use inet::testbed::{base_registry, two_hosts};
use inet::with_concrete;
use sunrpc::sunselect::SunSelect;
use xkernel::graph::ProtocolRegistry;
use xkernel::sim::SimConfig;
use xrpc::procs::NULL_PROC;
use xrpc::stacks::{StackDef, L_RPC_VIP, L_RPC_VIPSIZE, M_RPC_ETH, M_RPC_IP, M_RPC_VIP};

/// The five stacks of the paper's Tables I and II.
pub const PAPER_STACKS: [StackDef; 5] = [M_RPC_ETH, M_RPC_IP, M_RPC_VIP, L_RPC_VIP, L_RPC_VIPSIZE];

fn registry() -> ProtocolRegistry {
    let mut reg = base_registry();
    xrpc::register_ctors(&mut reg);
    sunrpc::register_ctors(&mut reg);
    reg
}

/// How far `counter` moves over the third of three identical calls: the
/// first resolves addresses and opens sessions, the second proves the path
/// is warm.
fn third_call(counter: fn() -> u64, mut call: impl FnMut()) -> u64 {
    call();
    call();
    let before = counter();
    call();
    counter() - before
}

/// `counter`'s movement over one warm inline null call on `stack`.
pub fn paper_null_call(stack: StackDef, counter: fn() -> u64) -> u64 {
    let tb = two_hosts(SimConfig::inline_mode(), &registry(), stack.graph).expect("testbed builds");
    xrpc::procs::register_standard(&tb.server, stack.entry).expect("procedures register");
    let ctx = tb.sim.ctx(tb.client.host());
    third_call(counter, || {
        let reply = xrpc::call(
            &ctx,
            &tb.client,
            stack.entry,
            tb.server_ip,
            NULL_PROC,
            Vec::new(),
        );
        assert_eq!(reply.expect("null call completes"), Vec::<u8>::new());
    })
}

/// `counter`'s movement over one warm inline null call on SUNRPC-UDP.
pub fn sun_rpc_null_call(counter: fn() -> u64) -> u64 {
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
    third_call(counter, || {
        let reply = with_concrete::<SunSelect, _>(&tb.client, "sunselect", |s| {
            s.call(&ctx, tb.server_ip, PROG, VERS, PROC, Vec::new())
        })
        .expect("sunselect registered");
        assert_eq!(reply.expect("null call completes"), Vec::<u8>::new());
    })
}
