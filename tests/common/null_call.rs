//! The warm null call, per stack, for the tests that pin what one costs:
//! inline, cell entries (`tests/cell_entries.rs`) and allocations
//! (`tests/alloc_per_call.rs`); under the scheduler, events, fuel, live
//! processes, context switches and coroutines started
//! (`tests/events_per_call.rs`).

use std::sync::Arc;

use inet::eth::{eth_type, EthHdr};
use inet::ip::{ip_proto, IpHeader};
use inet::testbed::{base_registry, two_hosts, TwoHosts};
use inet::udp::UdpHdr;
use inet::with_concrete;
use sunrpc::sunselect::SunSelect;
use xkernel::addr::{EthAddr, IpAddr, Participant, ParticipantSet};
use xkernel::graph::ProtocolRegistry;
use xkernel::kernel::Kernel;
use xkernel::msg::Message;
use xkernel::proto::TracedSession;
use xkernel::sim::{Ctx, SimConfig};
use xrpc::procs::{NULL_PROC, SINK_PROC};
use xrpc::stacks::{StackDef, L_RPC_VIP, L_RPC_VIPSIZE, M_RPC_ETH, M_RPC_IP, M_RPC_VIP};

/// The five stacks of the paper's Tables I and II.
pub const PAPER_STACKS: [StackDef; 5] = [M_RPC_ETH, M_RPC_IP, M_RPC_VIP, L_RPC_VIP, L_RPC_VIPSIZE];

fn registry() -> ProtocolRegistry {
    let mut reg = base_registry();
    xrpc::register_ctors(&mut reg);
    sunrpc::register_ctors(&mut reg);
    reg
}

/// A two-host testbed for `stack` with the standard procedures served.
fn paper_testbed(cfg: SimConfig, stack: StackDef) -> TwoHosts {
    let tb = two_hosts(cfg, &registry(), stack.graph).expect("testbed builds");
    xrpc::procs::register_standard(&tb.server, stack.entry).expect("procedures register");
    tb
}

/// One null call from `client` on `stack`.
fn paper_call(ctx: &Ctx, client: &Arc<Kernel>, stack: StackDef, server: IpAddr) {
    let reply = xrpc::call(ctx, client, stack.entry, server, NULL_PROC, Vec::new());
    assert_eq!(reply.expect("null call completes"), Vec::<u8>::new());
}

const PROG: u32 = 100_003;
const VERS: u32 = 2;
const PROC: u32 = 1;

/// A two-host SUNRPC-UDP testbed with the null procedure served.
fn sun_testbed(cfg: SimConfig) -> TwoHosts {
    let tb = two_hosts(cfg, &registry(), sunrpc::UDP_GRAPH).expect("testbed builds");
    with_concrete::<SunSelect, _>(&tb.server, "sunselect", |s| {
        s.serve(PROG, VERS, PROC, |ctx, _msg| Ok(ctx.empty_msg()));
    })
    .expect("sunselect registered");
    tb
}

/// One null call from `client` on SUNRPC-UDP.
fn sun_call(ctx: &Ctx, client: &Arc<Kernel>, server: IpAddr) {
    sun_sized_call(ctx, client, server, 0);
}

/// One call with `size` bytes of arguments from `client` on SUNRPC-UDP (the
/// served procedure ignores them and replies with nothing).
fn sun_sized_call(ctx: &Ctx, client: &Arc<Kernel>, server: IpAddr, size: usize) {
    let reply = with_concrete::<SunSelect, _>(client, "sunselect", |s| {
        s.call(ctx, server, PROG, VERS, PROC, vec![7; size])
    })
    .expect("sunselect registered");
    assert_eq!(reply.expect("call completes"), Vec::<u8>::new());
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
    let tb = paper_testbed(SimConfig::inline_mode(), stack);
    let ctx = tb.sim.ctx(tb.client.host());
    third_call(counter, || {
        paper_call(&ctx, &tb.client, stack, tb.server_ip)
    })
}

/// `counter`'s movement over one warm inline null call on SUNRPC-UDP.
pub fn sun_rpc_null_call(counter: fn() -> u64) -> u64 {
    let tb = sun_testbed(SimConfig::inline_mode());
    let ctx = tb.sim.ctx(tb.client.host());
    third_call(counter, || sun_call(&ctx, &tb.client, tb.server_ip))
}

/// What the scheduler did for one warm null call: events processed, fuel
/// burnt, and the most processes that were alive at once.
#[derive(Debug, PartialEq, Eq)]
pub struct Scheduled {
    pub events: u64,
    pub fuel: u64,
    pub peak_live: usize,
}

/// Runs `call` three times, each as a shepherd process run to quiescence,
/// and reports what the third added to the run.
fn third_scheduled_call(
    tb: &TwoHosts,
    call: impl Fn(&Ctx, &Arc<Kernel>, IpAddr) + Clone + Send + 'static,
) -> Scheduled {
    let server = tb.server_ip;
    let run = || {
        let call = call.clone();
        tb.sim.spawn(tb.client.host(), move |ctx| {
            call(ctx, &ctx.kernel(), server)
        });
        let report = tb.sim.run_until_idle();
        assert_eq!(report.blocked, 0);
        report
    };
    run();
    let before = run();
    let after = run();
    Scheduled {
        events: after.events - before.events,
        fuel: after.fuel_used - before.fuel_used,
        peak_live: after.peak_live,
    }
}

/// One warm null call on `stack` under the event scheduler.
pub fn paper_scheduled_null_call(stack: StackDef) -> Scheduled {
    let tb = paper_testbed(SimConfig::scheduled(), stack);
    third_scheduled_call(&tb, move |ctx, client, server| {
        paper_call(ctx, client, stack, server)
    })
}

/// One warm null call on SUNRPC-UDP under the event scheduler.
pub fn sun_rpc_scheduled_null_call() -> Scheduled {
    third_scheduled_call(&sun_testbed(SimConfig::scheduled()), sun_call)
}

/// Context switches made and coroutines started (`xkernel::vproc::counts`).
#[derive(Debug, PartialEq, Eq)]
pub struct Switched {
    pub switches: u64,
    pub starts: u64,
}

/// Warms `tb` with two calls, each a run of its own, then has one client
/// process make `n` calls in a single run and reports what that run cost
/// in switches and coroutines.
fn calls_in_one_run(
    tb: &TwoHosts,
    n: u64,
    call: impl Fn(&Ctx, &Arc<Kernel>, IpAddr) + Clone + Send + 'static,
) -> Switched {
    let server = tb.server_ip;
    let run = |calls: u64| {
        let call = call.clone();
        tb.sim.spawn(tb.client.host(), move |ctx| {
            for _ in 0..calls {
                call(ctx, &ctx.kernel(), server);
            }
        });
        let before = xkernel::vproc::counts();
        assert_eq!(tb.sim.run_until_idle().blocked, 0);
        let after = xkernel::vproc::counts();
        Switched {
            switches: after.0 - before.0,
            starts: after.1 - before.1,
        }
    };
    run(1);
    run(1);
    run(n)
}

/// One call of `size` bytes (none: the null call; else to the sink
/// procedure) from `client` on `stack`.
fn sized_call(ctx: &Ctx, client: &Arc<Kernel>, stack: StackDef, server: IpAddr, size: usize) {
    let proc = if size == 0 { NULL_PROC } else { SINK_PROC };
    let reply = xrpc::call(ctx, client, stack.entry, server, proc, vec![7; size]);
    assert_eq!(reply.expect("call completes"), Vec::<u8>::new());
}

/// `n` warm calls of `size` bytes from one client process on `stack`, in
/// one scheduled run.
pub fn paper_scheduled_calls(stack: StackDef, n: u64, size: usize) -> Switched {
    let tb = paper_testbed(SimConfig::scheduled(), stack);
    calls_in_one_run(&tb, n, move |ctx, client, server| {
        sized_call(ctx, client, stack, server, size)
    })
}

/// One call of `size` bytes on `tb`'s `stack` under the event scheduler: a
/// shepherd process spawned and run to quiescence.
fn scheduled_sized_call(tb: &TwoHosts, stack: StackDef, size: usize) {
    let server = tb.server_ip;
    tb.sim.spawn(tb.client.host(), move |ctx| {
        sized_call(ctx, &ctx.kernel(), stack, server, size)
    });
    assert_eq!(tb.sim.run_until_idle().blocked, 0);
}

/// `counter`'s movement over one warm call of `size` bytes on `stack` under
/// the event scheduler, the third of three.
pub fn paper_scheduled_sized_call(stack: StackDef, size: usize, counter: fn() -> u64) -> u64 {
    let tb = paper_testbed(SimConfig::scheduled(), stack);
    third_call(counter, || scheduled_sized_call(&tb, stack, size))
}

/// `counter`'s movement over the first call of `size` bytes on a fresh
/// `stack` testbed under the event scheduler, after `history` calls on
/// another testbed, dropped before this one is built.
pub fn paper_scheduled_first_call(
    stack: StackDef,
    size: usize,
    history: usize,
    counter: fn() -> u64,
) -> u64 {
    let earlier = paper_testbed(SimConfig::scheduled(), stack);
    for _ in 0..history {
        scheduled_sized_call(&earlier, stack, size);
    }
    drop(earlier);
    let tb = paper_testbed(SimConfig::scheduled(), stack);
    let before = counter();
    scheduled_sized_call(&tb, stack, size);
    counter() - before
}

/// `counter`'s movement over one warm call of `size` bytes on SUNRPC-UDP
/// under the event scheduler, the third of three.
pub fn sun_rpc_scheduled_sized_call(size: usize, counter: fn() -> u64) -> u64 {
    let tb = sun_testbed(SimConfig::scheduled());
    let server = tb.server_ip;
    third_call(counter, || {
        tb.sim.spawn(tb.client.host(), move |ctx| {
            sun_sized_call(ctx, &ctx.kernel(), server, size)
        });
        assert_eq!(tb.sim.run_until_idle().blocked, 0);
    })
}

/// `n` warm null calls from one client process on SUNRPC-UDP, in one
/// scheduled run.
pub fn sun_rpc_scheduled_calls(n: u64) -> Switched {
    calls_in_one_run(&sun_testbed(SimConfig::scheduled()), n, sun_call)
}

/// `counter`'s movement over a frame refused at a warm SUNRPC-UDP server: a
/// UDP datagram to a port nothing enabled, put on the wire at the client's
/// device after an identical one made its refusal's row.
pub fn sun_rpc_refused_datagram(counter: fn() -> u64) -> u64 {
    let tb = sun_testbed(SimConfig::inline_mode());
    let ctx = tb.sim.ctx(tb.client.host());
    sun_call(&ctx, &tb.client, tb.server_ip);
    let (nic, eth) = (
        tb.client.lookup("nic0").unwrap(),
        tb.client.lookup("eth").unwrap(),
    );
    let device = tb
        .client
        .open(
            &ctx,
            nic,
            eth,
            &ParticipantSet::local(Participant::default()),
        )
        .unwrap();
    let udp = UdpHdr {
        src_port: 111,
        dst_port: 0x7777,
        length: 12,
        checksum: 0,
    };
    let ip = IpHeader {
        total_len: 32,
        id: 1,
        more_frags: false,
        frag_off: 0,
        ttl: 32,
        proto: ip_proto::UDP,
        src: tb.client_ip,
        dst: tb.server_ip,
    };
    let eth = EthHdr {
        dst: EthAddr::from_index(2),
        src: EthAddr::from_index(1),
        ty: eth_type::IP,
    };
    // Four payload bytes: a header that ended the frame would be copied out
    // of it, as any would.
    let frame = [&eth.encode()[..], &ip.encode(), &udp.encode(), &[0; 4]].concat();
    let refuse = || {
        let msg = Message::from_wire(frame.clone());
        let before = counter();
        device
            .push(&ctx, msg)
            .expect("a refusal never reaches the sender");
        counter() - before
    };
    refuse();
    refuse()
}
