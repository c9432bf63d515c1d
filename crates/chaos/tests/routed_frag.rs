//! Fragmentation across the internetwork under loss: an MTU-mismatched
//! gateway (1500-byte segment A, 576-byte segment B) forces the router to
//! refragment forwarded datagrams, and the Lossy profile drops individual
//! fragments — which kills whole datagrams and leans on RPC
//! retransmission. Every call must still complete with a byte-identical
//! reply (no corrupt surfaces), and the IP counters must show the
//! machinery actually engaged on every hop.

use std::sync::{Arc, Mutex};

use chaos::{body_from_tag, Profile};
use inet::ip::{Ip, IpStats};
use inet::testbed::{base_registry, routed_lans};
use inet::with_concrete;
use simnet::LanConfig;
use xkernel::prelude::*;
use xkernel::sim::{RunReport, SimConfig};
use xrpc::procs::ECHO_PROC;
use xrpc::stacks::M_RPC_IP;

/// Bigger than segment B's 552-byte fragment payload, smaller than segment
/// A's MTU: requests cross LAN A whole and are split at the router.
const PAYLOAD: usize = 900;
const CALLS: u64 = 6;

fn ip_stats(k: &Arc<Kernel>) -> IpStats {
    with_concrete::<Ip, _>(k, "ip", |ip| ip.stats()).expect("ip downcast")
}

/// Runs the loaded conversation; returns (completed calls, per-hop IP
/// stats as [client, router, server], run report).
fn run(seed: u64) -> (u64, [IpStats; 3], RunReport) {
    let mut reg = base_registry();
    xrpc::register_ctors(&mut reg);
    let narrow = LanConfig {
        mtu: 576,
        ..LanConfig::default()
    };
    let tb = routed_lans(
        SimConfig::scheduled().with_seed(seed),
        LanConfig::default(),
        narrow,
        &reg,
        M_RPC_IP.graph,
        1,
        1,
    )
    .expect("routed testbed builds");
    let client = Arc::clone(&tb.left[0]);
    let server = Arc::clone(&tb.right[0]);
    let server_ip = tb.right_ip(0);
    xrpc::procs::register_standard(&server, "mrpc").expect("procs register");

    // Warm every ARP table on the path over the quiet wire, then arm the
    // drops: the fault budget under test is RPC's, not ARP's bootstrap.
    let k = Arc::clone(&client);
    tb.sim.spawn(client.host(), move |ctx| {
        let body = body_from_tag(0xaaaa, 16);
        let r = xrpc::call(ctx, &k, "mrpc", server_ip, ECHO_PROC, body.clone())
            .expect("warm-up call on the quiet wire");
        assert_eq!(r, body);
    });
    let warm = tb.sim.run_until_idle();
    assert_eq!(warm.blocked, 0);

    let client_eth = EthAddr::from_index(1);
    let server_eth = EthAddr::from_index(301);
    tb.net.set_fault_schedule(
        tb.lan_a,
        Profile::Lossy.schedule(seed, client_eth, server_eth, false),
    );
    tb.net.set_fault_schedule(
        tb.lan_b,
        Profile::Lossy.schedule(seed ^ 0xb, client_eth, server_eth, false),
    );

    let completed = Arc::new(Mutex::new(0u64));
    let c2 = Arc::clone(&completed);
    let k = Arc::clone(&client);
    tb.sim.spawn(client.host(), move |ctx| {
        for i in 0..CALLS {
            let body = body_from_tag(seed.wrapping_add(i), PAYLOAD);
            let r = xrpc::call(ctx, &k, "mrpc", server_ip, ECHO_PROC, body.clone())
                .expect("call rides out the loss on retransmission");
            assert_eq!(r, body, "reply must be byte-identical (call {i})");
            *c2.lock().unwrap() += 1;
            ctx.sleep(12_000_000);
        }
    });
    let report = tb.sim.run_until_idle();
    assert_eq!(report.blocked, 0);
    let done = *completed.lock().unwrap();
    let stats = [ip_stats(&client), ip_stats(&tb.router), ip_stats(&server)];
    (done, stats, report)
}

#[test]
fn fragments_cross_the_lossy_gateway_intact() {
    let (done, [client, router, server], _) = run(0xf4a6);
    assert_eq!(done, CALLS, "every call completed");

    // The router really routed, and really split oversized datagrams for
    // the narrow segment. Endpoints size their own datagrams to their
    // local MTU (Sprite asks IP for the optimal packet), so the path-MTU
    // mismatch is invisible to them — only the router fragments, and only
    // the server reassembles.
    assert!(router.forwarded > 0, "router forwarded: {router:?}");
    assert!(
        router.fragments_sent > 0,
        "router refragmented for the 576-byte segment: {router:?}"
    );
    assert!(server.fragments_received > 0, "server: {server:?}");
    assert!(server.reassembled >= CALLS, "server: {server:?}");
    assert_eq!(
        client.fragments_received, 0,
        "nothing on the wide segment ever exceeds its MTU: {client:?}"
    );
}

#[test]
fn lossy_routed_runs_are_deterministic() {
    let a = run(0xf4a7);
    let b = run(0xf4a7);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1, "per-hop IP counters are bit-identical");
    assert_eq!(a.2, b.2, "run reports are bit-identical");
}

#[test]
fn quiet_wire_fragment_accounting_is_exact() {
    // Without faults the counters are exact: one reassembly per fragmented
    // datagram, no give-up timers, nothing dropped mid-flight.
    let mut reg = base_registry();
    xrpc::register_ctors(&mut reg);
    let narrow = LanConfig {
        mtu: 576,
        ..LanConfig::default()
    };
    let tb = routed_lans(
        SimConfig::scheduled().with_seed(0xf4a8),
        LanConfig::default(),
        narrow,
        &reg,
        M_RPC_IP.graph,
        1,
        1,
    )
    .expect("routed testbed builds");
    let client = Arc::clone(&tb.left[0]);
    let server = Arc::clone(&tb.right[0]);
    let server_ip = tb.right_ip(0);
    xrpc::procs::register_standard(&server, "mrpc").expect("procs register");
    let k = Arc::clone(&client);
    tb.sim.spawn(client.host(), move |ctx| {
        for i in 0..CALLS {
            let body = body_from_tag(i, PAYLOAD);
            let r = xrpc::call(ctx, &k, "mrpc", server_ip, ECHO_PROC, body.clone())
                .expect("quiet wire call");
            assert_eq!(r, body);
        }
    });
    let report = tb.sim.run_until_idle();
    assert_eq!(report.blocked, 0);

    let client_s = ip_stats(&client);
    let router_s = ip_stats(&tb.router);
    let server_s = ip_stats(&server);
    // Each 900-byte request is one datagram on segment A, split in two for
    // segment B; each reply is two sprite fragments that fit B's MTU whole.
    assert_eq!(server_s.reassembled, CALLS, "one reassembly per request");
    assert_eq!(server_s.fragments_received, 2 * CALLS);
    assert_eq!(server_s.reassembly_timeouts, 0);
    assert_eq!(client_s.reassembled, 0, "replies arrive unfragmented");
    assert_eq!(client_s.reassembly_timeouts, 0);
    assert_eq!(router_s.fragments_sent, 2 * CALLS);
    assert_eq!(
        router_s.forwarded,
        3 * CALLS,
        "one request datagram + two reply datagrams per call"
    );
}
