//! Slot release, observed rather than declared.
//!
//! XK011's `clears_slot_on_error` is a boolean each transaction layer's
//! contract asserts about itself. This drives the two error exits of
//! `xrpc::txn::transact` — the retry budget exhausted, and a synchronous
//! failure of the lower push — on each of the three layers built on it, and
//! then *reuses* the channel or pool the failed call held: a slot left
//! outstanding would refuse the next request (CHANNEL), trip the pool's
//! exclusivity assertion (M_RPC), or match a late reply to a dead
//! transaction (REQUEST_REPLY).

use std::sync::{Arc, Mutex};

use inet::testbed::{two_hosts, TwoHosts};
use inet::with_concrete;
use simnet::fault::FaultPlan;
use sunrpc::sunselect::SunSelect;
use xkernel::prelude::*;
use xkernel::sim::{HostStats, SimConfig};
use xrpc::procs::ECHO_PROC;
use xrpc::select::Select;
use xrpc::stacks::{L_RPC_VIP, M_RPC_VIP};

const SUN: (u32, u32, u32) = (100_099, 1, 7);

struct Row {
    name: &'static str,
    graph: &'static str,
    max_retries: u32,
    serve: fn(&Arc<Kernel>),
    call: fn(&Ctx, IpAddr, Vec<u8>) -> XResult<Vec<u8>>,
}

fn sprite_call(entry: &str, ctx: &Ctx, peer: IpAddr, body: Vec<u8>) -> XResult<Vec<u8>> {
    xrpc::call(ctx, &ctx.kernel(), entry, peer, ECHO_PROC, body)
}

const ROWS: [Row; 3] = [
    Row {
        name: "L_RPC-VIP (CHANNEL)",
        graph: L_RPC_VIP.graph,
        max_retries: xrpc::txn::MAX_RETRIES,
        serve: |k| xrpc::procs::register_standard(k, "select").expect("procs register"),
        call: |ctx, peer, body| sprite_call("select", ctx, peer, body),
    },
    Row {
        name: "M_RPC-VIP",
        graph: M_RPC_VIP.graph,
        max_retries: xrpc::txn::MAX_RETRIES,
        serve: |k| xrpc::procs::register_standard(k, "mrpc").expect("procs register"),
        call: |ctx, peer, body| sprite_call("mrpc", ctx, peer, body),
    },
    Row {
        name: "SUNRPC-UDP (REQUEST_REPLY)",
        graph: sunrpc::UDP_GRAPH,
        max_retries: sunrpc::rr::MAX_RETRIES,
        serve: |k| {
            with_concrete::<SunSelect, _>(k, "sunselect", |s| {
                s.serve(SUN.0, SUN.1, SUN.2, |_ctx, msg| Ok(msg))
            })
            .expect("sunselect registered")
        },
        call: |ctx, peer, body| {
            with_concrete::<SunSelect, _>(&ctx.kernel(), "sunselect", |s| {
                s.call(ctx, peer, SUN.0, SUN.1, SUN.2, body)
            })
            .expect("sunselect registered")
        },
    },
];

fn rig(row: &Row) -> TwoHosts {
    let tb = two_hosts(SimConfig::scheduled(), &sunrpc::registry(), row.graph)
        .unwrap_or_else(|e| panic!("{}: testbed builds: {e:?}", row.name));
    (row.serve)(&tb.server);
    tb
}

/// Runs `f` as one client process to completion and returns what it
/// produced with the client host's counters afterwards.
fn on_client<T: Send + 'static>(
    tb: &TwoHosts,
    f: impl FnOnce(&Ctx) -> T + Send + 'static,
) -> (T, HostStats) {
    let out = Arc::new(Mutex::new(None));
    let o2 = Arc::clone(&out);
    tb.sim.spawn(tb.client.host(), move |ctx| {
        *o2.lock().unwrap() = Some(f(ctx))
    });
    assert_eq!(
        tb.sim.run_until_idle().blocked,
        0,
        "a process stayed blocked"
    );
    let v = out.lock().unwrap().take().expect("client process ran");
    (v, tb.sim.host_stats(tb.client.host()))
}

/// Free channels SELECT holds towards `peer`, where the stack has a SELECT.
fn select_free(tb: &TwoHosts, peer: IpAddr) -> Option<usize> {
    with_concrete::<Select, _>(&tb.client, "select", |s| s.free_channels(peer))
        .ok()
        .flatten()
}

#[test]
fn exhausted_retries_release_the_slot_and_the_channel_is_reusable() {
    for row in &ROWS {
        let tb = rig(row);
        let (call, server_ip) = (row.call, tb.server_ip);

        // Warm the path (ARP, sessions, the channel pool), then black-hole
        // the wire.
        let (warm, before) = on_client(&tb, move |ctx| call(ctx, server_ip, vec![1; 16]));
        assert_eq!(warm.expect("warm call"), vec![1; 16], "{}", row.name);
        tb.net.set_faults(tb.lan, FaultPlan::lossy(1000));
        let (lost, after) = on_client(&tb, move |ctx| call(ctx, server_ip, vec![2; 16]));
        assert!(
            matches!(lost, Err(XError::Timeout(_))),
            "{}: a black-holed call must time out, got {lost:?}",
            row.name
        );
        assert_eq!(
            after.timeouts_fired - before.timeouts_fired,
            u64::from(row.max_retries) + 1,
            "{}: every transmission timed out once",
            row.name
        );
        assert_eq!(
            after.retransmits - before.retransmits,
            u64::from(row.max_retries),
            "{}: every timeout but the last retransmitted",
            row.name
        );
        if let Some(free) = select_free(&tb, server_ip) {
            assert_eq!(free, 8, "{}: the channel went back to its pool", row.name);
        }

        // Heal. The pool is LIFO, so this call gets the very channel that
        // just gave up; its slot must be clean.
        tb.net.set_faults(tb.lan, FaultPlan::default());
        let (healed, _) = on_client(&tb, move |ctx| call(ctx, server_ip, vec![3; 16]));
        assert_eq!(
            healed.unwrap_or_else(|e| panic!("{}: call after heal: {e:?}", row.name)),
            vec![3; 16],
            "{}",
            row.name
        );
    }
}

#[test]
fn a_failed_lower_push_releases_the_slot_and_the_channel_is_reusable() {
    // Nobody answers ARP for this address: VIP falls back to IP, and IP's
    // push fails synchronously, under the transaction layer's send.
    let nobody = IpAddr::new(10, 0, 0, 77);
    for row in &ROWS {
        let tb = rig(row);
        let (call, server_ip) = (row.call, tb.server_ip);
        let (first, before) = on_client(&tb, move |ctx| call(ctx, nobody, vec![1; 16]));
        let first = first.expect_err("nobody is there");
        assert!(
            !matches!(first, XError::Timeout(_) | XError::Config(_)),
            "{}: the lower layer's own error comes back, got {first:?}",
            row.name
        );
        // Same peer, so the same pool and (LIFO) the same channel: a slot
        // still outstanding would turn this into "already has an
        // outstanding request" instead of the lower layer's error again.
        let (second, after) = on_client(&tb, move |ctx| call(ctx, nobody, vec![2; 16]));
        assert_eq!(
            format!("{:?}", second.expect_err("still nobody there")),
            format!("{first:?}"),
            "{}",
            row.name
        );
        assert_eq!(
            (after.retransmits, after.timeouts_fired),
            (before.retransmits, before.timeouts_fired),
            "{}: a send that fails outright is not a timeout",
            row.name
        );
        if let Some(free) = select_free(&tb, nobody) {
            assert_eq!(free, 8, "{}: the channel went back to its pool", row.name);
        }
        // And the protocol is fine towards a peer that exists.
        let (ok, _) = on_client(&tb, move |ctx| call(ctx, server_ip, vec![3; 16]));
        assert_eq!(
            ok.expect("call to the real server"),
            vec![3; 16],
            "{}",
            row.name
        );
    }
}
