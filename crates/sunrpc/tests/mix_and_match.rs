//! The paper's "Mix and Match RPCs" (§5), as executable claims:
//!
//! * classic Sun RPC = SUN_SELECT / AUTH / REQUEST_REPLY / UDP;
//! * auth layers insert and remove by editing one graph line, and an
//!   allow-listing AUTH_UNIX really rejects;
//! * SUN_SELECT composes with FRAGMENT instead of depending on IP to
//!   fragment;
//! * REQUEST_REPLY (zero-or-more) swaps for CHANNEL (at-most-once) — and
//!   the semantic difference is observable under duplication faults.

use std::sync::{Arc, Mutex};

use inet::testbed::{base_registry, two_hosts, TwoHosts};
use inet::with_concrete;
use simnet::fault::FaultPlan;
use sunrpc::sunselect::SunSelect;
use xkernel::graph::ProtocolRegistry;
use xkernel::prelude::*;
use xkernel::sim::SimConfig;

const PROG: u32 = 100003;
const VERS: u32 = 2;
const PROC_ECHO: u32 = 1;
const PROC_COUNT: u32 = 2;

fn registry() -> ProtocolRegistry {
    let mut reg = base_registry();
    xrpc::register_ctors(&mut reg);
    sunrpc::register_ctors(&mut reg);
    reg
}

fn rig(graph: &str) -> (TwoHosts, Arc<Mutex<u32>>) {
    let tb = two_hosts(SimConfig::scheduled(), &registry(), graph).expect("testbed builds");
    let counter = Arc::new(Mutex::new(0u32));
    let c2 = Arc::clone(&counter);
    with_concrete::<SunSelect, _>(&tb.server, "sunselect", |s| {
        s.serve(PROG, VERS, PROC_ECHO, |_ctx, msg| Ok(msg));
        s.serve(PROG, VERS, PROC_COUNT, move |ctx, _msg| {
            *c2.lock().unwrap() += 1;
            Ok(ctx.empty_msg())
        });
    })
    .unwrap();
    (tb, counter)
}

fn call(tb: &TwoHosts, proc: u32, args: Vec<u8>) -> XResult<Vec<u8>> {
    let server_ip = tb.server_ip;
    let out: Arc<Mutex<Option<XResult<Vec<u8>>>>> = Arc::new(Mutex::new(None));
    let o2 = Arc::clone(&out);
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let r = with_concrete::<SunSelect, _>(&ctx.kernel(), "sunselect", |s| {
            s.call(ctx, server_ip, PROG, VERS, proc, args)
        })
        .unwrap();
        *o2.lock().unwrap() = Some(r);
    });
    tb.sim.run_until_idle();
    let got = out.lock().unwrap().take().expect("client ran");
    got
}

#[test]
fn classic_sun_rpc_over_udp() {
    let (tb, _) = rig("request_reply -> udp\n\
                       auth: auth_none -> request_reply\n\
                       sunselect -> auth\n");
    let echoed = call(&tb, PROC_ECHO, b"nfs says hi".to_vec()).unwrap();
    assert_eq!(echoed, b"nfs says hi");
}

#[test]
fn sun_rpc_without_any_auth_layer() {
    // Removing authentication is deleting one graph line.
    let (tb, _) = rig("request_reply -> udp\nsunselect -> request_reply\n");
    let echoed = call(&tb, PROC_ECHO, b"plain".to_vec()).unwrap();
    assert_eq!(echoed, b"plain");
}

#[test]
fn auth_unix_identifies_and_allowlists() {
    // Server accepts only uid 1000.
    let graph_ok = "request_reply -> udp\n\
                    auth: auth_unix uid=1000 machine=sun3 allow=1000 -> request_reply\n\
                    sunselect -> auth\n";
    let (tb, _) = rig(graph_ok);
    assert_eq!(
        call(&tb, PROC_ECHO, b"root ok".to_vec()).unwrap(),
        b"root ok"
    );

    // A client claiming uid 501 against the same allow-list is denied: the
    // request is dropped and the transaction times out.
    let graph_denied = "request_reply -> udp\n\
                        auth: auth_unix uid=501 machine=sun3 allow=1000 -> request_reply\n\
                        sunselect -> auth\n";
    let (tb, counter) = rig(graph_denied);
    let err = call(&tb, PROC_COUNT, Vec::new()).unwrap_err();
    assert!(
        matches!(err, XError::Timeout(_)),
        "denied → timeout, got {err:?}"
    );
    assert_eq!(*counter.lock().unwrap(), 0, "the procedure never executed");
}

#[test]
fn sun_rpc_over_fragment_carries_large_messages() {
    // "one can compose SUN_SELECT and REQUEST_REPLY with FRAGMENT rather
    // than having to depend on IP to fragment large messages."
    let graph = "vip -> ip eth arp\n\
                 fragment -> vip\n\
                 request_reply -> fragment\n\
                 auth: auth_unix uid=7 machine=h -> request_reply\n\
                 sunselect -> auth\n";
    let (tb, _) = rig(graph);
    let big: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
    let echoed = call(&tb, PROC_ECHO, big.clone()).unwrap();
    assert_eq!(echoed, big);
    // FRAGMENT, not IP, did the fragmentation: the IP layer never saw a
    // packet bigger than one frame. (All frames fit the Ethernet MTU.)
    let stats = tb.net.stats(tb.lan);
    assert!(stats.sent >= 16, "request + reply fragments on the wire");
}

#[test]
fn zero_or_more_versus_at_most_once_under_duplication() {
    // Duplicate every frame. REQUEST_REPLY executes duplicated requests
    // again (zero-or-more); CHANNEL suppresses them (at-most-once).
    let dup_all = FaultPlan {
        dup_per_mille: 1000,
        ..FaultPlan::default()
    };
    let calls = 10u32;

    // Zero-or-more.
    let (tb, counter) = rig("vip -> ip eth arp\n\
                             request_reply -> vip\n\
                             sunselect -> request_reply\n");
    tb.net.set_faults(tb.lan, dup_all.clone());
    for _ in 0..calls {
        call(&tb, PROC_COUNT, Vec::new()).unwrap();
    }
    let rr_count = *counter.lock().unwrap();
    assert!(
        rr_count > calls,
        "zero-or-more: duplicated requests re-execute (got {rr_count} for {calls} calls)"
    );

    // At-most-once: same SUN_SELECT, CHANNEL swapped in below it.
    let (tb, counter) = rig("vip -> ip eth arp\n\
                             fragment -> vip\n\
                             channel -> fragment\n\
                             sunselect -> channel\n");
    tb.net.set_faults(tb.lan, dup_all);
    for _ in 0..calls {
        call(&tb, PROC_COUNT, Vec::new()).unwrap();
    }
    assert_eq!(
        *counter.lock().unwrap(),
        calls,
        "at-most-once: duplicates suppressed"
    );
}

#[test]
fn request_reply_retransmits_through_loss() {
    let (tb, counter) = rig("vip -> ip eth arp\n\
                             request_reply -> vip\n\
                             sunselect -> request_reply\n");
    tb.net.set_faults(tb.lan, FaultPlan::lossy(150));
    for _ in 0..15 {
        call(&tb, PROC_COUNT, Vec::new()).unwrap();
    }
    // Every call completed; with zero-or-more semantics the server-side
    // count is at *least* the number of calls.
    assert!(*counter.lock().unwrap() >= 15);
}

#[test]
fn unknown_program_and_procedure_report_remote_errors() {
    let (tb, _) = rig("request_reply -> udp\nsunselect -> request_reply\n");
    let server_ip = tb.server_ip;
    let out: Arc<Mutex<Vec<XError>>> = Arc::new(Mutex::new(Vec::new()));
    let o2 = Arc::clone(&out);
    tb.sim.spawn(tb.client.host(), move |ctx| {
        with_concrete::<SunSelect, _>(&ctx.kernel(), "sunselect", |s| {
            let e1 = s.call(ctx, server_ip, 999, 1, 1, Vec::new()).unwrap_err();
            let e2 = s
                .call(ctx, server_ip, PROG, VERS, 77, Vec::new())
                .unwrap_err();
            o2.lock().unwrap().push(e1);
            o2.lock().unwrap().push(e2);
        })
        .unwrap();
    });
    tb.sim.run_until_idle();
    let errs = out.lock().unwrap();
    assert!(errs[0].to_string().contains("program 999 unavailable"));
    assert!(errs[1].to_string().contains("unavailable"));
}

#[test]
fn sun_rpc_inline_mode_lock_discipline() {
    // The whole composed stack must survive the inline-synchronous network
    // (no lock held across a lower push).
    let reg = registry();
    let tb = two_hosts(
        SimConfig::inline_mode(),
        &reg,
        "vip -> ip eth arp\n\
         fragment -> vip\n\
         request_reply -> fragment\n\
         auth: auth_none -> request_reply\n\
         sunselect -> auth\n",
    )
    .unwrap();
    with_concrete::<SunSelect, _>(&tb.server, "sunselect", |s| {
        s.serve(PROG, VERS, PROC_ECHO, |_ctx, msg| Ok(msg));
    })
    .unwrap();
    let ctx = tb.sim.ctx(tb.client.host());
    let echoed = with_concrete::<SunSelect, _>(&tb.client, "sunselect", |s| {
        s.call(
            &ctx,
            tb.server_ip,
            PROG,
            VERS,
            PROC_ECHO,
            b"inline".to_vec(),
        )
    })
    .unwrap()
    .unwrap();
    assert_eq!(echoed, b"inline");
}

#[test]
fn sun_rpc_reaches_across_a_router() {
    // SUN_SELECT / REQUEST_REPLY over VIP spanning two LANs: the virtual
    // protocol picks IP for the remote peer and Sun RPC neither knows nor
    // cares.
    let reg = registry();
    let rp = inet::testbed::routed_pair(
        SimConfig::scheduled(),
        &reg,
        "vip -> ip eth arp\nrequest_reply -> vip\nsunselect -> request_reply\n",
    )
    .unwrap();
    with_concrete::<SunSelect, _>(&rp.server, "sunselect", |s| {
        s.serve(PROG, VERS, PROC_ECHO, |_ctx, msg| Ok(msg));
    })
    .unwrap();
    let server_ip = rp.server_ip;
    let out: Arc<Mutex<Option<Vec<u8>>>> = Arc::new(Mutex::new(None));
    let o2 = Arc::clone(&out);
    rp.sim.spawn(rp.client.host(), move |ctx| {
        with_concrete::<SunSelect, _>(&ctx.kernel(), "sunselect", |s| {
            let r = s
                .call(ctx, server_ip, PROG, VERS, PROC_ECHO, b"far away".to_vec())
                .unwrap();
            *o2.lock().unwrap() = Some(r);
        })
        .unwrap();
    });
    let r = rp.sim.run_until_idle();
    assert_eq!(r.blocked, 0);
    assert_eq!(out.lock().unwrap().take().unwrap(), b"far away");
    assert!(
        rp.net.stats(rp.lan_b).sent >= 2,
        "traffic crossed the router"
    );
}
