//! Deeper per-layer behaviour: CHANNEL's explicit-ACK machinery and RTT
//! estimator, M_RPC's partial retransmission via ACK masks, VIP carrying a
//! protocol with large messages (both sessions open), and the step-function
//! timeout plumbing.

use std::sync::{Arc, Mutex};

use inet::testbed::{base_registry, two_hosts, TwoHosts};
use inet::with_concrete;
use simnet::fault::FaultPlan;
use xkernel::graph::ProtocolRegistry;
use xkernel::prelude::*;
use xkernel::sim::SimConfig;
use xrpc::channel::Channel;
use xrpc::procs::{ECHO_PROC, NULL_PROC};
use xrpc::stacks::{L_RPC_VIP, M_RPC_VIP};

fn registry() -> ProtocolRegistry {
    let mut reg = base_registry();
    xrpc::register_ctors(&mut reg);
    reg
}

fn rig(graph: &str) -> TwoHosts {
    two_hosts(SimConfig::scheduled(), &registry(), graph).expect("testbed builds")
}

fn warm(tb: &TwoHosts, entry: &'static str) {
    let server_ip = tb.server_ip;
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        xrpc::call(ctx, &k, entry, server_ip, NULL_PROC, Vec::new()).unwrap();
    });
    assert_eq!(tb.sim.run_until_idle().blocked, 0);
}

// ---------------------------------------------------------------------------
// CHANNEL: RTT estimator and explicit acknowledgement.
// ---------------------------------------------------------------------------

#[test]
fn channel_rtt_estimator_converges() {
    let tb = rig(L_RPC_VIP.graph);
    xrpc::procs::register_standard(&tb.server, "select").unwrap();
    warm(&tb, "select");
    let server_ip = tb.server_ip;
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        for _ in 0..10 {
            xrpc::call(ctx, &k, "select", server_ip, NULL_PROC, Vec::new()).unwrap();
        }
    });
    tb.sim.run_until_idle();
    let rtt =
        with_concrete::<Channel, _>(&tb.client, "channel", |c| c.rto().rtt_estimate()).unwrap();
    // The warm null RPC round-trips in ~1.9 virtual ms; the EWMA must sit
    // in that neighbourhood.
    assert!(
        (1_000_000..4_000_000).contains(&rtt),
        "rtt estimate {rtt} ns out of range"
    );
}

#[test]
fn slow_server_elicits_explicit_ack_not_reexecution() {
    // A procedure slower than CHANNEL's base timeout: the client
    // retransmits with PLEASE_ACK, the server answers with an explicit ACK
    // ("still working"), the client keeps waiting, and the procedure runs
    // exactly once.
    let tb = rig(L_RPC_VIP.graph);
    let hits = Arc::new(Mutex::new(0u32));
    let h2 = Arc::clone(&hits);
    let base = xrpc::txn::BASE_TIMEOUT_NS;
    xrpc::serve(&tb.server, "select", 5, move |ctx, _| {
        *h2.lock().unwrap() += 1;
        ctx.sleep(base * 3); // Three timeout periods of "work".
        Ok(ctx.empty_msg())
    })
    .unwrap();
    xrpc::procs::register_standard(&tb.server, "select").unwrap();
    warm(&tb, "select");

    let server_ip = tb.server_ip;
    let done = Arc::new(Mutex::new(false));
    let d2 = Arc::clone(&done);
    let elapsed = Arc::new(Mutex::new(0u64));
    let e2 = Arc::clone(&elapsed);
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        let t0 = ctx.now();
        xrpc::call(ctx, &k, "select", server_ip, 5, Vec::new()).unwrap();
        *e2.lock().unwrap() = ctx.now() - t0;
        *d2.lock().unwrap() = true;
    });
    let r = tb.sim.run_until_idle();
    assert_eq!(r.blocked, 0);
    assert!(*done.lock().unwrap(), "the slow call completed");
    assert_eq!(*hits.lock().unwrap(), 1, "the ACK suppressed re-execution");
    assert!(
        *elapsed.lock().unwrap() >= base * 3,
        "the client genuinely waited through the service time"
    );
}

#[test]
fn channel_step_timeout_grows_with_fragment_count() {
    // The step function: CHANNEL asks the layer below how many fragments a
    // message needs and scales its patience. Observe it through the
    // control interface the client session exposes.
    let tb = rig(L_RPC_VIP.graph);
    xrpc::procs::register_standard(&tb.server, "select").unwrap();
    warm(&tb, "select");
    let ctx = tb.sim.ctx(tb.client.host());
    let chan_id = tb.client.lookup("channel").unwrap();
    let select_id = tb.client.lookup("select").unwrap();
    let parts = ParticipantSet::pair(Participant::proto(1), Participant::host(tb.server_ip));
    let sess = tb.client.open(&ctx, chan_id, select_id, &parts).unwrap();
    let one = sess
        .control(&ctx, &ControlOp::GetFragCount(100))
        .unwrap()
        .size()
        .unwrap();
    let many = sess
        .control(&ctx, &ControlOp::GetFragCount(16_000))
        .unwrap()
        .size()
        .unwrap();
    assert_eq!(one, 1);
    assert!(many >= 11, "16k spans ≥11 fragments, got {many}");
}

// ---------------------------------------------------------------------------
// M_RPC: partial retransmission through ACK masks.
// ---------------------------------------------------------------------------

#[test]
fn mrpc_recovers_multifragment_request_exactly_once() {
    let tb = rig(M_RPC_VIP.graph);
    let hits = Arc::new(Mutex::new(0u32));
    let h2 = Arc::clone(&hits);
    xrpc::serve(&tb.server, "mrpc", 5, move |_ctx, msg| {
        *h2.lock().unwrap() += 1;
        Ok(msg)
    })
    .unwrap();
    xrpc::procs::register_standard(&tb.server, "mrpc").unwrap();
    warm(&tb, "mrpc");

    // Drop the 2nd fragment of the 6-fragment request.
    let base = tb.net.stats(tb.lan).sent;
    tb.net
        .set_faults(tb.lan, FaultPlan::drop_exactly([base + 1]));
    let server_ip = tb.server_ip;
    let out: Arc<Mutex<Option<Vec<u8>>>> = Arc::new(Mutex::new(None));
    let o2 = Arc::clone(&out);
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        let body: Vec<u8> = (0..8000).map(|i| (i % 251) as u8).collect();
        let echoed = xrpc::call(ctx, &k, "mrpc", server_ip, 5, body.clone()).unwrap();
        *o2.lock().unwrap() = Some(echoed);
    });
    let r = tb.sim.run_until_idle();
    assert_eq!(r.blocked, 0);
    assert_eq!(
        out.lock().unwrap().take().unwrap().len(),
        8000,
        "full echo despite the dropped fragment"
    );
    assert_eq!(*hits.lock().unwrap(), 1, "executed exactly once");
    // Recovery budget: 6 request frags (1 lost) + full retransmit round
    // bounded by 6 + ACK traffic + 6 reply frags. Anything wildly above
    // means the partial-retransmission machinery regressed.
    let used = tb.net.stats(tb.lan).sent - base;
    assert!(
        used <= 22,
        "recovery took {used} frames; partial retransmission regressed"
    );
}

#[test]
fn mrpc_duplicate_reply_suppressed_after_reply_loss() {
    // Lose the reply: the client retransmits the request, the server
    // resends the *saved* reply without re-executing.
    let tb = rig(M_RPC_VIP.graph);
    let hits = Arc::new(Mutex::new(0u32));
    let h2 = Arc::clone(&hits);
    xrpc::serve(&tb.server, "mrpc", 5, move |ctx, _| {
        *h2.lock().unwrap() += 1;
        Ok(ctx.msg(b"result".to_vec()))
    })
    .unwrap();
    xrpc::procs::register_standard(&tb.server, "mrpc").unwrap();
    warm(&tb, "mrpc");

    let base = tb.net.stats(tb.lan).sent;
    // Packet base+0 is the request; base+1 is the reply — drop the reply.
    tb.net
        .set_faults(tb.lan, FaultPlan::drop_exactly([base + 1]));
    let server_ip = tb.server_ip;
    let out: Arc<Mutex<Option<Vec<u8>>>> = Arc::new(Mutex::new(None));
    let o2 = Arc::clone(&out);
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        let got = xrpc::call(ctx, &k, "mrpc", server_ip, 5, Vec::new()).unwrap();
        *o2.lock().unwrap() = Some(got);
    });
    tb.sim.run_until_idle();
    assert_eq!(out.lock().unwrap().take().unwrap(), b"result");
    assert_eq!(
        *hits.lock().unwrap(),
        1,
        "saved reply resent; no re-execution"
    );
}

// ---------------------------------------------------------------------------
// VIP with a large-message upper protocol: both sessions, per-push choice.
// ---------------------------------------------------------------------------

#[test]
fn vip_opens_both_sessions_for_udp_and_routes_by_size() {
    // UDP reports GetMaxMsgSize = 64k, so VIP must open BOTH an Ethernet
    // and an IP session for a local peer, choosing per datagram: small ones
    // take the raw wire, big ones take IP (which fragments).
    let mut reg = registry();
    struct Recorder {
        me: ProtoId,
        got: Mutex<Vec<usize>>,
    }
    impl Protocol for Recorder {
        fn id(&self) -> ProtoId {
            self.me
        }
        fn keeps(&self, _k: &mut Keep<'_>) {}
        fn open(&self, _c: &Ctx, _u: ProtoId, _p: &ParticipantSet) -> XResult<SessionRef> {
            Err(XError::Unsupported("recorder"))
        }
        fn open_enable(&self, _c: &Ctx, _u: ProtoId, _p: &ParticipantSet) -> XResult<()> {
            Ok(())
        }
        fn demux(&self, _ctx: &Ctx, _lls: &SessionRef, msg: Message) -> XResult<()> {
            self.got.lock().unwrap().push(msg.len());
            Ok(())
        }
    }
    reg.add(ProtoContract::opaque("recorder"), |a| {
        Ok(std::rc::Rc::new(Recorder {
            me: a.me,
            got: Mutex::new(Vec::new()),
        }) as ProtocolRef)
    });
    let graph = "vip -> ip eth arp\n\
                 udpv: udp -> vip\n\
                 recorder -> udpv\n";
    let tb = two_hosts(SimConfig::scheduled().with_trace(), &reg, graph).unwrap();
    {
        let ctx = tb.sim.ctx(tb.server.host());
        let udp = tb.server.lookup("udpv").unwrap();
        let rec = tb.server.lookup("recorder").unwrap();
        let parts = ParticipantSet::local(Participant::default().with_port(9));
        tb.server.open_enable(&ctx, udp, rec, &parts).unwrap();
    }
    let server_ip = tb.server_ip;
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        let udp = k.lookup("udpv").unwrap();
        let parts = ParticipantSet::pair(
            Participant::default().with_port(5000),
            Participant::host_port(server_ip, 9),
        );
        let sess = k.open(ctx, udp, udp, &parts).unwrap();
        sess.push(ctx, ctx.msg(vec![1u8; 100])).unwrap(); // Raw Ethernet.
        sess.push(ctx, ctx.msg(vec![2u8; 6000])).unwrap(); // IP fragments.
    });
    let r = tb.sim.run_until_idle();
    assert_eq!(r.blocked, 0);
    let got = inet::with_concrete::<Recorder, _>(&tb.server, "recorder", |rc| {
        rc.got.lock().unwrap().clone()
    })
    .unwrap();
    assert_eq!(got, vec![100, 6000], "both sizes delivered intact");
    let notes = tb.sim.trace_notes();
    assert!(
        notes.iter().any(|(_, n)| *n == "open: eth=true ip=true"),
        "VIP opened both sessions for UDP: {notes:?}"
    );
}

// ---------------------------------------------------------------------------
// Forwarding SELECT failure path.
// ---------------------------------------------------------------------------

#[test]
fn forwarding_to_dead_backend_reports_remote_error() {
    let tb = rig(L_RPC_VIP.graph);
    xrpc::procs::register_standard(&tb.server, "select").unwrap();
    warm(&tb, "select");
    // The server forwards command 9 to a host that does not exist.
    with_concrete::<xrpc::select::Select, _>(&tb.server, "select", |s| {
        s.set_forward(9, IpAddr::new(10, 0, 0, 99));
    })
    .unwrap();
    let server_ip = tb.server_ip;
    let err: Arc<Mutex<Option<XError>>> = Arc::new(Mutex::new(None));
    let e2 = Arc::clone(&err);
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        *e2.lock().unwrap() = xrpc::call(ctx, &k, "select", server_ip, 9, Vec::new()).err();
    });
    let r = tb.sim.run_until_idle();
    assert_eq!(r.blocked, 0);
    assert!(
        matches!(*err.lock().unwrap(), Some(XError::Remote(_))),
        "forward failure surfaces as a remote status, got {:?}",
        err.lock().unwrap()
    );
}

// ---------------------------------------------------------------------------
// ECHO procedure sanity on very large payloads near the 16-fragment cap.
// ---------------------------------------------------------------------------

#[test]
fn messages_beyond_sixteen_fragments_are_rejected_cleanly() {
    let tb = rig(L_RPC_VIP.graph);
    xrpc::procs::register_standard(&tb.server, "select").unwrap();
    warm(&tb, "select");
    let server_ip = tb.server_ip;
    let err: Arc<Mutex<Option<XError>>> = Arc::new(Mutex::new(None));
    let e2 = Arc::clone(&err);
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        // Far beyond 16 fragments of ~1.4k.
        *e2.lock().unwrap() =
            xrpc::call(ctx, &k, "select", server_ip, ECHO_PROC, vec![0u8; 64_000]).err();
    });
    tb.sim.run_until_idle();
    assert!(
        matches!(*err.lock().unwrap(), Some(XError::TooBig { .. })),
        "got {:?}",
        err.lock().unwrap()
    );
}

/// M_RPC's reply has no caller to return `TooBig` to: a procedure whose
/// reply needs more than 16 fragments answers empty, as a failed one does.
#[test]
fn a_sprite_reply_beyond_sixteen_fragments_answers_empty() {
    let tb = rig(M_RPC_VIP.graph);
    xrpc::serve(&tb.server, "mrpc", 9, |ctx, _msg| {
        Ok(ctx.msg(vec![0u8; 64_000]))
    })
    .unwrap();
    let server_ip = tb.server_ip;
    let reply: Arc<Mutex<Option<XResult<Vec<u8>>>>> = Arc::new(Mutex::new(None));
    let r2 = Arc::clone(&reply);
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        *r2.lock().unwrap() = Some(xrpc::call(ctx, &k, "mrpc", server_ip, 9, Vec::new()));
    });
    assert_eq!(tb.sim.run_until_idle().blocked, 0);
    let got = reply.lock().unwrap().take().expect("the call returned");
    assert_eq!(got.expect("the call completes"), Vec::<u8>::new());
}

// ---------------------------------------------------------------------------
// The passive-open trio: open_enable at boot, demux-time session creation,
// open_done upcall to the high-level protocol.
// ---------------------------------------------------------------------------

#[test]
fn open_done_upcall_reports_passive_channels() {
    let tb = rig(L_RPC_VIP.graph);
    xrpc::procs::register_standard(&tb.server, "select").unwrap();
    let before =
        with_concrete::<xrpc::select::Select, _>(&tb.server, "select", |s| s.passive_opens())
            .unwrap();
    assert_eq!(before, 0);
    warm(&tb, "select");
    let after =
        with_concrete::<xrpc::select::Select, _>(&tb.server, "select", |s| s.passive_opens())
            .unwrap();
    assert_eq!(
        after, 1,
        "one server channel passively created and reported via open_done"
    );
}

// ---------------------------------------------------------------------------
// Control-op vocabulary: SetTimeout and GetPeerBootId.
// ---------------------------------------------------------------------------

#[test]
fn set_timeout_and_peer_boot_id_controls() {
    let tb = rig(L_RPC_VIP.graph);
    xrpc::procs::register_standard(&tb.server, "select").unwrap();
    warm(&tb, "select");
    let done = Arc::new(Mutex::new(false));
    let d2 = Arc::clone(&done);
    let server = Arc::clone(&tb.server);
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        let chan_id = k.lookup("channel").unwrap();
        let select_id = k.lookup("select").unwrap();
        let parts = ParticipantSet::pair(
            Participant::proto(1),
            Participant::host(IpAddr::new(10, 0, 0, 2)),
        );
        let sess = k.open(ctx, chan_id, select_id, &parts).unwrap();
        // Retune the timeout through the uniform interface.
        sess.control(ctx, &ControlOp::SetTimeout(250_000_000))
            .unwrap();
        // The channel remembers the peer's boot incarnation from replies.
        let server_boot = with_concrete::<Channel, _>(&server, "channel", |c| c.boot_id()).unwrap();
        let observed = sess
            .control(ctx, &ControlOp::GetPeerBootId)
            .unwrap()
            .u32()
            .unwrap();
        assert_eq!(observed, server_boot, "peer boot id learned from replies");
        *d2.lock().unwrap() = true;
    });
    let r = tb.sim.run_until_idle();
    assert_eq!(r.blocked, 0);
    assert!(*done.lock().unwrap());
}

// ---------------------------------------------------------------------------
// CHANNEL reply-loss path (the L_RPC analogue of the M_RPC test above).
// ---------------------------------------------------------------------------

#[test]
fn channel_resends_saved_reply_without_reexecution() {
    let tb = rig(L_RPC_VIP.graph);
    let hits = Arc::new(Mutex::new(0u32));
    let h2 = Arc::clone(&hits);
    xrpc::serve(&tb.server, "select", 5, move |ctx, _| {
        *h2.lock().unwrap() += 1;
        Ok(ctx.msg(b"layered result".to_vec()))
    })
    .unwrap();
    xrpc::procs::register_standard(&tb.server, "select").unwrap();
    warm(&tb, "select");

    let base = tb.net.stats(tb.lan).sent;
    // Frame base+0 is the request; base+1 is the reply — lose the reply.
    tb.net
        .set_faults(tb.lan, FaultPlan::drop_exactly([base + 1]));
    let server_ip = tb.server_ip;
    let out: Arc<Mutex<Option<Vec<u8>>>> = Arc::new(Mutex::new(None));
    let o2 = Arc::clone(&out);
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        let got = xrpc::call(ctx, &k, "select", server_ip, 5, Vec::new()).unwrap();
        *o2.lock().unwrap() = Some(got);
    });
    tb.sim.run_until_idle();
    assert_eq!(out.lock().unwrap().take().unwrap(), b"layered result");
    assert_eq!(*hits.lock().unwrap(), 1, "CHANNEL resent its saved reply");
    // The resend is visible in the robustness counters: the client's timer
    // fired and retransmitted; the server recognised the old sequence
    // number and answered from the saved reply instead of re-executing.
    let client = tb.sim.host_stats(tb.client.host());
    assert!(client.retransmits >= 1, "client re-sent the request");
    let server = tb.sim.host_stats(tb.server.host());
    assert!(
        server.duplicates_suppressed >= 1,
        "the saved-reply path counts as a suppressed duplicate: {server:?}"
    );
}

#[test]
fn channel_suppresses_duplicate_faulted_requests() {
    // Every frame the wire carries is delivered twice (`dup_per_mille:
    // 1000`). Each duplicated request must land in one of CHANNEL's
    // suppression branches — ACK-while-executing, saved-reply resend, or
    // drop — and the procedure still executes exactly once per call.
    let tb = rig(L_RPC_VIP.graph);
    let hits = Arc::new(Mutex::new(0u32));
    let h2 = Arc::clone(&hits);
    xrpc::serve(&tb.server, "select", 5, move |_ctx, msg| {
        *h2.lock().unwrap() += 1;
        Ok(msg)
    })
    .unwrap();
    xrpc::procs::register_standard(&tb.server, "select").unwrap();
    warm(&tb, "select");

    tb.net.set_faults(
        tb.lan,
        FaultPlan {
            dup_per_mille: 1000,
            ..FaultPlan::default()
        },
    );
    let calls = 4u32;
    let server_ip = tb.server_ip;
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        for i in 0..calls {
            let body = vec![i as u8; 16];
            let got = xrpc::call(ctx, &k, "select", server_ip, 5, body.clone()).unwrap();
            assert_eq!(got, body, "reply matches its request");
        }
    });
    let r = tb.sim.run_until_idle();
    assert_eq!(r.blocked, 0);
    assert_eq!(
        *hits.lock().unwrap(),
        calls,
        "at-most-once despite duplicated requests"
    );
    let server = tb.sim.host_stats(tb.server.host());
    assert!(
        server.duplicates_suppressed >= u64::from(calls),
        "each duplicated request was suppressed: {server:?}"
    );
    assert_eq!(
        server.retransmits, 0,
        "no loss: the server never re-sent on a timer"
    );
}

// ---------------------------------------------------------------------------
// Control-op consistency down the whole stack, and determinism under
// reordering jitter.
// ---------------------------------------------------------------------------

#[test]
fn max_packet_shrinks_monotonically_down_the_stack() {
    // Walking the layered stack top-down, each layer's usable packet size
    // is the layer below minus its own header — the arithmetic every
    // fragmenting protocol depends on.
    let tb = rig(L_RPC_VIP.graph);
    xrpc::procs::register_standard(&tb.server, "select").unwrap();
    warm(&tb, "select");
    let ctx = tb.sim.ctx(tb.client.host());
    let k = &tb.client;
    let opt_of = |name: &str| {
        k.control(&ctx, k.lookup(name).unwrap(), &ControlOp::GetOptPacket)
            .unwrap()
            .size()
            .unwrap()
    };
    let eth = opt_of("eth");
    let vip = opt_of("vip");
    let frag = opt_of("fragment");
    assert_eq!(eth, 1500);
    assert!(vip <= eth, "vip {vip} within eth {eth}");
    assert!(
        frag < vip,
        "fragment's per-packet payload {frag} excludes its header (vip {vip})"
    );
    assert_eq!(frag, vip - xrpc::hdr::FRAGMENT_HDR_LEN);
    // FRAGMENT's whole-message capacity is 16 fragments.
    let max = k
        .control(
            &ctx,
            k.lookup("fragment").unwrap(),
            &ControlOp::GetMaxPacket,
        )
        .unwrap()
        .size()
        .unwrap();
    assert_eq!(max, 16 * frag);
}

#[test]
fn jittered_wire_is_still_deterministic() {
    fn run(seed: u64) -> (u64, u32) {
        let tb = two_hosts(
            SimConfig::scheduled().with_seed(seed),
            &registry(),
            L_RPC_VIP.graph,
        )
        .unwrap();
        xrpc::procs::register_standard(&tb.server, "select").unwrap();
        tb.net.set_faults(
            tb.lan,
            FaultPlan {
                jitter_ns: 2_000_000,
                drop_per_mille: 50,
                ..FaultPlan::default()
            },
        );
        let server_ip = tb.server_ip;
        let done = Arc::new(Mutex::new(0u32));
        let d2 = Arc::clone(&done);
        tb.sim.spawn(tb.client.host(), move |ctx| {
            let k = ctx.kernel();
            for _ in 0..6 {
                xrpc::call(ctx, &k, "select", server_ip, ECHO_PROC, vec![7u8; 3000]).unwrap();
            }
            *d2.lock().unwrap() = 6;
        });
        let r = tb.sim.run_until_idle();
        assert_eq!(r.blocked, 0);
        let count = *done.lock().unwrap();
        (r.ended_at, count)
    }
    assert_eq!(run(1234), run(1234), "same seed, same jittered schedule");
    assert_ne!(
        run(1234).0,
        run(9999).0,
        "different seeds genuinely perturb the schedule"
    );
}
