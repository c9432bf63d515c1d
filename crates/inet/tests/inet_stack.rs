//! Integration tests for the inet substrate: ARP resolution, UDP datagrams,
//! IP fragmentation/reassembly, routing through a forwarder, ICMP, and the
//! TCP stream transport.

use std::rc::Rc;
use std::sync::{Arc, Mutex};

use inet::arp::Arp;
use inet::icmp::Icmp;
use inet::tcp::Tcp;
use inet::testbed::{base_registry, routed_pair, two_hosts, RoutedPair, TwoHosts};
use inet::with_concrete;
use simnet::fault::{FaultDecision, FaultPlan};
use xkernel::prelude::*;
use xkernel::sim::{Mode, SimConfig};

/// A demux-only protocol recording datagrams, for parking above UDP.
struct Recorder {
    me: ProtoId,
    got: Mutex<Vec<Vec<u8>>>,
}

impl Recorder {
    fn new(me: ProtoId) -> Rc<Recorder> {
        Rc::new(Recorder {
            me,
            got: Mutex::new(Vec::new()),
        })
    }
}

impl Protocol for Recorder {
    fn name(&self) -> &'static str {
        "recorder"
    }
    fn id(&self) -> ProtoId {
        self.me
    }
    fn open(&self, _c: &Ctx, _u: ProtoId, _p: &ParticipantSet) -> XResult<SessionRef> {
        Err(XError::Unsupported("recorder"))
    }
    fn open_enable(&self, _c: &Ctx, _u: ProtoId, _p: &ParticipantSet) -> XResult<()> {
        Ok(())
    }
    fn demux(&self, _ctx: &Ctx, _lls: &SessionRef, msg: Message) -> XResult<()> {
        self.got.lock().unwrap().push(msg.to_vec());
        Ok(())
    }
}

fn registry() -> xkernel::graph::ProtocolRegistry {
    let mut reg = base_registry();
    reg.add("recorder", |a| Ok(Recorder::new(a.me) as ProtocolRef));
    reg
}

fn rig(mode: Mode) -> TwoHosts {
    let cfg = match mode {
        Mode::Inline => SimConfig::inline_mode(),
        Mode::Scheduled => SimConfig::scheduled(),
    };
    two_hosts(cfg, &registry(), "recorder -> udp\n").expect("testbed builds")
}

fn recorded(k: &Arc<Kernel>) -> Vec<Vec<u8>> {
    with_concrete::<Recorder, _>(k, "recorder", |r| r.got.lock().unwrap().clone()).unwrap()
}

/// Client sends one UDP datagram to the server's port 9; returns recorded.
fn udp_roundtrip(mode: Mode, payload_len: usize) -> (TwoHosts, Vec<Vec<u8>>) {
    let tb = rig(mode);
    let server_ip = tb.server_ip;

    // Server side: enable port 9 up to the recorder.
    {
        let ctx = tb.sim.ctx(tb.server.host());
        let udp = tb.server.lookup("udp").unwrap();
        let rec = tb.server.lookup("recorder").unwrap();
        let parts = ParticipantSet::local(Participant::default().with_port(9));
        tb.server.open_enable(&ctx, udp, rec, &parts).unwrap();
    }

    let send = move |ctx: &Ctx| {
        let k = ctx.kernel();
        let udp = k.lookup("udp").unwrap();
        let rec = k.lookup("recorder").unwrap();
        let parts = ParticipantSet::pair(
            Participant::default().with_port(5000),
            Participant::host_port(server_ip, 9),
        );
        let sess = k.open(ctx, udp, rec, &parts).unwrap();
        let payload: Vec<u8> = (0..payload_len).map(|i| (i % 251) as u8).collect();
        sess.push(ctx, Message::from_user(payload)).unwrap();
    };

    match mode {
        Mode::Inline => send(&tb.sim.ctx(tb.client.host())),
        Mode::Scheduled => {
            tb.sim.spawn(tb.client.host(), send);
            let r = tb.sim.run_until_idle();
            assert_eq!(r.blocked, 0);
        }
    }
    let got = recorded(&tb.server);
    (tb, got)
}

#[test]
fn udp_small_datagram_inline() {
    let (_tb, got) = udp_roundtrip(Mode::Inline, 100);
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].len(), 100);
    assert_eq!(got[0][0], 0);
    assert_eq!(got[0][99], 99);
}

#[test]
fn udp_small_datagram_scheduled() {
    let (_tb, got) = udp_roundtrip(Mode::Scheduled, 100);
    assert_eq!(
        got,
        vec![(0..100).map(|i| (i % 251) as u8).collect::<Vec<_>>()]
    );
}

#[test]
fn udp_large_datagram_fragments_and_reassembles() {
    let (tb, got) = udp_roundtrip(Mode::Scheduled, 8000);
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].len(), 8000);
    assert_eq!(
        got[0],
        (0..8000).map(|i| (i % 251) as u8).collect::<Vec<_>>()
    );
    // 8008 bytes of UDP need ≥ 6 IP fragments of ≤1480, plus ARP traffic.
    let stats = tb.net.stats(tb.lan);
    assert!(
        stats.sent >= 6 + 2,
        "expected fragments on the wire: {stats:?}"
    );
}

#[test]
fn udp_large_datagram_inline_mode_too() {
    let (_tb, got) = udp_roundtrip(Mode::Inline, 4000);
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].len(), 4000);
}

#[test]
fn lost_fragment_loses_whole_datagram() {
    let tb = rig(Mode::Scheduled);
    let server_ip = tb.server_ip;
    {
        let ctx = tb.sim.ctx(tb.server.host());
        let udp = tb.server.lookup("udp").unwrap();
        let rec = tb.server.lookup("recorder").unwrap();
        let parts = ParticipantSet::local(Participant::default().with_port(9));
        tb.server.open_enable(&ctx, udp, rec, &parts).unwrap();
    }
    // Warm up ARP first so the drop script hits a data fragment.
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        let udp = k.lookup("udp").unwrap();
        let rec = k.lookup("recorder").unwrap();
        let parts = ParticipantSet::pair(
            Participant::default().with_port(5000),
            Participant::host_port(server_ip, 9),
        );
        let sess = k.open(ctx, udp, rec, &parts).unwrap();
        sess.push(ctx, Message::from_user(vec![1u8; 10])).unwrap();
    });
    tb.sim.run_until_idle();
    assert_eq!(recorded(&tb.server).len(), 1);

    // Now drop one fragment of a 5-fragment datagram: ARP used packets 0-1,
    // the small datagram was packet 2; the next transmissions are fragments.
    let sent_so_far = tb.net.stats(tb.lan).sent;
    tb.net
        .set_faults(tb.lan, FaultPlan::drop_exactly([sent_so_far + 2]));
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        let udp = k.lookup("udp").unwrap();
        let rec = k.lookup("recorder").unwrap();
        let parts = ParticipantSet::pair(
            Participant::default().with_port(5000),
            Participant::host_port(server_ip, 9),
        );
        let sess = k.open(ctx, udp, rec, &parts).unwrap();
        sess.push(ctx, Message::from_user(vec![2u8; 6000])).unwrap();
    });
    tb.sim.run_until_idle();
    // UDP/IP are unreliable: the datagram never arrives, and nothing hangs.
    assert_eq!(recorded(&tb.server).len(), 1, "incomplete datagram dropped");
}

#[test]
fn arp_resolves_local_host_and_caches() {
    let tb = rig(Mode::Scheduled);
    let server_ip = tb.server_ip;
    let stats0 = tb.net.stats(tb.lan).sent;
    let resolved: Arc<Mutex<Vec<EthAddr>>> = Arc::new(Mutex::new(Vec::new()));
    let r2 = Arc::clone(&resolved);
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let got = with_concrete::<Arp, _>(&ctx.kernel(), "arp", |a| {
            let e1 = a.resolve(ctx, server_ip).unwrap();
            let e2 = a.resolve(ctx, server_ip).unwrap(); // Cache hit.
            r2.lock().unwrap().push(e1);
            r2.lock().unwrap().push(e2);
        });
        got.unwrap();
    });
    tb.sim.run_until_idle();
    let r = resolved.lock().unwrap();
    assert_eq!(r[0], EthAddr::from_index(2));
    assert_eq!(r[0], r[1]);
    // One request + one reply on the wire despite two resolves.
    assert_eq!(tb.net.stats(tb.lan).sent - stats0, 2);
}

#[test]
fn arp_unknown_host_times_out_with_retries() {
    let tb = rig(Mode::Scheduled);
    let ghost = IpAddr::new(10, 0, 0, 77);
    let stats0 = tb.net.stats(tb.lan).sent;
    let result: Arc<Mutex<Option<XError>>> = Arc::new(Mutex::new(None));
    let r2 = Arc::clone(&result);
    tb.sim.spawn(tb.client.host(), move |ctx| {
        with_concrete::<Arp, _>(&ctx.kernel(), "arp", |a| {
            *r2.lock().unwrap() = a.resolve(ctx, ghost).err();
            // Second attempt hits the negative cache (no extra traffic).
            assert!(a.resolve(ctx, ghost).is_err());
        })
        .unwrap();
    });
    tb.sim.run_until_idle();
    assert!(matches!(
        *result.lock().unwrap(),
        Some(XError::Unreachable(_))
    ));
    assert_eq!(
        tb.net.stats(tb.lan).sent - stats0,
        u64::from(inet::arp::ARP_RETRIES),
        "one broadcast per retry, then the negative cache answers"
    );
}

#[test]
fn icmp_ping_on_shared_lan() {
    let tb = rig(Mode::Scheduled);
    let server_ip = tb.server_ip;
    let ok: Arc<Mutex<Option<usize>>> = Arc::new(Mutex::new(None));
    let ok2 = Arc::clone(&ok);
    tb.sim.spawn(tb.client.host(), move |ctx| {
        with_concrete::<Icmp, _>(&ctx.kernel(), "icmp", |i| {
            let echoed = i.ping(ctx, server_ip, 56).unwrap();
            *ok2.lock().unwrap() = Some(echoed.len());
        })
        .unwrap();
    });
    let r = tb.sim.run_until_idle();
    assert_eq!(*ok.lock().unwrap(), Some(56));
    assert_eq!(r.blocked, 0);
}

#[test]
fn icmp_ping_through_router() {
    let rp: RoutedPair = routed_pair(SimConfig::scheduled(), &registry(), "").unwrap();
    let server_ip = rp.server_ip;
    let ok: Arc<Mutex<Option<usize>>> = Arc::new(Mutex::new(None));
    let ok2 = Arc::clone(&ok);
    rp.sim.spawn(rp.client.host(), move |ctx| {
        with_concrete::<Icmp, _>(&ctx.kernel(), "icmp", |i| {
            let echoed = i.ping(ctx, server_ip, 32).unwrap();
            *ok2.lock().unwrap() = Some(echoed.len());
        })
        .unwrap();
    });
    rp.sim.run_until_idle();
    assert_eq!(*ok.lock().unwrap(), Some(32));
    // Traffic must have crossed both LANs.
    assert!(rp.net.stats(rp.lan_a).sent >= 2);
    assert!(rp.net.stats(rp.lan_b).sent >= 2);
}

#[test]
fn concurrent_pingers_with_distinct_ids_do_not_collide() {
    // Regression: the waiter table was keyed by (peer, seq) only, so two
    // pingers reusing a sequence number toward the same peer clobbered each
    // other — one stole the other's reply (with the wrong payload) and the
    // loser timed out. Keying by (peer, id, seq) keeps them distinct.
    let tb = rig(Mode::Scheduled);
    let server_ip = tb.server_ip;
    let got_a: Arc<Mutex<Option<Vec<u8>>>> = Arc::new(Mutex::new(None));
    let got_b: Arc<Mutex<Option<Vec<u8>>>> = Arc::new(Mutex::new(None));
    let (a2, b2) = (Arc::clone(&got_a), Arc::clone(&got_b));
    tb.sim.spawn(tb.client.host(), move |ctx| {
        with_concrete::<Icmp, _>(&ctx.kernel(), "icmp", |i| {
            *a2.lock().unwrap() = Some(i.ping_with(ctx, server_ip, 24, 1, 7).unwrap());
        })
        .unwrap();
    });
    tb.sim.spawn(tb.client.host(), move |ctx| {
        with_concrete::<Icmp, _>(&ctx.kernel(), "icmp", |i| {
            *b2.lock().unwrap() = Some(i.ping_with(ctx, server_ip, 48, 2, 7).unwrap());
        })
        .unwrap();
    });
    let r = tb.sim.run_until_idle();
    assert_eq!(r.blocked, 0, "neither pinger may lose its reply");
    let a = got_a.lock().unwrap().take().unwrap();
    let b = got_b.lock().unwrap().take().unwrap();
    assert_eq!(a.len(), 24, "pinger id=1 got its own 24-byte echo");
    assert_eq!(b.len(), 48, "pinger id=2 got its own 48-byte echo");
}

#[test]
fn icmp_checksum_rejection_is_accounted() {
    // Regression: ICMP once dropped short/corrupt echoes without counting
    // them, so the per-host robustness counter stayed at zero even though
    // the checksum did its job. Flip the first ICMP
    // header byte — eth(14) + ip(20) = offset 34 — which the IP header
    // checksum cannot see; only ICMP's own checksum catches it.
    let tb = rig(Mode::Scheduled);
    let server_ip = tb.server_ip;
    let errs: Arc<Mutex<Option<XError>>> = Arc::new(Mutex::new(None));
    let e2 = Arc::clone(&errs);
    let net = tb.net.clone();
    let lan = tb.lan;
    tb.sim.spawn(tb.client.host(), move |ctx| {
        with_concrete::<Icmp, _>(&ctx.kernel(), "icmp", |i| {
            i.ping(ctx, server_ip, 16).unwrap(); // Clean wire: works.
            net.set_faults(
                lan,
                FaultPlan {
                    custom: Some(Arc::new(|_, _| FaultDecision::CorruptAt(34))),
                    ..FaultPlan::default()
                },
            );
            *e2.lock().unwrap() = i.ping(ctx, server_ip, 16).err();
        })
        .unwrap();
    });
    let r = tb.sim.run_until_idle();
    assert_eq!(r.blocked, 0);
    assert!(
        matches!(*errs.lock().unwrap(), Some(XError::Timeout(_))),
        "the corrupted echo must vanish, got {:?}",
        errs.lock().unwrap()
    );
    let server = tb.sim.host_stats(tb.server.host());
    assert_eq!(
        server.corrupt_rejected, 1,
        "ICMP must count the checksum rejection: {server:?}"
    );
}

#[test]
fn ping_fails_cleanly_when_host_absent() {
    let tb = rig(Mode::Scheduled);
    let err: Arc<Mutex<Option<XError>>> = Arc::new(Mutex::new(None));
    let e2 = Arc::clone(&err);
    tb.sim.spawn(tb.client.host(), move |ctx| {
        with_concrete::<Icmp, _>(&ctx.kernel(), "icmp", |i| {
            *e2.lock().unwrap() = i.ping(ctx, IpAddr::new(10, 0, 0, 99), 8).err();
        })
        .unwrap();
    });
    tb.sim.run_until_idle();
    // ARP cannot resolve the ghost → Unreachable surfaces from the open.
    assert!(err.lock().unwrap().is_some());
}

// ---------------------------------------------------------------------------
// TCP.
// ---------------------------------------------------------------------------

fn tcp_rig() -> TwoHosts {
    let mut reg = base_registry();
    reg.add("recorder", |a| Ok(Recorder::new(a.me) as ProtocolRef));
    two_hosts(SimConfig::scheduled(), &reg, "tcp -> ip\n").expect("testbed builds")
}

#[test]
fn tcp_connect_send_recv() {
    let tb = tcp_rig();
    let server_ip = tb.server_ip;
    let received: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
    let r2 = Arc::clone(&received);

    tb.sim.spawn(tb.server.host(), move |ctx| {
        with_concrete::<Tcp, _>(&ctx.kernel(), "tcp", |t| {
            let listener = t.listen(80).unwrap();
            let conn = listener.accept(ctx, 5_000_000_000).unwrap();
            let mut all = Vec::new();
            loop {
                let chunk = conn.recv(ctx, 4096, 2_000_000_000).unwrap();
                if chunk.is_empty() {
                    break;
                }
                all.extend_from_slice(&chunk);
                if all.len() >= 5000 {
                    break;
                }
            }
            *r2.lock().unwrap() = all;
        })
        .unwrap();
    });

    tb.sim.spawn(tb.client.host(), move |ctx| {
        with_concrete::<Tcp, _>(&ctx.kernel(), "tcp", |t| {
            let conn = t.connect(ctx, server_ip, 80).unwrap();
            assert_eq!(conn.state_name(), "established");
            let data: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
            conn.send(ctx, &data).unwrap();
        })
        .unwrap();
    });

    let r = tb.sim.run_until_idle();
    assert_eq!(r.blocked, 0);
    let got = received.lock().unwrap();
    assert_eq!(got.len(), 5000);
    assert_eq!(
        *got,
        (0..5000u32).map(|i| (i % 251) as u8).collect::<Vec<_>>()
    );
}

#[test]
fn tcp_survives_segment_loss() {
    let tb = tcp_rig();
    let server_ip = tb.server_ip;
    // Drop ~10% of packets; retransmission must still deliver everything.
    tb.net.set_faults(tb.lan, FaultPlan::lossy(100));
    let received: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
    let r2 = Arc::clone(&received);

    tb.sim.spawn(tb.server.host(), move |ctx| {
        with_concrete::<Tcp, _>(&ctx.kernel(), "tcp", |t| {
            let listener = t.listen(80).unwrap();
            let conn = listener.accept(ctx, 20_000_000_000).unwrap();
            let mut all = Vec::new();
            while all.len() < 20_000 {
                match conn.recv(ctx, 65536, 20_000_000_000) {
                    Ok(chunk) if chunk.is_empty() => break,
                    Ok(chunk) => all.extend_from_slice(&chunk),
                    Err(_) => break,
                }
            }
            *r2.lock().unwrap() = all;
        })
        .unwrap();
    });

    tb.sim.spawn(tb.client.host(), move |ctx| {
        with_concrete::<Tcp, _>(&ctx.kernel(), "tcp", |t| {
            let conn = t.connect(ctx, server_ip, 80).unwrap();
            let data: Vec<u8> = (0..20_000u32).map(|i| (i % 241) as u8).collect();
            conn.send(ctx, &data).unwrap();
        })
        .unwrap();
    });

    tb.sim.run_until_idle();
    let got = received.lock().unwrap();
    assert_eq!(got.len(), 20_000, "all bytes delivered despite loss");
    assert_eq!(
        *got,
        (0..20_000u32).map(|i| (i % 241) as u8).collect::<Vec<_>>(),
        "in order, exactly once"
    );
}

// ---------------------------------------------------------------------------
// Additional substrate edge cases.
// ---------------------------------------------------------------------------

#[test]
fn routing_loop_is_killed_by_ttl() {
    // Two "routers" pointing default routes at each other: a packet for an
    // unreachable network must die by TTL, not loop forever.
    let reg = registry();
    let sim = xkernel::sim::Sim::new(SimConfig::scheduled());
    let net = simnet::SimNet::new(&sim);
    let lan = net.add_lan(simnet::LanConfig::default());
    let mut kernels = Vec::new();
    for (i, (ip, gw)) in [("10.0.0.1", "10.0.0.2"), ("10.0.0.2", "10.0.0.1")]
        .iter()
        .enumerate()
    {
        let k = Kernel::new(&sim, &format!("r{i}"));
        net.attach(&k, lan, "nic0", EthAddr::from_index(i as u16 + 1))
            .unwrap();
        let spec = format!(
            "eth -> nic0\n\
             arp ip={ip} -> eth\n\
             ip forward=1 gw={gw} -> eth arp\n\
             udp -> ip\n\
             recorder -> udp\n"
        );
        reg.build(&sim, &k, &spec).unwrap();
        kernels.push(k);
    }
    // Send a datagram to a network nobody owns.
    let k0 = Arc::clone(&kernels[0]);
    sim.spawn(k0.host(), move |ctx| {
        let k = ctx.kernel();
        let udp = k.lookup("udp").unwrap();
        let rec = k.lookup("recorder").unwrap();
        let parts = ParticipantSet::pair(
            Participant::default().with_port(1),
            Participant::host_port(IpAddr::new(10, 9, 9, 9), 2),
        );
        // 10.9.9.9 matches only the default routes: r0 -> r1 -> r0 -> ...
        let sess = k.open(ctx, udp, rec, &parts).unwrap();
        sess.push(ctx, Message::from_user(vec![0u8; 32])).unwrap();
    });
    let report = sim.run_until_idle();
    assert_eq!(report.blocked, 0, "the simulation must drain");
    // TTL starts at 32: the packet crosses the wire at most ~32 times.
    let sent = net.stats(lan).sent;
    assert!(
        (4..=40).contains(&sent),
        "expected a TTL-bounded loop, saw {sent} frames"
    );
}

#[test]
fn corruption_is_caught_by_ip_checksum() {
    let tb = rig(Mode::Scheduled);
    let server_ip = tb.server_ip;
    // Warm ARP so the corruption hits the ICMP exchange, then corrupt
    // everything.
    let errs: Arc<Mutex<Option<XError>>> = Arc::new(Mutex::new(None));
    let e2 = Arc::clone(&errs);
    let net = tb.net.clone();
    let lan = tb.lan;
    tb.sim.spawn(tb.client.host(), move |ctx| {
        with_concrete::<Icmp, _>(&ctx.kernel(), "icmp", |i| {
            i.ping(ctx, server_ip, 16).unwrap(); // Clean wire: works.
            net.set_faults(
                lan,
                FaultPlan {
                    corrupt_per_mille: 1000,
                    ..FaultPlan::default()
                },
            );
            *e2.lock().unwrap() = i.ping(ctx, server_ip, 16).err();
        })
        .unwrap();
    });
    let r = tb.sim.run_until_idle();
    assert_eq!(r.blocked, 0);
    assert!(
        matches!(*errs.lock().unwrap(), Some(XError::Timeout(_))),
        "corrupted packets must be dropped by the checksum, got {:?}",
        errs.lock().unwrap()
    );
    // The rejection is accounted: some host's IP layer noted it.
    let rejected: Vec<u64> = r.hosts.iter().map(|h| h.corrupt_rejected).collect();
    assert_eq!(
        rejected,
        [0, 1],
        "checksum rejections must be counted: {:?}",
        r.hosts
    );
}

#[test]
fn udp_checksum_rejects_corrupt_payload_end_to_end() {
    // Flip a byte *past* the IP header — eth(14) + ip(20) + udp(8) = byte 42
    // is the first byte of UDP payload, which the IP header checksum cannot
    // see. Only UDP's pseudo-header checksum stands between the flipped
    // frame and the application; the datagram must vanish, not surface.
    let tb = rig(Mode::Scheduled);
    let server_ip = tb.server_ip;
    {
        let ctx = tb.sim.ctx(tb.server.host());
        let udp = tb.server.lookup("udp").unwrap();
        let rec = tb.server.lookup("recorder").unwrap();
        let parts = ParticipantSet::local(Participant::default().with_port(9));
        tb.server.open_enable(&ctx, udp, rec, &parts).unwrap();
    }
    let net = tb.net.clone();
    let lan = tb.lan;
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        let udp = k.lookup("udp").unwrap();
        let rec = k.lookup("recorder").unwrap();
        let parts = ParticipantSet::pair(
            Participant::default().with_port(5000),
            Participant::host_port(server_ip, 9),
        );
        let sess = k.open(ctx, udp, rec, &parts).unwrap();
        // One clean datagram first (also warms ARP), then corrupt the wire.
        sess.push(ctx, Message::from_user(vec![0xAA; 64])).unwrap();
        ctx.sleep(10_000_000);
        net.set_faults(
            lan,
            FaultPlan {
                custom: Some(Arc::new(|_, _| FaultDecision::CorruptAt(42))),
                ..FaultPlan::default()
            },
        );
        sess.push(ctx, Message::from_user(vec![0xBB; 64])).unwrap();
    });
    let r = tb.sim.run_until_idle();
    assert_eq!(r.blocked, 0);
    assert_eq!(
        recorded(&tb.server),
        vec![vec![0xAA; 64]],
        "the corrupted datagram must never surface"
    );
    let server = tb.sim.host_stats(tb.server.host());
    assert_eq!(
        server.corrupt_rejected, 1,
        "UDP counted the checksum rejection: {server:?}"
    );
}

#[test]
fn eth_open_disable_revokes_delivery() {
    let tb = rig(Mode::Scheduled);
    // Disable the recorder's UDP enable indirectly: disable IP's enable on
    // ETH on the server, so arriving IP frames find no upper protocol.
    {
        let ctx = tb.sim.ctx(tb.server.host());
        let eth = tb.server.lookup("eth").unwrap();
        let ip = tb.server.lookup("ip").unwrap();
        let parts = ParticipantSet::local(Participant::proto(0x0800));
        tb.server
            .get("eth")
            .unwrap()
            .open_disable(&ctx, ip, &parts)
            .unwrap();
        let _ = eth;
    }
    let server_ip = tb.server_ip;
    {
        let ctx = tb.sim.ctx(tb.server.host());
        let udp = tb.server.lookup("udp").unwrap();
        let rec = tb.server.lookup("recorder").unwrap();
        let parts = ParticipantSet::local(Participant::default().with_port(9));
        tb.server.open_enable(&ctx, udp, rec, &parts).unwrap();
    }
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        let udp = k.lookup("udp").unwrap();
        let rec = k.lookup("recorder").unwrap();
        let parts = ParticipantSet::pair(
            Participant::default().with_port(5000),
            Participant::host_port(server_ip, 9),
        );
        let sess = k.open(ctx, udp, rec, &parts).unwrap();
        sess.push(ctx, Message::from_user(vec![1, 2, 3])).unwrap();
    });
    tb.sim.run_until_idle();
    assert!(
        recorded(&tb.server).is_empty(),
        "disabled enable must stop upward delivery"
    );
}
