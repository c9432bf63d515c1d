//! Integration tests for the paper's RPC configurations: every stack from
//! Tables I–III plus §4.3, exercised for correctness (not timing) —
//! null/echo calls, 16 K fragmentation, at-most-once under loss and
//! duplication, FRAGMENT persistence (NACK recovery), channel-pool
//! blocking, forwarding SELECT, reliable datagrams, and the virtual
//! protocols' routing decisions.

use std::sync::{Arc, Mutex};

use inet::testbed::{base_registry, lan_hosts, routed_pair, two_hosts, TwoHosts};
use inet::with_concrete;
use simnet::fault::FaultPlan;
use xkernel::graph::ProtocolRegistry;
use xkernel::prelude::*;
use xkernel::sim::{Mode, Sim, SimConfig};
use xrpc::fragment::Fragment;
use xrpc::pinger::Pinger;
use xrpc::procs::{ECHO_PROC, NULL_PROC, SINK_PROC};
use xrpc::select::Select;
use xrpc::stacks::{StackDef, ALL_RPC_STACKS, L_RPC_VIP, L_RPC_VIPSIZE, M_RPC_VIP, TABLE3_STACKS};

fn registry() -> ProtocolRegistry {
    let mut reg = base_registry();
    xrpc::register_ctors(&mut reg);
    reg
}

fn cfg(mode: Mode) -> SimConfig {
    match mode {
        Mode::Inline => SimConfig::inline_mode(),
        Mode::Scheduled => SimConfig::scheduled(),
    }
}

fn rpc_rig(stack: &StackDef, mode: Mode) -> TwoHosts {
    let tb = two_hosts(cfg(mode), &registry(), stack.graph).expect("testbed builds");
    xrpc::procs::register_standard(&tb.server, stack.entry).expect("procedures register");
    tb
}

/// Runs `f` as a client process and waits for the simulation to drain.
fn run_client(tb: &TwoHosts, f: impl FnOnce(&Ctx) + 'static) {
    match tb.sim.mode() {
        Mode::Inline => f(&tb.sim.ctx(tb.client.host())),
        Mode::Scheduled => {
            tb.sim.spawn(tb.client.host(), f);
            let r = tb.sim.run_until_idle();
            assert_eq!(r.blocked, 0, "no process may remain blocked");
        }
    }
}

fn pattern(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i % 251) as u8).collect()
}

// ---------------------------------------------------------------------------
// Every stack: null and echo calls, both modes.
// ---------------------------------------------------------------------------

fn null_and_echo(stack: &'static StackDef, mode: Mode) {
    let tb = rpc_rig(stack, mode);
    let server_ip = tb.server_ip;
    let entry = stack.entry;
    let results: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
    let r2 = Arc::clone(&results);
    run_client(&tb, move |ctx| {
        let k = ctx.kernel();
        let null = xrpc::call(ctx, &k, entry, server_ip, NULL_PROC, Vec::new()).unwrap();
        r2.lock().unwrap().push(null);
        let echoed = xrpc::call(ctx, &k, entry, server_ip, ECHO_PROC, pattern(300)).unwrap();
        r2.lock().unwrap().push(echoed);
    });
    let got = results.lock().unwrap();
    assert_eq!(got[0], Vec::<u8>::new(), "{}: null reply", stack.name);
    assert_eq!(got[1], pattern(300), "{}: echo reply", stack.name);
}

#[test]
fn all_stacks_null_echo_scheduled() {
    for stack in &ALL_RPC_STACKS {
        null_and_echo(stack, Mode::Scheduled);
    }
}

#[test]
fn all_stacks_null_echo_inline() {
    for stack in &ALL_RPC_STACKS {
        null_and_echo(stack, Mode::Inline);
    }
}

// ---------------------------------------------------------------------------
// Large messages: fragmentation end to end.
// ---------------------------------------------------------------------------

fn large_echo(stack: &'static StackDef, size: usize, mode: Mode) {
    let tb = rpc_rig(stack, mode);
    let server_ip = tb.server_ip;
    let entry = stack.entry;
    let out: Arc<Mutex<Option<Vec<u8>>>> = Arc::new(Mutex::new(None));
    let o2 = Arc::clone(&out);
    run_client(&tb, move |ctx| {
        let k = ctx.kernel();
        let echoed = xrpc::call(ctx, &k, entry, server_ip, ECHO_PROC, pattern(size)).unwrap();
        *o2.lock().unwrap() = Some(echoed);
    });
    assert_eq!(
        out.lock().unwrap().take().unwrap(),
        pattern(size),
        "{}: {size}-byte echo",
        stack.name
    );
}

#[test]
fn sixteen_k_echo_on_fragmenting_stacks() {
    for stack in [&M_RPC_VIP, &L_RPC_VIP, &L_RPC_VIPSIZE] {
        large_echo(stack, 16_000, Mode::Scheduled);
        large_echo(stack, 16_000, Mode::Inline);
    }
}

#[test]
fn odd_sizes_roundtrip() {
    for size in [1usize, 1460, 1461, 1500, 1501, 2999, 4096, 8191] {
        large_echo(&L_RPC_VIP, size, Mode::Scheduled);
    }
}

#[test]
fn sixteen_k_uses_many_wire_frames() {
    let tb = rpc_rig(&L_RPC_VIP, Mode::Scheduled);
    let server_ip = tb.server_ip;
    run_client(&tb, move |ctx| {
        let k = ctx.kernel();
        xrpc::call(ctx, &k, "select", server_ip, SINK_PROC, pattern(16_000)).unwrap();
    });
    let stats = tb.net.stats(tb.lan);
    assert!(
        stats.sent >= 11 + 1 + 2,
        "16k request needs ≥11 fragments + reply + arp, saw {}",
        stats.sent
    );
}

// ---------------------------------------------------------------------------
// At-most-once under faults.
// ---------------------------------------------------------------------------

fn at_most_once(stack: &'static StackDef, faults: FaultPlan, calls: usize) {
    let tb = rpc_rig(stack, Mode::Scheduled);
    let server_ip = tb.server_ip;
    let entry = stack.entry;
    // A procedure with a side effect: increments and returns the count.
    let counter = Arc::new(Mutex::new(0u32));
    let c2 = Arc::clone(&counter);
    xrpc::serve(&tb.server, entry, 7, move |_ctx, _msg| {
        let mut c = c2.lock().unwrap();
        *c += 1;
        Ok(Message::from_user(c.to_be_bytes().to_vec()))
    })
    .unwrap();
    tb.net.set_faults(tb.lan, faults);

    let seen: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    let s2 = Arc::clone(&seen);
    run_client(&tb, move |ctx| {
        let k = ctx.kernel();
        for _ in 0..calls {
            let r = xrpc::call(ctx, &k, entry, server_ip, 7, vec![1, 2, 3]).unwrap();
            s2.lock()
                .unwrap()
                .push(u32::from_be_bytes([r[0], r[1], r[2], r[3]]));
        }
    });
    assert_eq!(
        *counter.lock().unwrap(),
        calls as u32,
        "{}: each request executed exactly once despite retransmissions",
        stack.name
    );
    let replies = seen.lock().unwrap();
    assert_eq!(
        *replies,
        (1..=calls as u32).collect::<Vec<_>>(),
        "{}: replies observed in order, exactly once",
        stack.name
    );
}

#[test]
fn at_most_once_under_loss_monolithic() {
    at_most_once(&M_RPC_VIP, FaultPlan::lossy(120), 30);
}

#[test]
fn at_most_once_under_loss_layered() {
    at_most_once(&L_RPC_VIP, FaultPlan::lossy(120), 30);
}

#[test]
fn at_most_once_under_duplication() {
    let dup = FaultPlan {
        dup_per_mille: 300,
        ..FaultPlan::default()
    };
    at_most_once(&M_RPC_VIP, dup.clone(), 20);
    at_most_once(&L_RPC_VIP, dup, 20);
}

#[test]
fn at_most_once_under_loss_and_dup_vipsize() {
    let plan = FaultPlan {
        drop_per_mille: 80,
        dup_per_mille: 80,
        ..FaultPlan::default()
    };
    at_most_once(&L_RPC_VIPSIZE, plan, 25);
}

#[test]
fn unreachable_server_times_out_cleanly() {
    let tb = rpc_rig(&L_RPC_VIP, Mode::Scheduled);
    let server_ip = tb.server_ip;
    // Warm the path, then black-hole everything.
    let err: Arc<Mutex<Option<XError>>> = Arc::new(Mutex::new(None));
    let e2 = Arc::clone(&err);
    let net = tb.net.clone();
    let lan = tb.lan;
    run_client(&tb, move |ctx| {
        let k = ctx.kernel();
        xrpc::call(ctx, &k, "select", server_ip, NULL_PROC, Vec::new()).unwrap();
        net.set_faults(lan, FaultPlan::lossy(1000));
        *e2.lock().unwrap() = xrpc::call(ctx, &k, "select", server_ip, NULL_PROC, Vec::new()).err();
    });
    assert!(
        matches!(*err.lock().unwrap(), Some(XError::Timeout(_))),
        "black-holed RPC must time out, got {:?}",
        err.lock().unwrap()
    );
}

#[test]
fn unknown_procedure_is_a_fast_remote_error() {
    let tb = rpc_rig(&L_RPC_VIP, Mode::Scheduled);
    let server_ip = tb.server_ip;
    let err: Arc<Mutex<Option<XError>>> = Arc::new(Mutex::new(None));
    let e2 = Arc::clone(&err);
    run_client(&tb, move |ctx| {
        let k = ctx.kernel();
        *e2.lock().unwrap() = xrpc::call(ctx, &k, "select", server_ip, 999, Vec::new()).err();
    });
    assert!(matches!(*err.lock().unwrap(), Some(XError::Remote(_))));
}

// ---------------------------------------------------------------------------
// FRAGMENT persistence: NACK recovery of dropped fragments.
// ---------------------------------------------------------------------------

#[test]
fn fragment_nack_recovers_dropped_fragment() {
    let tb = rpc_rig(&L_RPC_VIP, Mode::Scheduled);
    let server_ip = tb.server_ip;
    // Warm up (ARP + session creation) with one small call.
    run_client(&tb, move |ctx| {
        let k = ctx.kernel();
        xrpc::call(ctx, &k, "select", server_ip, NULL_PROC, Vec::new()).unwrap();
    });
    let base = tb.net.stats(tb.lan).sent;
    // Drop the 3rd data fragment of the next (multi-fragment) request.
    tb.net
        .set_faults(tb.lan, FaultPlan::drop_exactly([base + 2]));
    let out: Arc<Mutex<Option<Vec<u8>>>> = Arc::new(Mutex::new(None));
    let elapsed: Arc<Mutex<u64>> = Arc::new(Mutex::new(0));
    let o2 = Arc::clone(&out);
    let e2 = Arc::clone(&elapsed);
    run_client(&tb, move |ctx| {
        let k = ctx.kernel();
        let t0 = ctx.now();
        let r = xrpc::call(ctx, &k, "select", server_ip, ECHO_PROC, pattern(8000)).unwrap();
        *e2.lock().unwrap() = ctx.now() - t0;
        *o2.lock().unwrap() = Some(r);
    });
    assert_eq!(out.lock().unwrap().take().unwrap(), pattern(8000));
    // Persistence, not retransmit-everything: the recovery must be a NACK
    // plus one re-sent fragment, not a full 6-fragment resend. Budget:
    // 6 request frags + nack + 1 resend + 6 echo-reply frags + slack.
    let used = tb.net.stats(tb.lan).sent - base;
    assert!(
        (13..=16).contains(&used),
        "expected NACK-based recovery (~14 frames), saw {used}"
    );
    with_concrete::<Fragment, _>(&tb.server, "fragment", |f| {
        let st = f.stats();
        assert_eq!(st.nacks_sent, 1, "one missing-fragment request");
    })
    .unwrap();
    with_concrete::<Fragment, _>(&tb.client, "fragment", |f| {
        assert_eq!(f.stats().nacks_received, 1);
    })
    .unwrap();
    let elapsed = *elapsed.lock().unwrap();
    assert!(
        elapsed < xrpc::txn::BASE_TIMEOUT_NS,
        "FRAGMENT recovered below CHANNEL's timeout ({elapsed} ns)"
    );
}

#[test]
fn fragment_gives_up_after_nack_retries_exhausted() {
    // Raw FRAGMENT usage with all large frames from one host dropped: the
    // receiver NACKs a few times, then abandons the incomplete message.
    let reg = registry();
    let tb = two_hosts(
        SimConfig::scheduled(),
        &reg,
        "vip -> ip eth arp\nfragment -> vip\n",
    )
    .unwrap();
    // A recorder consumes delivered messages above FRAGMENT on both hosts.
    for k in [&tb.client, &tb.server] {
        let ctx = tb.sim.ctx(k.host());
        let frag = k.lookup("fragment").unwrap();
        let rec = k
            .register("recorder", ProtoContract::opaque("recorder"), |me| {
                Ok(std::rc::Rc::new(Recorder {
                    me,
                    got: Mutex::new(Vec::new()),
                }) as ProtocolRef)
            })
            .unwrap();
        let parts = ParticipantSet::local(Participant::proto(106));
        k.open_enable(&ctx, frag, rec, &parts).unwrap();
    }
    let server_ip = tb.server_ip;
    run_client(&tb, move |ctx| {
        let k = ctx.kernel();
        let frag = k.lookup("fragment").unwrap();
        let parts = ParticipantSet::pair(
            Participant::proto(106), // pinger's number
            Participant::host(server_ip),
        );
        let sess = k.open(&ctx.clone(), frag, frag, &parts).unwrap();
        // Deliver one message fine (warms ARP).
        sess.push(ctx, Message::from_user(pattern(100))).unwrap();
    });
    let base = tb.net.stats(tb.lan).sent;
    tb.net.set_faults(
        tb.lan,
        FaultPlan {
            // Drop all further *data* fragments from the client, letting
            // NACKs (tiny frames) through.
            custom: Some(Arc::new(|_, frame| {
                if frame.len() > 200 {
                    simnet::fault::FaultDecision::Drop
                } else {
                    simnet::fault::FaultDecision::Deliver
                }
            })),
            ..FaultPlan::default()
        },
    );
    run_client(&tb, move |ctx| {
        let k = ctx.kernel();
        let frag = k.lookup("fragment").unwrap();
        let parts = ParticipantSet::pair(Participant::proto(106), Participant::host(server_ip));
        let sess = k.open(&ctx.clone(), frag, frag, &parts).unwrap();
        sess.push(ctx, Message::from_user(pattern(5000))).unwrap();
    });
    // The receiver must have sent NACKs and then given up; its reassembly
    // table must be empty.
    let nacks = tb.net.stats(tb.lan).sent - base;
    assert!(nacks >= 2, "expected NACK traffic, saw {nacks} frames");
    with_concrete::<Fragment, _>(&tb.server, "fragment", |f| {
        assert_eq!(f.reassembling(), 0, "receiver abandoned the message");
    })
    .unwrap();
}

// ---------------------------------------------------------------------------
// SELECT: channel pool blocking and caching.
// ---------------------------------------------------------------------------

#[test]
fn select_blocks_when_all_channels_busy() {
    let reg = registry();
    let graph = "vip -> ip eth arp\n\
                 fragment -> vip\n\
                 channel -> fragment\n\
                 select channels=2 -> channel\n";
    let tb = two_hosts(SimConfig::scheduled(), &reg, graph).unwrap();
    let server_ip = tb.server_ip;
    // A slow procedure: each invocation sleeps 50 ms of virtual time.
    xrpc::serve(&tb.server, "select", 5, |ctx, _msg| {
        ctx.sleep(50_000_000);
        Ok(Message::empty())
    })
    .unwrap();
    let done = Arc::new(Mutex::new(0usize));
    for _ in 0..5 {
        let d = Arc::clone(&done);
        tb.sim.spawn(tb.client.host(), move |ctx| {
            let k = ctx.kernel();
            xrpc::call(ctx, &k, "select", server_ip, 5, Vec::new()).unwrap();
            *d.lock().unwrap() += 1;
        });
    }
    let r = tb.sim.run_until_idle();
    assert_eq!(*done.lock().unwrap(), 5, "all callers eventually complete");
    assert_eq!(r.blocked, 0);
    with_concrete::<Select, _>(&tb.client, "select", |s| {
        assert_eq!(
            s.free_channels(server_ip),
            Some(2),
            "all channels returned to the pool"
        );
    })
    .unwrap();
}

// ---------------------------------------------------------------------------
// Forwarding SELECT.
// ---------------------------------------------------------------------------

#[test]
fn forwarding_select_redirects_to_backend() {
    let reg = registry();
    let rig = lan_hosts(SimConfig::scheduled(), &reg, L_RPC_VIP.graph, 3).unwrap();
    let frontend_ip = rig.ip_of(1);
    let backend_ip = rig.ip_of(2);
    // Backend owns the real procedure.
    xrpc::serve(&rig.kernels[2], "select", 9, |_ctx, msg| {
        let mut v = msg.to_vec();
        v.push(b'!');
        Ok(Message::from_user(v))
    })
    .unwrap();
    // Frontend forwards command 9 to the backend.
    with_concrete::<Select, _>(&rig.kernels[1], "select", |s| {
        s.set_forward(9, backend_ip);
    })
    .unwrap();

    let out: Arc<Mutex<Option<Vec<u8>>>> = Arc::new(Mutex::new(None));
    let o2 = Arc::clone(&out);
    let h0 = rig.kernels[0].host();
    rig.sim.spawn(h0, move |ctx| {
        let k = ctx.kernel();
        let r = xrpc::call(ctx, &k, "select", frontend_ip, 9, b"hi".to_vec()).unwrap();
        *o2.lock().unwrap() = Some(r);
    });
    let r = rig.sim.run_until_idle();
    assert_eq!(r.blocked, 0);
    assert_eq!(out.lock().unwrap().take().unwrap(), b"hi!".to_vec());
    // Traffic crossed both hops of the single LAN: client→frontend→backend.
    assert!(rig.net.stats(rig.lan).sent >= 4);
}

// ---------------------------------------------------------------------------
// RDGRAM: reliable datagrams over CHANNEL.
// ---------------------------------------------------------------------------

/// A demux-only recorder used above RDGRAM.
struct Recorder {
    me: ProtoId,
    got: Mutex<Vec<Vec<u8>>>,
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
        self.got.lock().unwrap().push(msg.to_vec());
        Ok(())
    }
}

#[test]
fn rdgram_delivers_exactly_once_in_order_under_loss() {
    let mut reg = registry();
    reg.add(ProtoContract::opaque("recorder"), |a| {
        Ok(std::rc::Rc::new(Recorder {
            me: a.me,
            got: Mutex::new(Vec::new()),
        }) as ProtocolRef)
    });
    let graph = "vip -> ip eth arp\n\
                 fragment -> vip\n\
                 channel -> fragment\n\
                 rdgram -> channel\n\
                 recorder -> rdgram\n";
    let tb = two_hosts(SimConfig::scheduled(), &reg, graph).unwrap();
    // Enable the recorder above rdgram on the server.
    {
        let ctx = tb.sim.ctx(tb.server.host());
        let rd = tb.server.lookup("rdgram").unwrap();
        let rec = tb.server.lookup("recorder").unwrap();
        tb.server
            .open_enable(&ctx, rd, rec, &ParticipantSet::new())
            .unwrap();
    }
    tb.net.set_faults(tb.lan, FaultPlan::lossy(100));
    let server_ip = tb.server_ip;
    run_client(&tb, move |ctx| {
        let k = ctx.kernel();
        let rd = k.lookup("rdgram").unwrap();
        let parts = ParticipantSet::pair(Participant::default(), Participant::host(server_ip));
        let sess = k.open(ctx, rd, rd, &parts).unwrap();
        for i in 0..20u8 {
            sess.push(ctx, Message::from_user(vec![i; 40])).unwrap();
        }
    });
    let got =
        with_concrete::<Recorder, _>(&tb.server, "recorder", |r| r.got.lock().unwrap().clone())
            .unwrap();
    let expect: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; 40]).collect();
    assert_eq!(got, expect, "reliable, ordered, exactly-once datagrams");
}

// ---------------------------------------------------------------------------
// Virtual protocol decisions.
// ---------------------------------------------------------------------------

#[test]
fn vip_chooses_raw_ethernet_for_local_peer() {
    let tb = two_hosts(
        SimConfig::scheduled().with_trace(),
        &registry(),
        M_RPC_VIP.graph,
    )
    .unwrap();
    xrpc::procs::register_standard(&tb.server, "mrpc").unwrap();
    let server_ip = tb.server_ip;
    run_client(&tb, move |ctx| {
        let k = ctx.kernel();
        xrpc::call(ctx, &k, "mrpc", server_ip, NULL_PROC, Vec::new()).unwrap();
    });
    let notes = tb.sim.trace_notes();
    assert!(
        notes.iter().any(|(_, n)| *n == "open: eth=true ip=false"),
        "VIP must open a raw ethernet session for a local peer: {notes:?}"
    );
}

#[test]
fn vip_chooses_ip_for_remote_peer_through_router() {
    let reg = registry();
    let rp = routed_pair(SimConfig::scheduled().with_trace(), &reg, M_RPC_VIP.graph).unwrap();
    xrpc::procs::register_standard(&rp.server, "mrpc").unwrap();
    let server_ip = rp.server_ip;
    let out: Arc<Mutex<Option<Vec<u8>>>> = Arc::new(Mutex::new(None));
    let o2 = Arc::clone(&out);
    rp.sim.spawn(rp.client.host(), move |ctx| {
        let k = ctx.kernel();
        let r = xrpc::call(ctx, &k, "mrpc", server_ip, ECHO_PROC, pattern(64)).unwrap();
        *o2.lock().unwrap() = Some(r);
    });
    let r = rp.sim.run_until_idle();
    assert_eq!(r.blocked, 0);
    assert_eq!(out.lock().unwrap().take().unwrap(), pattern(64));
    let notes = rp.sim.trace_notes();
    assert!(
        notes.iter().any(|(_, n)| *n == "open: eth=false ip=true"),
        "VIP must fall back to IP for an off-wire peer: {notes:?}"
    );
    assert!(
        rp.net.stats(rp.lan_b).sent >= 2,
        "traffic crossed the router"
    );
}

#[test]
fn vip_adds_no_header_bytes_for_local_small_messages() {
    // Compare bytes on the wire for the same null RPC over raw ETH vs VIP:
    // VIP must add exactly zero.
    fn wire_bytes(stack: &'static StackDef) -> u64 {
        let tb = rpc_rig(stack, Mode::Scheduled);
        let server_ip = tb.server_ip;
        run_client(&tb, move |ctx| {
            let k = ctx.kernel();
            xrpc::call(ctx, &k, stack.entry, server_ip, NULL_PROC, Vec::new()).unwrap();
        });
        tb.net.stats(tb.lan).bytes
    }
    assert_eq!(
        wire_bytes(&xrpc::stacks::M_RPC_ETH),
        wire_bytes(&M_RPC_VIP),
        "a virtual protocol attaches no header"
    );
}

#[test]
fn vipsize_bypasses_fragment_for_small_messages() {
    let tb = rpc_rig(&L_RPC_VIPSIZE, Mode::Scheduled);
    let server_ip = tb.server_ip;
    run_client(&tb, move |ctx| {
        let k = ctx.kernel();
        xrpc::call(ctx, &k, "select", server_ip, NULL_PROC, Vec::new()).unwrap();
    });
    // Small request + reply: the client FRAGMENT layer never saw the
    // message at all.
    with_concrete::<Fragment, _>(&tb.client, "fragment", |f| {
        assert_eq!(f.stats().messages_sent, 0, "small messages bypass FRAGMENT");
    })
    .unwrap();
    // And a large message *does* engage FRAGMENT.
    run_client(&tb, move |ctx| {
        let k = ctx.kernel();
        xrpc::call(ctx, &k, "select", server_ip, SINK_PROC, pattern(6000)).unwrap();
    });
    with_concrete::<Fragment, _>(&tb.client, "fragment", |f| {
        let st = f.stats();
        assert_eq!(st.messages_sent, 1, "large messages engage FRAGMENT");
        assert!(st.fragments_sent >= 4, "and are fragmented");
    })
    .unwrap();
}

// ---------------------------------------------------------------------------
// Table III partial stacks respond to the pinger.
// ---------------------------------------------------------------------------

#[test]
fn table3_partial_stacks_echo() {
    for (name, graph, lower) in TABLE3_STACKS {
        if lower == "select" {
            continue; // The full stack is exercised by the RPC tests.
        }
        let reg = registry();
        let sim_cfg = SimConfig::scheduled();
        let sim = Sim::new(sim_cfg);
        let net = simnet::SimNet::new(&sim);
        let lan = net.add_lan(simnet::LanConfig::default());
        let mut kernels = Vec::new();
        for (i, ip) in ["10.0.0.1", "10.0.0.2"].iter().enumerate() {
            let k = Kernel::new(&sim, &format!("h{i}"));
            net.attach(&k, lan, "nic0", EthAddr::from_index(i as u16 + 1))
                .unwrap();
            let spec = format!(
                "{}{}pinger echo={} -> {lower}\n",
                inet::standard_graph("nic0", ip),
                graph,
                i // Host 1 echoes.
            );
            reg.build(&sim, &k, &spec).unwrap();
            kernels.push(k);
        }
        let server_ip = IpAddr::new(10, 0, 0, 2);
        let out: Arc<Mutex<Option<Vec<u8>>>> = Arc::new(Mutex::new(None));
        let o2 = Arc::clone(&out);
        let client = Arc::clone(&kernels[0]);
        sim.spawn(client.host(), move |ctx| {
            with_concrete::<Pinger, _>(&ctx.kernel(), "pinger", |p| {
                let echoed = p.rtt(ctx, server_ip, pattern(32)).unwrap();
                *o2.lock().unwrap() = Some(echoed);
            })
            .unwrap();
        });
        let r = sim.run_until_idle();
        assert_eq!(r.blocked, 0, "{name}");
        assert_eq!(out.lock().unwrap().take().unwrap(), pattern(32), "{name}");
    }
}

// ---------------------------------------------------------------------------
// Boot-id reincarnation.
// ---------------------------------------------------------------------------

#[test]
fn client_reincarnation_resets_server_state() {
    let tb = rpc_rig(&L_RPC_VIP, Mode::Scheduled);
    let server_ip = tb.server_ip;
    let counter = Arc::new(Mutex::new(0u32));
    let c2 = Arc::clone(&counter);
    xrpc::serve(&tb.server, "select", 7, move |_ctx, _msg| {
        *c2.lock().unwrap() += 1;
        Ok(Message::empty())
    })
    .unwrap();
    let client = Arc::clone(&tb.client);
    run_client(&tb, move |ctx| {
        let k = ctx.kernel();
        xrpc::call(ctx, &k, "select", server_ip, 7, Vec::new()).unwrap();
        // "Reboot" the client: new boot id, sequence numbers restart.
        with_concrete::<xrpc::channel::Channel, _>(&client, "channel", |c| {
            c.set_boot_id(0x4242_4242);
        })
        .unwrap();
        // Calls keep working; the server accepts the restarted sequence
        // space rather than treating it as duplicates.
        xrpc::call(ctx, &k, "select", server_ip, 7, Vec::new()).unwrap();
        xrpc::call(ctx, &k, "select", server_ip, 7, Vec::new()).unwrap();
    });
    assert_eq!(*counter.lock().unwrap(), 3);
}

// ---------------------------------------------------------------------------
// Whole simulations on two OS threads: the demux tables are `Send + Sync`
// in practice, not only by assertion.
// ---------------------------------------------------------------------------

/// Builds a fresh scheduled rig for `stack`, runs 25 echo calls of growing
/// size on it, and returns everything observable: the run report, the wire
/// counters and the replies.
fn whole_run(stack: &StackDef) -> (xkernel::sim::RunReport, simnet::LanStats, Vec<Vec<u8>>) {
    let tb = rpc_rig(stack, Mode::Scheduled);
    let server_ip = tb.server_ip;
    let entry = stack.entry;
    let replies: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
    let r2 = Arc::clone(&replies);
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        for i in 0..25 {
            let reply = xrpc::call(ctx, &k, entry, server_ip, ECHO_PROC, pattern(i * 97));
            r2.lock().unwrap().push(reply.expect("echo call"));
        }
    });
    let report = tb.sim.run_until_idle();
    let replies = std::mem::take(&mut *replies.lock().unwrap());
    (report, tb.net.stats(tb.lan), replies)
}

#[test]
fn two_simulations_on_two_threads_equal_the_sequential_run() {
    let stacks: Vec<&StackDef> = vec![&L_RPC_VIP, &M_RPC_VIP];
    let sequential = xkernel::par::run_indexed(stacks.clone(), 1, |s| whole_run(s));
    let parallel = xkernel::par::run_indexed(stacks, 2, |s| whole_run(s));
    assert_eq!(parallel, sequential);
    for (report, _, replies) in &parallel {
        assert_eq!(report.blocked, 0);
        assert_eq!(replies.len(), 25);
        assert_eq!(replies[3], pattern(3 * 97));
    }
}
