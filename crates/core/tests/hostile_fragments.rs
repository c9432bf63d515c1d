//! A malformed fragment header is rejected and counted, not trusted.
//!
//! FRAGMENT DATA frames and Sprite REQUEST/REPLY frames with a `num_frags`
//! of 0, 17 or 65535, a zero mask, a mask of two bits, a bit at or past
//! `num_frags`, and a second fragment whose `num_frags` disagrees with its
//! message's first, are handed to the booted protocol's `demux` as the layer
//! below would. None may panic, each is one refusal counted at FRAGMENT or
//! M_RPC (the `sprite` layer) on its host, none leaves a reassembly open, and
//! the next well-formed call completes.
//!
//! A FRAGMENT NACK is served from the retained copy alone. One that names a
//! message never sent, evicted by the cache cap or expired (a copy is kept
//! for 500 ms after its send), no fragment, or fragments the message does
//! not have, resends only the named fragments that exist. One whose sender,
//! protocol number or fragment count is not its retained message's is
//! refused and counted, and resends nothing. None panics, none changes what is retained, and the next call
//! completes.

use std::cell::Cell;
use std::rc::Rc;

use inet::testbed::{base_registry, two_hosts, TwoHosts};
use inet::with_concrete;
use xkernel::cost::CostModel;
use xkernel::prelude::*;
use xkernel::sim::SimConfig;
use xrpc::fragment::{FragStats, Fragment};
use xrpc::hdr::{flags, frag_type, FragmentHdr, SpriteHdr};
use xrpc::procs::{NULL_PROC, SINK_PROC};
use xrpc::stacks::{StackDef, L_RPC_VIP, M_RPC_VIP};

/// `(num_frags, frag_mask)` pairs no sender produces.
const MALFORMED: [(u16, u16); 7] = [
    (0, 1),
    (17, 1),
    (u16::MAX, 1),
    (4, 0),
    (4, 0b101),
    (4, 1 << 4),
    (4, 1 << 15),
];

/// The lower session `demux` is handed; neither protocol reads it.
struct Below;

impl Session for Below {
    fn protocol_id(&self) -> ProtoId {
        ProtoId(0)
    }
    fn push(&self, _ctx: &Ctx, _msg: Message) -> XResult<Option<Message>> {
        Ok(None)
    }
    fn control(&self, _ctx: &Ctx, _op: &ControlOp) -> XResult<ControlRes> {
        Err(XError::Unsupported("test lower session"))
    }
}

fn rig(stack: &StackDef) -> TwoHosts {
    rig_in(SimConfig::inline_mode(), stack)
}

fn rig_in(cfg: SimConfig, stack: &StackDef) -> TwoHosts {
    let mut reg = base_registry();
    xrpc::register_ctors(&mut reg);
    let tb = two_hosts(cfg, &reg, stack.graph).expect("testbed builds");
    xrpc::procs::register_standard(&tb.server, stack.entry).expect("procedures register");
    tb
}

/// Hands `frame` to `proto`'s demux on `kernel`; what it returns is beside
/// the point (a frame nobody enabled may be an error), only that it returns.
fn inject(tb: &TwoHosts, kernel: &Kernel, proto: &str, frame: Vec<u8>) {
    let ctx = tb.sim.ctx(kernel.host());
    let lls: SessionRef = std::rc::Rc::new(Below);
    let p = kernel.get(proto).expect("protocol built");
    let _ = p.demux(&ctx, &lls, Message::from_wire(frame));
}

fn rejected(tb: &TwoHosts, kernel: &Kernel) -> u64 {
    tb.sim.host_stats(kernel.host()).corrupt_rejected
}

/// Every refusal so far: (host, layer, reason, frames).
fn rows(tb: &TwoHosts) -> Vec<(HostId, &str, Reject, u64)> {
    let rows = tb.sim.rejects().into_iter();
    rows.map(|r| (r.host, r.layer, r.why, r.count)).collect()
}

fn completes_a_null_call(tb: &TwoHosts, entry: &str) {
    let ctx = tb.sim.ctx(tb.client.host());
    let reply = xrpc::call(&ctx, &tb.client, entry, tb.server_ip, NULL_PROC, Vec::new());
    assert_eq!(reply.expect("the next call completes"), Vec::<u8>::new());
}

fn fragment_frame(tb: &TwoHosts, seq: u32, num_frags: u16, frag_mask: u16) -> Vec<u8> {
    let hdr = FragmentHdr {
        typ: frag_type::DATA,
        clnt_host: tb.client_ip,
        srvr_host: tb.server_ip,
        // No protocol above FRAGMENT has this number.
        protocol_num: 0xdead,
        sequence_num: seq,
        num_frags,
        frag_mask,
        len: 8,
    };
    let mut frame = hdr.encode().to_vec();
    frame.extend_from_slice(&[0xa5; 4]);
    frame
}

#[test]
fn fragment_rejects_and_counts_every_malformed_data_header() {
    let tb = rig(&L_RPC_VIP);
    let server = &tb.server;
    let before = rejected(&tb, server);
    for (seq, (num, mask)) in (100..).zip(MALFORMED) {
        inject(&tb, server, "fragment", fragment_frame(&tb, seq, num, mask));
    }
    // The middle frame's message has three fragments, not two.
    for (num, mask) in [(2, 1), (3, 2), (2, 2)] {
        inject(&tb, server, "fragment", fragment_frame(&tb, 200, num, mask));
    }
    let n = MALFORMED.len() as u64;
    assert_eq!(rejected(&tb, server) - before, n + 1);
    let open = with_concrete::<Fragment, _>(server, "fragment", |f| f.reassembling()).unwrap();
    assert_eq!(open, 0, "no malformed frame leaves a reassembly open");
    completes_a_null_call(&tb, L_RPC_VIP.entry);
    let host = server.host();
    assert_eq!(
        rows(&tb),
        [
            (
                host,
                "fragment",
                Reject::Corrupt("fragment of another message size"),
                1
            ),
            (host, "fragment", Reject::Corrupt("fragment place"), n),
            // The two fragments that agree make a message for a protocol
            // number nothing above FRAGMENT enabled.
            (
                host,
                "fragment",
                Reject::NoEnable("fragment protocol number"),
                1
            ),
        ]
    );
}

fn sprite_frame(tb: &TwoHosts, kind: u16, channel: u16, num_frags: u16, frag_mask: u16) -> Vec<u8> {
    let hdr = SpriteHdr {
        flags: kind,
        clnt_host: tb.client_ip,
        srvr_host: tb.server_ip,
        channel,
        sequence_num: 1,
        num_frags,
        frag_mask,
        command: NULL_PROC,
        boot_id: 7,
        data1_sz: 4,
        ..SpriteHdr::default()
    };
    let mut frame = hdr.encode().to_vec();
    frame.extend_from_slice(&[0x5a; 4]);
    frame
}

#[test]
fn sprite_rejects_and_counts_every_malformed_request_and_reply_header() {
    let tb = rig(&M_RPC_VIP);
    let (client, server) = (&tb.client, &tb.server);
    let before = (rejected(&tb, client), rejected(&tb, server));
    for (channel, (num, mask)) in (900..).zip(MALFORMED) {
        let request = sprite_frame(&tb, flags::REQUEST, channel, num, mask);
        inject(&tb, server, "mrpc", request);
        inject(
            &tb,
            client,
            "mrpc",
            sprite_frame(&tb, flags::REPLY, channel, num, mask),
        );
    }
    // The middle fragment's request has three fragments, not two; the two
    // that agree make a request, which runs, and its reply finds no call.
    for (num, mask) in [(2, 1), (3, 2), (2, 2)] {
        inject(
            &tb,
            server,
            "mrpc",
            sprite_frame(&tb, flags::REQUEST, 999, num, mask),
        );
    }
    let n = MALFORMED.len() as u64;
    assert_eq!(rejected(&tb, client) - before.0, n, "REPLY frames");
    assert_eq!(rejected(&tb, server) - before.1, n + 1, "REQUEST frames");
    completes_a_null_call(&tb, M_RPC_VIP.entry);
    let (c, s) = (client.host(), server.host());
    assert_eq!(
        rows(&tb),
        [
            (c, "sprite", Reject::Corrupt("fragment place"), n),
            (
                s,
                "sprite",
                Reject::Corrupt("fragment of another message size"),
                1
            ),
            (s, "sprite", Reject::Corrupt("fragment place"), n),
        ]
    );
}

/// What FRAGMENT on `kernel` has sent, and how many messages it retains.
fn fragment_state(kernel: &Kernel) -> (FragStats, usize) {
    with_concrete::<Fragment, _>(kernel, "fragment", |f| (f.stats(), f.retained()))
        .expect("a FRAGMENT stack")
}

/// The protocol number FRAGMENT carries for L_RPC-VIP's CHANNEL on `tb`'s
/// client.
fn channel_num(tb: &TwoHosts) -> u32 {
    let k = &tb.client;
    let (chan, frag) = (k.lookup("channel").unwrap(), k.lookup("fragment").unwrap());
    xrpc::protnum::num_over(k, chan, frag).expect("CHANNEL's number")
}

/// A NACK from the server for fragments `frag_mask` of the client's
/// `protocol_num` message `seq` of `num_frags` fragments.
fn nack_frame(
    tb: &TwoHosts,
    protocol_num: u32,
    seq: u32,
    num_frags: u16,
    frag_mask: u16,
) -> Vec<u8> {
    let hdr = FragmentHdr {
        typ: frag_type::NACK,
        clnt_host: tb.client_ip,
        srvr_host: tb.server_ip,
        protocol_num,
        sequence_num: seq,
        num_frags,
        frag_mask,
        len: 0,
    };
    hdr.encode().to_vec()
}

/// Injects a NACK at the client and says how many fragments it resent; the
/// client retains what it did before, and its next call completes.
fn nack_resends(tb: &TwoHosts, protocol_num: u32, seq: u32, num_frags: u16, frag_mask: u16) -> u64 {
    let (before, retained) = fragment_state(&tb.client);
    inject(
        tb,
        &tb.client,
        "fragment",
        nack_frame(tb, protocol_num, seq, num_frags, frag_mask),
    );
    let (after, still) = fragment_state(&tb.client);
    assert_eq!(after.nacks_received, before.nacks_received + 1);
    assert_eq!(still, retained, "a NACK changes nothing retained");
    completes_a_null_call(tb, L_RPC_VIP.entry);
    after.fragments_sent - before.fragments_sent
}

#[test]
fn fragment_resends_only_the_retained_fragments_a_nack_names() {
    let tb = rig(&L_RPC_VIP);
    let ctx = tb.sim.ctx(tb.client.host());
    let before = fragment_state(&tb.client).0;
    let big = vec![0x3c; 4000];
    let sink = xrpc::call(
        &ctx,
        &tb.client,
        L_RPC_VIP.entry,
        tb.server_ip,
        SINK_PROC,
        big,
    );
    assert_eq!(
        sink.expect("the 4,000-byte call completes"),
        Vec::<u8>::new()
    );
    let (sent, retained) = fragment_state(&tb.client);
    // The first message is sequence number 1: the request just sent is the
    // last.
    let seq = u32::try_from(sent.messages_sent).expect("few messages");
    let pieces = sent.fragments_sent - before.fragments_sent;
    assert!(pieces > 1, "the request spans {pieces} fragments");
    let num = u16::try_from(pieces).expect("at most 16");
    let all = (1u16 << num) - 1;
    assert_eq!(retained, usize::try_from(sent.messages_sent).expect("few"));

    let proto = channel_num(&tb);
    assert_eq!(
        nack_resends(&tb, proto, seq + 1000, num, all),
        0,
        "never sent"
    );
    assert_eq!(nack_resends(&tb, proto, seq, num, 0), 0, "mask 0");
    assert_eq!(
        nack_resends(&tb, proto, seq, num, !all),
        0,
        "bits past the last"
    );
    assert_eq!(nack_resends(&tb, proto, seq, num, all), pieces, "every bit");
    assert_eq!(
        nack_resends(&tb, proto, seq, num, 0b10),
        1,
        "the second fragment"
    );
    assert!(
        rows(&tb).is_empty(),
        "a NACK that matches its message is no refusal"
    );

    // A NACK that names the message wrongly is refused, once each, at the
    // client's FRAGMENT.
    let client = tb.client.host();
    let refused = |n| {
        vec![(
            client,
            "fragment",
            Reject::Denied("nack does not match its message"),
            n,
        )]
    };
    assert_eq!(
        nack_resends(&tb, 0xdead, seq, num, all),
        0,
        "another protocol"
    );
    assert_eq!(rows(&tb), refused(1));
    assert_eq!(
        nack_resends(&tb, proto, seq, 16, u16::MAX),
        0,
        "16 fragments"
    );
    assert_eq!(rows(&tb), refused(2));
    // One from a host the message did not go to.
    let (before, _) = fragment_state(&tb.client);
    let nack = FragmentHdr::decode(&nack_frame(&tb, proto, seq, num, all)).expect("a NACK");
    let stranger = FragmentHdr {
        srvr_host: IpAddr::new(10, 0, 0, 99),
        ..nack
    };
    inject(&tb, &tb.client, "fragment", stranger.encode().to_vec());
    let resent = fragment_state(&tb.client).0.fragments_sent - before.fragments_sent;
    assert_eq!(resent, 0, "another host");
    assert_eq!(rows(&tb), refused(3));

    // 65 messages later the cap has evicted it: no copy, nothing to check.
    for _ in 0..65 {
        completes_a_null_call(&tb, L_RPC_VIP.entry);
    }
    assert_eq!(fragment_state(&tb.client).1, 64);
    assert_eq!(nack_resends(&tb, 0xdead, seq, num, all), 0, "evicted");
    assert_eq!(rows(&tb), refused(3), "a NACK for no copy is no refusal");
}

/// How long FRAGMENT keeps a sent message's copy for NACK service.
const DISCARD_NS: u64 = 500_000_000;

/// Hands a NACK to the FRAGMENT of `ctx`'s host from inside one of its
/// processes, at that process's time; says how many fragments it resent.
fn nack_now(ctx: &Ctx, frame: &[u8]) -> u64 {
    let kernel = ctx.kernel();
    let before = fragment_state(&kernel).0;
    let lls: SessionRef = Rc::new(Below);
    let p = kernel.get("fragment").expect("protocol built");
    let _ = p.demux(ctx, &lls, Message::from_wire(frame.to_vec()));
    fragment_state(&kernel).0.fragments_sent - before.fragments_sent
}

/// The copy is served until it is `DISCARD_NS` old and not from then on;
/// the expired copy stays counted until the host's next send.
#[test]
fn a_nack_resends_until_its_copy_is_discard_ns_old() {
    // Zero costs, and a first call to resolve addresses: a process's
    // request goes out when the process starts, and a process asleep until
    // t handles a NACK at exactly t.
    let cfg = SimConfig::scheduled().with_cost(CostModel::zero());
    let tb = rig_in(cfg, &L_RPC_VIP);
    let server_ip = tb.server_ip;
    let call = move |ctx: &Ctx| {
        let k = ctx.kernel();
        let reply = xrpc::call(ctx, &k, L_RPC_VIP.entry, server_ip, NULL_PROC, Vec::new());
        assert_eq!(reply.expect("the call completes"), Vec::<u8>::new());
    };
    tb.sim.spawn(tb.client.host(), call);
    assert_eq!(tb.sim.run_until_idle().blocked, 0);
    // The next request is the client's second message.
    let nack = nack_frame(&tb, channel_num(&tb), 2, 1, 1);
    let resent = Rc::new(Cell::new((u64::MAX, u64::MAX)));
    let out = Rc::clone(&resent);
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let sent = ctx.now();
        call(ctx);
        ctx.sleep(sent + DISCARD_NS - 1 - ctx.now());
        let young = nack_now(ctx, &nack);
        ctx.sleep(1);
        assert_eq!(ctx.now(), sent + DISCARD_NS);
        out.set((young, nack_now(ctx, &nack)));
    });
    assert_eq!(tb.sim.run_until_idle().blocked, 0);
    let (sent, retained) = fragment_state(&tb.client);
    assert_eq!(sent.messages_sent, 2);
    assert_eq!(
        resent.get(),
        (1, 0),
        "resent at DISCARD_NS - 1, not at DISCARD_NS"
    );
    assert_eq!(retained, 2, "an idle host keeps its expired copies");
    // The next send drops them before it retains its own.
    tb.sim.spawn(tb.client.host(), call);
    assert_eq!(tb.sim.run_until_idle().blocked, 0);
    let (sent, retained) = fragment_state(&tb.client);
    assert_eq!((sent.messages_sent, retained), (3, 1));
}

/// Inline mode's clock stays at 0, so no copy there ever grows old: the
/// cache cap alone decides, and the first of 64 messages is still served.
#[test]
fn in_inline_mode_only_the_cap_retires_a_copy() {
    let tb = rig(&L_RPC_VIP);
    for _ in 0..64 {
        completes_a_null_call(&tb, L_RPC_VIP.entry);
    }
    assert_eq!(tb.sim.ctx(tb.client.host()).event_time(), 0);
    assert_eq!(fragment_state(&tb.client).1, 64);
    assert_eq!(
        nack_resends(&tb, channel_num(&tb), 1, 1, 1),
        1,
        "the first of 64"
    );
    // `nack_resends` made one more call: the first message is evicted.
    assert_eq!(nack_resends(&tb, channel_num(&tb), 1, 1, 1), 0, "evicted");
}
