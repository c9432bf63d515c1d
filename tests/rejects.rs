//! A frame a layer cannot use is refused at that layer, counted once, and
//! costs nothing else.
//!
//! Each of the six RPC stacks and PSYNC gets a warmed two-host inline rig.
//! The request frame of a warm well-formed call is captured off the wire and
//! mutated so that it passes every layer below one layer intact and that
//! layer refuses it: a truncated header, a demux key nothing is bound to (an
//! ETH type, an IP protocol, a UDP port, a FRAGMENT or REQUEST_REPLY
//! protocol number, a PSYNC conversation), or a mutated field (a checksum,
//! an IHL, a FRAGMENT type, a fragment mask, a Sun RPC message type). Each
//! frame is put on the wire at the client's device twice. For each, the test
//! asserts:
//!
//! - each copy adds exactly one to one row of `Sim::rejects`, the refusing
//!   (host, layer, kind);
//! - the second copy makes exactly the allocations the case names (none,
//!   unless a layer below copies or wraps every message it passes up) and
//!   leaves no byte allocated, so no session or enable table grows; the first
//!   makes at most one more, for its row;
//! - the next well-formed call completes.
//!
//! Over each rig's run, injected frames = counted refusals + frames that
//! reached the application.

mod common;

use std::cell::Cell;
use std::mem::discriminant;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use common::{allocs, live_bytes};
use inet::testbed::{base_registry, lan_hosts, Lan};
use inet::with_concrete;
use simnet::fault::{FaultDecision, FaultPlan};
use sunrpc::sunselect::SunSelect;
use xkernel::graph::ProtocolRegistry;
use xkernel::prelude::*;
use xkernel::sim::{RejectRow, SimConfig};
use xrpc::hdr::{FragmentHdr, SpriteHdr, FRAGMENT_HDR_LEN, SPRITE_HDR_LEN};
use xrpc::procs::NULL_PROC;
use xrpc::stacks::{StackDef, L_RPC_VIP, L_RPC_VIPSIZE, M_RPC_ETH, M_RPC_IP, M_RPC_VIP};

const ETH: usize = 14;
const IP: usize = ETH + 20;
const UDP: usize = IP + 8;

/// The kinds a case expects: only the variant is compared, not the text.
const CORRUPT: Reject = Reject::Corrupt("");
const NO_ENABLE: Reject = Reject::NoEnable("");

/// A two-host rig: the client's device session, which frames are put on the
/// wire through, and the well-formed exchange the stack carries.
struct Rig {
    lan: Lan,
    device: SessionRef,
    /// One well-formed exchange; panics unless it completes.
    well_formed: Box<dyn Fn(&Lan)>,
    /// Exchanges made so far.
    exchanges: Cell<u64>,
    /// Requests that reached the server's application.
    executed: Rc<Cell<u64>>,
}

/// One mutated frame, where it must be refused, and the allocations a copy
/// of it makes below that layer (a layer that builds a session for every
/// message it passes up builds one for this message too, and frees it).
struct Case {
    what: &'static str,
    frame: Vec<u8>,
    layer: &'static str,
    kind: Reject,
    allocs: u64,
}

fn case(what: &'static str, frame: Vec<u8>, layer: &'static str, kind: Reject) -> Case {
    Case {
        what,
        frame,
        layer,
        kind,
        allocs: 0,
    }
}

fn registry() -> ProtocolRegistry {
    let mut reg = base_registry();
    xrpc::register_ctors(&mut reg);
    sunrpc::register_ctors(&mut reg);
    psync::register_ctors(&mut reg);
    reg
}

impl Rig {
    fn new(graph: &str, well_formed: Box<dyn Fn(&Lan)>, executed: Rc<Cell<u64>>) -> Rig {
        let lan = lan_hosts(SimConfig::inline_mode(), &registry(), graph, 2).expect("rig builds");
        let client = &lan.kernels[0];
        let ctx = lan.sim.ctx(client.host());
        let (nic, eth) = (
            client.lookup("nic0").unwrap(),
            client.lookup("eth").unwrap(),
        );
        let device = client
            .open(
                &ctx,
                nic,
                eth,
                &ParticipantSet::local(Participant::default()),
            )
            .expect("the device session");
        Rig {
            lan,
            device,
            well_formed,
            exchanges: Cell::new(0),
            executed,
        }
    }

    fn exchange(&self) {
        (self.well_formed)(&self.lan);
        self.exchanges.set(self.exchanges.get() + 1);
    }

    /// Warms the rig and returns the first frame the client puts on the
    /// wire in a warm exchange: its request.
    fn warm_request(&self) -> Vec<u8> {
        self.exchange();
        let frames = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&frames);
        let client = EthAddr::from_index(1);
        self.lan.net.set_faults(
            self.lan.lan,
            FaultPlan {
                custom: Some(Arc::new(move |_, frame: &[u8]| {
                    if frame[6..12] == client.0 {
                        seen.lock().unwrap().push(frame.to_vec());
                    }
                    FaultDecision::Deliver
                })),
                ..FaultPlan::default()
            },
        );
        self.exchange();
        self.lan.net.set_faults(self.lan.lan, FaultPlan::none());
        let request = frames.lock().unwrap()[0].clone();
        assert!(
            self.lan.sim.rejects().is_empty(),
            "well-formed traffic is never refused"
        );
        request
    }

    /// Puts `frame` on the wire at the client's device; the allocations
    /// that took beyond the frame's own, and the bytes it left allocated.
    fn inject(&self, frame: &[u8]) -> (u64, i64) {
        let ctx = self.lan.sim.ctx(self.lan.kernels[0].host());
        let live = live_bytes();
        let msg = Message::from_wire(frame.to_vec());
        let made = allocs();
        self.device
            .push(&ctx, msg)
            .expect("a refusal never reaches the sender");
        (allocs() - made, live_bytes() - live)
    }

    /// Runs every case and checks the run's balance.
    fn refuses(&self, cases: Vec<Case>) {
        let server = self.lan.kernels[1].host();
        let mut injected = 0;
        for c in &cases {
            let before = self.lan.sim.rejects();
            let (first, _) = self.inject(&c.frame);
            let (again, held) = self.inject(&c.frame);
            injected += 2;
            let grown: Vec<(RejectRow, u64)> = self
                .lan
                .sim
                .rejects()
                .into_iter()
                .filter_map(|r| {
                    let had = before
                        .iter()
                        .find(|b| (b.host, b.proto, b.why) == (r.host, r.proto, r.why))
                        .map_or(0, |b| b.count);
                    (r.count != had).then_some((r, r.count - had))
                })
                .collect();
            assert!(
                matches!(grown[..], [(r, 2)] if r.host == server
                    && r.layer == c.layer
                    && discriminant(&r.why) == discriminant(&c.kind)),
                "{}: expected two refusals at {} ({:?}), got {grown:?}",
                c.what,
                c.layer,
                c.kind
            );
            assert!(
                first <= 1 + c.allocs,
                "{}: the first copy made {first} allocations",
                c.what
            );
            assert_eq!(
                (again, held),
                (c.allocs, 0),
                "{}: (allocations, bytes kept) by the second copy",
                c.what
            );
            self.exchange();
        }
        let counted: u64 = self.lan.sim.rejects().iter().map(|r| r.count).sum();
        let delivered = self.executed.get() - self.exchanges.get();
        assert_eq!(
            injected,
            counted + delivered,
            "injected = counted + delivered"
        );
    }
}

/// A paper RPC stack with a counting null procedure.
fn paper_rig(stack: StackDef) -> Rig {
    let executed = Rc::new(Cell::new(0));
    let exchange = Box::new(move |lan: &Lan| {
        let ctx = lan.sim.ctx(lan.kernels[0].host());
        let reply = xrpc::call(
            &ctx,
            &lan.kernels[0],
            stack.entry,
            lan.ip_of(1),
            NULL_PROC,
            Vec::new(),
        );
        assert_eq!(reply.expect("the call completes"), Vec::<u8>::new());
    });
    let rig = Rig::new(stack.graph, exchange, Rc::clone(&executed));
    xrpc::serve(
        &rig.lan.kernels[1],
        stack.entry,
        NULL_PROC,
        move |ctx, _| {
            executed.set(executed.get() + 1);
            Ok(ctx.empty_msg())
        },
    )
    .expect("procedure registers");
    rig
}

fn cut(frame: &[u8], len: usize) -> Vec<u8> {
    frame[..len].to_vec()
}

fn with(frame: &[u8], at: usize, bytes: &[u8]) -> Vec<u8> {
    let mut f = frame.to_vec();
    f[at..at + bytes.len()].copy_from_slice(bytes);
    f
}

/// `frame` with its IP header checksum recomputed.
fn ip_summed(mut frame: Vec<u8>) -> Vec<u8> {
    frame[ETH + 10..ETH + 12].fill(0);
    let sum = internet_checksum(&[&frame[ETH..IP]]);
    frame[ETH + 10..ETH + 12].copy_from_slice(&sum.to_be_bytes());
    frame
}

/// `frame`'s UDP datagram cut to `len` payload bytes, its length field
/// saying so and its checksum off (0, "not computed").
fn udp_cut(frame: &[u8], len: usize) -> Vec<u8> {
    let mut f = cut(frame, UDP + len);
    f[IP + 4..IP + 6].copy_from_slice(&(8 + len as u16).to_be_bytes());
    f[IP + 6..UDP].fill(0);
    f
}

/// `frame` with `bytes` at `at` and its UDP checksum off.
fn udp_with(frame: &[u8], at: usize, bytes: &[u8]) -> Vec<u8> {
    with(&with(frame, at, bytes), IP + 6, &[0, 0])
}

fn sprite(frame: &[u8], at: usize, edit: impl Fn(&mut SpriteHdr)) -> Vec<u8> {
    let mut hdr = SpriteHdr::decode(&frame[at..at + SPRITE_HDR_LEN]).unwrap();
    edit(&mut hdr);
    with(frame, at, &hdr.encode())
}

fn fragment(frame: &[u8], edit: impl Fn(&mut FragmentHdr)) -> Vec<u8> {
    let mut hdr = FragmentHdr::decode(&frame[ETH..ETH + FRAGMENT_HDR_LEN]).unwrap();
    edit(&mut hdr);
    with(frame, ETH, &hdr.encode())
}

#[test]
fn m_rpc_eth_refuses_at_eth_and_sprite() {
    let rig = paper_rig(M_RPC_ETH);
    let req = rig.warm_request();
    rig.refuses(vec![
        case("short eth header", cut(&req, ETH - 1), "eth", CORRUPT),
        case(
            "unbound eth type",
            with(&req, 12, &[0x77, 0x77]),
            "eth",
            NO_ENABLE,
        ),
        case(
            "short sprite header",
            cut(&req, ETH + SPRITE_HDR_LEN - 1),
            "sprite",
            CORRUPT,
        ),
        // A null request's header ends its frame, and popping the last bytes
        // of a segment copies them out: one allocation, freed.
        Case {
            allocs: 1,
            ..case(
                "no fragments",
                sprite(&req, ETH, |h| h.num_frags = 0),
                "sprite",
                CORRUPT,
            )
        },
    ]);
}

#[test]
fn m_rpc_ip_refuses_at_ip_and_sprite() {
    let rig = paper_rig(M_RPC_IP);
    let req = rig.warm_request();
    rig.refuses(vec![
        case("short ip header", cut(&req, IP - 1), "ip", CORRUPT),
        case(
            "ip header checksum",
            with(&req, ETH + 10, &[!req[ETH + 10]]),
            "ip",
            CORRUPT,
        ),
        case(
            "ihl of 6",
            ip_summed(with(&req, ETH, &[0x46])),
            "ip",
            CORRUPT,
        ),
        case(
            "unbound ip protocol",
            ip_summed(with(&req, ETH + 9, &[0xfe])),
            "ip",
            NO_ENABLE,
        ),
        case(
            "short sprite header",
            cut(&req, IP + SPRITE_HDR_LEN - 1),
            "sprite",
            CORRUPT,
        ),
        Case {
            allocs: 1,
            ..case(
                "mask past num_frags",
                sprite(&req, IP, |h| h.frag_mask = 2),
                "sprite",
                CORRUPT,
            )
        },
    ]);
}

#[test]
fn m_rpc_vip_refuses_at_eth_and_sprite() {
    let rig = paper_rig(M_RPC_VIP);
    let req = rig.warm_request();
    rig.refuses(vec![
        case(
            "unbound vip eth type",
            with(&req, 12, &[0x39, 0xfe]),
            "eth",
            NO_ENABLE,
        ),
        case(
            "short sprite header",
            cut(&req, ETH + SPRITE_HDR_LEN - 1),
            "sprite",
            CORRUPT,
        ),
    ]);
}

#[test]
fn l_rpc_vip_refuses_at_fragment_and_channel() {
    let rig = paper_rig(L_RPC_VIP);
    let req = rig.warm_request();
    // A frame CHANNEL passes up has opened an exchange, so SELECT's
    // refusals are not in a table-growth test.
    let select = req.len() - 4;
    rig.refuses(vec![
        case(
            "short fragment header",
            cut(&req, ETH + FRAGMENT_HDR_LEN - 1),
            "fragment",
            CORRUPT,
        ),
        case(
            "unknown fragment type",
            fragment(&req, |h| h.typ = 9),
            "fragment",
            CORRUPT,
        ),
        case(
            "unbound fragment protocol",
            fragment(&req, |h| h.protocol_num = 0xdead),
            "fragment",
            NO_ENABLE,
        ),
        case(
            "no fragments",
            fragment(&req, |h| h.num_frags = 0),
            "fragment",
            CORRUPT,
        ),
        case(
            "short channel header",
            cut(&req, select - 1),
            "channel",
            CORRUPT,
        ),
    ]);
}

#[test]
fn l_rpc_vipsize_refuses_at_channel() {
    let rig = paper_rig(L_RPC_VIPSIZE);
    let req = rig.warm_request();
    let select = req.len() - 4;
    rig.refuses(vec![case(
        "short channel header",
        cut(&req, select - 1),
        "channel",
        CORRUPT,
    )]);
}

const PROG: u32 = 100_003;
const VERS: u32 = 2;
const PROC: u32 = 1;

/// SUNRPC-UDP with a counting null procedure.
fn sun_rpc_udp_rig() -> Rig {
    let executed = Rc::new(Cell::new(0));
    let exchange = Box::new(|lan: &Lan| {
        let ctx = lan.sim.ctx(lan.kernels[0].host());
        let reply = with_concrete::<SunSelect, _>(&lan.kernels[0], "sunselect", |s| {
            s.call(&ctx, lan.ip_of(1), PROG, VERS, PROC, Vec::new())
        })
        .unwrap();
        assert_eq!(reply.expect("the call completes"), Vec::<u8>::new());
    });
    let rig = Rig::new(chaos::SUNRPC_UDP_GRAPH, exchange, Rc::clone(&executed));
    with_concrete::<SunSelect, _>(&rig.lan.kernels[1], "sunselect", |s| {
        s.serve(PROG, VERS, PROC, move |ctx, _| {
            executed.set(executed.get() + 1);
            Ok(ctx.empty_msg())
        });
    })
    .unwrap();
    rig
}

#[test]
fn sun_rpc_udp_refuses_at_udp_request_reply_and_auth() {
    let rig = sun_rpc_udp_rig();
    let req = rig.warm_request();
    // UDP payload: REQUEST_REPLY's 12 bytes, AUTH_UNIX's 32, SUN_SELECT's 16.
    // A frame that passes AUTH leaves a reply-path wrapper in its cache, as
    // every request does (65 at most), so SUN_SELECT's refusals are not here.
    let (rr, auth) = (12, 12 + 32);
    assert_eq!(req.len(), UDP + auth + 16);
    rig.refuses(vec![
        case("short udp header", cut(&req, UDP - 1), "udp", CORRUPT),
        case(
            "udp checksum",
            with(&req, IP + 6, &[!req[IP + 6]]),
            "udp",
            CORRUPT,
        ),
        case(
            "unbound udp port",
            udp_with(&req, IP + 2, &[0x77, 0x77]),
            "udp",
            NO_ENABLE,
        ),
        case(
            "short request_reply header",
            udp_cut(&req, rr - 1),
            "request_reply",
            CORRUPT,
        ),
        case(
            "unknown message type",
            udp_with(&req, UDP + 4, &[0, 0, 0, 7]),
            "request_reply",
            CORRUPT,
        ),
        case(
            "unbound request_reply protocol",
            udp_with(&req, UDP + 8, &[0, 0, 0, 0x63]),
            "request_reply",
            NO_ENABLE,
        ),
        // REQUEST_REPLY builds a server session for every call it passes up.
        Case {
            allocs: 1,
            ..case(
                "short credential",
                udp_cut(&req, auth - 1),
                "auth_unix",
                CORRUPT,
            )
        },
    ]);
}

/// IP reassembles a datagram only from fragments that tile it. A fragment
/// that overlaps held bytes, ends past the datagram's last byte, or is a last
/// fragment ending before held bytes is refused at `ip`; an exact duplicate
/// is absorbed; and the pieces that fit complete the datagram.
#[test]
fn ip_refuses_fragments_that_do_not_tile_their_datagram() {
    let rig = sun_rpc_udp_rig();
    let req = rig.warm_request();
    assert_eq!(req.len(), IP + 68, "a 68-byte IP payload");
    let data = [&req[IP..], &[0; 16]].concat();
    // Bytes [lo, hi) of the request's IP payload, as a fragment of a datagram
    // with an id of its own.
    let piece = |lo: usize, hi: usize, more: bool| {
        let mut f = req[..IP].to_vec();
        f[ETH + 2..ETH + 4].copy_from_slice(&((20 + hi - lo) as u16).to_be_bytes());
        f[ETH + 4..ETH + 6].copy_from_slice(&0x7777u16.to_be_bytes());
        let ff = (lo / 8) as u16 | if more { 0x2000 } else { 0 };
        f[ETH + 6..ETH + 8].copy_from_slice(&ff.to_be_bytes());
        f.extend_from_slice(&data[lo..hi]);
        ip_summed(f)
    };
    let server = rig.lan.kernels[1].host();
    let at_ip = || {
        let rows = rig.lan.sim.rejects().into_iter();
        rows.filter(move |r| (r.host, r.layer) == (server, "ip"))
    };
    let refused = || at_ip().map(|r| r.count).sum::<u64>();
    for (what, frame, refuse, execute) in [
        ("[0, 16)", piece(0, 16, true), false, false),
        ("[0, 16) again", piece(0, 16, true), false, false),
        ("[8, 24), over held bytes", piece(8, 24, true), true, false),
        ("[32, 48)", piece(32, 48, true), false, false),
        ("[24, 40), overlapping", piece(24, 40, true), true, false),
        ("[16, 24) as the last", piece(16, 24, false), true, false),
        ("[48, 68), the last", piece(48, 68, false), false, false),
        ("[72, 80), past the last", piece(72, 80, true), true, false),
        ("[16, 32), the hole", piece(16, 32, true), false, true),
    ] {
        let (was_refused, was_executed) = (refused(), rig.executed.get());
        rig.inject(&frame);
        assert_eq!(
            (refused() - was_refused, rig.executed.get() - was_executed),
            (u64::from(refuse), u64::from(execute)),
            "{what}: (refused at ip, executed)"
        );
    }
    assert!(
        at_ip().all(|r| discriminant(&r.why) == discriminant(&CORRUPT)),
        "refused as corrupt"
    );
    rig.exchange();
}

#[test]
fn psync_refuses_short_headers_and_unknown_conversations() {
    let executed = Rc::new(Cell::new(0));
    let delivered = Rc::clone(&executed);
    let next = Cell::new(0u8);
    let convs = Rc::new(std::cell::OnceCell::new());
    let opened = Rc::clone(&convs);
    let exchange = Box::new(move |lan: &Lan| {
        let (a, b) = opened.get_or_init(|| {
            let open = |i: usize, peer: usize| {
                let ctx = lan.sim.ctx(lan.kernels[i].host());
                with_concrete::<psync::Psync, _>(&lan.kernels[i], "psync", |p| {
                    p.open_conv(&ctx, 1, vec![lan.ip_of(peer)])
                })
                .unwrap()
            };
            (open(0, 1), open(1, 0))
        });
        let data = vec![next.get()];
        next.set(next.get() + 1);
        a.send(&lan.sim.ctx(lan.kernels[0].host()), data.clone())
            .unwrap();
        let got = b
            .receive(&lan.sim.ctx(lan.kernels[1].host()), 0)
            .expect("delivered");
        assert_eq!(got.data, data);
        delivered.set(delivered.get() + 1);
    });
    let rig = Rig::new("vip -> ip eth arp\npsync -> vip\n", exchange, executed);
    let req = rig.warm_request();
    rig.refuses(vec![
        case("short psync header", cut(&req, ETH + 13), "psync", CORRUPT),
        case(
            "unknown conversation",
            with(&req, ETH, &[0, 0, 0, 9]),
            "psync",
            NO_ENABLE,
        ),
    ]);
    let backlog = convs.get().unwrap().1.backlog();
    assert_eq!(backlog, 0, "no refused frame reached the conversation");
}
