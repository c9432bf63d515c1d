//! IP — a faithful-in-behaviour internet protocol.
//!
//! 20-byte header with the RFC 791 layout and one's-complement header
//! checksum, fragmentation to the outgoing interface's MTU, reassembly at
//! the destination, static routing with optional forwarding (for the
//! two-LAN router topologies of the VIP experiments), TTL, and 8-bit
//! protocol demultiplexing. This is the layer whose fixed per-packet cost —
//! 0.37 msec per round trip on the paper's hardware — motivates VIP.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::{Rc, Weak};

use xkernel::cell::{tally, OwnerCell};

use xkernel::map::{EnableSnapshot, MixMap, SessionSnapshot};
use xkernel::prelude::*;

use crate::eth::eth_type;

/// IP header length (no options).
pub const IP_HDR_LEN: usize = 20;
/// Maximum total datagram length.
pub const IP_MAX_TOTAL: usize = 65_535;
/// Largest payload one datagram can carry.
pub const IP_MAX_PAYLOAD: usize = IP_MAX_TOTAL - IP_HDR_LEN;
/// Default initial TTL.
pub const IP_TTL: u8 = 32;
/// Reassembly give-up timeout (virtual ns).
pub const REASSEMBLY_TIMEOUT_NS: u64 = 30_000_000_000;

/// Well-known IP protocol numbers used in this suite.
pub mod ip_proto {
    /// ICMP.
    pub const ICMP: u8 = 1;
    /// UDP.
    pub const UDP: u8 = 17;
    /// TCP.
    pub const TCP: u8 = 6;
    /// Monolithic Sprite RPC.
    pub const SPRITE_RPC: u8 = 101;
    /// The layered FRAGMENT protocol.
    pub const FRAGMENT: u8 = 102;
    /// CHANNEL directly over a delivery protocol (bypassing FRAGMENT).
    pub const CHANNEL: u8 = 103;
    /// Psync.
    pub const PSYNC: u8 = 104;
    /// Sun RPC's REQUEST_REPLY.
    pub const REQUEST_REPLY: u8 = 105;
}

/// A decoded IP header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IpHeader {
    /// Total datagram length including this header.
    pub total_len: u16,
    /// Datagram id (shared by all its fragments).
    pub id: u16,
    /// More-fragments flag.
    pub more_frags: bool,
    /// Fragment offset in 8-byte units.
    pub frag_off: u16,
    /// Remaining hops.
    pub ttl: u8,
    /// Payload protocol number.
    pub proto: u8,
    /// Source address.
    pub src: IpAddr,
    /// Destination address.
    pub dst: IpAddr,
}

impl IpHeader {
    /// Encodes to 20 bytes with a correct checksum.
    pub fn encode(&self) -> [u8; IP_HDR_LEN] {
        let flags_frag = (u16::from(self.more_frags) << 13) | (self.frag_off & 0x1fff);
        let mut bytes = HdrBuf::new()
            .u8(0x45)
            .u8(0)
            .u16(self.total_len)
            .u16(self.id)
            .u16(flags_frag)
            .u8(self.ttl)
            .u8(self.proto)
            .u16(0) // Checksum placeholder.
            .ip(self.src)
            .ip(self.dst)
            .finish();
        let ck = internet_checksum(&[&bytes]);
        bytes[10..12].copy_from_slice(&ck.to_be_bytes());
        bytes
    }

    /// Decodes and verifies 20 header bytes.
    pub fn decode(bytes: &[u8]) -> XResult<IpHeader> {
        let mut r = HdrReader::<IP_HDR_LEN>::new(bytes, "ip")?;
        if internet_checksum(&[r.array()]) != 0 {
            return Err(Reject::Corrupt("ip header checksum").into());
        }
        let vihl = r.u8();
        if vihl != 0x45 {
            return Err(Reject::Corrupt("ip version/ihl").into());
        }
        let _tos = r.u8();
        let total_len = r.u16();
        let id = r.u16();
        let ff = r.u16();
        let ttl = r.u8();
        let proto = r.u8();
        let _ck = r.u16();
        let src = r.ip();
        let dst = r.ip();
        Ok(IpHeader {
            total_len,
            id,
            more_frags: ff & 0x2000 != 0,
            frag_off: ff & 0x1fff,
            ttl,
            proto,
            src,
            dst,
        })
    }
}

/// One attachment of IP to a wire: an ETH protocol, its ARP, and our
/// address on that wire.
#[derive(Clone, Copy, Debug)]
pub struct Iface {
    /// The ETH protocol below.
    pub eth: ProtoId,
    /// The ARP resolver for this wire.
    pub arp: ProtoId,
    /// Our address on this wire.
    pub ip: IpAddr,
    /// Network mask.
    pub mask: u32,
    /// Wire MTU (payload bytes per frame).
    pub mtu: usize,
}

impl Iface {
    /// Largest fragment payload (8-byte aligned, after the IP header).
    pub fn frag_payload(&self) -> usize {
        (self.mtu - IP_HDR_LEN) & !7
    }
}

/// A static route.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route {
    /// Destination network (already masked).
    pub net: u32,
    /// Network mask.
    pub mask: u32,
    /// Next hop, or `None` for directly connected.
    pub via: Option<IpAddr>,
    /// Outgoing interface index.
    pub iface: usize,
}

struct Reassembly {
    parts: BTreeMap<u16, Message>,
    total_payload: Option<usize>,
    have: usize,
}

/// The IP protocol object.
pub struct Ip {
    weak_self: Weak<Ip>,
    me: ProtoId,
    ifaces: Vec<Iface>,
    forward: bool,
    /// Static routes keyed `(net, mask)`: configuration, read lock-free on
    /// every send.
    routes: EnableMap<(u32, u32), Route>,
    next_id: Cell<u16>,
    enables: EnableMap<u8>,
    passive: SessionMap<(IpAddr, u8)>,
    eth_cache: SessionMap<(usize, EthAddr)>,
    reasm: OwnerCell<MixMap<(u32, u16, u8), Reassembly>>,
    stats: Cell<IpStats>,
}

/// Monotonic IP-layer counters (a snapshot; see [`Ip::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IpStats {
    /// Datagrams forwarded on behalf of another host (router role).
    pub forwarded: u64,
    /// Wire pieces emitted that belong to a fragmented datagram.
    pub fragments_sent: u64,
    /// Fragment pieces received for reassembly.
    pub fragments_received: u64,
    /// Datagrams successfully reassembled from fragments.
    pub reassembled: u64,
    /// Incomplete reassemblies abandoned at the give-up timer.
    pub reassembly_timeouts: u64,
}

impl Ip {
    /// Creates an IP protocol with the given interfaces; `forward` makes
    /// this host a router. Connected routes are installed automatically.
    pub fn new(me: ProtoId, ifaces: Vec<Iface>, forward: bool) -> Rc<Ip> {
        let ip = Rc::new_cyclic(|weak_self| Ip {
            weak_self: weak_self.clone(),
            me,
            ifaces,
            forward,
            routes: EnableMap::new(),
            next_id: Cell::new(1),
            enables: EnableMap::new(),
            passive: SessionMap::new(),
            eth_cache: SessionMap::new(),
            reasm: OwnerCell::new(MixMap::default()),
            stats: Cell::default(),
        });
        for (i, f) in ip.ifaces.iter().enumerate() {
            ip.add_route(Route {
                net: f.ip.network(f.mask),
                mask: f.mask,
                via: None,
                iface: i,
            });
        }
        ip
    }

    /// Counter snapshot (forwarding, fragmentation, reassembly).
    pub fn stats(&self) -> IpStats {
        self.stats.get()
    }

    /// Adds a static route (e.g. a default route through a gateway).
    pub fn add_route(&self, route: Route) {
        self.routes.bind((route.net, route.mask), route);
    }

    /// Our address on the first interface (the host's primary identity).
    pub fn my_ip(&self) -> IpAddr {
        self.ifaces[0].ip
    }

    fn is_mine(&self, ip: IpAddr) -> bool {
        ip.is_broadcast() || self.ifaces.iter().any(|f| f.ip == ip)
    }

    /// Longest-prefix route lookup.
    fn route_for(&self, ctx: &Ctx, dst: IpAddr) -> XResult<Route> {
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup); // Route table lookup.
        self.routes
            .iter()
            .map(|(_, r)| r)
            .filter(|r| dst.network(r.mask) == r.net)
            .max_by_key(|r| r.mask)
            .copied()
            .ok_or_else(|| XError::Unreachable(format!("no route to {dst}")))
    }

    /// The ETH session towards `next_hop` on interface `iface`.
    fn eth_session(&self, ctx: &Ctx, iface: usize, next_hop: IpAddr) -> XResult<SessionRef> {
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup); // Session cache lookup.
        let f = &self.ifaces[iface];
        let arp = ctx.kernel_ref().proto_ref(f.arp)?;
        let hw = arp.control(ctx, &ControlOp::Resolve(next_hop))?.eth()?;
        self.eth_cache.resolve_or_open((iface, hw), || {
            let parts = ParticipantSet::pair(
                Participant::proto(u32::from(eth_type::IP)),
                Participant::default().with_eth(hw),
            );
            ctx.kernel_ref().open(ctx, f.eth, self.me, &parts)
        })
    }

    /// Sends `msg` as one or more fragments with the given header template.
    fn send_datagram(&self, ctx: &Ctx, mut hdr: IpHeader, mut msg: Message) -> XResult<()> {
        if msg.len() > IP_MAX_PAYLOAD {
            return Err(XError::TooBig {
                size: msg.len(),
                max: IP_MAX_PAYLOAD,
            });
        }
        let route = self.route_for(ctx, hdr.dst)?;
        let next_hop = route.via.unwrap_or(hdr.dst);
        let sess = self.eth_session(ctx, route.iface, next_hop)?;
        let frag_payload = self.ifaces[route.iface].frag_payload();

        // When forwarding an already-fragmented datagram, the original MF
        // flag must be preserved on the last piece we emit.
        let original_mf = hdr.more_frags;
        let mut off8: u16 = hdr.frag_off;
        loop {
            let take = msg.len().min(frag_payload);
            let rest = if msg.len() > frag_payload {
                Some(msg.split_off(take)?)
            } else {
                None
            };
            hdr.frag_off = off8;
            hdr.more_frags = rest.is_some() || original_mf;
            hdr.total_len = (take + IP_HDR_LEN) as u16;
            if hdr.more_frags || hdr.frag_off != 0 {
                // This wire piece is part of a fragmented datagram.
                tally(&self.stats, |s| s.fragments_sent += 1);
            }
            let bytes = hdr.encode();
            ctx.charge_class(
                OpClass::Checksum,
                IP_HDR_LEN as u64 * ctx.cost().checksum_byte,
            );
            let mut frag = msg;
            ctx.push_header(&mut frag, &bytes);
            ctx.charge_layer_call();
            sess.push(ctx, frag)?;
            match rest {
                Some(r) => {
                    off8 += (take / 8) as u16;
                    msg = r;
                }
                None => break,
            }
        }
        Ok(())
    }

    fn deliver_up(&self, ctx: &Ctx, hdr: &IpHeader, msg: Message) -> XResult<()> {
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup);
        let upper = *self
            .enables
            .resolve(&hdr.proto)
            .ok_or(Reject::NoEnable("ip protocol"))?;
        let sess = self
            .passive
            .resolve_or_insert_with((hdr.src, hdr.proto), || {
                ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
                Ok(Rc::new(IpSession {
                    proto_id: self.me,
                    parent: self.self_rc(),
                    dst: hdr.src,
                    proto: hdr.proto,
                }) as SessionRef)
            })?;
        ctx.kernel_ref().demux_to(ctx, upper, &sess, msg)
    }

    fn self_rc(&self) -> Rc<Ip> {
        self.weak_self.upgrade().expect("ip protocol alive")
    }

    // clippy.toml bans a std map in protocol code (demux tables are
    // xkernel::map's); `parts` is one datagram's fragments by offset.
    #[allow(clippy::disallowed_methods)]
    fn reassemble(&self, ctx: &Ctx, hdr: IpHeader, msg: Message) -> XResult<()> {
        let key = (hdr.src.0, hdr.id, hdr.proto);
        tally(&self.stats, |s| s.fragments_received += 1);
        let fresh = !self.reasm.lock().contains_key(&key);
        if fresh {
            // Arm the give-up timer: incomplete datagrams are discarded.
            let parent = self.self_rc();
            ctx.schedule_after(REASSEMBLY_TIMEOUT_NS, move |tctx| {
                if parent.reasm.lock().remove(&key).is_some() {
                    tally(&parent.stats, |s| s.reassembly_timeouts += 1);
                    tctx.trace_note("reassembly timed out");
                }
            });
        }
        let complete = {
            let mut map = self.reasm.lock();
            let ent = map.entry(key).or_insert_with(|| Reassembly {
                parts: BTreeMap::new(),
                total_payload: None,
                have: 0,
            });
            // A fragment must land on bytes nothing holds (an exact duplicate
            // is absorbed) and end within the datagram; a last one must end
            // past every held byte. (A known total is a held part's end.)
            let at = |off: &u16| usize::from(*off) * 8;
            let end = |(off, m): (&u16, &Message)| at(off) + m.len();
            let (lo, hi) = (at(&hdr.frag_off), at(&hdr.frag_off) + msg.len());
            let above = ent.parts.range(hdr.frag_off..).next();
            let below = ent.parts.range(..hdr.frag_off).next_back();
            let duplicate = above.is_some_and(|(o, m)| *o == hdr.frag_off && m.len() == msg.len());
            let overlaps = below.is_some_and(|p| end(p) > lo)
                || above.is_some_and(|(o, _)| at(o) < hi || *o == hdr.frag_off);
            let past_total = ent.total_payload.is_some_and(|t| hi > t);
            let short_last =
                !hdr.more_frags && ent.parts.last_key_value().is_some_and(|p| end(p) > hi);
            if past_total || short_last || (overlaps && !duplicate) {
                return Err(Reject::Corrupt("ip fragment overlap").into());
            }
            if !duplicate {
                ent.have += msg.len();
                ent.parts.insert(hdr.frag_off, msg);
            }
            if !hdr.more_frags {
                ent.total_payload = Some(hi);
            }
            match ent.total_payload {
                Some(t) if ent.have >= t => {
                    let parts = std::mem::take(&mut ent.parts);
                    map.remove(&key);
                    Some(parts)
                }
                _ => None,
            }
        };
        match complete {
            None => Ok(()),
            Some(parts) => {
                let whole = Message::concat(parts.into_values());
                tally(&self.stats, |s| s.reassembled += 1);
                ctx.charge_class(OpClass::Copy, whole.len() as u64 * ctx.cost().copy_byte / 8);
                self.deliver_up(ctx, &hdr, whole)
            }
        }
    }
}

/// An IP session towards one (destination, protocol) pair.
pub struct IpSession {
    proto_id: ProtoId,
    parent: Rc<Ip>,
    dst: IpAddr,
    proto: u8,
}

impl Session for IpSession {
    fn protocol_id(&self) -> ProtoId {
        self.proto_id
    }

    fn push(&self, ctx: &Ctx, msg: Message) -> XResult<Option<Message>> {
        let id = self.parent.next_id.bump();
        let hdr = IpHeader {
            total_len: 0,
            id,
            more_frags: false,
            frag_off: 0,
            ttl: IP_TTL,
            proto: self.proto,
            src: self.parent.my_ip(),
            dst: self.dst,
        };
        self.parent.send_datagram(ctx, hdr, msg)?;
        Ok(None)
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetMaxPacket => Ok(ControlRes::Size(IP_MAX_PAYLOAD)),
            ControlOp::GetOptPacket => {
                let route = self.parent.route_for(ctx, self.dst)?;
                Ok(ControlRes::Size(
                    self.parent.ifaces[route.iface].frag_payload(),
                ))
            }
            ControlOp::GetMyHost => Ok(ControlRes::Ip(self.parent.my_ip())),
            ControlOp::GetPeerHost => Ok(ControlRes::Ip(self.dst)),
            ControlOp::GetMyProto => Ok(ControlRes::U32(u32::from(self.proto))),
            _ => Err(XError::Unsupported("ip session control")),
        }
    }
}

impl Protocol for Ip {
    fn id(&self) -> ProtoId {
        self.me
    }

    fn boot(&self, ctx: &Ctx) -> XResult<()> {
        let kernel = ctx.kernel_ref();
        for f in &self.ifaces {
            let parts = ParticipantSet::local(Participant::proto(u32::from(eth_type::IP)));
            kernel.open_enable(ctx, f.eth, self.me, &parts)?;
        }
        Ok(())
    }

    fn reboot(&self, _ctx: &Ctx) -> XResult<()> {
        // Partial reassemblies and cached sessions do not survive a crash;
        // interfaces, routes, and enables are configuration.
        self.drop_sessions();
        Ok(())
    }

    fn drop_sessions(&self) {
        self.reasm.lock().clear();
        self.passive.clear();
        self.eth_cache.clear();
    }

    fn open(&self, ctx: &Ctx, _upper: ProtoId, parts: &ParticipantSet) -> XResult<SessionRef> {
        let proto = parts
            .local_part()
            .and_then(|p| p.proto_num)
            .ok_or_else(|| XError::Config("ip open needs a protocol number".into()))?
            as u8;
        let dst = parts
            .remote_part()
            .and_then(|p| p.host)
            .ok_or_else(|| XError::Config("ip open needs a peer host".into()))?;
        ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
        Ok(Rc::new(IpSession {
            proto_id: self.me,
            parent: self.self_rc(),
            dst,
            proto,
        }))
    }

    fn open_enable(&self, _ctx: &Ctx, upper: ProtoId, parts: &ParticipantSet) -> XResult<()> {
        let proto = parts
            .local_part()
            .and_then(|p| p.proto_num)
            .ok_or_else(|| XError::Config("ip enable needs a protocol number".into()))?
            as u8;
        self.enables.bind(proto, upper);
        Ok(())
    }

    fn demux(&self, ctx: &Ctx, _lls: &SessionRef, mut msg: Message) -> XResult<()> {
        let bytes = ctx.pop_header(&mut msg, IP_HDR_LEN)?;
        ctx.charge_class(
            OpClass::Checksum,
            IP_HDR_LEN as u64 * ctx.cost().checksum_byte,
        );
        let hdr = IpHeader::decode(&bytes)?;
        drop(bytes);
        // Local-delivery / forwarding / fragment classification.
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup);
        // Trim any padding below the declared total length.
        let payload_len = usize::from(hdr.total_len).saturating_sub(IP_HDR_LEN);
        if msg.len() > payload_len {
            msg.truncate(payload_len);
        }
        if !self.is_mine(hdr.dst) {
            if self.forward {
                if hdr.ttl <= 1 {
                    return Err(Reject::Stale("ttl expired").into());
                }
                let mut fwd = hdr;
                fwd.ttl -= 1;
                tally(&self.stats, |s| s.forwarded += 1);
                return self.send_datagram(ctx, fwd, msg);
            }
            return Err(Reject::NoEnable("not mine").into());
        }
        if hdr.more_frags || hdr.frag_off != 0 {
            return self.reassemble(ctx, hdr, msg);
        }
        self.deliver_up(ctx, &hdr, msg)
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetMaxPacket => Ok(ControlRes::Size(IP_MAX_PAYLOAD)),
            ControlOp::GetOptPacket => Ok(ControlRes::Size(self.ifaces[0].frag_payload())),
            ControlOp::GetMyHost => Ok(ControlRes::Ip(self.my_ip())),
            _ => {
                let _ = ctx;
                Err(XError::Unsupported("ip control"))
            }
        }
    }

    // Partial reassemblies are timer-guarded and thus empty at any
    // quiescent instant; everything else — routes, the datagram id
    // counter, session caches (they gate SessionCreate charges), and
    // counters — is captured.
    fn snap(&self, _ctx: &Ctx) -> Option<SnapBlob> {
        debug_assert!(
            self.reasm.lock().is_empty(),
            "ip snapshot with partial reassemblies (not quiescent)"
        );
        Some(Rc::new(IpSnap {
            routes: self.routes.snapshot(),
            next_id: self.next_id.get(),
            enables: self.enables.snapshot(),
            passive: self.passive.snapshot(),
            eth_cache: self.eth_cache.snapshot(),
            stats: self.stats(),
        }))
    }

    fn restore_snap(&self, _ctx: &Ctx, blob: &SnapBlob) -> XResult<()> {
        let s = snap_downcast::<IpSnap>(blob, "ip")?;
        self.reasm.lock().clear();
        self.routes.restore(&s.routes);
        self.next_id.set(s.next_id);
        self.enables.restore(&s.enables);
        self.passive.restore(&s.passive);
        self.eth_cache.restore(&s.eth_cache);
        self.stats.set(s.stats);
        Ok(())
    }
}

#[derive(Clone)]
struct IpSnap {
    routes: EnableSnapshot,
    next_id: u16,
    enables: EnableSnapshot,
    passive: SessionSnapshot<(IpAddr, u8), SessionRef>,
    eth_cache: SessionSnapshot<(usize, EthAddr), SessionRef>,
    stats: IpStats,
}
