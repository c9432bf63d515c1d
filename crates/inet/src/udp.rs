//! UDP — unreliable datagrams with ports.
//!
//! Standard 8-byte header and pseudo-header checksum. Two paper-relevant
//! details are modelled faithfully:
//!
//! * UDP "sends arbitrarily large messages (i.e., it depends on IP to
//!   fragment large messages)" — its `GetMaxMsgSize` answer to VIP is the
//!   full 64 K, which is why VIP keeps an IP session under UDP.
//! * Its addresses are two 16-bit ports, which "cannot be completely mapped
//!   onto a single 8-bit IP protocol number" — the Section 5 reason moving
//!   UDP *under* VIP is hard. [`Udp::new`] therefore requires a lower
//!   protocol that can carry the full port space (IP or VIP), and the
//!   sunrpc/psync crates compose it normally.

use std::cell::Cell;
use std::rc::{Rc, Weak};

use xkernel::map::{EnableSnapshot, SessionSnapshot};
use xkernel::prelude::*;

use crate::ip::ip_proto;

/// Largest UDP payload (IP max payload minus our header).
pub const UDP_MAX_PAYLOAD: usize = 65_515 - UDP_HDR_LEN;

/// The UDP protocol object.
pub struct Udp {
    weak_self: Weak<Udp>,
    me: ProtoId,
    lower: ProtoId,
    enables: EnableMap<Port>,
    // Active sessions keyed (local port, peer ip, peer port); passive
    // sessions created by demux are cached here too.
    sessions: SessionMap<(Port, u32, Port)>,
    next_ephemeral: Cell<u16>,
}

impl Udp {
    /// Creates UDP above `lower` (IP, or any protocol with the same
    /// host-addressed unreliable-delivery semantics).
    pub fn new(me: ProtoId, lower: ProtoId) -> Rc<Udp> {
        Rc::new_cyclic(|weak_self| Udp {
            weak_self: weak_self.clone(),
            me,
            lower,
            enables: EnableMap::new(),
            sessions: SessionMap::new(),
            next_ephemeral: Cell::new(49_152),
        })
    }

    fn self_rc(&self) -> Rc<Udp> {
        self.weak_self.upgrade().expect("udp protocol alive")
    }

    fn ports_of(&self, parts: &ParticipantSet) -> XResult<(Port, IpAddr, Port)> {
        // Clients that don't name a local port get an ephemeral one.
        let local = match parts.local_part().and_then(|p| p.port) {
            Some(p) => p,
            None => self.ephemeral_port(),
        };
        let remote = parts
            .remote_part()
            .ok_or_else(|| XError::Config("udp open needs a peer".into()))?;
        let rip = remote
            .host
            .ok_or_else(|| XError::Config("udp open needs a peer host".into()))?;
        let rport = remote
            .port
            .ok_or_else(|| XError::Config("udp open needs a peer port".into()))?;
        Ok((local, rip, rport))
    }

    /// Allocates an ephemeral local port (clients that don't care). Skips
    /// ports still owned by a live session or an open_enable registration:
    /// after the 16k ephemeral range wraps, handing out a port with
    /// traffic outstanding would steer the old conversation's datagrams
    /// into the new session.
    pub fn ephemeral_port(&self) -> Port {
        let sessions = self.sessions.lock();
        for _ in 0..16_384u32 {
            let cand = self.next_ephemeral.get();
            self.next_ephemeral
                .set(cand.checked_add(1).unwrap_or(49_152));
            let live = sessions.keys().any(|&(local, _, _)| local == cand)
                || self.enables.resolve(&cand).is_some();
            if !live {
                return cand;
            }
        }
        // Every ephemeral port has a live session: structurally impossible
        // for bounded workloads, but never hand out an aliased port.
        panic!("udp ephemeral port range exhausted");
    }

    /// Number of live (open) UDP sessions — diagnostic accessor for churn
    /// audits: closed sessions must leave no residue in the demux map.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }
}

wire_header! {
    /// The UDP header.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct UdpHdr: UDP_HDR_LEN, "udp" {
        /// Sender's port.
        pub src_port: Port,
        /// Receiver's port.
        pub dst_port: Port,
        /// Header plus payload length.
        pub length: u16,
        /// Checksum over pseudo-header, header and payload; 0 = not computed.
        pub checksum: u16,
    }
}

/// A UDP session for one (local port, peer host, peer port) triple.
pub struct UdpSession {
    proto_id: ProtoId,
    parent: Rc<Udp>,
    local_port: Port,
    peer: IpAddr,
    peer_port: Port,
    lower: SessionRef,
}

/// Computes the UDP checksum (pseudo-header + header + body) by folding
/// across the message's segments with [`ChecksumAcc`]. The pseudo-header
/// lives on the stack and the body is never materialized contiguously —
/// this is the zero-copy hot path the paper's Section 3 argues for.
pub fn udp_checksum(src: IpAddr, dst: IpAddr, length: u16, hdr: &[u8], body: &Message) -> u16 {
    // Pseudo-header: src, dst, zero+proto, udp length.
    let mut pseudo = [0u8; 12];
    pseudo[0..4].copy_from_slice(&src.0.to_be_bytes());
    pseudo[4..8].copy_from_slice(&dst.0.to_be_bytes());
    pseudo[9] = ip_proto::UDP;
    pseudo[10..12].copy_from_slice(&length.to_be_bytes());
    let mut acc = ChecksumAcc::new();
    acc.add(&pseudo);
    acc.add(hdr);
    acc.add_message(body);
    acc.finish()
}

impl UdpSession {
    /// Fills in `hdr.checksum` for `payload` sent from `src`.
    fn checksum(&self, ctx: &Ctx, src: IpAddr, payload: &Message, hdr: &mut UdpHdr) {
        ctx.charge_class(
            OpClass::Checksum,
            (12 + UDP_HDR_LEN + payload.len()) as u64 * ctx.cost().checksum_byte,
        );
        let ck = udp_checksum(src, self.peer, hdr.length, &hdr.encode(), payload);
        hdr.checksum = if ck == 0 { 0xffff } else { ck };
    }
}

impl Session for UdpSession {
    fn protocol_id(&self) -> ProtoId {
        self.proto_id
    }

    fn push(&self, ctx: &Ctx, mut msg: Message) -> XResult<Option<Message>> {
        if msg.len() > UDP_MAX_PAYLOAD {
            return Err(XError::TooBig {
                size: msg.len(),
                max: UDP_MAX_PAYLOAD,
            });
        }
        let mut hdr = UdpHdr {
            src_port: self.local_port,
            dst_port: self.peer_port,
            length: (msg.len() + UDP_HDR_LEN) as u16,
            checksum: 0,
        };
        // The UDP checksum is *optional* (checksum field 0 = not computed),
        // and it needs the IP pseudo-header. Over a lower layer that has no
        // host addresses — VIP's raw-Ethernet path — we send without it,
        // which is exactly what lets UDP sit above a virtual protocol
        // (Figure 2) where TCP, whose checksum is mandatory, cannot.
        if let Ok(r) = self.lower.control(ctx, &ControlOp::GetMyHost) {
            let src = r.ip()?;
            self.checksum(ctx, src, &msg, &mut hdr);
        }
        ctx.push_header(&mut msg, &hdr.encode());
        ctx.charge_layer_call();
        self.lower.push(ctx, msg)
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetMaxPacket => Ok(ControlRes::Size(UDP_MAX_PAYLOAD)),
            ControlOp::GetMyPort => Ok(ControlRes::Port(self.local_port)),
            ControlOp::GetPeerPort => Ok(ControlRes::Port(self.peer_port)),
            ControlOp::GetPeerHost => Ok(ControlRes::Ip(self.peer)),
            other => self.lower.control(ctx, other),
        }
    }

    fn close(&self, _ctx: &Ctx) -> XResult<()> {
        self.parent
            .sessions
            .unbind(&(self.local_port, self.peer.0, self.peer_port));
        Ok(())
    }
}

impl Protocol for Udp {
    fn contract(&self) -> xkernel::lint::ProtoContract {
        crate::contracts::udp()
    }

    fn name(&self) -> &'static str {
        "udp"
    }

    fn id(&self) -> ProtoId {
        self.me
    }

    fn boot(&self, ctx: &Ctx) -> XResult<()> {
        let parts = ParticipantSet::local(Participant::proto(u32::from(ip_proto::UDP)));
        ctx.kernel_ref()
            .open_enable(ctx, self.lower, self.me, &parts)
    }

    fn drop_sessions(&self) {
        self.sessions.clear();
    }

    fn open(&self, ctx: &Ctx, _upper: ProtoId, parts: &ParticipantSet) -> XResult<SessionRef> {
        let (local, rip, rport) = self.ports_of(parts)?;
        self.sessions.resolve_or_open((local, rip.0, rport), || {
            ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
            let lparts = ParticipantSet::pair(
                Participant::proto(u32::from(ip_proto::UDP)),
                Participant::host(rip),
            );
            let lower = ctx.kernel_ref().open(ctx, self.lower, self.me, &lparts)?;
            Ok(Rc::new(UdpSession {
                proto_id: self.me,
                parent: self.self_rc(),
                local_port: local,
                peer: rip,
                peer_port: rport,
                lower,
            }) as SessionRef)
        })
    }

    fn open_enable(&self, _ctx: &Ctx, upper: ProtoId, parts: &ParticipantSet) -> XResult<()> {
        let port = parts
            .local_part()
            .and_then(|p| p.port)
            .ok_or_else(|| XError::Config("udp enable needs a local port".into()))?;
        self.enables.bind(port, upper);
        Ok(())
    }

    fn demux(&self, ctx: &Ctx, lls: &SessionRef, mut msg: Message) -> XResult<()> {
        let hdr = UdpHdr::decode(&ctx.pop_header(&mut msg, UDP_HDR_LEN)?)?;
        let UdpHdr {
            src_port,
            dst_port,
            length,
            checksum: ck,
        } = hdr;
        let payload_len = usize::from(length).saturating_sub(UDP_HDR_LEN);
        if msg.len() < payload_len {
            return Err(Reject::Corrupt("truncated datagram").into());
        }
        msg.truncate(payload_len);
        // Checksum verification cost, charged whether or not the sender
        // computed one (a real stack still inspects the field).
        ctx.charge_class(
            OpClass::Checksum,
            (UDP_HDR_LEN + msg.len()) as u64 * ctx.cost().checksum_byte,
        );
        // Verify when the sender computed a checksum (field 0 = "not
        // computed", the raw-Ethernet-under-VIP path) and the lower layer
        // can reconstruct the pseudo-header. Summing over the header with
        // its transmitted checksum in place must yield 0 (or 0xffff, the
        // ones-complement negative zero).
        if ck != 0 {
            let ends = lls
                .control(ctx, &ControlOp::GetPeerHost)
                .and_then(|r| r.ip())
                .and_then(|src| {
                    let dst = lls.control(ctx, &ControlOp::GetMyHost)?.ip()?;
                    Ok((src, dst))
                });
            if let Ok((src, dst)) = ends {
                // Every bit of a UDP header is a field: re-encoding gives
                // back the bytes that arrived.
                let sum = udp_checksum(src, dst, length, &hdr.encode(), &msg);
                if sum != 0 && sum != 0xffff {
                    return Err(Reject::Corrupt("udp checksum").into());
                }
            }
        }

        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup);
        let upper = *self
            .enables
            .resolve(&dst_port)
            .ok_or(Reject::NoEnable("udp port"))?;
        // Over VIP's raw-Ethernet path the lower session has no internet
        // address for the peer; key the session on the unspecified address
        // (replies still work — the lls is addressed back to the sender).
        let peer = lls
            .control(ctx, &ControlOp::GetPeerHost)
            .and_then(|r| r.ip())
            .unwrap_or(IpAddr::ANY);
        let sess = self
            .sessions
            .resolve_or_insert_with((dst_port, peer.0, src_port), || {
                ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
                Ok(Rc::new(UdpSession {
                    proto_id: self.me,
                    parent: self.self_rc(),
                    local_port: dst_port,
                    peer,
                    peer_port: src_port,
                    lower: Rc::clone(lls),
                }) as SessionRef)
            })?;
        ctx.kernel_ref().demux_to(ctx, upper, &sess, msg)
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetMaxPacket => Ok(ControlRes::Size(UDP_MAX_PAYLOAD)),
            // Asked by VIP: UDP relies on the layer below to fragment, so it
            // may push messages up to the full IP payload.
            ControlOp::GetMaxMsgSize => Ok(ControlRes::Size(UDP_MAX_PAYLOAD + UDP_HDR_LEN)),
            _ => {
                let _ = ctx;
                Err(XError::Unsupported("udp control"))
            }
        }
    }

    fn snap(&self, _ctx: &Ctx) -> Option<SnapBlob> {
        Some(Rc::new(UdpSnap {
            enables: self.enables.snapshot(),
            sessions: self.sessions.snapshot(),
            next_ephemeral: self.next_ephemeral.get(),
        }))
    }

    fn restore_snap(&self, _ctx: &Ctx, blob: &SnapBlob) -> XResult<()> {
        let s = snap_downcast::<UdpSnap>(blob, "udp")?;
        self.enables.restore(&s.enables);
        self.sessions.restore(&s.sessions);
        self.next_ephemeral.set(s.next_ephemeral);
        Ok(())
    }
}

#[derive(Clone)]
struct UdpSnap {
    enables: EnableSnapshot,
    sessions: SessionSnapshot<(Port, u32, Port), SessionRef>,
    next_ephemeral: Port,
}
