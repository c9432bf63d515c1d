//! ICMP — echo request/reply, enough to ping through any IP-like lower
//! layer (including VIP, which is itself a nice demonstration that ICMP
//! only depends on the *semantics* of IP).

use std::cell::Cell;
use std::rc::Rc;

use xkernel::cell::OwnerCell;

use xkernel::prelude::*;

use crate::ip::ip_proto;

/// ICMP header length: type(1) code(1) checksum(2) id(2) seq(2).
pub const ICMP_HDR_LEN: usize = 8;

const TYPE_ECHO_REPLY: u8 = 0;
const TYPE_ECHO_REQUEST: u8 = 8;

/// Default ping timeout (virtual ns).
pub const PING_TIMEOUT_NS: u64 = 1_000_000_000;

/// A parked ping: wake signal plus the slot the echoed payload lands in.
type EchoWaiter = (SharedSema, Rc<OwnerCell<Option<Vec<u8>>>>);

/// The ICMP protocol object.
pub struct Icmp {
    me: ProtoId,
    lower: ProtoId,
    next_seq: Cell<u16>,
    /// Parked pingers keyed by `(peer, id, seq)`. The id must be part of
    /// the key: two concurrent pingers that happen to reuse a sequence
    /// number toward the same peer are distinct conversations, and keying
    /// by `(peer, seq)` alone let one pinger steal (or drop) the other's
    /// reply.
    waiting: SessionMap<(u32, u16, u16), EchoWaiter>,
}

/// The ICMP echo header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IcmpHdr {
    /// Echo request (8) or reply (0).
    pub ty: u8,
    /// Identifier: which pinger on the host.
    pub id: u16,
    /// Sequence number within the identifier.
    pub seq: u16,
}

impl IcmpHdr {
    /// Encodes to network byte order, with the checksum over the header and
    /// `payload` in place.
    pub fn encode(&self, payload: &[u8]) -> [u8; ICMP_HDR_LEN] {
        let mut v = HdrBuf::new()
            .u8(self.ty)
            .u8(0) // Code.
            .u16(0) // Checksum placeholder.
            .u16(self.id)
            .u16(self.seq)
            .finish();
        let ck = internet_checksum(&[&v, payload]);
        v[2..4].copy_from_slice(&ck.to_be_bytes());
        v
    }

    /// Decodes from network byte order. The checksum covers the whole
    /// packet, so the caller verifies it before the header is popped.
    pub fn decode(bytes: &[u8]) -> XResult<IcmpHdr> {
        let mut r = HdrReader::<ICMP_HDR_LEN>::new(bytes, "icmp")?;
        let ty = r.u8();
        let _code = r.u8();
        let _ck = r.u16();
        Ok(IcmpHdr {
            ty,
            id: r.u16(),
            seq: r.u16(),
        })
    }

    /// An echo packet: `payload` with this header in front of it. The push
    /// is the message's own — ICMP's send side charges nothing per header.
    fn packet(&self, ctx: &Ctx, payload: Vec<u8>) -> Message {
        let hdr = self.encode(&payload);
        let mut msg = ctx.msg(payload);
        msg.push_header(&hdr);
        msg
    }
}

impl Icmp {
    /// Creates ICMP above `lower`.
    pub fn new(me: ProtoId, lower: ProtoId) -> Rc<Icmp> {
        Rc::new(Icmp {
            me,
            lower,
            next_seq: Cell::new(0),
            waiting: SessionMap::new(),
        })
    }

    /// Pings `dst` with `len` payload bytes; returns the echoed payload.
    pub fn ping(&self, ctx: &Ctx, dst: IpAddr, len: usize) -> XResult<Vec<u8>> {
        let seq = self.next_seq.bump();
        self.ping_with(ctx, dst, len, 1, seq)
    }

    /// Pings `dst` using an explicit echo `id`/`seq` pair. Concurrent
    /// pingers on one host use distinct ids so their replies cannot be
    /// confused even when sequence numbers collide.
    pub fn ping_with(
        &self,
        ctx: &Ctx,
        dst: IpAddr,
        len: usize,
        id: u16,
        seq: u16,
    ) -> XResult<Vec<u8>> {
        let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let sema = SharedSema::new(0);
        let slot: Rc<OwnerCell<Option<Vec<u8>>>> = Rc::new(OwnerCell::new(None));
        self.waiting
            .bind((dst.0, id, seq), (sema.clone(), Rc::clone(&slot)));

        let parts = ParticipantSet::pair(
            Participant::proto(u32::from(ip_proto::ICMP)),
            Participant::host(dst),
        );
        let sess = ctx.kernel_ref().open(ctx, self.lower, self.me, &parts)?;
        let hdr = IcmpHdr {
            ty: TYPE_ECHO_REQUEST,
            id,
            seq,
        };
        sess.push(ctx, hdr.packet(ctx, payload))?;
        let got = sema.p_timeout(ctx, PING_TIMEOUT_NS) || slot.lock().is_some();
        self.waiting.unbind(&(dst.0, id, seq));
        if !got {
            return Err(XError::Timeout(format!("ping {dst} seq {seq}")));
        }
        let data = slot.lock().take();
        data.ok_or_else(|| XError::Timeout(format!("ping {dst} woke without data")))
    }
}

impl Protocol for Icmp {
    fn contract(&self) -> xkernel::lint::ProtoContract {
        crate::contracts::icmp()
    }

    fn name(&self) -> &'static str {
        "icmp"
    }

    fn id(&self) -> ProtoId {
        self.me
    }

    fn boot(&self, ctx: &Ctx) -> XResult<()> {
        let parts = ParticipantSet::local(Participant::proto(u32::from(ip_proto::ICMP)));
        ctx.kernel_ref()
            .open_enable(ctx, self.lower, self.me, &parts)
    }

    fn open(&self, _ctx: &Ctx, _u: ProtoId, _p: &ParticipantSet) -> XResult<SessionRef> {
        Err(XError::Unsupported("icmp: use ping()"))
    }

    fn open_enable(&self, _ctx: &Ctx, _u: ProtoId, _p: &ParticipantSet) -> XResult<()> {
        Err(XError::Unsupported("icmp has no upper protocols"))
    }

    fn demux(&self, ctx: &Ctx, lls: &SessionRef, mut msg: Message) -> XResult<()> {
        let total = msg.len();
        let all = msg.peek(total)?;
        if internet_checksum(&[&all]) != 0 {
            return Err(Reject::Corrupt("icmp checksum").into());
        }
        ctx.charge_class(OpClass::Checksum, total as u64 * ctx.cost().checksum_byte);
        let IcmpHdr { ty, id, seq } = IcmpHdr::decode(&ctx.pop_header(&mut msg, ICMP_HDR_LEN)?)?;
        match ty {
            TYPE_ECHO_REQUEST => {
                let hdr = IcmpHdr {
                    ty: TYPE_ECHO_REPLY,
                    id,
                    seq,
                };
                lls.push(ctx, hdr.packet(ctx, msg.to_vec()))?;
                Ok(())
            }
            TYPE_ECHO_REPLY => {
                let peer = lls.control(ctx, &ControlOp::GetPeerHost)?.ip()?;
                if let Some((sema, slot)) = self.waiting.resolve(&(peer.0, id, seq)) {
                    *slot.lock() = Some(msg.to_vec());
                    sema.v(ctx);
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    fn snap(&self, _ctx: &Ctx) -> Option<SnapBlob> {
        debug_assert!(
            self.waiting.is_empty(),
            "icmp snapshot with parked pingers (not quiescent)"
        );
        Some(Rc::new(self.next_seq.get()))
    }

    fn restore_snap(&self, _ctx: &Ctx, blob: &SnapBlob) -> XResult<()> {
        let s = snap_downcast::<u16>(blob, "icmp")?;
        self.waiting.clear();
        self.next_seq.set(*s);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_packet_checksums() {
        let hdr = IcmpHdr {
            ty: TYPE_ECHO_REQUEST,
            id: 7,
            seq: 9,
        };
        let v = [&hdr.encode(b"abc")[..], b"abc"].concat();
        assert_eq!(internet_checksum(&[&v]), 0);
        assert_eq!(v[0], TYPE_ECHO_REQUEST);
    }
}
