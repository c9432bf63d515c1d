//! ETH — the Ethernet framing protocol.
//!
//! Sits directly above a [`simnet::Nic`]. 14-byte header (destination,
//! source, 16-bit type), demultiplexing on the type field. The paper leans
//! on Ethernet's 16-bit type space ("the ethernet supports 65,536 high-level
//! protocols") — VIP maps 8-bit IP protocol numbers into an unused range of
//! it, and RPC protocols configured directly over ETH claim types of their
//! own.

use std::cell::OnceCell;
use std::rc::Rc;

use xkernel::prelude::*;

/// Ethernet payload MTU.
pub const ETH_MTU: usize = 1500;

/// Well-known Ethernet types used in this suite.
pub mod eth_type {
    /// Internet Protocol.
    pub const IP: u16 = 0x0800;
    /// Address Resolution Protocol.
    pub const ARP: u16 = 0x0806;
    /// Base of the range VIP maps 8-bit IP protocol numbers onto.
    pub const VIP_BASE: u16 = 0x3900;
    /// Monolithic Sprite RPC directly on the wire.
    pub const SPRITE_RPC: u16 = 0x3e00;
}

wire_header! {
    /// The Ethernet II header.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct EthHdr: ETH_HDR_LEN, "eth" {
        /// Destination hardware address.
        pub dst: EthAddr,
        /// Source hardware address.
        pub src: EthAddr,
        /// Type of the payload (see [`eth_type`]).
        pub ty: u16,
    }
}

/// The ETH protocol object.
pub struct Eth {
    me: ProtoId,
    nic: ProtoId,
    my_eth: OnceCell<EthAddr>,
    nic_sess: OnceCell<SessionRef>,
    enables: EnableMap<u16>,
    // Cached sessions for the upward path, keyed (peer, type): the paper's
    // "cache open sessions" efficiency rule.
    passive: SessionMap<(EthAddr, u16)>,
}

impl Eth {
    /// Creates an ETH protocol above NIC `nic`.
    pub fn new(me: ProtoId, nic: ProtoId) -> Rc<Eth> {
        Rc::new(Eth {
            me,
            nic,
            my_eth: OnceCell::new(),
            nic_sess: OnceCell::new(),
            enables: EnableMap::new(),
            passive: SessionMap::new(),
        })
    }

    /// This host's hardware address (available after boot).
    pub fn my_eth(&self) -> EthAddr {
        *self.my_eth.get().expect("eth booted")
    }

    fn nic_session(&self) -> XResult<&SessionRef> {
        self.nic_sess
            .get()
            .ok_or_else(|| XError::Config("eth used before boot".into()))
    }

    fn type_of(parts: &ParticipantSet) -> XResult<u16> {
        parts
            .local_part()
            .and_then(|p| p.proto_num)
            .map(|n| n as u16)
            .ok_or_else(|| XError::Config("eth open needs a type number".into()))
    }

    fn make_session(&self, dst: EthAddr, ty: u16) -> XResult<SessionRef> {
        Ok(Rc::new(EthSession {
            proto: self.me,
            dst,
            src: self.my_eth(),
            ty,
            nic: Rc::clone(self.nic_session()?),
        }))
    }
}

/// An ETH session: one (peer, type) conversation.
pub struct EthSession {
    proto: ProtoId,
    dst: EthAddr,
    src: EthAddr,
    ty: u16,
    nic: SessionRef,
}

impl Session for EthSession {
    fn protocol_id(&self) -> ProtoId {
        self.proto
    }

    fn push(&self, ctx: &Ctx, mut msg: Message) -> XResult<Option<Message>> {
        let size = msg.len();
        if size > ETH_MTU {
            return Err(XError::TooBig { size, max: ETH_MTU });
        }
        let hdr = EthHdr {
            dst: self.dst,
            src: self.src,
            ty: self.ty,
        };
        ctx.push_header(&mut msg, &hdr.encode());
        ctx.charge_layer_call();
        self.nic.push(ctx, msg)
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetMaxPacket | ControlOp::GetOptPacket => Ok(ControlRes::Size(ETH_MTU)),
            ControlOp::GetMyEth => Ok(ControlRes::Eth(self.src)),
            ControlOp::GetMyProto => Ok(ControlRes::U32(u32::from(self.ty))),
            // Peer identity for upper protocols keying session tables when
            // a headerless virtual protocol delivered straight from ETH.
            ControlOp::Custom("peer-eth", _) => Ok(ControlRes::Eth(self.dst)),
            other => self.nic.control(ctx, other),
        }
    }
}

impl Protocol for Eth {
    fn id(&self) -> ProtoId {
        self.me
    }

    fn keeps(&self, k: &mut Keep<'_>) {
        k.config(&self.enables);
        k.sessions(&self.passive);
    }

    fn boot(&self, ctx: &Ctx) -> XResult<()> {
        let kernel = ctx.kernel_ref();
        let sess = kernel.open(ctx, self.nic, self.me, &ParticipantSet::new())?;
        let my = sess.control(ctx, &ControlOp::GetMyEth)?.eth()?;
        self.my_eth
            .set(my)
            .map_err(|_| XError::Config("eth double boot".into()))?;
        self.nic_sess
            .set(sess)
            .map_err(|_| XError::Config("eth double boot".into()))?;
        kernel.open_enable(ctx, self.nic, self.me, &ParticipantSet::new())?;
        Ok(())
    }

    fn open(&self, ctx: &Ctx, _upper: ProtoId, parts: &ParticipantSet) -> XResult<SessionRef> {
        let ty = Self::type_of(parts)?;
        let dst = parts
            .remote_part()
            .and_then(|p| p.eth)
            .ok_or_else(|| XError::Config("eth open needs a peer hardware address".into()))?;
        ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
        self.make_session(dst, ty)
    }

    fn open_enable(&self, _ctx: &Ctx, upper: ProtoId, parts: &ParticipantSet) -> XResult<()> {
        let ty = Self::type_of(parts)?;
        self.enables.bind(ty, upper);
        Ok(())
    }

    fn open_disable(&self, _ctx: &Ctx, upper: ProtoId, parts: &ParticipantSet) -> XResult<()> {
        let ty = Self::type_of(parts)?;
        self.enables.unbind_if(&ty, |bound| *bound == upper);
        Ok(())
    }

    fn demux(&self, ctx: &Ctx, _lls: &SessionRef, mut msg: Message) -> XResult<()> {
        let EthHdr { src, ty, .. } = EthHdr::decode(&ctx.pop_header(&mut msg, ETH_HDR_LEN)?)?;
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup);
        let upper = *self
            .enables
            .resolve(&ty)
            .ok_or(Reject::NoEnable("eth type"))?;
        let sess = self.passive.resolve_or_insert_with((src, ty), || {
            ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
            self.make_session(src, ty)
        })?;
        ctx.kernel_ref().demux_to(ctx, upper, &sess, msg)
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetMaxPacket | ControlOp::GetOptPacket => Ok(ControlRes::Size(ETH_MTU)),
            ControlOp::GetMyEth => Ok(ControlRes::Eth(self.my_eth())),
            _ => {
                let _ = ctx;
                Err(XError::Unsupported("eth control"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_constants_do_not_collide() {
        assert_ne!(eth_type::IP, eth_type::ARP);
        // VIP's mapped range [VIP_BASE, VIP_BASE+256) stays clear of the
        // other types used in the suite.
        for t in [eth_type::IP, eth_type::ARP, eth_type::SPRITE_RPC] {
            assert!(!(eth_type::VIP_BASE..eth_type::VIP_BASE + 256).contains(&t));
        }
    }
}
