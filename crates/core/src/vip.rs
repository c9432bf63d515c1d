//! The virtual protocols: VIP, VIPADDR, and VIPSIZE.
//!
//! A *virtual protocol* is a header-less protocol that accepts messages from
//! high-level protocols and dynamically multiplexes them onto lower
//! protocols providing approximately the same semantics. It adds no
//! functionality and no header bytes — which is why it can be inserted or
//! deleted freely, and why receives bypass it entirely: `open_enable`
//! propagates the upper protocol *directly* to the lower layers, so the only
//! per-message overhead a virtual protocol ever adds is its send-side test
//! (VIP: "the cost of the single test in VIP push"; VIPADDR: nothing at
//! all).
//!
//! * [`Vip`] presents IP semantics and multiplexes onto ETH and IP. At open
//!   time it asks the invoking protocol for its maximum message size
//!   (`GetMaxMsgSize`) and asks ARP whether the destination answers on the
//!   local wire; it then opens an ETH session, an IP session, or both. Its
//!   push is one length test.
//! * [`VipAddr`] (§4.3) chooses ETH vs IP *at open time only* and returns
//!   the lower session itself rather than one of its own — zero per-message
//!   overhead.
//! * [`VipSize`] (§4.3) chooses between FRAGMENT and the direct path by
//!   message size on every push — this is what lets a layered RPC stack
//!   dynamically delete its own bulk-transfer layer for small messages.
//!
//! IP protocol numbers are mapped into an unused range of Ethernet's 16-bit
//! type space (the paper's observation that the mapping is possible because
//! 256 ≪ 65,536): `eth_type::VIP_BASE + p`.

use std::rc::Rc;

use xkernel::prelude::*;

use inet::eth::{eth_type, ETH_MTU};
use inet::ip::IP_HDR_LEN;

/// Maps an IP protocol number into VIP's reserved Ethernet type range.
pub fn eth_type_for(ip_proto: u32) -> XResult<u32> {
    if ip_proto > 0xff {
        return Err(XError::Config(format!(
            "cannot map protocol number {ip_proto} (> 8 bits) onto an \
             ethernet type — the paper's UDP-under-VIP problem"
        )));
    }
    Ok(u32::from(eth_type::VIP_BASE) + ip_proto)
}

fn proto_of(parts: &ParticipantSet, who: &str) -> XResult<u32> {
    parts
        .local_part()
        .and_then(|p| p.proto_num)
        .ok_or_else(|| XError::Config(format!("{who} needs a protocol number")))
}

fn peer_of(parts: &ParticipantSet, who: &str) -> XResult<IpAddr> {
    parts
        .remote_part()
        .and_then(|p| p.host)
        .ok_or_else(|| XError::Config(format!("{who} needs a peer host")))
}

/// Asks ARP whether `dst` answers on the local wire and returns its
/// hardware address if so.
fn resolve_local(ctx: &Ctx, arp: ProtoId, dst: IpAddr) -> XResult<Option<EthAddr>> {
    match ctx.kernel_ref().control(ctx, arp, &ControlOp::Resolve(dst)) {
        Ok(r) => Ok(Some(r.eth()?)),
        Err(XError::Unreachable(_)) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Opens an ETH session for (mapped) protocol `p` towards `hw`.
fn open_eth(ctx: &Ctx, eth: ProtoId, me: ProtoId, p: u32, hw: EthAddr) -> XResult<SessionRef> {
    let parts = ParticipantSet::pair(
        Participant::proto(eth_type_for(p)?),
        Participant::default().with_eth(hw),
    );
    ctx.kernel_ref().open(ctx, eth, me, &parts)
}

/// Opens an IP session for protocol `p` towards `dst`.
fn open_ip(ctx: &Ctx, ip: ProtoId, me: ProtoId, p: u32, dst: IpAddr) -> XResult<SessionRef> {
    let parts = ParticipantSet::pair(Participant::proto(p), Participant::host(dst));
    ctx.kernel_ref().open(ctx, ip, me, &parts)
}

// ---------------------------------------------------------------------------
// VIP
// ---------------------------------------------------------------------------

/// The VIP protocol object (Virtual IP).
pub struct Vip {
    me: ProtoId,
    ip: ProtoId,
    eth: ProtoId,
    arp: ProtoId,
}

impl Vip {
    /// Creates VIP over `ip` and `eth`, using `arp` as the locality oracle.
    pub fn new(me: ProtoId, ip: ProtoId, eth: ProtoId, arp: ProtoId) -> Rc<Vip> {
        Rc::new(Vip { me, ip, eth, arp })
    }
}

/// A VIP session: at most one ETH and one IP session under it; push is a
/// single length test.
pub struct VipSession {
    proto: ProtoId,
    peer: IpAddr,
    my_ip: IpAddr,
    eth_sess: Option<SessionRef>,
    ip_sess: Option<SessionRef>,
    eth_mtu: usize,
}

impl Session for VipSession {
    fn protocol_id(&self) -> ProtoId {
        self.proto
    }

    fn push(&self, ctx: &Ctx, msg: Message) -> XResult<Option<Message>> {
        // The whole per-message cost of VIP: one call, one length test with
        // its session dispatch.
        ctx.charge_class(OpClass::LayerCall, ctx.cost().layer_call);
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup / 2);
        match (&self.eth_sess, &self.ip_sess) {
            (Some(eth), _) if msg.len() <= self.eth_mtu => eth.push(ctx, msg),
            (_, Some(ip)) => ip.push(ctx, msg),
            (Some(eth), None) => eth.push(ctx, msg),
            (None, None) => Err(XError::Config("vip session with no lower".into())),
        }
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetPeerHost => Ok(ControlRes::Ip(self.peer)),
            ControlOp::GetMyHost => Ok(ControlRes::Ip(self.my_ip)),
            ControlOp::GetOptPacket => match (&self.eth_sess, &self.ip_sess) {
                // Local-only: full Ethernet MTU is fragmentation-free.
                (Some(_), None) => Ok(ControlRes::Size(self.eth_mtu)),
                // IP may be used: stay under its fragmentation threshold.
                _ => Ok(ControlRes::Size((self.eth_mtu - IP_HDR_LEN) & !7)),
            },
            ControlOp::GetMaxPacket => match &self.ip_sess {
                Some(ip) => ip.control(ctx, op),
                None => Ok(ControlRes::Size(self.eth_mtu)),
            },
            ControlOp::GetFragCount(n) => {
                let opt = self.control(ctx, &ControlOp::GetOptPacket)?.size()?;
                Ok(ControlRes::Size(n.max(&1).div_ceil(opt)))
            }
            _ => Err(XError::Unsupported("vip session control")),
        }
    }
}

impl Protocol for Vip {
    fn contract(&self) -> xkernel::lint::ProtoContract {
        crate::contracts::vip()
    }

    fn name(&self) -> &'static str {
        "vip"
    }

    fn id(&self) -> ProtoId {
        self.me
    }

    fn open(&self, ctx: &Ctx, upper: ProtoId, parts: &ParticipantSet) -> XResult<SessionRef> {
        let p = proto_of(parts, "vip open")?;
        let dst = peer_of(parts, "vip open")?;
        // Ask the invoking protocol how big its messages can get.
        let max_msg = ctx
            .kernel_ref()
            .control(ctx, upper, &ControlOp::GetMaxMsgSize)
            .and_then(|r| r.size())
            .unwrap_or(usize::MAX);
        // Ask ARP whether the destination is on our Ethernet.
        let local = resolve_local(ctx, self.arp, dst)?;
        let my_ip = ctx
            .kernel_ref()
            .control(ctx, self.ip, &ControlOp::GetMyHost)?
            .ip()?;

        ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
        let (eth_sess, ip_sess) = match local {
            Some(hw) if max_msg <= ETH_MTU => {
                (Some(open_eth(ctx, self.eth, self.me, p, hw)?), None)
            }
            Some(hw) => (
                // Local but possibly-large messages: open both; push picks.
                Some(open_eth(ctx, self.eth, self.me, p, hw)?),
                Some(open_ip(ctx, self.ip, self.me, p, dst)?),
            ),
            None => (None, Some(open_ip(ctx, self.ip, self.me, p, dst)?)),
        };
        ctx.trace_note(match (eth_sess.is_some(), ip_sess.is_some()) {
            (true, true) => "open: eth=true ip=true",
            (true, false) => "open: eth=true ip=false",
            (false, true) => "open: eth=false ip=true",
            (false, false) => "open: eth=false ip=false",
        });
        Ok(Rc::new(VipSession {
            proto: self.me,
            peer: dst,
            my_ip,
            eth_sess,
            ip_sess,
            eth_mtu: ETH_MTU,
        }))
    }

    /// Header-less: the enable propagates the *upper* protocol directly to
    /// both lower layers, so received messages never touch VIP at all.
    fn open_enable(&self, ctx: &Ctx, upper: ProtoId, parts: &ParticipantSet) -> XResult<()> {
        let p = proto_of(parts, "vip enable")?;
        let kernel = ctx.kernel_ref();
        kernel.open_enable(
            ctx,
            self.eth,
            upper,
            &ParticipantSet::local(Participant::proto(eth_type_for(p)?)),
        )?;
        kernel.open_enable(
            ctx,
            self.ip,
            upper,
            &ParticipantSet::local(Participant::proto(p)),
        )
    }

    fn demux(&self, _ctx: &Ctx, _lls: &SessionRef, _msg: Message) -> XResult<()> {
        Err(XError::Unsupported(
            "vip is header-less: receives bypass it by construction",
        ))
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetMyHost => ctx.kernel_ref().control(ctx, self.ip, op),
            // Conservative: a session might use the IP path.
            ControlOp::GetOptPacket => Ok(ControlRes::Size((ETH_MTU - IP_HDR_LEN) & !7)),
            ControlOp::GetMaxPacket => ctx.kernel_ref().control(ctx, self.ip, op),
            _ => Err(XError::Unsupported("vip control")),
        }
    }
}

// ---------------------------------------------------------------------------
// VIPADDR
// ---------------------------------------------------------------------------

/// VIPADDR: open-time-only selection between ETH and IP. Returns the lower
/// session itself, so it adds zero per-message overhead.
pub struct VipAddr {
    me: ProtoId,
    ip: ProtoId,
    eth: ProtoId,
    arp: ProtoId,
}

impl VipAddr {
    /// Creates VIPADDR over `ip` and `eth`, with `arp` as locality oracle.
    pub fn new(me: ProtoId, ip: ProtoId, eth: ProtoId, arp: ProtoId) -> Rc<VipAddr> {
        Rc::new(VipAddr { me, ip, eth, arp })
    }
}

impl Protocol for VipAddr {
    fn contract(&self) -> xkernel::lint::ProtoContract {
        crate::contracts::vipaddr()
    }

    fn name(&self) -> &'static str {
        "vipaddr"
    }

    fn id(&self) -> ProtoId {
        self.me
    }

    fn open(&self, ctx: &Ctx, _upper: ProtoId, parts: &ParticipantSet) -> XResult<SessionRef> {
        let p = proto_of(parts, "vipaddr open")?;
        let dst = peer_of(parts, "vipaddr open")?;
        match resolve_local(ctx, self.arp, dst)? {
            Some(hw) => {
                ctx.trace_note("open: local raw ethernet");
                open_eth(ctx, self.eth, self.me, p, hw)
            }
            None => {
                ctx.trace_note("open: remote ip");
                open_ip(ctx, self.ip, self.me, p, dst)
            }
        }
    }

    fn open_enable(&self, ctx: &Ctx, upper: ProtoId, parts: &ParticipantSet) -> XResult<()> {
        let p = proto_of(parts, "vipaddr enable")?;
        let kernel = ctx.kernel_ref();
        kernel.open_enable(
            ctx,
            self.eth,
            upper,
            &ParticipantSet::local(Participant::proto(eth_type_for(p)?)),
        )?;
        kernel.open_enable(
            ctx,
            self.ip,
            upper,
            &ParticipantSet::local(Participant::proto(p)),
        )
    }

    fn demux(&self, _ctx: &Ctx, _lls: &SessionRef, _msg: Message) -> XResult<()> {
        Err(XError::Unsupported("vipaddr never sees messages"))
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetMyHost => ctx.kernel_ref().control(ctx, self.ip, op),
            ControlOp::GetOptPacket => Ok(ControlRes::Size((ETH_MTU - IP_HDR_LEN) & !7)),
            ControlOp::GetMaxPacket => ctx.kernel_ref().control(ctx, self.ip, op),
            _ => Err(XError::Unsupported("vipaddr control")),
        }
    }
}

// ---------------------------------------------------------------------------
// VIPSIZE
// ---------------------------------------------------------------------------

/// VIPSIZE: per-push selection between FRAGMENT (large messages) and the
/// direct path (small messages) — §4.3's "dynamically removing layers".
pub struct VipSize {
    me: ProtoId,
    fragment: ProtoId,
    direct: ProtoId,
}

impl VipSize {
    /// Creates VIPSIZE selecting between `fragment` and `direct` (usually
    /// VIPADDR).
    pub fn new(me: ProtoId, fragment: ProtoId, direct: ProtoId) -> Rc<VipSize> {
        Rc::new(VipSize {
            me,
            fragment,
            direct,
        })
    }
}

/// A VIPSIZE session: one FRAGMENT session, one direct session, and a
/// threshold; push is a single length test.
pub struct VipSizeSession {
    proto: ProtoId,
    peer: IpAddr,
    frag: SessionRef,
    direct: SessionRef,
    threshold: usize,
}

impl Session for VipSizeSession {
    fn protocol_id(&self) -> ProtoId {
        self.proto
    }

    fn push(&self, ctx: &Ctx, msg: Message) -> XResult<Option<Message>> {
        ctx.charge_layer_call(); // The single size test.
        if msg.len() <= self.threshold {
            self.direct.push(ctx, msg)
        } else {
            self.frag.push(ctx, msg)
        }
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetPeerHost => Ok(ControlRes::Ip(self.peer)),
            ControlOp::GetOptPacket => Ok(ControlRes::Size(self.threshold)),
            ControlOp::GetMaxPacket => self.frag.control(ctx, op),
            ControlOp::GetFragCount(n) => {
                if *n <= self.threshold {
                    Ok(ControlRes::Size(1))
                } else {
                    self.frag.control(ctx, op)
                }
            }
            other => self.direct.control(ctx, other),
        }
    }
}

impl Protocol for VipSize {
    fn contract(&self) -> xkernel::lint::ProtoContract {
        crate::contracts::vipsize()
    }

    fn name(&self) -> &'static str {
        "vipsize"
    }

    fn id(&self) -> ProtoId {
        self.me
    }

    fn open(&self, ctx: &Ctx, _upper: ProtoId, parts: &ParticipantSet) -> XResult<SessionRef> {
        let p = proto_of(parts, "vipsize open")?;
        let dst = peer_of(parts, "vipsize open")?;
        let fparts = ParticipantSet::pair(Participant::proto(p), Participant::host(dst));
        let frag = ctx
            .kernel_ref()
            .open(ctx, self.fragment, self.me, &fparts)?;
        let direct = ctx.kernel_ref().open(ctx, self.direct, self.me, &fparts)?;
        let threshold = direct
            .control(ctx, &ControlOp::GetOptPacket)
            .and_then(|r| r.size())
            .unwrap_or(ETH_MTU);
        ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
        ctx.trace_note("open: size-selected");
        Ok(Rc::new(VipSizeSession {
            proto: self.me,
            peer: dst,
            frag,
            direct,
            threshold,
        }))
    }

    fn open_enable(&self, ctx: &Ctx, upper: ProtoId, parts: &ParticipantSet) -> XResult<()> {
        let p = proto_of(parts, "vipsize enable")?;
        let kernel = ctx.kernel_ref();
        // Large messages arrive assembled from FRAGMENT; small ones arrive
        // straight off the direct path. Both bypass VIPSIZE.
        kernel.open_enable(
            ctx,
            self.fragment,
            upper,
            &ParticipantSet::local(Participant::proto(p)),
        )?;
        kernel.open_enable(
            ctx,
            self.direct,
            upper,
            &ParticipantSet::local(Participant::proto(p)),
        )
    }

    fn demux(&self, _ctx: &Ctx, _lls: &SessionRef, _msg: Message) -> XResult<()> {
        Err(XError::Unsupported("vipsize never sees received messages"))
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetMyHost => ctx.kernel_ref().control(ctx, self.direct, op),
            ControlOp::GetOptPacket => ctx.kernel_ref().control(ctx, self.direct, op),
            ControlOp::GetMaxPacket => ctx.kernel_ref().control(ctx, self.fragment, op),
            _ => Err(XError::Unsupported("vipsize control")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eth_type_mapping_bounds() {
        assert_eq!(eth_type_for(0).unwrap(), u32::from(eth_type::VIP_BASE));
        assert_eq!(
            eth_type_for(255).unwrap(),
            u32::from(eth_type::VIP_BASE) + 255
        );
        // The paper's UDP problem: port pairs don't fit in 8 bits.
        assert!(eth_type_for(0x1_0000).is_err());
        assert!(eth_type_for(256).is_err());
    }
}
