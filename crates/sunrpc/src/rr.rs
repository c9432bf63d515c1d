//! REQUEST_REPLY — Sun RPC's transaction layer, with *zero-or-more*
//! execution semantics.
//!
//! The client stamps each call with a transaction id (xid), retransmits on
//! timeout, and accepts the first matching reply. The server is stateless:
//! it executes every call it receives — so a retransmitted request can
//! execute **more than once** (and a lost one, zero times). This is exactly
//! the semantic contrast the paper's Mix-and-Match discussion draws: "one
//! can replace the REQUEST_REPLY protocol (which has zero or more
//! semantics) with the CHANNEL protocol (which has at most once semantics)"
//! — the two are interchangeable under SUN_SELECT because both are
//! request/reply transaction layers with the same interface.
//!
//! Header (XDR): xid, message type (0 = call, 1 = reply), protocol number.

use std::cell::Cell;
use std::rc::{Rc, Weak};

use xkernel::cell::OwnerCell;

use xkernel::map::MixMap;
use xkernel::prelude::*;
use xkernel::shepherd::{ShepherdConfig, ShepherdStats, Shepherds};
use xkernel::sim::Nanos;

use xrpc::protnum::num_over;
use xrpc::txn::{self, Poll, RtoPolicy};

const MSG_CALL: u32 = 0;
const MSG_REPLY: u32 = 1;

/// The well-known UDP port used when REQUEST_REPLY is composed over UDP.
pub const RR_UDP_PORT: Port = 111;

/// Retransmission timeout, and the cold seed of the adaptive RTO
/// ([`xrpc::txn::RtoPolicy`]) that takes over once replies have been timed.
pub const TIMEOUT_NS: Nanos = 150_000_000;
/// Retransmissions before a call gives up.
pub const MAX_RETRIES: u32 = 6;

wire_header! {
    /// The REQUEST_REPLY header: three XDR unsigned integers.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct RrHdr: RR_HDR_LEN, "request_reply" {
        /// Transaction id, echoed by the reply.
        pub xid: u32,
        /// Call (0) or reply (1).
        pub mtype: u32,
        /// The protocol above that the message belongs to.
        pub proto_num: u32,
    }
}

struct Out {
    sema: SharedSema,
    reply: Option<Message>,
}

/// The REQUEST_REPLY protocol object.
pub struct RequestReply {
    weak_self: Weak<RequestReply>,
    me: ProtoId,
    lower: ProtoId,
    next_xid: Cell<u32>,
    rto: RtoPolicy,
    enables: EnableMap<u32>,
    outstanding: OwnerCell<MixMap<u32, Out>>,
    sessions: SessionMap<(u32, u32)>,
    lowers: SessionMap<u32>,
    shepherds: Rc<Shepherds>,
}

impl RequestReply {
    /// Creates REQUEST_REPLY above `lower` (UDP, IP, VIP, or FRAGMENT) with
    /// the server-side shepherd pool `shepherds` (workers == 0 keeps
    /// dispatch synchronous). REQUEST_REPLY is zero-or-more, so both
    /// overload policies behave as a drop: the client's retransmission
    /// machinery recovers.
    pub fn new(me: ProtoId, lower: ProtoId, shepherds: ShepherdConfig) -> Rc<RequestReply> {
        Rc::new_cyclic(|weak_self| RequestReply {
            weak_self: weak_self.clone(),
            me,
            lower,
            next_xid: Cell::new(0),
            rto: RtoPolicy::new(TIMEOUT_NS, true),
            enables: EnableMap::new(),
            outstanding: OwnerCell::new(MixMap::default()),
            sessions: SessionMap::new(),
            lowers: SessionMap::new(),
            shepherds: Shepherds::new(shepherds),
        })
    }

    fn self_rc(&self) -> Rc<RequestReply> {
        self.weak_self.upgrade().expect("request_reply alive")
    }

    /// Shepherd-pool counters (zeros while the pool is disabled).
    pub fn shepherd_stats(&self) -> ShepherdStats {
        self.shepherds.stats()
    }

    /// The retransmission-timeout policy: its run-time knobs and its RTT
    /// estimate (all re-seeded on reboot).
    pub fn rto(&self) -> &RtoPolicy {
        &self.rto
    }

    /// Transactions holding a slot in the table right now: calls in flight.
    /// At idle it is 0 — a call that gave up released its slot on the way
    /// out ([`txn::transact`]'s `release`).
    pub fn outstanding(&self) -> usize {
        self.outstanding.lock().len()
    }

    fn lower_parts(&self, kernel: &Kernel, peer: Option<IpAddr>) -> XResult<ParticipantSet> {
        if kernel.space_of(self.lower)? == "udp" {
            let local = Participant::default().with_port(RR_UDP_PORT);
            return Ok(match peer {
                None => ParticipantSet::local(local),
                Some(p) => ParticipantSet::pair(local, Participant::host_port(p, RR_UDP_PORT)),
            });
        }
        let local = Participant::proto(num_over(kernel, self.me, self.lower)?);
        Ok(match peer {
            None => ParticipantSet::local(local),
            Some(p) => ParticipantSet::pair(local, Participant::host(p)),
        })
    }

    fn lower_for(&self, ctx: &Ctx, peer: IpAddr) -> XResult<SessionRef> {
        self.lowers.resolve_or_open(peer.0, || {
            let kernel = ctx.kernel_ref();
            let parts = self.lower_parts(kernel, Some(peer))?;
            kernel.open(ctx, self.lower, self.me, &parts)
        })
    }

    /// One transaction: send, await the first matching reply, retransmit on
    /// timeout. Zero-or-more: no duplicate suppression anywhere.
    fn transact(&self, ctx: &Ctx, peer: IpAddr, proto_num: u32, msg: Message) -> XResult<Message> {
        let lower = self.lower_for(ctx, peer)?;
        let xid = self.next_xid.bump();
        let sema = SharedSema::new(0);
        self.outstanding.lock().insert(
            xid,
            Out {
                sema: sema.clone(),
                reply: None,
            },
        );
        let hdr = RrHdr {
            xid,
            mtype: MSG_CALL,
            proto_num,
        }
        .encode();
        let rto = self.rto.for_call(0);
        let sent_at = ctx.now();
        let (reply, attempts) = txn::transact(
            ctx,
            &sema,
            MAX_RETRIES,
            format_args!("request_reply xid {xid} to {peer}"),
            |attempt| rto.timeout(ctx, attempt),
            |_| {
                let mut wire = msg.clone();
                ctx.push_header(&mut wire, &hdr);
                ctx.charge_layer_call();
                lower.push(ctx, wire).map(drop)
            },
            || {
                let mut out = self.outstanding.lock();
                match out.get_mut(&xid).and_then(|o| o.reply.take()) {
                    Some(reply) => {
                        out.remove(&xid);
                        Poll::Done(reply)
                    }
                    None => Poll::Timeout,
                }
            },
            // A late reply for this xid must find nothing.
            || drop(self.outstanding.lock().remove(&xid)),
        )?;
        self.rto
            .observe(attempts, ctx.now().saturating_sub(sent_at));
        Ok(reply)
    }
}

/// A client session towards one (peer, high-level protocol); stateless, so
/// concurrent pushes are fine (each gets its own xid).
pub struct RrClientSession {
    parent: Rc<RequestReply>,
    peer: IpAddr,
    proto_num: u32,
}

impl Session for RrClientSession {
    fn protocol_id(&self) -> ProtoId {
        self.parent.me
    }

    fn push(&self, ctx: &Ctx, msg: Message) -> XResult<Option<Message>> {
        self.parent
            .transact(ctx, self.peer, self.proto_num, msg)
            .map(Some)
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetPeerHost => Ok(ControlRes::Ip(self.peer)),
            other => match self.parent.rto.control(other) {
                Some(res) => Ok(res),
                None => {
                    let lower = self.parent.lower_for(ctx, self.peer)?;
                    lower.control(ctx, other)
                }
            },
        }
    }
}

/// A per-request server session: pushing into it sends the reply for the
/// request it was created for.
pub struct RrServerSession {
    parent: Rc<RequestReply>,
    xid: u32,
    proto_num: u32,
    lls: SessionRef,
}

impl Session for RrServerSession {
    fn protocol_id(&self) -> ProtoId {
        self.parent.me
    }

    fn push(&self, ctx: &Ctx, msg: Message) -> XResult<Option<Message>> {
        let hdr = RrHdr {
            xid: self.xid,
            mtype: MSG_REPLY,
            proto_num: self.proto_num,
        };
        let mut wire = msg;
        ctx.push_header(&mut wire, &hdr.encode());
        ctx.charge_layer_call();
        self.lls.push(ctx, wire)?;
        Ok(None)
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        self.lls.control(ctx, op)
    }
}

impl Protocol for RequestReply {
    fn id(&self) -> ProtoId {
        self.me
    }

    fn boot(&self, ctx: &Ctx) -> XResult<()> {
        let kernel = ctx.kernel_ref();
        let parts = self.lower_parts(kernel, None)?;
        kernel.open_enable(ctx, self.lower, self.me, &parts)
    }

    fn reboot(&self, _ctx: &Ctx) -> XResult<()> {
        // A cold RTO; the xid counter survives.
        self.rto.reseed();
        Ok(())
    }

    fn keeps(&self, k: &mut Keep<'_>) {
        k.config(&self.enables);
        k.sessions(&self.sessions);
        k.sessions(&self.lowers);
        k.values(&self.next_xid);
        k.values(&self.rto);
        k.values(&self.shepherds);
        k.scratch(&self.outstanding);
    }

    fn open(&self, ctx: &Ctx, _upper: ProtoId, parts: &ParticipantSet) -> XResult<SessionRef> {
        let proto_num = parts
            .local_part()
            .and_then(|p| p.proto_num)
            .ok_or_else(|| XError::Config("request_reply open needs a protocol number".into()))?;
        let peer = parts
            .remote_part()
            .and_then(|p| p.host)
            .ok_or_else(|| XError::Config("request_reply open needs a peer host".into()))?;
        self.sessions
            .resolve_or_insert_with((peer.0, proto_num), || {
                ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
                Ok(Rc::new(RrClientSession {
                    parent: self.self_rc(),
                    peer,
                    proto_num,
                }) as SessionRef)
            })
    }

    fn open_enable(&self, _ctx: &Ctx, upper: ProtoId, parts: &ParticipantSet) -> XResult<()> {
        let proto_num = parts
            .local_part()
            .and_then(|p| p.proto_num)
            .ok_or_else(|| XError::Config("request_reply enable needs a protocol number".into()))?;
        self.enables.bind(proto_num, upper);
        Ok(())
    }

    fn demux(&self, ctx: &Ctx, lls: &SessionRef, mut msg: Message) -> XResult<()> {
        let RrHdr {
            xid,
            mtype,
            proto_num,
        } = RrHdr::decode(&ctx.pop_header(&mut msg, RR_HDR_LEN)?)?;
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup);
        match mtype {
            MSG_CALL => {
                let upper = *self
                    .enables
                    .resolve(&proto_num)
                    .ok_or(Reject::NoEnable("request_reply protocol number"))?;
                ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
                let sess: SessionRef = Rc::new(RrServerSession {
                    parent: self.self_rc(),
                    xid,
                    proto_num,
                    lls: Rc::clone(lls),
                });
                let work = move |jctx: &Ctx| jctx.kernel_ref().demux_to(jctx, upper, &sess, msg);
                // Zero-or-more semantics: an overloaded call is simply not
                // executed; the client retransmits under the same xid, so
                // at-most-once is the caller's concern, not ours.
                self.shepherds.dispatch(ctx, work).map(drop)
            }
            MSG_REPLY => {
                let mut out = self.outstanding.lock();
                if let Some(o) = out.get_mut(&xid) {
                    if o.reply.is_none() {
                        o.reply = Some(msg);
                        let sema = o.sema.clone();
                        drop(out);
                        sema.v(ctx);
                    }
                }
                // Unknown xid: a reply to a transaction we gave up on, or a
                // duplicate — zero-or-more semantics, just drop it.
                Ok(())
            }
            _ => Err(Reject::Corrupt("unknown request_reply mtype").into()),
        }
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetMaxMsgSize => Ok(ControlRes::Size(1500)),
            ControlOp::GetMaxPacket => {
                let r = ctx
                    .kernel_ref()
                    .control(ctx, self.lower, &ControlOp::GetMaxPacket)?;
                Ok(ControlRes::Size(r.size()?.saturating_sub(RR_HDR_LEN)))
            }
            other => self
                .rto
                .control(other)
                .ok_or(XError::Unsupported("request_reply control")),
        }
    }
}
