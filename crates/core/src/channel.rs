//! CHANNEL — request/reply transactions with at-most-once semantics.
//!
//! The middle layer of the layered Sprite RPC decomposition. Each channel is
//! a separate session; a high-level protocol pushes a request into it and
//! the reply message is returned from `push`. The algorithm is Sprite's
//! (implicit acknowledgement, after Birrell & Nelson):
//!
//! * the receipt of a reply acknowledges the request;
//! * the receipt of a new request on a channel acknowledges the previous
//!   reply (the server may then discard its saved copy);
//! * a retransmitted request for work in progress elicits an explicit ACK
//!   so the client stops resending;
//! * a retransmitted request matching the last completed sequence number
//!   elicits a retransmission of the saved reply;
//! * boot ids detect peer reincarnation and reset sequence state.
//!
//! CHANNEL's timeout is the paper's *step function*: for single-fragment
//! messages it is short, while for multi-fragment messages it asks the layer
//! below (`GetFragCount`) and waits "long enough to be sure that the
//! fragmentation layer is not in the middle of transmitting the message".

use std::cell::{Cell, OnceCell};
use std::rc::{Rc, Weak};

use xkernel::cell::OwnerCell;

use xkernel::map::EnableSnapshot;
use xkernel::prelude::*;

use crate::hdr::{flags, ChannelHdr, CHANNEL_HDR_LEN};
use crate::protnum::{peer_key, rel_proto_num, PeerKey};
use crate::txn::{self, Arrival, AtMostOnce, Incarnation, Poll, RtoPolicy, RtoSnap};

struct Outstanding {
    seq: u32,
    sema: SharedSema,
    reply: Option<Result<Message, u16>>,
    acked: bool,
}

struct ClientState {
    seq: u32,
    outstanding: Option<Outstanding>,
}

/// A client channel: one outstanding RPC at a time.
pub struct ChanClientSession {
    parent: Rc<Channel>,
    chan: u16,
    proto_num: u32,
    peer: IpAddr,
    lower: SessionRef,
    st: OwnerCell<ClientState>,
}

impl Session for ChanClientSession {
    fn protocol_id(&self) -> ProtoId {
        self.parent.me
    }

    fn push(&self, ctx: &Ctx, msg: Message) -> XResult<Option<Message>> {
        let sent_at = ctx.now();
        let (seq, sema) = {
            let mut st = self.st.lock();
            if st.outstanding.is_some() {
                return Err(XError::Config(format!(
                    "channel {} already has an outstanding request",
                    self.chan
                )));
            }
            st.seq = st.seq.wrapping_add(1);
            let sema = SharedSema::new(0);
            st.outstanding = Some(Outstanding {
                seq: st.seq,
                sema: sema.clone(),
                reply: None,
                acked: false,
            });
            (st.seq, sema)
        };

        let mut hdr = ChannelHdr {
            flags: flags::REQUEST,
            channel: self.chan,
            protocol_num: self.proto_num,
            sequence_num: seq,
            error: 0,
            boot_id: self.parent.boot_id(),
        };
        // The size-dependent half of the paper's step function: ask the
        // layer below how many fragments this message becomes.
        let frags = self
            .lower
            .control(ctx, &ControlOp::GetFragCount(msg.len() + CHANNEL_HDR_LEN))
            .and_then(|r| r.size())
            .unwrap_or(1);
        let rto = self.parent.rto.for_call(txn::frag_allowance(frags));
        let (reply, attempts) = txn::transact(
            ctx,
            &sema,
            txn::MAX_RETRIES,
            format_args!("channel {} request {seq} to {}", self.chan, self.peer),
            |attempt| rto.timeout(ctx, attempt),
            |attempt| {
                if attempt > 0 {
                    // Retransmission: ask for an explicit ack so a busy
                    // server can quiet us down.
                    hdr.flags = flags::REQUEST | flags::PLEASE_ACK;
                }
                let mut wire = msg.clone();
                ctx.push_header(&mut wire, &hdr.encode());
                ctx.charge_layer_call();
                self.lower.push(ctx, wire).map(drop)
            },
            || {
                let mut st = self.st.lock();
                let out = st
                    .outstanding
                    .as_mut()
                    .expect("outstanding present until we clear it");
                if let Some(reply) = out.reply.take() {
                    st.outstanding = None;
                    Poll::Done(reply)
                } else if std::mem::take(&mut out.acked) {
                    Poll::Rearm
                } else {
                    Poll::Timeout
                }
            },
            || self.st.lock().outstanding = None,
        )?;
        match reply {
            Ok(reply) => {
                self.parent
                    .rto
                    .observe(attempts, ctx.now().saturating_sub(sent_at));
                Ok(Some(reply))
            }
            Err(code) => Err(XError::Remote(format!(
                "channel {} request {seq}: server error {code}",
                self.chan
            ))),
        }
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetPeerHost => Ok(ControlRes::Ip(self.peer)),
            ControlOp::GetMyBootId => Ok(ControlRes::U32(self.parent.boot_id())),
            ControlOp::GetPeerBootId => Ok(ControlRes::U32(self.parent.peer_boot.get())),
            other => match self.parent.rto.control(other) {
                Some(res) => Ok(res),
                None => self.lower.control(ctx, other),
            },
        }
    }
}

#[derive(Clone)]
struct ServerState {
    // The lower session replies travel down on; refreshed on each request
    // so replies follow the path the latest request arrived by.
    lls: SessionRef,
    record: AtMostOnce,
    // The encoded reply to `record`'s answered request, kept until the next
    // request on this channel implicitly acknowledges it.
    saved_reply: Option<Message>,
}

/// A server channel: tracks at-most-once state for one (peer, channel).
pub struct ChanServerSession {
    parent: Rc<Channel>,
    chan: u16,
    proto_num: u32,
    st: OwnerCell<ServerState>,
}

impl Session for ChanServerSession {
    fn protocol_id(&self) -> ProtoId {
        self.parent.me
    }

    /// The high-level protocol pushes the *reply* into the server channel.
    fn push(&self, ctx: &Ctx, msg: Message) -> XResult<Option<Message>> {
        // One acquisition for the whole reply: building the header only
        // charges, and the lock is gone before the push below crosses.
        let mut st = self.st.lock();
        let seq = st.record.in_progress().ok_or_else(|| {
            XError::Config(format!("channel {}: reply without request", self.chan))
        })?;
        let hdr = ChannelHdr {
            flags: flags::REPLY,
            channel: self.chan,
            protocol_num: self.proto_num,
            sequence_num: seq,
            error: 0,
            boot_id: self.parent.boot_id(),
        };
        let mut wire = msg;
        ctx.push_header(&mut wire, &hdr.encode());
        st.record.answer(seq);
        st.saved_reply = Some(wire.clone());
        let lls = Rc::clone(&st.lls);
        drop(st);
        ctx.charge_layer_call();
        lls.push(ctx, wire)?;
        Ok(None)
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetMyBootId => Ok(ControlRes::U32(self.parent.boot_id())),
            // An overloaded upper layer dropped the request it was just
            // handed (shepherd pool full, Drop policy): clear the
            // in-progress slot so the client's retransmission is delivered
            // again instead of being acknowledged as still-working.
            ControlOp::Custom("chan_abort", _) => {
                self.st.lock().record.abort();
                Ok(ControlRes::Done)
            }
            other => {
                let lls = Rc::clone(&self.st.lock().lls);
                lls.control(ctx, other)
            }
        }
    }
}

/// The CHANNEL protocol object.
pub struct Channel {
    weak_self: Weak<Channel>,
    me: ProtoId,
    lower: ProtoId,
    lower_name: OnceCell<&'static str>,
    ids: Incarnation,
    rto: RtoPolicy,
    // The server incarnation last seen in a reply (0 = none yet).
    peer_boot: Cell<u32>,
    enables: EnableMap<u32>,
    clients: SessionMap<ClientKey, Rc<ChanClientSession>>,
    servers: SessionMap<ServerKey, Rc<ChanServerSession>>,
}

/// Client channels are keyed `(channel, protocol number)`.
type ClientKey = (u16, u32);
/// Server channels are keyed `(peer, channel, protocol number)`.
type ServerKey = (PeerKey, u16, u32);

impl Channel {
    /// Creates CHANNEL above `lower` (FRAGMENT, a virtual protocol, IP, or
    /// raw ETH — anything that can move one packet unreliably). `adaptive`
    /// picks the SRTT/RTTVAR retransmission timeout ([`txn::RtoPolicy`]) over
    /// the paper's fixed step function, which then only seeds it.
    pub fn new(me: ProtoId, lower: ProtoId, adaptive: bool) -> Rc<Channel> {
        Rc::new_cyclic(|weak_self| Channel {
            weak_self: weak_self.clone(),
            me,
            lower,
            lower_name: OnceCell::new(),
            ids: Incarnation::default(),
            rto: RtoPolicy::new(txn::BASE_TIMEOUT_NS, adaptive),
            peer_boot: Cell::new(0),
            enables: EnableMap::new(),
            clients: SessionMap::new(),
            servers: SessionMap::new(),
        })
    }

    fn self_rc(&self) -> Rc<Channel> {
        self.weak_self.upgrade().expect("channel alive")
    }

    /// This kernel's boot incarnation id.
    pub fn boot_id(&self) -> u32 {
        self.ids.boot_id()
    }

    /// Overrides the boot id (tests simulate reboot/reincarnation).
    pub fn set_boot_id(&self, id: u32) {
        self.ids.set_boot_id(id);
    }

    /// Allocates a fresh, kernel-unique channel number: never 0, never one
    /// that still names a live client session
    /// ([`Incarnation::alloc_channel`]).
    pub fn alloc_channel(&self) -> u16 {
        let clients = self.clients.lock();
        self.ids
            .alloc_channel(|cand| clients.keys().any(|&(chan, _)| chan == cand))
    }

    /// The retransmission-timeout policy: its run-time knobs and its RTT
    /// estimate (all re-seeded on reboot).
    pub fn rto(&self) -> &RtoPolicy {
        &self.rto
    }

    fn request_in(
        &self,
        ctx: &Ctx,
        lls: &SessionRef,
        hdr: ChannelHdr,
        msg: Message,
    ) -> XResult<()> {
        let pk = peer_key(ctx, lls)?;
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup);
        let mut created = false;
        let sess =
            self.servers
                .resolve_or_insert_with((pk, hdr.channel, hdr.protocol_num), || {
                    created = true;
                    ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
                    Ok(Rc::new(ChanServerSession {
                        parent: self.self_rc(),
                        chan: hdr.channel,
                        proto_num: hdr.protocol_num,
                        st: OwnerCell::new(ServerState {
                            lls: Rc::clone(lls),
                            record: AtMostOnce::new(hdr.boot_id),
                            saved_reply: None,
                        }),
                    }))
                })?;
        if created {
            // The open-done upcall: tell the high-level protocol a session
            // was passively created on its behalf, completing its earlier
            // open_enable.
            if let Some(&upper) = self.enables.resolve(&hdr.protocol_num) {
                let parts = ParticipantSet::local(
                    Participant::proto(hdr.protocol_num).with_port(hdr.channel),
                );
                let sref: SessionRef = Rc::clone(&sess) as SessionRef;
                ctx.kernel_ref()
                    .open_done(ctx, upper, self.me, &sref, &parts)?;
            }
        }

        enum Action {
            Deliver,
            Ack,
            ResendReply(Message),
            Drop,
        }
        let action = {
            let mut st = sess.st.lock();
            if !Rc::ptr_eq(&st.lls, lls) {
                st.lls = Rc::clone(lls);
            }
            match st.record.arrive(hdr.boot_id, hdr.sequence_num) {
                Arrival::InProgress => Action::Ack,
                Arrival::Answered => {
                    Action::ResendReply(st.saved_reply.clone().expect("saved with the answer"))
                }
                Arrival::Old => Action::Drop,
                Arrival::New => {
                    st.saved_reply = None;
                    Action::Deliver
                }
            }
        };

        match action {
            Action::Drop => {
                ctx.note(RobustEvent::DuplicateSuppressed);
                Ok(())
            }
            Action::Ack => {
                ctx.note(RobustEvent::DuplicateSuppressed);
                let ack = ChannelHdr {
                    flags: flags::ACK,
                    channel: hdr.channel,
                    protocol_num: hdr.protocol_num,
                    sequence_num: hdr.sequence_num,
                    error: 0,
                    boot_id: self.boot_id(),
                };
                let mut pkt = ctx.empty_msg();
                ctx.push_header(&mut pkt, &ack.encode());
                ctx.charge_layer_call();
                lls.push(ctx, pkt)?;
                Ok(())
            }
            Action::ResendReply(saved) => {
                ctx.note(RobustEvent::DuplicateSuppressed);
                ctx.charge_layer_call();
                lls.push(ctx, saved)?;
                Ok(())
            }
            Action::Deliver => {
                match self.enables.resolve(&hdr.protocol_num) {
                    Some(&upper) => {
                        let sref: SessionRef = sess;
                        ctx.kernel_ref().demux_to(ctx, upper, &sref, msg)
                    }
                    None => {
                        // No such service: answer with an error reply so the
                        // client fails fast instead of retransmitting.
                        sess.st.lock().record.abort();
                        let err = ChannelHdr {
                            flags: flags::REPLY,
                            channel: hdr.channel,
                            protocol_num: hdr.protocol_num,
                            sequence_num: hdr.sequence_num,
                            error: 1,
                            boot_id: self.boot_id(),
                        };
                        let mut pkt = ctx.empty_msg();
                        ctx.push_header(&mut pkt, &err.encode());
                        ctx.charge_layer_call();
                        lls.push(ctx, pkt)?;
                        Ok(())
                    }
                }
            }
        }
    }

    fn reply_or_ack_in(&self, ctx: &Ctx, hdr: ChannelHdr, msg: Message) -> XResult<()> {
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup);
        let Some(client) = self.clients.resolve(&(hdr.channel, hdr.protocol_num)) else {
            return Err(Reject::Stale("reply for unknown channel").into());
        };
        // Peer reincarnation check, *before* taking this client's state
        // lock (the reset below locks the map and then each session; no
        // path may hold a session lock while acquiring the map's).
        let prev = self.peer_boot.get();
        if prev != hdr.boot_id {
            self.peer_boot.set(hdr.boot_id);
        }
        if prev != 0 && prev != hdr.boot_id {
            ctx.trace_note("peer rebooted");
            // Sequence numbers and RTT history from the old incarnation
            // are meaningless; reset every channel not mid-exchange.
            for c in self.clients.lock().values() {
                let mut cst = c.st.lock();
                if cst.outstanding.is_none() {
                    cst.seq = 0;
                }
            }
            self.rto.forget_rtt();
        }
        let mut st = client.st.lock();
        let Some(out) = st.outstanding.as_mut() else {
            return Ok(()); // Late duplicate; already satisfied.
        };
        if out.seq != hdr.sequence_num {
            return Ok(()); // Stale sequence number.
        }
        if hdr.flags & flags::ACK != 0 {
            out.acked = true;
            let sema = out.sema.clone();
            drop(st);
            sema.v(ctx);
            return Ok(());
        }
        if out.reply.is_none() {
            out.reply = Some(if hdr.error != 0 {
                Err(hdr.error)
            } else {
                Ok(msg)
            });
            let sema = out.sema.clone();
            drop(st);
            sema.v(ctx);
        }
        Ok(())
    }
}

impl Protocol for Channel {
    fn contract(&self) -> xkernel::lint::ProtoContract {
        crate::contracts::channel()
    }

    fn name(&self) -> &'static str {
        "channel"
    }

    fn id(&self) -> ProtoId {
        self.me
    }

    fn boot(&self, ctx: &Ctx) -> XResult<()> {
        let kernel = ctx.kernel_ref();
        let lower = kernel.proto_ref(self.lower)?;
        self.lower_name
            .set(lower.name())
            .map_err(|_| XError::Config("channel double boot".into()))?;
        self.ids.renew(ctx);
        let parts =
            ParticipantSet::local(Participant::proto(rel_proto_num(lower.name(), "channel")?));
        kernel.open_enable(ctx, self.lower, self.me, &parts)
    }

    fn reseed(&self, ctx: &Ctx) {
        self.ids.renew(ctx);
    }

    fn reboot(&self, ctx: &Ctx) -> XResult<()> {
        // Fresh incarnation: a new boot id and no surviving channels; the
        // graph wiring (enables, lower binding) persists from build time.
        self.ids.renew(ctx);
        self.drop_sessions();
        self.peer_boot.set(0);
        self.rto.reseed();
        Ok(())
    }

    fn drop_sessions(&self) {
        self.clients.clear();
        self.servers.clear();
    }

    fn open(&self, ctx: &Ctx, _upper: ProtoId, parts: &ParticipantSet) -> XResult<SessionRef> {
        let proto_num = parts
            .local_part()
            .and_then(|p| p.proto_num)
            .ok_or_else(|| XError::Config("channel open needs a protocol number".into()))?;
        let peer = parts
            .remote_part()
            .and_then(|p| p.host)
            .ok_or_else(|| XError::Config("channel open needs a peer host".into()))?;
        let chan = match parts.local_part().and_then(|p| p.port) {
            Some(c) => c,
            None => self.alloc_channel(),
        };
        let session = self.clients.resolve_or_open((chan, proto_num), || {
            ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
            let lname = self.lower_name.get().expect("channel booted");
            let lparts = ParticipantSet::pair(
                Participant::proto(rel_proto_num(lname, "channel")?),
                Participant::host(peer),
            );
            let lower = ctx.kernel_ref().open(ctx, self.lower, self.me, &lparts)?;
            Ok(Rc::new(ChanClientSession {
                parent: self.self_rc(),
                chan,
                proto_num,
                peer,
                lower,
                st: OwnerCell::new(ClientState {
                    seq: 0,
                    outstanding: None,
                }),
            }))
        })?;
        Ok(session)
    }

    fn open_enable(&self, _ctx: &Ctx, upper: ProtoId, parts: &ParticipantSet) -> XResult<()> {
        let proto_num = parts
            .local_part()
            .and_then(|p| p.proto_num)
            .ok_or_else(|| XError::Config("channel enable needs a protocol number".into()))?;
        self.enables.bind(proto_num, upper);
        Ok(())
    }

    fn demux(&self, ctx: &Ctx, lls: &SessionRef, mut msg: Message) -> XResult<()> {
        let bytes = ctx.pop_header(&mut msg, CHANNEL_HDR_LEN)?;
        let hdr = ChannelHdr::decode(&bytes)?;
        drop(bytes);
        if hdr.flags & flags::REQUEST != 0 {
            self.request_in(ctx, lls, hdr, msg)
        } else {
            self.reply_or_ack_in(ctx, hdr, msg)
        }
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            // Asked by VIP: CHANNEL adds one header to whatever its user
            // pushes, and its users (SELECT) keep requests within one packet
            // when FRAGMENT is not below.
            ControlOp::GetMaxMsgSize => Ok(ControlRes::Size(1500)),
            ControlOp::GetMyBootId => Ok(ControlRes::U32(self.boot_id())),
            ControlOp::GetFragCount(n) => {
                ctx.kernel_ref()
                    .control(ctx, self.lower, &ControlOp::GetFragCount(*n))
            }
            ControlOp::GetMaxPacket => {
                let r = ctx
                    .kernel_ref()
                    .control(ctx, self.lower, &ControlOp::GetMaxPacket)?;
                Ok(ControlRes::Size(r.size()?.saturating_sub(CHANNEL_HDR_LEN)))
            }
            other => self
                .rto
                .control(other)
                .ok_or(XError::Unsupported("channel control")),
        }
    }

    // Sessions are captured *with* their mutable state: a client channel's
    // sequence counter and a server channel's at-most-once record (last
    // seq, saved reply) both advance during a run and must rewind with it.
    fn snap(&self, _ctx: &Ctx) -> Option<SnapBlob> {
        let clients = self
            .clients
            .lock()
            .iter()
            .map(|(k, c)| {
                let st = c.st.lock();
                debug_assert!(
                    st.outstanding.is_none(),
                    "channel snapshot with an outstanding request (not quiescent)"
                );
                (*k, Rc::clone(c), st.seq)
            })
            .collect();
        let servers = self
            .servers
            .lock()
            .iter()
            .map(|(k, srv)| (*k, Rc::clone(srv), srv.st.lock().clone()))
            .collect();
        Some(Rc::new(ChanSnap {
            ids: self.ids.snap(),
            rto: self.rto.snap(),
            peer_boot: self.peer_boot.get(),
            enables: self.enables.snapshot(),
            clients,
            servers,
        }))
    }

    fn restore_snap(&self, _ctx: &Ctx, blob: &SnapBlob) -> XResult<()> {
        let s = snap_downcast::<ChanSnap>(blob, "channel")?;
        self.ids.restore(s.ids);
        self.rto.restore(&s.rto);
        self.peer_boot.set(s.peer_boot);
        self.enables.restore(&s.enables);
        {
            let mut clients = self.clients.lock();
            clients.clear();
            for (k, sess, seq) in &s.clients {
                let mut st = sess.st.lock();
                st.seq = *seq;
                st.outstanding = None;
                clients.insert(*k, Rc::clone(sess));
            }
        }
        let mut servers = self.servers.lock();
        servers.clear();
        for (k, sess, st) in &s.servers {
            *sess.st.lock() = st.clone();
            servers.insert(*k, Rc::clone(sess));
        }
        Ok(())
    }
}

struct ChanSnap {
    ids: (u32, u16),
    rto: RtoSnap,
    peer_boot: u32,
    enables: EnableSnapshot,
    clients: Vec<(ClientKey, Rc<ChanClientSession>, u32)>,
    servers: Vec<(ServerKey, Rc<ChanServerSession>, ServerState)>,
}
