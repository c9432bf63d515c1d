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

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use parking_lot::Mutex;

use xkernel::map::EnableSnapshot;
use xkernel::prelude::*;
use xkernel::sim::Nanos;

use crate::hdr::{flags, ChannelHdr, CHANNEL_HDR_LEN};
use crate::protnum::{peer_key, rel_proto_num, PeerKey};
use crate::rto::{backoff_rto, RtoEstimator};

/// Tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ChanConfig {
    /// Timeout for single-fragment requests.
    pub base_timeout_ns: Nanos,
    /// Extra wait per additional fragment the layer below must move.
    pub per_frag_ns: Nanos,
    /// Retransmissions before giving up.
    pub max_retries: u32,
    /// Adaptive SRTT/RTTVAR retransmission timeout (see [`crate::rto`]).
    /// When false, the paper's fixed step function times every attempt.
    pub adaptive: bool,
    /// Floor for the adaptive RTO.
    pub min_rto_ns: Nanos,
    /// Ceiling for the adaptive RTO (also caps exponential backoff).
    pub max_rto_ns: Nanos,
}

impl Default for ChanConfig {
    fn default() -> ChanConfig {
        ChanConfig {
            base_timeout_ns: 100_000_000,
            per_frag_ns: 25_000_000,
            max_retries: 8,
            adaptive: true,
            min_rto_ns: 1_000_000,
            max_rto_ns: 10_000_000_000,
        }
    }
}

struct Outstanding {
    seq: u32,
    sema: SharedSema,
    reply: Option<Result<Message, u16>>,
    acked: bool,
    sent_at: u64,
}

/// Default cap on consecutive exponential-backoff doublings; the
/// `SetBackoff` control op overrides it until the next reboot.
const DEFAULT_MAX_BACKOFF: u32 = 6;

/// Run-time-tunable knobs (the `SetTimeout` / `SetBackoff` control ops).
struct Tunables {
    base_timeout_ns: AtomicU64,
    peer_boot: AtomicU32,
    adaptive: AtomicBool,
    max_backoff: AtomicU32,
}

struct ClientState {
    seq: u32,
    outstanding: Option<Outstanding>,
}

/// A client channel: one outstanding RPC at a time.
pub struct ChanClientSession {
    parent: Arc<Channel>,
    chan: u16,
    proto_num: u32,
    peer: IpAddr,
    lower: SessionRef,
    st: Mutex<ClientState>,
}

impl ChanClientSession {
    /// The size-dependent component of the paper's step function: extra
    /// wait for each additional fragment the layer below must move. RTT
    /// samples are taken on whatever traffic runs first, so the adaptive
    /// RTO keeps this allowance too — a warm estimate from small exchanges
    /// must not time a multi-fragment transfer.
    fn frag_allowance(&self, ctx: &Ctx, wire_len: usize) -> Nanos {
        let frags = self
            .lower
            .control(ctx, &ControlOp::GetFragCount(wire_len))
            .and_then(|r| r.size())
            .unwrap_or(1);
        self.parent.cfg.per_frag_ns * (frags.saturating_sub(1) as u64)
    }
}

impl Session for ChanClientSession {
    fn protocol_id(&self) -> ProtoId {
        self.parent.me
    }

    fn push(&self, ctx: &Ctx, msg: Message) -> XResult<Option<Message>> {
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
                sent_at: ctx.now(),
            });
            (st.seq, sema)
        };

        let boot_id = self.parent.boot_id();
        let mut hdr = ChannelHdr {
            flags: flags::REQUEST,
            channel: self.chan,
            protocol_num: self.proto_num,
            sequence_num: seq,
            error: 0,
            boot_id,
        };
        let extra = self.frag_allowance(ctx, msg.len() + CHANNEL_HDR_LEN);
        let step = self.parent.tunables.base_timeout_ns.load(Ordering::Relaxed) + extra;
        let adaptive = self.parent.tunables.adaptive.load(Ordering::Relaxed);
        let max_backoff = self.parent.tunables.max_backoff.load(Ordering::Relaxed);
        let mut attempts = 0u32;
        loop {
            let timeout = if adaptive {
                // The step function seeds the estimator's cold state, so
                // attempt 0 of a fresh conversation waits exactly as long
                // as the paper's fixed scheme; once samples arrive the RTO
                // tracks measured RTT (plus the per-fragment allowance).
                // Retries back off exponentially with jitter (drawn only
                // here, keeping fault-free runs on the same PRNG stream as
                // the fixed scheme).
                let base = {
                    let e = self.parent.estimator.lock();
                    if e.is_cold() {
                        step
                    } else {
                        e.rto() + extra
                    }
                };
                let jitter = if attempts > 0 { ctx.next_u64() } else { 0 };
                backoff_rto(
                    base,
                    attempts,
                    max_backoff,
                    self.parent.cfg.max_rto_ns,
                    jitter,
                )
            } else {
                step
            };
            let mut wire = msg.clone();
            ctx.push_header(&mut wire, &hdr.encode());
            ctx.charge_layer_call();
            if let Err(e) = self.lower.push(ctx, wire) {
                // A synchronous lower-layer failure (e.g. ARP could not
                // resolve the peer) must not leave the channel poisoned
                // with a forever-outstanding request.
                self.st.lock().outstanding = None;
                return Err(e);
            }

            // Wait for the reply; an explicit ACK re-arms the wait without
            // counting as a retransmission round.
            let outcome = loop {
                let _signalled = sema.p_timeout(ctx, timeout);
                let mut st = self.st.lock();
                let out = st
                    .outstanding
                    .as_mut()
                    .expect("outstanding present until we clear it");
                if let Some(r) = out.reply.take() {
                    let sent_at = out.sent_at;
                    st.outstanding = None;
                    break Some((r, sent_at));
                }
                if out.acked {
                    out.acked = false;
                    if ctx.mode() == Mode::Inline {
                        // Inline mode cannot wait again; treat as timeout.
                        break None;
                    }
                    continue; // Server is alive and working: wait again.
                }
                break None;
            };
            match outcome {
                Some((Ok(reply), sent_at)) => {
                    // Karn's rule: a reply that followed a retransmission
                    // cannot be attributed to a particular send, so only
                    // clean exchanges feed the estimator.
                    if attempts == 0 {
                        self.parent.observe_rtt(ctx.now().saturating_sub(sent_at));
                    }
                    return Ok(Some(reply));
                }
                Some((Err(code), _)) => {
                    return Err(XError::Remote(format!(
                        "channel {} request {seq}: server error {code}",
                        self.chan
                    )))
                }
                None => ctx.note(RobustEvent::TimeoutFired),
            }
            attempts += 1;
            if attempts > self.parent.cfg.max_retries || ctx.mode() == Mode::Inline {
                self.st.lock().outstanding = None;
                return Err(XError::Timeout(format!(
                    "channel {} request {seq} to {} after {attempts} attempts",
                    self.chan, self.peer
                )));
            }
            // Retransmission: ask for an explicit ack so a busy server can
            // quiet us down.
            ctx.note(RobustEvent::Retransmit);
            hdr.flags = flags::REQUEST | flags::PLEASE_ACK;
        }
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetPeerHost => Ok(ControlRes::Ip(self.peer)),
            ControlOp::GetRtt => Ok(ControlRes::U64(self.parent.rtt_estimate())),
            ControlOp::GetMyBootId => Ok(ControlRes::U32(self.parent.boot_id())),
            ControlOp::GetPeerBootId => Ok(ControlRes::U32(
                self.parent.tunables.peer_boot.load(Ordering::Relaxed),
            )),
            ControlOp::SetTimeout(ns) => {
                self.parent
                    .tunables
                    .base_timeout_ns
                    .store(*ns, Ordering::Relaxed);
                Ok(ControlRes::Done)
            }
            ControlOp::SetBackoff(n) => {
                self.parent
                    .tunables
                    .max_backoff
                    .store(*n, Ordering::Relaxed);
                Ok(ControlRes::Done)
            }
            other => self.lower.control(ctx, other),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[derive(Clone)]
struct ServerState {
    // The lower session replies travel down on; refreshed on each request
    // so replies follow the path the latest request arrived by.
    lls: SessionRef,
    last_boot: u32,
    last_seq: u32,
    in_progress: Option<u32>,
    saved_reply: Option<(u32, Message)>,
}

/// A server channel: tracks at-most-once state for one (peer, channel).
pub struct ChanServerSession {
    parent: Arc<Channel>,
    chan: u16,
    proto_num: u32,
    st: Mutex<ServerState>,
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
        let seq = st.in_progress.take().ok_or_else(|| {
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
        st.last_seq = seq;
        // Retain the encoded reply until implicitly acknowledged by the
        // next request on this channel.
        st.saved_reply = Some((seq, wire.clone()));
        let lls = Arc::clone(&st.lls);
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
                self.st.lock().in_progress = None;
                Ok(ControlRes::Done)
            }
            other => {
                let lls = Arc::clone(&self.st.lock().lls);
                lls.control(ctx, other)
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The CHANNEL protocol object.
pub struct Channel {
    weak_self: Weak<Channel>,
    me: ProtoId,
    lower: ProtoId,
    cfg: ChanConfig,
    tunables: Tunables,
    lower_name: OnceLock<&'static str>,
    boot: AtomicU32,
    next_chan: AtomicU16,
    estimator: Mutex<RtoEstimator>,
    enables: EnableMap<u32>,
    clients: SessionMap<ClientKey, Arc<ChanClientSession>>,
    servers: SessionMap<ServerKey, Arc<ChanServerSession>>,
}

/// Client channels are keyed `(channel, protocol number)`.
type ClientKey = (u16, u32);
/// Server channels are keyed `(peer, channel, protocol number)`.
type ServerKey = (PeerKey, u16, u32);

impl Channel {
    /// Creates CHANNEL above `lower` (FRAGMENT, a virtual protocol, IP, or
    /// raw ETH — anything that can move one packet unreliably).
    pub fn new(me: ProtoId, lower: ProtoId, cfg: ChanConfig) -> Arc<Channel> {
        Arc::new_cyclic(|weak_self| Channel {
            weak_self: weak_self.clone(),
            me,
            lower,
            tunables: Tunables {
                base_timeout_ns: AtomicU64::new(cfg.base_timeout_ns),
                peer_boot: AtomicU32::new(0),
                adaptive: AtomicBool::new(cfg.adaptive),
                max_backoff: AtomicU32::new(DEFAULT_MAX_BACKOFF),
            },
            cfg,
            lower_name: OnceLock::new(),
            boot: AtomicU32::new(0),
            next_chan: AtomicU16::new(0),
            estimator: Mutex::new(RtoEstimator::new(
                cfg.base_timeout_ns,
                cfg.min_rto_ns,
                cfg.max_rto_ns,
            )),
            enables: EnableMap::new(),
            clients: SessionMap::new(),
            servers: SessionMap::new(),
        })
    }

    fn self_arc(&self) -> Arc<Channel> {
        self.weak_self.upgrade().expect("channel alive")
    }

    /// This kernel's boot incarnation id.
    pub fn boot_id(&self) -> u32 {
        self.boot.load(Ordering::Relaxed)
    }

    /// Overrides the boot id (tests simulate reboot/reincarnation).
    pub fn set_boot_id(&self, id: u32) {
        self.boot.store(id, Ordering::Relaxed);
    }

    /// Allocates a fresh, kernel-unique channel number. Skips numbers that
    /// still name a live client session: after 2^16 allocations the counter
    /// wraps, and handing out a channel with an exchange outstanding would
    /// alias two conversations onto one at-most-once state machine. Id 0 is
    /// never issued — fresh counters start above it, so a post-wrap 0 would
    /// be an id no other allocation path can produce.
    pub fn alloc_channel(&self) -> u16 {
        let clients = self.clients.lock();
        for _ in 0..=u16::MAX as u32 {
            let cand = self.next_chan.load(Ordering::Relaxed).wrapping_add(1);
            self.next_chan.store(cand, Ordering::Relaxed);
            if cand == 0 {
                continue;
            }
            if !clients.keys().any(|&(chan, _)| chan == cand) {
                return cand;
            }
        }
        // All 2^16 channel numbers live at once: structurally impossible
        // for bounded pools, but never hand out an aliased id silently.
        panic!("channel namespace exhausted");
    }

    fn observe_rtt(&self, sample: u64) {
        self.estimator.lock().observe(sample);
    }

    /// Smoothed round-trip estimate (virtual ns; 0 until the first reply).
    pub fn rtt_estimate(&self) -> u64 {
        let e = self.estimator.lock();
        if e.is_cold() {
            0
        } else {
            e.srtt()
        }
    }

    /// Switches between the adaptive RTO and the paper's fixed step
    /// function at run time (chaos experiments compare the two).
    pub fn set_adaptive(&self, on: bool) {
        self.tunables.adaptive.store(on, Ordering::Relaxed);
    }

    /// Current backoff-doubling cap, as `SetBackoff` last left it (resets
    /// to the default on reboot).
    pub fn max_backoff(&self) -> u32 {
        self.tunables.max_backoff.load(Ordering::Relaxed)
    }

    /// Whether the adaptive RTO is currently in effect (resets to the
    /// configured value on reboot).
    pub fn adaptive(&self) -> bool {
        self.tunables.adaptive.load(Ordering::Relaxed)
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
                    Ok(Arc::new(ChanServerSession {
                        parent: self.self_arc(),
                        chan: hdr.channel,
                        proto_num: hdr.protocol_num,
                        st: Mutex::new(ServerState {
                            lls: Arc::clone(lls),
                            last_boot: hdr.boot_id,
                            last_seq: 0,
                            in_progress: None,
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
                let sref: SessionRef = Arc::clone(&sess) as SessionRef;
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
            if !Arc::ptr_eq(&st.lls, lls) {
                st.lls = Arc::clone(lls);
            }
            if hdr.boot_id != st.last_boot {
                // Client reincarnated: reset at-most-once state.
                st.last_boot = hdr.boot_id;
                st.last_seq = 0;
                st.in_progress = None;
                st.saved_reply = None;
            }
            if st.in_progress == Some(hdr.sequence_num) {
                Action::Ack
            } else if st
                .saved_reply
                .as_ref()
                .is_some_and(|(s, _)| *s == hdr.sequence_num)
            {
                let (_, saved) = st.saved_reply.as_ref().expect("checked");
                Action::ResendReply(saved.clone())
            } else if hdr.sequence_num <= st.last_seq && st.last_seq != 0 {
                Action::Drop
            } else {
                // New request: implicitly acknowledges the previous reply.
                st.saved_reply = None;
                st.in_progress = Some(hdr.sequence_num);
                Action::Deliver
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
                        sess.st.lock().in_progress = None;
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
            ctx.trace_note("reply for unknown channel");
            return Ok(());
        };
        // Peer reincarnation check, *before* taking this client's state
        // lock (the reset below locks the map and then each session; no
        // path may hold a session lock while acquiring the map's).
        let prev = self.tunables.peer_boot.load(Ordering::Relaxed);
        if prev != hdr.boot_id {
            self.tunables
                .peer_boot
                .store(hdr.boot_id, Ordering::Relaxed);
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
            self.estimator.lock().reset(self.cfg.base_timeout_ns);
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
        self.set_boot_id((ctx.next_u64() & 0xffff_ffff) as u32 | 1);
        let parts =
            ParticipantSet::local(Participant::proto(rel_proto_num(lower.name(), "channel")?));
        kernel.open_enable(ctx, self.lower, self.me, &parts)
    }

    fn reboot(&self, ctx: &Ctx) -> XResult<()> {
        // Fresh incarnation: a new boot id and no surviving channels; the
        // graph wiring (enables, lower binding) persists from build time.
        self.set_boot_id((ctx.next_u64() & 0xffff_ffff) as u32 | 1);
        self.drop_sessions();
        self.tunables.peer_boot.store(0, Ordering::Relaxed);
        self.tunables
            .base_timeout_ns
            .store(self.cfg.base_timeout_ns, Ordering::Relaxed);
        // Every RTO knob re-cold-seeds, including the run-time overrides
        // (`SetBackoff` / `set_adaptive`): a fresh incarnation must not
        // inherit policy its config never specified.
        self.tunables
            .max_backoff
            .store(DEFAULT_MAX_BACKOFF, Ordering::Relaxed);
        self.tunables
            .adaptive
            .store(self.cfg.adaptive, Ordering::Relaxed);
        self.estimator.lock().reset(self.cfg.base_timeout_ns);
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
            Ok(Arc::new(ChanClientSession {
                parent: self.self_arc(),
                chan,
                proto_num,
                peer,
                lower,
                st: Mutex::new(ClientState {
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
            ControlOp::GetRtt => Ok(ControlRes::U64(self.rtt_estimate())),
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
            // The RTO knobs are protocol-wide (sessions store into the same
            // tunables), so policy sweeps can set them without a session.
            ControlOp::SetTimeout(ns) => {
                self.tunables.base_timeout_ns.store(*ns, Ordering::Relaxed);
                Ok(ControlRes::Done)
            }
            ControlOp::SetBackoff(n) => {
                self.tunables.max_backoff.store(*n, Ordering::Relaxed);
                Ok(ControlRes::Done)
            }
            _ => Err(XError::Unsupported("channel control")),
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
                (*k, Arc::clone(c), st.seq)
            })
            .collect();
        let servers = self
            .servers
            .lock()
            .iter()
            .map(|(k, srv)| (*k, Arc::clone(srv), srv.st.lock().clone()))
            .collect();
        Some(Arc::new(ChanSnap {
            boot: self.boot_id(),
            next_chan: self.next_chan.load(Ordering::Relaxed),
            estimator: self.estimator.lock().clone(),
            base_timeout_ns: self.tunables.base_timeout_ns.load(Ordering::Relaxed),
            peer_boot: self.tunables.peer_boot.load(Ordering::Relaxed),
            adaptive: self.tunables.adaptive.load(Ordering::Relaxed),
            max_backoff: self.tunables.max_backoff.load(Ordering::Relaxed),
            enables: self.enables.snapshot(),
            clients,
            servers,
        }))
    }

    fn restore_snap(&self, _ctx: &Ctx, blob: &SnapBlob) -> XResult<()> {
        let s = snap_downcast::<ChanSnap>(blob, "channel")?;
        self.set_boot_id(s.boot);
        self.next_chan.store(s.next_chan, Ordering::Relaxed);
        *self.estimator.lock() = s.estimator.clone();
        self.tunables
            .base_timeout_ns
            .store(s.base_timeout_ns, Ordering::Relaxed);
        self.tunables
            .peer_boot
            .store(s.peer_boot, Ordering::Relaxed);
        self.tunables.adaptive.store(s.adaptive, Ordering::Relaxed);
        self.tunables
            .max_backoff
            .store(s.max_backoff, Ordering::Relaxed);
        self.enables.restore(&s.enables);
        {
            let mut clients = self.clients.lock();
            clients.clear();
            for (k, sess, seq) in &s.clients {
                let mut st = sess.st.lock();
                st.seq = *seq;
                st.outstanding = None;
                clients.insert(*k, Arc::clone(sess));
            }
        }
        let mut servers = self.servers.lock();
        servers.clear();
        for (k, sess, st) in &s.servers {
            *sess.st.lock() = st.clone();
            servers.insert(*k, Arc::clone(sess));
        }
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

struct ChanSnap {
    boot: u32,
    next_chan: u16,
    estimator: RtoEstimator,
    base_timeout_ns: u64,
    peer_boot: u32,
    adaptive: bool,
    max_backoff: u32,
    enables: EnableSnapshot,
    clients: Vec<(ClientKey, Arc<ChanClientSession>, u32)>,
    servers: Vec<(ServerKey, Arc<ChanServerSession>, ServerState)>,
}
