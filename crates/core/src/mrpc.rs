//! M_RPC — monolithic Sprite RPC.
//!
//! One protocol doing everything the SELECT/CHANNEL/FRAGMENT stack does —
//! procedure dispatch, fixed channels with at-most-once semantics and
//! implicit acknowledgement, and built-in fragmentation with partial
//! retransmission — behind the single 36-byte header from the paper's
//! appendix. Semantically equivalent to the layered version (L_RPC) but a
//! different wire protocol; the two cannot interoperate, exactly as the
//! paper notes.
//!
//! The implicit-acknowledgement scheme is Sprite's: a reply acknowledges
//! the request it answers, a new request on a channel acknowledges the
//! previous reply, explicit ACKs (carrying the received-fragment mask) are
//! only elicited by retransmissions, and boot ids guard at-most-once across
//! reincarnations. Requests and replies up to 16 fragments are fragmented
//! and re-assembled inside this one protocol, with the split, masks and
//! reassembly slot it shares with FRAGMENT ([`crate::frags`]); an ACK's
//! `frag_mask` lets the client retransmit only the fragments the server is
//! missing.

use std::cell::{Cell, OnceCell};
use std::rc::{Rc, Weak};

use xkernel::cell::OwnerCell;

use xkernel::keep::Rewind;
use xkernel::map::MixMap;
use xkernel::prelude::*;
use xkernel::shepherd::{Overload, ShepherdConfig, ShepherdStats, Shepherds};

use crate::frags::{self, Place, Slot, MAX_FRAGS};
use crate::hdr::{flags, SpriteHdr, SPRITE_HDR_LEN};
use crate::protnum::num_over;
use crate::select::Handler;
use crate::txn::{self, Arrival, AtMostOnce, Incarnation, Poll};

/// Configuration. The retransmission timer is the paper's step function,
/// fixed: [`txn::BASE_TIMEOUT_NS`] plus [`txn::frag_allowance`], and
/// [`txn::MAX_RETRIES`].
#[derive(Clone, Copy, Debug)]
pub struct MrpcConfig {
    /// Fixed client channel set per server host.
    pub channels_per_peer: usize,
    /// Server-side shepherd pool (workers == 0 keeps dispatch synchronous).
    pub shepherds: ShepherdConfig,
}

impl Default for MrpcConfig {
    fn default() -> MrpcConfig {
        MrpcConfig {
            channels_per_peer: 8,
            shepherds: ShepherdConfig::default(),
        }
    }
}

struct Outstanding {
    seq: u32,
    sema: SharedSema,
    // Opened by the reply's first fragment to arrive.
    reply: Option<Slot>,
    done: Option<Message>,
    // Server-acknowledged request fragments (from an explicit ACK).
    server_has: u16,
    acked: bool,
}

struct MChanState {
    seq: u32,
    out: Option<Outstanding>,
}

/// One client channel.
struct MChan {
    chan: u16,
    st: OwnerCell<MChanState>,
}

/// A client channel keeps its sequence counter. It is exclusively held
/// during a call, so no call is outstanding at a quiescent instant.
impl Rewind for MChan {
    type Saved = u32;
    fn save(&self) -> u32 {
        let st = self.st.lock();
        debug_assert!(
            st.out.is_none(),
            "mrpc snapshot with an outstanding call (not quiescent)"
        );
        st.seq
    }
    fn rewind(&self, seq: &u32) {
        let mut st = self.st.lock();
        st.seq = *seq;
        st.out = None;
    }
}

type Pool = txn::Pool<Rc<MChan>>;

/// The lower session towards a peer with the fragment payload it allows.
type LowerPath = (SessionRef, usize);

/// Everything kept per peer host, in one table so a call resolves it with
/// one acquisition: the lower session (both roles use it) and, once this
/// host has called the peer, the fixed client channel pool.
#[derive(Clone)]
struct Peer {
    lower: LowerPath,
    pool: Option<Rc<Pool>>,
}

/// A peer entry rewinds its client channel pool, if it has one.
impl Rewind for Peer {
    type Saved = Option<<Pool as Rewind>::Saved>;
    fn save(&self) -> Self::Saved {
        self.pool.save()
    }
    fn rewind(&self, saved: &Self::Saved) {
        self.pool.rewind(saved);
    }
}

#[derive(Clone)]
struct ServerState {
    // The wire frames of the reply to the request answered last ride in the
    // record.
    record: AtMostOnce<Rc<[Message]>>,
    // The in-progress request was handed to a shepherd (its fragments have
    // been consumed); retransmissions must be ACKed, not re-assembled.
    dispatched: bool,
    // The request `record` has in progress, as it arrives.
    req: Option<Slot>,
    // The path replies take, cached from the peer table on first use so a
    // warm request costs the server one table lookup, not two. Lives in the
    // restorable state: it rewinds (and dies at reboot) with the table.
    reply_path: Option<LowerPath>,
}

struct MServer {
    clnt: IpAddr,
    chan: u16,
    st: OwnerCell<ServerState>,
}

/// A server channel keeps its whole state: the at-most-once record with
/// the saved reply, and any partial request reassembly (which, unlike
/// FRAGMENT's, has no reclaim timer and so can outlive quiescence).
impl Rewind for MServer {
    type Saved = ServerState;
    fn save(&self) -> ServerState {
        self.st.save()
    }
    fn rewind(&self, st: &ServerState) {
        self.st.rewind(st);
    }
}

/// The monolithic Sprite RPC protocol object.
pub struct Mrpc {
    weak_self: Weak<Mrpc>,
    me: ProtoId,
    lower: ProtoId,
    /// ARP capability, required when `lower` is raw ETH: monolithic Sprite
    /// RPC identifies hosts by internet address even on the bare wire, so it
    /// performs the same IP→hardware mapping VIP does.
    arp: Option<ProtoId>,
    cfg: MrpcConfig,
    my_ip: OnceCell<IpAddr>,
    ids: Incarnation,
    handlers: EnableMap<u16, Handler>,
    peers: SessionMap<u32, Peer>,
    chans: SessionMap<u16, Rc<MChan>>,
    servers: SessionMap<(u32, u16), Rc<MServer>>,
    sessions: SessionMap<(u32, u16)>,
    shepherds: Rc<Shepherds>,
}

impl Mrpc {
    /// Creates monolithic Sprite RPC above `lower` (raw ETH, IP, or VIP).
    /// `arp` is required when `lower` is raw ETH.
    pub fn new(me: ProtoId, lower: ProtoId, arp: Option<ProtoId>, cfg: MrpcConfig) -> Rc<Mrpc> {
        Rc::new_cyclic(|weak_self| Mrpc {
            weak_self: weak_self.clone(),
            me,
            lower,
            arp,
            cfg,
            my_ip: OnceCell::new(),
            ids: Incarnation::default(),
            handlers: EnableMap::new(),
            peers: SessionMap::new(),
            chans: SessionMap::new(),
            servers: SessionMap::new(),
            sessions: SessionMap::new(),
            shepherds: Shepherds::new(cfg.shepherds),
        })
    }

    /// Shepherd-pool counters (zeros while the pool is disabled).
    pub fn shepherd_stats(&self) -> ShepherdStats {
        self.shepherds.stats()
    }

    // `new` builds the only `Rc` and `&self` borrows through it, so it is
    // alive while any method runs.
    #[allow(clippy::expect_used)]
    fn self_rc(&self) -> Rc<Mrpc> {
        self.weak_self.upgrade().expect("mrpc alive")
    }

    fn my_ip(&self) -> XResult<IpAddr> {
        self.my_ip
            .get()
            .copied()
            .ok_or_else(|| XError::Config("sprite used before boot".into()))
    }

    /// This kernel's boot incarnation.
    pub fn boot_id(&self) -> u32 {
        self.ids.boot_id()
    }

    /// Overrides the boot id (tests simulate reincarnation).
    pub fn set_boot_id(&self, id: u32) {
        self.ids.set_boot_id(id);
    }

    /// Allocates a client channel number: never 0, never one a live
    /// channel carries ([`Incarnation::alloc_channel`]).
    pub fn alloc_channel(&self) -> u16 {
        Self::alloc_in(&self.ids, &self.chans.lock())
    }

    fn alloc_in(ids: &Incarnation, chans: &MixMap<u16, Rc<MChan>>) -> u16 {
        ids.alloc_channel(|cand| chans.contains_key(&cand))
    }

    /// Registers the procedure for `command`.
    pub fn serve<F>(&self, command: u16, f: F)
    where
        F: Fn(&Ctx, Message) -> XResult<Message> + 'static,
    {
        self.handlers.replace(command, Box::new(f));
    }

    /// The table entry for `peer`, opening its lower session on first use.
    fn peer_for(&self, ctx: &Ctx, peer: IpAddr) -> XResult<Peer> {
        self.peers.resolve_or_open(peer.0, || {
            let kernel = ctx.kernel_ref();
            let mut remote = Participant::host(peer);
            if kernel.space_of(self.lower)? == "eth" {
                // Raw Ethernet below: map the peer's internet address to
                // its hardware address, exactly as VIP does.
                let arp = self.arp.ok_or_else(|| {
                    XError::Config("sprite over raw eth needs an arp capability".into())
                })?;
                let hw = kernel.control(ctx, arp, &ControlOp::Resolve(peer))?.eth()?;
                remote = remote.with_eth(hw);
            }
            let num = num_over(kernel, self.me, self.lower)?;
            let parts = ParticipantSet::pair(Participant::proto(num), remote);
            let sess = kernel.open(ctx, self.lower, self.me, &parts)?;
            let opt = sess
                .control(ctx, &ControlOp::GetOptPacket)
                .and_then(|r| r.size())
                .unwrap_or(1500);
            Ok(Peer {
                lower: (sess, opt - SPRITE_HDR_LEN),
                pool: None,
            })
        })
    }

    fn lower_for(&self, ctx: &Ctx, peer: IpAddr) -> XResult<LowerPath> {
        Ok(self.peer_for(ctx, peer)?.lower)
    }

    /// Builds the fixed client channel set towards `peer` and records it in
    /// the peer's entry, which [`Mrpc::peer_for`] has just bound.
    fn make_pool(&self, ctx: &Ctx, peer: IpAddr) -> XResult<Rc<Pool>> {
        let mut chans = Vec::with_capacity(self.cfg.channels_per_peer);
        {
            // One acquisition numbers and binds the whole set, so no number
            // can be issued twice between the liveness test and the bind.
            let mut table = self.chans.lock();
            for _ in 0..self.cfg.channels_per_peer {
                let mc = Rc::new(MChan {
                    chan: Self::alloc_in(&self.ids, &table),
                    st: OwnerCell::new(MChanState { seq: 0, out: None }),
                });
                table.insert(mc.chan, Rc::clone(&mc));
                chans.push(mc);
                ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
            }
        }
        let pool = Pool::new(chans);
        let mut peers = self.peers.lock();
        let entry = peers
            .get_mut(&peer.0)
            .ok_or_else(|| XError::Config(format!("sprite: no peer entry for {peer}")))?;
        Ok(Rc::clone(entry.pool.get_or_insert(pool)))
    }

    /// Sends the fragments of `msg` selected by `mask`.
    #[allow(clippy::too_many_arguments)]
    fn send_frags(
        &self,
        ctx: &Ctx,
        lower: &SessionRef,
        frag_size: usize,
        base: &SpriteHdr,
        msg: &Message,
        mask: u16,
    ) -> XResult<()> {
        for (i, bit, frag) in frags::selected(msg, frag_size, mask) {
            let mut hdr = *base;
            hdr.frag_mask = bit;
            // The dual data-size/offset fields carry this packet's payload
            // extent, which is what lets Sprite RPC trim link-level padding
            // (the appendix notes the layered version doesn't need them).
            hdr.data1_sz = frag.len() as u16;
            hdr.data1_offset = (i * frag_size) as u16;
            let mut pkt = frag;
            ctx.push_header(&mut pkt, &hdr.encode());
            ctx.charge_layer_call();
            lower.push(ctx, pkt)?;
        }
        Ok(())
    }

    /// The full client call path.
    fn call(&self, ctx: &Ctx, peer: IpAddr, command: u16, args: Message) -> XResult<Message> {
        let entry = self.peer_for(ctx, peer)?;
        let (lower, frag_size) = entry.lower;
        let num_frags = frags::count(args.len(), frag_size)?;
        let pool = match entry.pool {
            Some(pool) => pool,
            None => self.make_pool(ctx, peer)?,
        };
        // Blocks when all channels are in use.
        pool.with(ctx, |chan| {
            self.call_on_channel(ctx, chan, &lower, frag_size, peer, command, args, num_frags)
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn call_on_channel(
        &self,
        ctx: &Ctx,
        chan: &Rc<MChan>,
        lower: &SessionRef,
        frag_size: usize,
        peer: IpAddr,
        command: u16,
        args: Message,
        num_frags: u16,
    ) -> XResult<Message> {
        let (seq, sema) = {
            let mut st = chan.st.lock();
            debug_assert!(st.out.is_none(), "channel pool guarantees exclusivity");
            st.seq = st.seq.wrapping_add(1);
            let sema = SharedSema::new(0);
            st.out = Some(Outstanding {
                seq: st.seq,
                sema: sema.clone(),
                reply: None,
                done: None,
                server_has: 0,
                acked: false,
            });
            (st.seq, sema)
        };

        let mut hdr = SpriteHdr {
            flags: flags::REQUEST,
            clnt_host: self.my_ip()?,
            srvr_host: peer,
            channel: chan.chan,
            srvr_process: 0,
            sequence_num: seq,
            num_frags,
            frag_mask: 0,
            command,
            boot_id: self.boot_id(),
            data1_sz: 0, // Filled per fragment at transmission time.
            data2_sz: 0,
            data1_offset: 0,
            data2_offset: 0,
        };
        let timeout = txn::BASE_TIMEOUT_NS + txn::frag_allowance(usize::from(num_frags));
        // Narrowed by an explicit ACK to the fragments the server lacks.
        let send_mask = Cell::new(frags::full_mask(num_frags));
        txn::transact(
            ctx,
            &sema,
            txn::MAX_RETRIES,
            format_args!("sprite rpc {command} seq {seq} to {peer}"),
            |_| timeout,
            |attempt| {
                if attempt > 0 {
                    hdr.flags = flags::REQUEST | flags::PLEASE_ACK;
                }
                self.send_frags(ctx, lower, frag_size, &hdr, &args, send_mask.get())
            },
            // `call_on_channel` sets `out` before the exchange and only the
            // release below clears it.
            #[allow(clippy::expect_used)]
            || {
                let mut st = chan.st.lock();
                let out = st.out.as_mut().expect("outstanding until cleared");
                if let Some(reply) = out.done.take() {
                    st.out = None;
                    Poll::Done(reply)
                } else if std::mem::take(&mut out.acked) {
                    send_mask.set(frags::full_mask(num_frags) & !out.server_has);
                    Poll::Rearm
                } else {
                    // Timed out, or a NACK woke us to retry at once.
                    Poll::Timeout
                }
            },
            // The channel goes back to the pool on return, and the next
            // caller asserts it is clean.
            || chan.st.lock().out = None,
        )
        .map(|(reply, _)| reply)
    }

    fn server_for(&self, hdr: &SpriteHdr) -> XResult<Rc<MServer>> {
        let fresh = || {
            Ok(Rc::new(MServer {
                clnt: hdr.clnt_host,
                chan: hdr.channel,
                st: OwnerCell::new(ServerState {
                    record: AtMostOnce::new(hdr.boot_id),
                    dispatched: false,
                    req: None,
                    reply_path: None,
                }),
            }))
        };
        self.servers
            .resolve_or_insert_with((hdr.clnt_host.0, hdr.channel), fresh)
    }

    fn request_in(&self, ctx: &Ctx, hdr: SpriteHdr, msg: Message) -> XResult<()> {
        let at = Place::check(hdr.num_frags, hdr.frag_mask)?;
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup);
        let server = self.server_for(&hdr)?;

        enum Action {
            None,
            Ack(u16),
            ResendReply(Rc<[Message]>),
            Dispatch(Message, Option<LowerPath>),
        }
        let action = {
            let mut st = server.st.lock();
            let st = &mut *st;
            match st.record.arrive(hdr.boot_id, hdr.sequence_num) {
                // Client retransmission of an already-answered request.
                // Resend the saved reply — but only for the *first* fragment
                // of the retransmitted request, else every late duplicate
                // fragment of a multi-fragment request would trigger its own
                // full reply resend (a retransmission storm).
                Arrival::Answered(frames) if at.is_first() => {
                    ctx.note(RobustEvent::DuplicateSuppressed);
                    Action::ResendReply(Rc::clone(frames))
                }
                // Or an ancient duplicate.
                Arrival::Answered(_) | Arrival::Old => {
                    ctx.note(RobustEvent::DuplicateSuppressed);
                    Action::None
                }
                arrival => {
                    if matches!(arrival, Arrival::New) {
                        // The saved reply is acknowledged and gone; start a
                        // fresh reassembly.
                        st.dispatched = false;
                        st.req = None;
                    }
                    // `InProgress` left the record as it was, so a fragment
                    // the slot rejects has changed nothing.
                    let req = st.req.get_or_insert_with(|| Slot::new(at));
                    let added = req.take(at, msg)?;
                    if st.dispatched {
                        // Retransmission while a shepherd is (or is queued to
                        // be) executing this request: the fragments are
                        // consumed, so just tell the client we have them all.
                        ctx.note(RobustEvent::DuplicateSuppressed);
                        Action::Ack(req.have())
                    } else if req.complete() {
                        st.dispatched = true;
                        Action::Dispatch(req.assemble(), st.reply_path.clone())
                    } else if !added || hdr.flags & flags::PLEASE_ACK != 0 {
                        // Retransmission while incomplete: tell the client what
                        // we have so it can resend just the missing fragments.
                        Action::Ack(req.have())
                    } else {
                        Action::None
                    }
                }
            }
        };

        match action {
            Action::None => Ok(()),
            Action::Ack(have) => {
                let (lower, _) = self.lower_for(ctx, hdr.clnt_host)?;
                let ack = SpriteHdr {
                    flags: flags::ACK,
                    clnt_host: hdr.clnt_host,
                    srvr_host: self.my_ip()?,
                    channel: hdr.channel,
                    sequence_num: hdr.sequence_num,
                    num_frags: hdr.num_frags,
                    frag_mask: have,
                    command: hdr.command,
                    boot_id: self.boot_id(),
                    ..SpriteHdr::default()
                };
                let mut pkt = ctx.empty_msg();
                ctx.push_header(&mut pkt, &ack.encode());
                ctx.charge_layer_call();
                lower.push(ctx, pkt)?;
                Ok(())
            }
            Action::ResendReply(frames) => {
                let (lower, _) = self.lower_for(ctx, hdr.clnt_host)?;
                send_frames(ctx, &frames, &lower)
            }
            Action::Dispatch(body, path) => {
                let me = self.self_rc();
                let job_server = Rc::clone(&server);
                let work = move |jctx: &Ctx| me.dispatch(jctx, &job_server, hdr, body, path);
                match self.shepherds.dispatch(ctx, work)? {
                    None => Ok(()),
                    Some(policy) => {
                        // Roll the channel back so the client's retransmission
                        // is treated as a fresh request.
                        {
                            let mut st = server.st.lock();
                            st.record.abort();
                            st.dispatched = false;
                            st.req = None;
                        }
                        match policy {
                            Overload::Drop => Ok(()),
                            // Sprite's NACK: "no server process available".
                            Overload::Reject => self.send_nack(ctx, &hdr),
                        }
                    }
                }
            }
        }
    }

    /// Tells the client no shepherd could take its request (Sprite's NACK);
    /// the client retries without waiting out the full timeout.
    fn send_nack(&self, ctx: &Ctx, hdr: &SpriteHdr) -> XResult<()> {
        let (lower, _) = self.lower_for(ctx, hdr.clnt_host)?;
        let nack = SpriteHdr {
            flags: flags::NACK,
            clnt_host: hdr.clnt_host,
            srvr_host: self.my_ip()?,
            channel: hdr.channel,
            sequence_num: hdr.sequence_num,
            num_frags: 0,
            frag_mask: 0,
            command: hdr.command,
            boot_id: self.boot_id(),
            ..SpriteHdr::default()
        };
        let mut pkt = ctx.empty_msg();
        ctx.push_header(&mut pkt, &nack.encode());
        ctx.charge_layer_call();
        lower.push(ctx, pkt)?;
        Ok(())
    }

    /// Runs the procedure and sends (and saves) the fragmented reply down
    /// `path`, the server channel's cached reply path (looked up in the peer
    /// table, and cached, when the channel has none yet).
    fn dispatch(
        &self,
        ctx: &Ctx,
        server: &Rc<MServer>,
        hdr: SpriteHdr,
        body: Message,
        path: Option<LowerPath>,
    ) -> XResult<()> {
        // Procedure table. The handler runs through a plain borrow of it:
        // nothing is locked while it executes.
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup);
        let result = match self.handlers.resolve(&hdr.command) {
            Some(h) => h(ctx, body),
            None => Err(XError::Remote(format!("no procedure {}", hdr.command))),
        };
        let reply_body = result.unwrap_or_else(|_| ctx.empty_msg());
        let (lower, frag_size) = match path {
            Some(path) => path,
            None => {
                let path = self.lower_for(ctx, server.clnt)?;
                server.st.lock().reply_path = Some(path.clone());
                path
            }
        };
        // A reply too big to fragment answers empty, as a failed procedure
        // does.
        let (reply_body, num) = match frags::count(reply_body.len(), frag_size) {
            Ok(num) => (reply_body, num),
            Err(_) => (ctx.empty_msg(), 1),
        };
        let rhdr = SpriteHdr {
            flags: flags::REPLY,
            clnt_host: server.clnt,
            srvr_host: self.my_ip()?,
            channel: server.chan,
            sequence_num: hdr.sequence_num,
            num_frags: num,
            frag_mask: 0,
            command: hdr.command,
            boot_id: self.boot_id(),
            ..SpriteHdr::default()
        };
        // Every frame is encoded before the first goes down (DESIGN.md
        // §14) and filed with the answer, which keeps them for a resend.
        let mut frames = Vec::with_capacity(usize::from(num));
        for (i, bit, frag) in frags::selected(&reply_body, frag_size, frags::full_mask(num)) {
            let mut h = rhdr;
            h.frag_mask = bit;
            h.data1_sz = frag.len() as u16;
            h.data1_offset = (i * frag_size) as u16;
            let mut pkt = frag;
            ctx.push_header(&mut pkt, &h.encode());
            frames.push(pkt);
        }
        let frames: Rc<[Message]> = frames.into();
        let answer = Rc::clone(&frames);
        server.st.lock().record.answer(hdr.sequence_num, answer);
        send_frames(ctx, &frames, &lower)
    }

    fn reply_in(&self, ctx: &Ctx, hdr: SpriteHdr, msg: Message) -> XResult<()> {
        // An ACK's or NACK's mask names many fragments, or none; a REPLY
        // carries one, and a malformed one stops here.
        let at = if hdr.flags & flags::REPLY != 0 {
            Some(Place::check(hdr.num_frags, hdr.frag_mask)?)
        } else {
            None
        };
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup);
        let Some(chan) = self.chans.resolve(&hdr.channel) else {
            return Ok(());
        };
        let mut st = chan.st.lock();
        let Some(out) = st.out.as_mut() else {
            return Ok(());
        };
        if out.seq != hdr.sequence_num {
            return Ok(());
        }
        if hdr.flags & flags::NACK != 0 {
            // Server overload rejection: wake the caller so it retransmits
            // (counted as a retry) instead of waiting out the timeout.
            let sema = out.sema.clone();
            drop(st);
            sema.v(ctx);
            return Ok(());
        }
        if hdr.flags & flags::ACK != 0 {
            out.acked = true;
            out.server_has = hdr.frag_mask;
            let sema = out.sema.clone();
            drop(st);
            sema.v(ctx);
            return Ok(());
        }
        let Some(at) = at else {
            return Ok(()); // Neither a reply nor an acknowledgement.
        };
        let reply = out.reply.get_or_insert_with(|| Slot::new(at));
        if reply.take(at, msg)? && reply.complete() {
            out.done = Some(reply.assemble());
            let sema = out.sema.clone();
            drop(st);
            sema.v(ctx);
        }
        Ok(())
    }
}

/// Sends a reply's wire frames down `lower`, each a clone, so the record
/// that keeps them can resend them.
fn send_frames(ctx: &Ctx, frames: &[Message], lower: &SessionRef) -> XResult<()> {
    for frame in frames {
        ctx.charge_layer_call();
        lower.push(ctx, frame.clone())?;
    }
    Ok(())
}

/// A client session bound to one (server, procedure).
pub struct MrpcSession {
    parent: Rc<Mrpc>,
    peer: IpAddr,
    command: u16,
}

impl Session for MrpcSession {
    fn protocol_id(&self) -> ProtoId {
        self.parent.me
    }

    fn push(&self, ctx: &Ctx, msg: Message) -> XResult<Option<Message>> {
        self.parent
            .call(ctx, self.peer, self.command, msg)
            .map(Some)
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetPeerHost => Ok(ControlRes::Ip(self.peer)),
            ControlOp::GetMaxPacket => {
                let (_, frag_size) = self.parent.lower_for(ctx, self.peer)?;
                Ok(ControlRes::Size(MAX_FRAGS * frag_size))
            }
            _ => Err(XError::Unsupported("mrpc session control")),
        }
    }
}

impl Protocol for Mrpc {
    fn id(&self) -> ProtoId {
        self.me
    }

    fn boot(&self, ctx: &Ctx) -> XResult<()> {
        let kernel = ctx.kernel_ref();
        let lower = kernel.proto_ref(self.lower)?;
        self.ids.renew(ctx);
        // Our host identity: from the lower protocol if it speaks internet
        // addresses, else from ARP (the raw-Ethernet configuration).
        let my_ip = lower
            .control(ctx, &ControlOp::GetMyHost)
            .and_then(|r| r.ip())
            .or_else(|_| match self.arp {
                Some(arp) => kernel.control(ctx, arp, &ControlOp::GetMyHost)?.ip(),
                None => Err(XError::Config(
                    "sprite cannot learn its host address".into(),
                )),
            })?;
        let _ = self.my_ip.set(my_ip);
        let parts =
            ParticipantSet::local(Participant::proto(num_over(kernel, self.me, self.lower)?));
        kernel.open_enable(ctx, self.lower, self.me, &parts)
    }

    fn reseed(&self, ctx: &Ctx) {
        self.ids.renew(ctx);
    }

    fn reboot(&self, ctx: &Ctx) -> XResult<()> {
        // Fresh incarnation: a new boot id.
        self.ids.renew(ctx);
        Ok(())
    }

    // The pools are reached through the peer entries.
    fn keeps(&self, k: &mut Keep<'_>) {
        k.config(&self.handlers);
        k.sessions(&self.peers);
        k.sessions(&self.chans);
        k.sessions(&self.servers);
        k.sessions(&self.sessions);
        k.values(&self.ids);
        k.values(&self.shepherds);
    }

    fn open(&self, ctx: &Ctx, _upper: ProtoId, parts: &ParticipantSet) -> XResult<SessionRef> {
        let peer = parts
            .remote_part()
            .and_then(|p| p.host)
            .ok_or_else(|| XError::Config("sprite open needs a server host".into()))?;
        let command = parts
            .local_part()
            .and_then(|p| p.proto_num)
            .ok_or_else(|| XError::Config("sprite open needs a command".into()))?
            as u16;
        self.sessions.resolve_or_insert_with((peer.0, command), || {
            ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
            Ok(Rc::new(MrpcSession {
                parent: self.self_rc(),
                peer,
                command,
            }) as SessionRef)
        })
    }

    fn open_enable(&self, _ctx: &Ctx, _upper: ProtoId, _parts: &ParticipantSet) -> XResult<()> {
        // Dispatch is by registered handlers.
        Ok(())
    }

    fn demux(&self, ctx: &Ctx, _lls: &SessionRef, mut msg: Message) -> XResult<()> {
        let bytes = ctx.pop_header(&mut msg, SPRITE_HDR_LEN)?;
        let hdr = SpriteHdr::decode(&bytes)?;
        drop(bytes);
        // Trim link-level padding using the packet's data size.
        if hdr.flags & (flags::REQUEST | flags::REPLY) != 0 {
            msg.truncate(usize::from(hdr.data1_sz));
        }
        if hdr.flags & flags::REQUEST != 0 {
            self.request_in(ctx, hdr, msg)
        } else {
            self.reply_in(ctx, hdr, msg)
        }
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            // The paper's example: "Sprite RPC reports that it never sends a
            // message greater than 1500-bytes (it has its own fragmentation
            // mechanism for handling larger messages)".
            ControlOp::GetMaxMsgSize => Ok(ControlRes::Size(1500)),
            ControlOp::GetMyBootId => Ok(ControlRes::U32(self.boot_id())),
            _ => {
                let _ = ctx;
                Err(XError::Unsupported("mrpc control"))
            }
        }
    }
}
