//! SELECT — procedure selection, channel allocation, and dispatch.
//!
//! The top layer of the layered Sprite RPC decomposition: it "maps Sprite
//! commands (procedure ids) onto procedure addresses (server processes)"
//! and owns the performance-critical caching. Because Sprite has a fixed,
//! predefined number of channels, SELECT keeps a fixed pool of CHANNEL
//! sessions per server and *blocks* the calling shepherd when none are free.
//!
//! SELECT is a separate protocol (rather than being folded into CHANNEL)
//! exactly so that alternative selection policies can be substituted; this
//! module also provides the paper's two examples:
//!
//! * a *forwarding* selection layer — commands can be redirected to another
//!   host, transparently to the client ([`Select::set_forward`]);
//! * [`Rdgram`], the "trivial to build" reliable datagram protocol on top
//!   of CHANNEL.

use std::cell::Cell;
use std::rc::{Rc, Weak};

use xkernel::map::{EnableSnapshot, SessionSnapshot};
use xkernel::prelude::*;
use xkernel::shepherd::{Overload, ShepherdConfig, ShepherdStats, Shepherds};

use crate::hdr::{SelectHdr, SELECT_HDR_LEN};
use crate::protnum::rel_proto_num;
use crate::txn::{Pool, PoolSnap};

/// A server procedure: takes the request body, returns the reply body.
pub type Handler = Box<dyn Fn(&Ctx, Message) -> XResult<Message>>;

/// Reply status codes carried in [`SelectHdr::status`].
pub mod status {
    /// Success.
    pub const OK: u8 = 0;
    /// The procedure raised an error.
    pub const PROC_ERROR: u8 = 1;
    /// No such procedure registered.
    pub const NO_SUCH_PROC: u8 = 2;
    /// Forwarding to the backing host failed.
    pub const FORWARD_FAILED: u8 = 3;
    /// All shepherds busy and the pending queue full ([`Overload::Reject`]).
    pub const BUSY: u8 = 4;
}

/// Header type values.
const TYP_REQUEST: u8 = 0;
const TYP_REPLY: u8 = 1;

/// Configuration.
#[derive(Clone, Copy, Debug)]
pub struct SelectConfig {
    /// CHANNEL sessions kept per server host (Sprite's fixed channel set).
    pub channels_per_peer: usize,
    /// Server-side shepherd pool (workers == 0 keeps dispatch synchronous).
    pub shepherds: ShepherdConfig,
}

impl Default for SelectConfig {
    fn default() -> SelectConfig {
        SelectConfig {
            channels_per_peer: 8,
            shepherds: ShepherdConfig::default(),
        }
    }
}

/// A fixed pool of client channels towards one server.
type ChanPool = Pool<SessionRef>;

/// The SELECT protocol object.
pub struct Select {
    weak_self: Weak<Select>,
    me: ProtoId,
    channel: ProtoId,
    cfg: SelectConfig,
    handlers: EnableMap<u16, Handler>,
    forward: EnableMap<u16, IpAddr>,
    pools: SessionMap<u32, Rc<ChanPool>>,
    sessions: SessionMap<(u32, u16)>,
    passive_opens: Cell<u64>,
    shepherds: Rc<Shepherds>,
}

impl Select {
    /// Creates SELECT above the CHANNEL protocol `channel`.
    pub fn new(me: ProtoId, channel: ProtoId, cfg: SelectConfig) -> Rc<Select> {
        Rc::new_cyclic(|weak_self| Select {
            weak_self: weak_self.clone(),
            me,
            channel,
            cfg,
            handlers: EnableMap::new(),
            forward: EnableMap::new(),
            pools: SessionMap::new(),
            sessions: SessionMap::new(),
            passive_opens: Cell::new(0),
            shepherds: Shepherds::new(cfg.shepherds),
        })
    }

    /// Shepherd-pool counters (zeros while the pool is disabled).
    pub fn shepherd_stats(&self) -> ShepherdStats {
        self.shepherds.stats()
    }

    fn self_rc(&self) -> Rc<Select> {
        self.weak_self.upgrade().expect("select alive")
    }

    /// Registers the procedure for `command`.
    pub fn serve<F>(&self, command: u16, f: F)
    where
        F: Fn(&Ctx, Message) -> XResult<Message> + 'static,
    {
        self.handlers.replace(command, Box::new(f));
    }

    /// Redirects `command` to `host` — the alternative *forwarding*
    /// selection policy.
    pub fn set_forward(&self, command: u16, host: IpAddr) {
        self.forward.bind(command, host);
    }

    /// Number of currently free channels towards `peer` (tests; None until
    /// the pool exists).
    pub fn free_channels(&self, peer: IpAddr) -> Option<usize> {
        self.pools.resolve(&peer.0).map(|p| p.free_len())
    }

    /// How many server channels CHANNEL has passively created on our
    /// behalf (reported through the open-done upcall).
    pub fn passive_opens(&self) -> u64 {
        self.passive_opens.get()
    }

    fn pool_for(&self, ctx: &Ctx, peer: IpAddr) -> XResult<Rc<ChanPool>> {
        if let Some(p) = self.pools.resolve(&peer.0) {
            return Ok(p);
        }
        // Open the fixed channel set outside the pools lock.
        let my_num = rel_proto_num("channel", "select")?;
        let mut sessions = Vec::with_capacity(self.cfg.channels_per_peer);
        for _ in 0..self.cfg.channels_per_peer {
            let parts = ParticipantSet::pair(Participant::proto(my_num), Participant::host(peer));
            sessions.push(ctx.kernel_ref().open(ctx, self.channel, self.me, &parts)?);
        }
        let pool = Pool::new(sessions);
        Ok(Rc::clone(self.pools.lock().entry(peer.0).or_insert(pool)))
    }

    /// The full client path: allocate a channel (blocking if none free),
    /// attach the SELECT header, push through CHANNEL, decode the reply.
    fn call(&self, ctx: &Ctx, peer: IpAddr, command: u16, args: Message) -> XResult<Message> {
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup); // Channel-pool lookup.
        let pool = self.pool_for(ctx, peer)?;
        // Blocks when all channels are busy.
        pool.with(ctx, |chan| {
            let hdr = SelectHdr {
                typ: TYP_REQUEST,
                command,
                status: status::OK,
            };
            let mut wire = args;
            ctx.push_header(&mut wire, &hdr.encode());
            ctx.charge_layer_call();
            let reply = chan
                .push(ctx, wire)?
                .ok_or_else(|| XError::Config("channel returned no reply".into()))?;
            let mut reply = reply;
            let bytes = ctx.pop_header(&mut reply, SELECT_HDR_LEN)?;
            let rh = SelectHdr::decode(&bytes)?;
            drop(bytes);
            match rh.status {
                status::OK => Ok(reply),
                status::NO_SUCH_PROC => {
                    Err(XError::Remote(format!("no procedure {command} on {peer}")))
                }
                status::BUSY => Err(XError::Remote(format!(
                    "server busy: procedure {command} on {peer} rejected"
                ))),
                code => Err(XError::Remote(format!(
                    "procedure {command} on {peer} failed with status {code}"
                ))),
            }
        })
    }

    /// Runs one request to completion: forwarding policy, procedure table
    /// lookup, handler execution, and the reply push down `lls`. Runs in
    /// the delivering process when dispatch is synchronous, or in a
    /// shepherd process when a pool is configured.
    fn execute_request(
        &self,
        ctx: &Ctx,
        lls: &SessionRef,
        command: u16,
        msg: Message,
    ) -> XResult<()> {
        // Forwarding policy first: redirect the command to another host.
        if let Some(&backend) = self.forward.resolve(&command) {
            let result = self.call(ctx, backend, command, msg);
            return match result {
                Ok(body) => self.reply_via(ctx, lls, command, status::OK, body),
                Err(_) => {
                    self.reply_via(ctx, lls, command, status::FORWARD_FAILED, ctx.empty_msg())
                }
            };
        }
        // Procedure table lookup. The handler runs through a plain borrow of
        // the table: nothing is locked while it executes (it may itself call
        // out through SELECT).
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup);
        match self.handlers.resolve(&command) {
            None => self.reply_via(ctx, lls, command, status::NO_SUCH_PROC, Message::empty()),
            Some(h) => match h(ctx, msg) {
                Ok(body) => self.reply_via(ctx, lls, command, status::OK, body),
                Err(_) => {
                    ctx.trace_note("procedure failed");
                    self.reply_via(ctx, lls, command, status::PROC_ERROR, ctx.empty_msg())
                }
            },
        }
    }

    fn reply_via(
        &self,
        ctx: &Ctx,
        lls: &SessionRef,
        command: u16,
        status_code: u8,
        body: Message,
    ) -> XResult<()> {
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup); // Reply-path state lookup.
        let hdr = SelectHdr {
            typ: TYP_REPLY,
            command,
            status: status_code,
        };
        let mut wire = body;
        ctx.push_header(&mut wire, &hdr.encode());
        ctx.charge_layer_call();
        lls.push(ctx, wire)?;
        Ok(())
    }
}

/// A client session bound to one (server, procedure).
pub struct SelectSession {
    parent: Rc<Select>,
    peer: IpAddr,
    command: u16,
}

impl Session for SelectSession {
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
            ControlOp::GetFreeChannels => Ok(ControlRes::Size(
                self.parent.free_channels(self.peer).unwrap_or(0),
            )),
            _ => {
                let _ = ctx;
                Err(XError::Unsupported("select session control"))
            }
        }
    }
}

impl Protocol for Select {
    fn contract(&self) -> xkernel::lint::ProtoContract {
        crate::contracts::select()
    }

    fn name(&self) -> &'static str {
        "select"
    }

    fn id(&self) -> ProtoId {
        self.me
    }

    fn boot(&self, ctx: &Ctx) -> XResult<()> {
        let parts = ParticipantSet::local(Participant::proto(rel_proto_num("channel", "select")?));
        ctx.kernel_ref()
            .open_enable(ctx, self.channel, self.me, &parts)
    }

    fn reboot(&self, _ctx: &Ctx) -> XResult<()> {
        // Channel pools and cached sessions referenced the old CHANNEL
        // incarnation; drop them so fresh ones are opened on demand.
        // Registered procedures and forwarding policy survive.
        self.drop_sessions();
        Ok(())
    }

    fn drop_sessions(&self) {
        self.pools.clear();
        self.sessions.clear();
    }

    fn open(&self, ctx: &Ctx, _upper: ProtoId, parts: &ParticipantSet) -> XResult<SessionRef> {
        let peer = parts
            .remote_part()
            .and_then(|p| p.host)
            .ok_or_else(|| XError::Config("select open needs a server host".into()))?;
        let command = parts
            .local_part()
            .and_then(|p| p.proto_num)
            .ok_or_else(|| XError::Config("select open needs a command".into()))?
            as u16;
        self.sessions.resolve_or_insert_with((peer.0, command), || {
            ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
            Ok(Rc::new(SelectSession {
                parent: self.self_rc(),
                peer,
                command,
            }) as SessionRef)
        })
    }

    fn open_enable(&self, _ctx: &Ctx, _upper: ProtoId, _parts: &ParticipantSet) -> XResult<()> {
        // Server-side dispatch is by registered handlers; nothing to record.
        Ok(())
    }

    /// CHANNEL passively created a server channel for us (the open-done
    /// upcall completing our boot-time open_enable).
    fn open_done(
        &self,
        _ctx: &Ctx,
        _lower: ProtoId,
        _lls: &SessionRef,
        _parts: &ParticipantSet,
    ) -> XResult<()> {
        self.passive_opens.bump();
        Ok(())
    }

    /// Server side: a request arrives up from CHANNEL (`lls` is the server
    /// channel session the reply must go down on). With a shepherd pool
    /// configured the request is handed off and this (interrupt-side)
    /// process returns immediately; CHANNEL keeps the request in progress
    /// until the shepherd pushes the reply, so retransmissions arriving in
    /// the meantime are acknowledged rather than re-executed.
    fn demux(&self, ctx: &Ctx, lls: &SessionRef, mut msg: Message) -> XResult<()> {
        let bytes = ctx.pop_header(&mut msg, SELECT_HDR_LEN)?;
        let hdr = SelectHdr::decode(&bytes)?;
        drop(bytes);
        if hdr.typ != TYP_REQUEST {
            return Err(Reject::Corrupt("unexpected select type").into());
        }
        let me = self.self_rc();
        let job_lls = Rc::clone(lls);
        let command = hdr.command;
        let work = move |jctx: &Ctx| me.execute_request(jctx, &job_lls, command, msg);
        match self.shepherds.dispatch(ctx, work)? {
            None => Ok(()),
            Some(Overload::Reject) => {
                // Tell the client explicitly so it can back off.
                self.reply_via(ctx, lls, command, status::BUSY, ctx.empty_msg())
            }
            Some(Overload::Drop) => {
                // Clear CHANNEL's in-progress slot so the client's
                // retransmission is redelivered instead of merely ACKed.
                let _ = lls.control(ctx, &ControlOp::Custom("chan_abort", vec![]));
                Ok(())
            }
        }
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            // Asked by VIP when SELECT's stack sits directly over it.
            ControlOp::GetMaxMsgSize => Ok(ControlRes::Size(1500)),
            _ => {
                let _ = ctx;
                Err(XError::Unsupported("select control"))
            }
        }
    }

    // Handlers are registration-time configuration; what must rewind is the
    // channel pools (the free list's LIFO *order* decides which channel the
    // next call uses), the session cache, and the counters.
    fn snap(&self, _ctx: &Ctx) -> Option<SnapBlob> {
        let pools = self
            .pools
            .lock()
            .iter()
            .map(|(peer, p)| (*peer, p.snap()))
            .collect();
        Some(Rc::new(SelectSnap {
            forward: self.forward.snapshot(),
            pools,
            sessions: self.sessions.snapshot(),
            passive_opens: self.passive_opens.get(),
            shepherds: self.shepherds.stats(),
        }))
    }

    fn restore_snap(&self, _ctx: &Ctx, blob: &SnapBlob) -> XResult<()> {
        let s = snap_downcast::<SelectSnap>(blob, "select")?;
        self.forward.restore(&s.forward);
        {
            let mut pools = self.pools.lock();
            pools.clear();
            for (peer, ps) in &s.pools {
                pools.insert(*peer, ps.restore());
            }
        }
        self.sessions.restore(&s.sessions);
        self.passive_opens.set(s.passive_opens);
        self.shepherds.restore_stats(s.shepherds);
        Ok(())
    }
}

struct SelectSnap {
    forward: EnableSnapshot,
    pools: Vec<(u32, PoolSnap<SessionRef>)>,
    sessions: SessionSnapshot<(u32, u16), SessionRef>,
    passive_opens: u64,
    shepherds: ShepherdStats,
}

// ---------------------------------------------------------------------------
// RDGRAM — the paper's "trivial" reliable datagram protocol over CHANNEL.
// ---------------------------------------------------------------------------

/// Reliable datagrams on top of CHANNEL: each datagram is a request whose
/// empty reply confirms delivery. At-most-once comes for free from CHANNEL.
pub struct Rdgram {
    weak_self: Weak<Rdgram>,
    me: ProtoId,
    channel: ProtoId,
    upper: UpperCell,
    sessions: SessionMap<u32>,
}

impl Rdgram {
    /// Creates RDGRAM above the CHANNEL protocol `channel`.
    pub fn new(me: ProtoId, channel: ProtoId) -> Rc<Rdgram> {
        Rc::new_cyclic(|weak_self| Rdgram {
            weak_self: weak_self.clone(),
            me,
            channel,
            upper: UpperCell::new(),
            sessions: SessionMap::new(),
        })
    }

    fn self_rc(&self) -> Rc<Rdgram> {
        self.weak_self.upgrade().expect("rdgram alive")
    }
}

/// Client session: push = reliably deliver one datagram.
pub struct RdgramSession {
    parent: Rc<Rdgram>,
    peer: IpAddr,
    chan: SessionRef,
}

impl Session for RdgramSession {
    fn protocol_id(&self) -> ProtoId {
        self.parent.me
    }

    fn push(&self, ctx: &Ctx, msg: Message) -> XResult<Option<Message>> {
        ctx.charge_layer_call();
        let reply = self.chan.push(ctx, msg)?;
        debug_assert!(reply.is_some(), "channel always returns a reply");
        Ok(None) // Datagram semantics: nothing comes back to the caller.
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetPeerHost => Ok(ControlRes::Ip(self.peer)),
            other => self.chan.control(ctx, other),
        }
    }
}

impl Protocol for Rdgram {
    fn contract(&self) -> xkernel::lint::ProtoContract {
        crate::contracts::rdgram()
    }

    fn name(&self) -> &'static str {
        "rdgram"
    }

    fn id(&self) -> ProtoId {
        self.me
    }

    fn boot(&self, ctx: &Ctx) -> XResult<()> {
        let parts = ParticipantSet::local(Participant::proto(rel_proto_num("channel", "rdgram")?));
        ctx.kernel_ref()
            .open_enable(ctx, self.channel, self.me, &parts)
    }

    fn reboot(&self, _ctx: &Ctx) -> XResult<()> {
        self.drop_sessions();
        Ok(())
    }

    fn drop_sessions(&self) {
        self.sessions.clear();
    }

    fn open(&self, ctx: &Ctx, _upper: ProtoId, parts: &ParticipantSet) -> XResult<SessionRef> {
        let peer = parts
            .remote_part()
            .and_then(|p| p.host)
            .ok_or_else(|| XError::Config("rdgram open needs a peer host".into()))?;
        self.sessions.resolve_or_open(peer.0, || {
            ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
            let cparts = ParticipantSet::pair(
                Participant::proto(rel_proto_num("channel", "rdgram")?),
                Participant::host(peer),
            );
            let chan = ctx.kernel_ref().open(ctx, self.channel, self.me, &cparts)?;
            Ok(Rc::new(RdgramSession {
                parent: self.self_rc(),
                peer,
                chan,
            }) as SessionRef)
        })
    }

    fn open_enable(&self, _ctx: &Ctx, upper: ProtoId, _parts: &ParticipantSet) -> XResult<()> {
        self.upper.set(Some(upper));
        Ok(())
    }

    /// Server side: deliver the datagram up, then confirm with an empty
    /// reply so the sender's CHANNEL push completes.
    fn demux(&self, ctx: &Ctx, lls: &SessionRef, msg: Message) -> XResult<()> {
        let upper = self
            .upper
            .get()
            .ok_or(Reject::NoEnable("rdgram has no upper"))?;
        ctx.kernel_ref().demux_to(ctx, upper, lls, msg)?;
        ctx.charge_layer_call();
        lls.push(ctx, ctx.empty_msg())?;
        Ok(())
    }

    fn snap(&self, _ctx: &Ctx) -> Option<SnapBlob> {
        Some(Rc::new(RdgramSnap {
            upper: self.upper.get(),
            sessions: self.sessions.snapshot(),
        }))
    }

    fn restore_snap(&self, _ctx: &Ctx, blob: &SnapBlob) -> XResult<()> {
        let s = snap_downcast::<RdgramSnap>(blob, "rdgram")?;
        self.upper.set(s.upper);
        self.sessions.restore(&s.sessions);
        Ok(())
    }
}

struct RdgramSnap {
    upper: Option<ProtoId>,
    sessions: SessionSnapshot<u32, SessionRef>,
}
