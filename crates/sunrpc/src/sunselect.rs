//! SUN_SELECT — Sun RPC's selection layer.
//!
//! Maps (program, version, procedure) onto a registered procedure, in XDR
//! as Sun RPC does. It composes with any transaction layer below —
//! REQUEST_REPLY for the classic zero-or-more Sun RPC, or Sprite's CHANNEL
//! for an at-most-once Sun RPC — and with any stack of authentication
//! layers in between. This is the paper's "mix and match RPCs".

use std::rc::{Rc, Weak};

use xkernel::prelude::*;

use xrpc::protnum::num_over;
use xrpc::select::Handler;

/// Reply status values.
pub mod status {
    /// Success.
    pub const OK: u32 = 0;
    /// Program unavailable.
    pub const PROG_UNAVAIL: u32 = 1;
    /// Procedure unavailable within the program.
    pub const PROC_UNAVAIL: u32 = 2;
    /// The procedure itself failed.
    pub const PROC_ERROR: u32 = 3;
}

wire_header! {
    /// The SUN_SELECT header: four XDR unsigned integers.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct SunSelHdr: SUNSEL_HDR_LEN, "sun_select" {
        /// Program number.
        pub prog: u32,
        /// Program version.
        pub vers: u32,
        /// Procedure within the program.
        pub proc: u32,
        /// Reply status (see [`status`]); [`status::OK`] in a call.
        pub status: u32,
    }
}

/// The SUN_SELECT protocol object.
pub struct SunSelect {
    weak_self: Weak<SunSelect>,
    me: ProtoId,
    lower: ProtoId,
    handlers: EnableMap<(u32, u32, u32), Handler>,
    lowers: SessionMap<u32>,
}

impl SunSelect {
    /// Creates SUN_SELECT above `lower` (a transaction layer, possibly with
    /// auth layers in between).
    pub fn new(me: ProtoId, lower: ProtoId) -> Rc<SunSelect> {
        Rc::new_cyclic(|weak_self| SunSelect {
            weak_self: weak_self.clone(),
            me,
            lower,
            handlers: EnableMap::new(),
            lowers: SessionMap::new(),
        })
    }

    fn self_rc(&self) -> Rc<SunSelect> {
        self.weak_self.upgrade().expect("sunselect alive")
    }

    /// Registers the procedure for (prog, vers, proc).
    pub fn serve<F>(&self, prog: u32, vers: u32, proc: u32, f: F)
    where
        F: Fn(&Ctx, Message) -> XResult<Message> + 'static,
    {
        self.handlers.replace((prog, vers, proc), Box::new(f));
    }

    fn lower_for(&self, ctx: &Ctx, peer: IpAddr) -> XResult<SessionRef> {
        self.lowers.resolve_or_open(peer.0, || {
            let parts = ParticipantSet::pair(
                Participant::proto(num_over(ctx.kernel_ref(), self.me, self.lower)?),
                Participant::host(peer),
            );
            ctx.kernel_ref().open(ctx, self.lower, self.me, &parts)
        })
    }

    /// Invokes (prog, vers, proc) on `peer` with `args`.
    pub fn call(
        &self,
        ctx: &Ctx,
        peer: IpAddr,
        prog: u32,
        vers: u32,
        proc: u32,
        args: Vec<u8>,
    ) -> XResult<Vec<u8>> {
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup);
        let lower = self.lower_for(ctx, peer)?;
        let mut wire = ctx.msg(args);
        let hdr = SunSelHdr {
            prog,
            vers,
            proc,
            status: status::OK,
        };
        ctx.push_header(&mut wire, &hdr.encode());
        ctx.charge_layer_call();
        let mut reply = lower
            .push(ctx, wire)?
            .ok_or_else(|| XError::Config("transaction layer returned no reply".into()))?;
        let hdr = SunSelHdr::decode(&ctx.pop_header(&mut reply, SUNSEL_HDR_LEN)?)?;
        match hdr.status {
            status::OK => Ok(reply.to_vec()),
            status::PROG_UNAVAIL => Err(XError::Remote(format!("program {prog} unavailable"))),
            status::PROC_UNAVAIL => Err(XError::Remote(format!(
                "procedure {prog}.{vers}.{proc} unavailable"
            ))),
            other => Err(XError::Remote(format!(
                "procedure {prog}.{vers}.{proc} failed with status {other}"
            ))),
        }
    }
}

/// A client session bound to one (peer, prog, vers, proc).
pub struct SunSelectSession {
    parent: Rc<SunSelect>,
    peer: IpAddr,
    prog: u32,
    vers: u32,
    proc: u32,
}

impl Session for SunSelectSession {
    fn protocol_id(&self) -> ProtoId {
        self.parent.me
    }

    fn push(&self, ctx: &Ctx, msg: Message) -> XResult<Option<Message>> {
        self.parent
            .call(
                ctx,
                self.peer,
                self.prog,
                self.vers,
                self.proc,
                msg.to_vec(),
            )
            .map(|v| Some(Message::from_user(v)))
    }

    fn control(&self, _ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetPeerHost => Ok(ControlRes::Ip(self.peer)),
            _ => Err(XError::Unsupported("sunselect session control")),
        }
    }
}

impl Protocol for SunSelect {
    fn id(&self) -> ProtoId {
        self.me
    }

    // Cached lower sessions reference the transaction layer below and go at
    // a reboot; registered programs survive.
    fn keeps(&self, k: &mut Keep<'_>) {
        k.config(&self.handlers);
        k.sessions(&self.lowers);
    }

    fn boot(&self, ctx: &Ctx) -> XResult<()> {
        let kernel = ctx.kernel_ref();
        let parts =
            ParticipantSet::local(Participant::proto(num_over(kernel, self.me, self.lower)?));
        kernel.open_enable(ctx, self.lower, self.me, &parts)
    }

    /// Uniform-interface open: the (prog, vers, proc) triple is packed into
    /// the participant's protocol number as `prog << 16 | vers << 8 | proc`
    /// (each component ≤ its field width); [`SunSelect::call`] is the
    /// unpacked API.
    fn open(&self, ctx: &Ctx, _upper: ProtoId, parts: &ParticipantSet) -> XResult<SessionRef> {
        let packed = parts
            .local_part()
            .and_then(|p| p.proto_num)
            .ok_or_else(|| XError::Config("sunselect open needs a packed prog/vers/proc".into()))?;
        let peer = parts
            .remote_part()
            .and_then(|p| p.host)
            .ok_or_else(|| XError::Config("sunselect open needs a peer host".into()))?;
        ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
        Ok(Rc::new(SunSelectSession {
            parent: self.self_rc(),
            peer,
            prog: packed >> 16,
            vers: (packed >> 8) & 0xff,
            proc: packed & 0xff,
        }))
    }

    fn open_enable(&self, _ctx: &Ctx, _upper: ProtoId, _parts: &ParticipantSet) -> XResult<()> {
        Ok(()) // Dispatch is by registered handlers.
    }

    fn demux(&self, ctx: &Ctx, lls: &SessionRef, mut msg: Message) -> XResult<()> {
        let SunSelHdr {
            prog, vers, proc, ..
        } = SunSelHdr::decode(&ctx.pop_header(&mut msg, SUNSEL_HDR_LEN)?)?;
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup);
        // The handler runs through a plain borrow of the table: nothing is
        // locked while it executes.
        let (st, body) = match self.handlers.resolve(&(prog, vers, proc)) {
            Some(h) => match h(ctx, msg) {
                Ok(body) => (status::OK, body),
                Err(e) => {
                    let _ = e;
                    ctx.trace_note("handler failed");
                    (status::PROC_ERROR, ctx.empty_msg())
                }
            },
            None if self.handlers.iter().any(|((p, _, _), _)| *p == prog) => {
                (status::PROC_UNAVAIL, ctx.empty_msg())
            }
            None => (status::PROG_UNAVAIL, ctx.empty_msg()),
        };
        let mut wire = body;
        let hdr = SunSelHdr {
            prog,
            vers,
            proc,
            status: st,
        };
        ctx.push_header(&mut wire, &hdr.encode());
        ctx.charge_layer_call();
        lls.push(ctx, wire)?;
        Ok(())
    }

    fn control(&self, _ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetMaxMsgSize => Ok(ControlRes::Size(1500)),
            _ => Err(XError::Unsupported("sunselect control")),
        }
    }
}
