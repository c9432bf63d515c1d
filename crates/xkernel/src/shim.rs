//! Shim protocols used by experiments.
//!
//! * [`NullLayer`] — a trivial but *complete* protocol layer: it has a
//!   4-byte header with its own protocol-number field, a demux map, and
//!   sessions. It does nothing else. This is the paper's "trivial protocols
//!   such as UDP" whose 0.11 msec floor bounds the cost of any layer, and it
//!   powers the "stacks with on the order of ten layers" scaling ablation.
//! * [`HandicapLayer`] — a transparent layer that charges the modelled
//!   overheads of environments we cannot rebuild (native Sprite kernel,
//!   SunOS socket stack). See `DESIGN.md` §1; it adds no header and changes
//!   no bytes.

use std::hash::Hash;
use std::rc::Rc;

use crate::addr::ParticipantSet;
use crate::cost::Handicap;
use crate::error::{Reject, XError, XResult};
use crate::keep::{plain, Keep};
use crate::map::{EnableMap, SessionMap, UpperCell};
use crate::msg::Message;
use crate::proto::{ControlOp, ControlRes, ProtoId, Protocol, Session, SessionRef, TracedSession};
use crate::sim::Ctx;
use crate::trace::OpClass;

crate::wire_header! {
    /// The null layer's header: a 16-bit protocol number and a 16-bit pad.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct NullHdr: NULL_HDR_LEN, "null" {
        /// The number the layer above enabled.
        pub num: u16,
        /// Zero on the wire; ignored on receipt.
        pub pad: u16,
    }
}

/// A pass-through layer's upward session for `key`, from `table` or built
/// by `make`. A miss first drops each entry that no one else holds and whose
/// lower session (`lower_of`) only it holds: nothing can deliver on that
/// again. So over REQUEST_REPLY, which passes up a new session per request,
/// the table holds the requests being served, not every one ever served.
fn upward<K: Hash + Eq, S>(
    table: &SessionMap<K, Rc<S>>,
    key: K,
    lower_of: impl Fn(&S) -> &SessionRef,
    make: impl FnOnce() -> S,
) -> Rc<S> {
    let mut t = table.lock();
    if let Some(s) = t.get(&key) {
        return Rc::clone(s);
    }
    t.retain(|_, s| Rc::strong_count(s) > 1 || Rc::strong_count(lower_of(s)) > 1);
    let s = Rc::new(make());
    t.insert(key, Rc::clone(&s));
    s
}

/// A do-nothing protocol layer with a real header and demux map.
pub struct NullLayer {
    me: ProtoId,
    down: ProtoId,
    enables: EnableMap<u16>,
    // Sessions for the upward path, keyed by number and by the identity of
    // the lower session the message came up on: replies go back down the
    // session their request arrived by (two callers over CHANNEL arrive on
    // two server channels). See [`upward`] for what bounds it.
    passive: SessionMap<(u16, usize), Rc<NullSession>>,
}

impl NullLayer {
    /// Creates a null layer above `down`.
    pub fn new(me: ProtoId, down: ProtoId) -> Rc<NullLayer> {
        Rc::new(NullLayer {
            me,
            down,
            enables: EnableMap::new(),
            passive: SessionMap::new(),
        })
    }

    /// The upward sessions cached right now.
    pub fn upward_sessions(&self) -> usize {
        self.passive.len()
    }

    fn num_of(parts: &ParticipantSet) -> XResult<u16> {
        parts
            .local_part()
            .and_then(|p| p.proto_num)
            .map(|n| n as u16)
            .ok_or_else(|| XError::Config("null layer requires a protocol number".into()))
    }
}

struct NullSession {
    proto: ProtoId,
    num: u16,
    lower: SessionRef,
}

impl Session for NullSession {
    fn protocol_id(&self) -> ProtoId {
        self.proto
    }

    fn push(&self, ctx: &Ctx, mut msg: Message) -> XResult<Option<Message>> {
        let hdr = NullHdr {
            num: self.num,
            pad: 0,
        };
        ctx.push_header(&mut msg, &hdr.encode());
        ctx.charge_layer_call();
        match self.lower.push(ctx, msg)? {
            None => Ok(None),
            Some(mut reply) => {
                // Request/reply lower: strip our header from the returned
                // reply before handing it to our caller.
                let h = ctx.pop_header(&mut reply, NULL_HDR_LEN)?;
                drop(h);
                Ok(Some(reply))
            }
        }
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetMaxPacket | ControlOp::GetOptPacket => {
                let r = self.lower.control(ctx, op)?;
                Ok(ControlRes::Size(r.size()?.saturating_sub(NULL_HDR_LEN)))
            }
            other => self.lower.control(ctx, other),
        }
    }
}

// An upward session's fields are fixed when it is made.
plain!(NullSession, HandicapSession);

impl Protocol for NullLayer {
    fn id(&self) -> ProtoId {
        self.me
    }

    fn keeps(&self, k: &mut Keep<'_>) {
        k.config(&self.enables);
        k.sessions(&self.passive);
    }

    fn open(&self, ctx: &Ctx, _upper: ProtoId, parts: &ParticipantSet) -> XResult<SessionRef> {
        let num = Self::num_of(parts)?;
        ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
        let lower = ctx.kernel_ref().open(ctx, self.down, self.me, parts)?;
        Ok(Rc::new(NullSession {
            proto: self.me,
            num,
            lower,
        }))
    }

    fn open_enable(&self, ctx: &Ctx, upper: ProtoId, parts: &ParticipantSet) -> XResult<()> {
        let num = Self::num_of(parts)?;
        self.enables.bind(num, upper);
        // Propagate the enable downward under the same number so messages
        // reach us in the first place.
        ctx.kernel_ref().open_enable(ctx, self.down, self.me, parts)
    }

    fn demux(&self, ctx: &Ctx, lls: &SessionRef, mut msg: Message) -> XResult<()> {
        let num = NullHdr::decode(&ctx.pop_header(&mut msg, NULL_HDR_LEN)?)?.num;
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup);
        let upper = *self
            .enables
            .resolve(&num)
            .ok_or(Reject::NoEnable("null layer number"))?;
        // Reuse (or passively create) the session replies travel down on —
        // the paper's "cache open sessions at all levels" rule.
        let key = (num, Rc::as_ptr(lls) as *const () as usize);
        let sess = upward(
            &self.passive,
            key,
            |s: &NullSession| &s.lower,
            || {
                ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
                NullSession {
                    proto: self.me,
                    num,
                    lower: Rc::clone(lls),
                }
            },
        );
        ctx.kernel_ref()
            .demux_to(ctx, upper, &(sess as SessionRef), msg)
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetMaxPacket | ControlOp::GetOptPacket => {
                let r = ctx.kernel_ref().control(ctx, self.down, op)?;
                Ok(ControlRes::Size(r.size()?.saturating_sub(NULL_HDR_LEN)))
            }
            other => ctx.kernel_ref().control(ctx, self.down, other),
        }
    }
}

/// A transparent layer charging modelled environment overheads.
pub struct HandicapLayer {
    me: ProtoId,
    down: ProtoId,
    handicap: Handicap,
    upper: UpperCell,
    // Wrapped lower sessions for the upward path, keyed by the identity of
    // the underlying session, so server-side reply pushes are charged too.
    // See [`upward`] for what bounds it.
    wrapped: SessionMap<usize, Rc<HandicapSession>>,
}

// Charged once per message *sent* (each host pays for the messages it
// originates; the peer pays for its own sends, so a round trip is charged
// exactly twice).
fn charge_msg(handicap: &Handicap, ctx: &Ctx, len: usize) {
    let c = ctx.cost();
    let mut ns = u64::from(handicap.extra_switches_per_msg) * c.proc_switch;
    ns += (len as u64 * u64::from(handicap.extra_copy_256ths) / 256) * c.copy_byte;
    // Half the fixed per-round-trip cost on each direction's send.
    ns += handicap.per_rtt_fixed / 2;
    ctx.charge_class(OpClass::Handicap, ns);
}

impl HandicapLayer {
    /// Creates a handicap layer above `down` charging `handicap`.
    pub fn new(me: ProtoId, down: ProtoId, handicap: Handicap) -> Rc<HandicapLayer> {
        Rc::new(HandicapLayer {
            me,
            down,
            handicap,
            upper: UpperCell::new(),
            wrapped: SessionMap::new(),
        })
    }

    /// The upward sessions cached right now.
    pub fn upward_sessions(&self) -> usize {
        self.wrapped.len()
    }
}

struct HandicapSession {
    proto: ProtoId,
    handicap: Handicap,
    lower: SessionRef,
}

impl Session for HandicapSession {
    fn protocol_id(&self) -> ProtoId {
        self.proto
    }

    fn push(&self, ctx: &Ctx, msg: Message) -> XResult<Option<Message>> {
        charge_msg(&self.handicap, ctx, msg.len());
        ctx.charge_layer_call();
        self.lower.push(ctx, msg)
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        self.lower.control(ctx, op)
    }
}

impl Protocol for HandicapLayer {
    fn id(&self) -> ProtoId {
        self.me
    }

    fn keeps(&self, k: &mut Keep<'_>) {
        k.config(&self.upper);
        k.sessions(&self.wrapped);
    }

    fn open(&self, ctx: &Ctx, upper: ProtoId, parts: &ParticipantSet) -> XResult<SessionRef> {
        self.upper.set(Some(upper));
        let lower = ctx.kernel_ref().open(ctx, self.down, self.me, parts)?;
        Ok(Rc::new(HandicapSession {
            proto: self.me,
            handicap: self.handicap,
            lower,
        }))
    }

    fn open_enable(&self, ctx: &Ctx, upper: ProtoId, parts: &ParticipantSet) -> XResult<()> {
        self.upper.set(Some(upper));
        ctx.kernel_ref().open_enable(ctx, self.down, self.me, parts)
    }

    fn demux(&self, ctx: &Ctx, lls: &SessionRef, msg: Message) -> XResult<()> {
        let upper = self
            .upper
            .get()
            .ok_or(Reject::NoEnable("handicap layer has no upper"))?;
        let key = Rc::as_ptr(lls) as *const () as usize;
        let sess = upward(
            &self.wrapped,
            key,
            |s: &HandicapSession| &s.lower,
            || HandicapSession {
                proto: self.me,
                handicap: self.handicap,
                lower: Rc::clone(lls),
            },
        );
        ctx.kernel_ref()
            .demux_to(ctx, upper, &(sess as SessionRef), msg)
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        ctx.kernel_ref().control(ctx, self.down, op)
    }
}

/// Lint contract for the `null` layer: a pass-through pushing its 4-byte
/// header, transparent to addressing.
pub fn null_contract() -> crate::lint::ProtoContract {
    crate::lint::ProtoContract::passthrough("null").header(NULL_HDR_LEN)
}

/// Lint contract for the `handicap` layer: pure pass-through (no header on
/// the wire, only modelled cost).
pub fn handicap_contract() -> crate::lint::ProtoContract {
    crate::lint::ProtoContract::passthrough("handicap")
        .param("switches", false, true)
        .param("copy256", false, true)
        .param("fixed_ns", false, true)
}

/// Registers the shim constructors and their lint contracts:
///
/// * `null -> <lower>` — a trivial complete layer (scaling ablation)
/// * `handicap [switches=N] [copy256=N] [fixed_ns=N] -> <lower>`
///   — modelled-environment overhead layer. Being a pass-through, it
///   presents its lower's protocol-number space
///   ([`crate::kernel::Kernel::space_of`]), so upper protocols treat the
///   handicapped stack exactly as they would the real one.
pub fn register_ctors(reg: &mut crate::graph::ProtocolRegistry) {
    reg.add(null_contract(), |a: &crate::graph::GraphArgs<'_>| {
        Ok(NullLayer::new(a.me, a.down(0)?) as crate::proto::ProtocolRef)
    });
    reg.add(handicap_contract(), |a: &crate::graph::GraphArgs<'_>| {
        let handicap = Handicap {
            extra_switches_per_msg: a.param_u64("switches", 0)? as u32,
            extra_copy_256ths: a.param_u64("copy256", 0)? as u32,
            per_rtt_fixed: a.param_u64("fixed_ns", 0)?,
        };
        Ok(HandicapLayer::new(a.me, a.down(0)?, handicap) as crate::proto::ProtocolRef)
    });
}
