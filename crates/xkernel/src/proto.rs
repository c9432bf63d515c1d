//! The uniform protocol interface.
//!
//! Every protocol in the suite — device drivers, ETH, IP, VIP, the RPC
//! layers — implements the same two traits. This uniformity is the first of
//! the three x-kernel features the paper leans on: "if two or more protocols
//! provide the same semantics ... it is easy to substitute one for another."
//!
//! * A [`Protocol`] creates sessions (actively via [`Protocol::open`],
//!   passively via [`Protocol::open_enable`] + demux-time `open_done`) and
//!   switches incoming messages to them via [`Protocol::demux`].
//! * A [`Session`] is a run-time instance of a protocol: the end-point of a
//!   connection, holding its local state. Messages move down with
//!   [`Session::push`] and up with [`Session::pop`].
//! * Both support [`Protocol::control`]/[`Session::control`] for the small
//!   set of out-of-band queries (the paper found "on the order of two dozen"
//!   suffice — see [`ControlOp`]).

use std::any::Any;
use std::rc::Rc;

use crate::addr::{EthAddr, IpAddr, ParticipantSet, Port};
use crate::error::{XError, XResult};
use crate::msg::Message;
use crate::sim::{Ctx, LayerSpan};
use crate::trace::EventKind;

/// Identifies a protocol object within one kernel's configuration.
///
/// Protocol ids are capabilities handed out when the protocol graph is
/// built; a protocol can only open lower protocols it was configured with —
/// the "late binding between protocol layers".
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ProtoId(pub usize);

/// Shared handle to a session object.
pub type SessionRef = Rc<dyn Session>;

/// Shared handle to a protocol object.
pub type ProtocolRef = Rc<dyn Protocol>;

/// Opaque, protocol-private snapshot state: what [`Protocol::snap`]
/// captures and [`Protocol::restore_snap`] consumes. Each protocol
/// downcasts to its own concrete type; the snapshot machinery only
/// transports the blobs.
pub type SnapBlob = Rc<dyn Any>;

/// Downcasts a snapshot blob to the concrete type `T` the protocol stored,
/// failing with a labeled error when handed some other protocol's blob
/// (slot misalignment: restoring onto a differently configured graph).
pub fn snap_downcast<'a, T: 'static>(blob: &'a SnapBlob, who: &'static str) -> XResult<&'a T> {
    blob.downcast_ref::<T>()
        .ok_or_else(|| XError::Config(format!("{who}: snapshot blob type mismatch")))
}

/// The out-of-band query/command set supported by `control`.
///
/// Mirrors the x-kernel opcodes the paper's protocols rely on. `Custom`
/// keeps the interface uniform for protocol-specific extensions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ControlOp {
    /// Largest message the object can carry in one unit (after its own
    /// fragmentation, if any).
    GetMaxPacket,
    /// Largest message that avoids fragmentation anywhere below.
    GetOptPacket,
    /// Asked *of a high-level protocol* (by VIP at open time): the largest
    /// message it will ever push into the protocol below it.
    GetMaxMsgSize,
    /// Local host internet address.
    GetMyHost,
    /// Peer host internet address (sessions only).
    GetPeerHost,
    /// Local hardware address.
    GetMyEth,
    /// The protocol number the queried object demultiplexes on.
    GetMyProto,
    /// Local transport port (sessions of port-based protocols).
    GetMyPort,
    /// Peer transport port.
    GetPeerPort,
    /// Resolve an internet address to a hardware address (ARP). Fails if
    /// the host does not answer on the local wire — which is exactly the
    /// "is this host on my Ethernet?" oracle VIP uses.
    Resolve(IpAddr),
    /// Install a static resolution entry (ARP cache seeding in tests).
    InstallResolve(IpAddr, EthAddr),
    /// How many fragments a message of the given size would need (asked of
    /// FRAGMENT by CHANNEL to tune its step-function timeout).
    GetFragCount(usize),
    /// Current round-trip-time estimate in nanoseconds.
    GetRtt,
    /// Override the object's base timeout (nanoseconds).
    SetTimeout(u64),
    /// Cap on consecutive exponential-backoff doublings a retransmitting
    /// protocol may apply to its RTO (0 disables backoff).
    SetBackoff(u32),
    /// Number of currently free RPC channels (SELECT).
    GetFreeChannels,
    /// The peer's boot id as last observed (CHANNEL / Sprite RPC).
    GetPeerBootId,
    /// Local boot id.
    GetMyBootId,
    /// Protocol-specific escape hatch.
    Custom(&'static str, Vec<u8>),
}

/// Result of a `control` operation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ControlRes {
    /// Operation performed; nothing to report.
    Done,
    /// A size in bytes.
    Size(usize),
    /// A 32-bit value.
    U32(u32),
    /// A 64-bit value.
    U64(u64),
    /// An internet address.
    Ip(IpAddr),
    /// A hardware address.
    Eth(EthAddr),
    /// A port number.
    Port(Port),
    /// Raw bytes.
    Bytes(Vec<u8>),
}

impl ControlRes {
    /// Extracts a size, or errors.
    pub fn size(&self) -> XResult<usize> {
        match self {
            ControlRes::Size(n) => Ok(*n),
            _ => Err(WRONG_RESULT),
        }
    }

    /// Extracts a `u32`, or errors.
    pub fn u32(&self) -> XResult<u32> {
        match self {
            ControlRes::U32(v) => Ok(*v),
            _ => Err(WRONG_RESULT),
        }
    }

    /// Extracts an internet address, or errors.
    pub fn ip(&self) -> XResult<IpAddr> {
        match self {
            ControlRes::Ip(v) => Ok(*v),
            _ => Err(WRONG_RESULT),
        }
    }

    /// Extracts a hardware address, or errors.
    pub fn eth(&self) -> XResult<EthAddr> {
        match self {
            ControlRes::Eth(v) => Ok(*v),
            _ => Err(WRONG_RESULT),
        }
    }
}

/// What an accessor of a [`ControlRes`] of another variant returns: a
/// caller's bug, not anything a frame can cause.
const WRONG_RESULT: XError = XError::Unsupported("control result of another type");

/// A protocol object: creates sessions and demultiplexes incoming messages.
pub trait Protocol: Any {
    /// Short protocol name, e.g. `"ip"`.
    fn name(&self) -> &'static str;

    /// This protocol's id within its kernel.
    fn id(&self) -> ProtoId;

    /// Actively creates a session for communication with the given
    /// participants (all members specified; first is local). `upper` is the
    /// invoking protocol, used for upward demultiplexing and for querying
    /// the opener via `control` (e.g. VIP asking `GetMaxMsgSize`).
    fn open(&self, ctx: &Ctx, upper: ProtoId, parts: &ParticipantSet) -> XResult<SessionRef>;

    /// Passively enables session creation: "deliver messages matching
    /// `parts` (local participant at least) up to `upper`".
    fn open_enable(&self, ctx: &Ctx, upper: ProtoId, parts: &ParticipantSet) -> XResult<()>;

    /// Revokes a previous [`Protocol::open_enable`].
    fn open_disable(&self, _ctx: &Ctx, _upper: ProtoId, _parts: &ParticipantSet) -> XResult<()> {
        Err(XError::Unsupported("open_disable"))
    }

    /// Called *on the high-level protocol* when a lower protocol passively
    /// created a session on its behalf (completing an `open_enable`); `lls`
    /// is the freshly created lower session.
    fn open_done(
        &self,
        _ctx: &Ctx,
        _lower: ProtoId,
        _lls: &SessionRef,
        _parts: &ParticipantSet,
    ) -> XResult<()> {
        Ok(())
    }

    /// Switches a message arriving from below to one of this protocol's
    /// sessions (creating one via the open-done path if an enable matches).
    /// `lls` is the lower session the message arrived on.
    fn demux(&self, ctx: &Ctx, lls: &SessionRef, msg: Message) -> XResult<()>;

    /// Reads or sets protocol-wide parameters.
    fn control(&self, _ctx: &Ctx, _op: &ControlOp) -> XResult<ControlRes> {
        Err(XError::Unsupported("protocol control op"))
    }

    /// One-time initialization after the whole protocol graph is built
    /// (bottom-up order). Must not block.
    fn boot(&self, _ctx: &Ctx) -> XResult<()> {
        Ok(())
    }

    /// Redo exactly the PRNG draws [`Protocol::boot`] made, nothing else.
    /// [`crate::sim::Sim::reseed`] restarts the simulation's PRNG under a
    /// new seed and calls this on every protocol in the order `boot` ran
    /// (kernels in host order, protocols in id order), so a rig built under
    /// one seed becomes the rig another seed would have built: a protocol
    /// that draws its boot incarnation from [`Ctx::next_u64`] draws it again
    /// here, from the new stream. State `boot` derived without the PRNG
    /// (enables, lower bindings, addresses) is left alone. `reseed` counts
    /// the draws and panics if they are not as many as set-up made — so a
    /// protocol that draws in `boot` must override this. Must not block,
    /// charge, or schedule. The default — draw nothing — suits every
    /// protocol whose `boot` draws nothing.
    fn reseed(&self, _ctx: &Ctx) {}

    /// Re-initialization after a host crash ([`crate::sim::Sim::restart`]):
    /// the protocol discards volatile state (open sessions, partial
    /// reassemblies, in-flight exchanges) and picks a fresh boot
    /// incarnation where it keeps one, while configuration installed at
    /// build time (handlers, enables, graph wiring) survives. Called
    /// bottom-up like [`Protocol::boot`]. Must not block. The default — do
    /// nothing — suits stateless protocols.
    fn reboot(&self, _ctx: &Ctx) -> XResult<()> {
        Ok(())
    }

    /// Lets go of every session and every piece of per-peer state this
    /// protocol caches. A cached session holds its protocol (its `parent`,
    /// strongly: upgrading a `Weak` on every push would be a check and a
    /// count on the path a call takes), so table and session keep
    /// each other alive until the table is emptied. A [`Kernel`]'s `Drop`
    /// runs this on every protocol — it is what frees a discarded rig — and
    /// a protocol's [`Protocol::reboot`] calls it too, so the list of tables
    /// is written once. No `Ctx`: when a kernel drops there is no simulator
    /// left to charge. Must not block or cross a layer. The default — do
    /// nothing — suits protocols that cache no session.
    ///
    /// [`Kernel`]: crate::kernel::Kernel
    fn drop_sessions(&self) {}

    /// Captures this protocol's mutable state for a whole-sim snapshot
    /// (see [`crate::sim::Sim::snapshot`]). Called only at a quiescent
    /// instant — no shepherd process exists, no timer is armed — so
    /// timer-reclaimed state (partial reassemblies, in-flight exchanges)
    /// is empty by construction and a protocol captures exactly its
    /// durable maps, counters, and estimator state. Must not block,
    /// charge, or schedule. The default `None` suits protocols whose only
    /// state is build-time configuration.
    fn snap(&self, _ctx: &Ctx) -> Option<SnapBlob> {
        None
    }

    /// Restores state captured by [`Protocol::snap`] on the *same*
    /// protocol instance (snapshot/restore rewinds a rig in place; it does
    /// not rebuild one). Same quiescence requirement; must not block,
    /// charge, or schedule. Errors if the blob is not this protocol's.
    fn restore_snap(&self, _ctx: &Ctx, _blob: &SnapBlob) -> XResult<()> {
        Ok(())
    }

    /// The declarative composition contract this protocol contributes to
    /// the static graph linter ([`crate::lint`]): address kinds consumed
    /// and produced, header budget, identity preservation, lower-layer
    /// slots, and semaphore discipline. The default is an opaque contract
    /// the linter does not check; protocols override it so composition
    /// errors are caught before the simulator runs.
    fn contract(&self) -> crate::lint::ProtoContract {
        crate::lint::ProtoContract::opaque(self.name())
    }
}

/// Span-entering wrapper for [`Session`] handles.
///
/// Implemented for [`SessionRef`] (the `Rc` layer), where method
/// resolution finds it one autoderef step *before* the trait methods on
/// `dyn Session` — so every existing `lower.push(ctx, msg)` call site
/// through a `SessionRef` transparently enters the layer's xtrace span,
/// with no per-protocol edits. The span is an RAII guard: it pops on
/// return and on a crash unwind, so span stacks stay balanced under
/// [`crate::sim::Sim::crash_at`]. Free when tracing is off.
pub trait TracedSession {
    /// [`Session::push`], entering the session's protocol span.
    fn push(&self, ctx: &Ctx, msg: Message) -> XResult<Option<Message>>;
    /// [`Session::pop`], entering the session's protocol span.
    fn pop(&self, ctx: &Ctx, msg: Message) -> XResult<()>;
}

/// Enters `id()`'s span around one crossing carrying `msg` — if tracing is
/// on. When it is off (every end-to-end run) neither the protocol id (a
/// virtual call) nor the message length (a walk over the rope) is computed.
#[inline]
fn span(
    ctx: &Ctx,
    kind: EventKind,
    id: impl FnOnce() -> ProtoId,
    msg: &Message,
) -> Option<LayerSpan> {
    ctx.trace_enabled()
        .then(|| ctx.enter_layer(id(), kind, msg.len() as u64))
}

impl TracedSession for SessionRef {
    #[inline]
    fn push(&self, ctx: &Ctx, msg: Message) -> XResult<Option<Message>> {
        let _span = span(ctx, EventKind::Push, || self.protocol_id(), &msg);
        Session::push(&**self, ctx, msg)
    }

    #[inline]
    fn pop(&self, ctx: &Ctx, msg: Message) -> XResult<()> {
        let _span = span(ctx, EventKind::Demux, || self.protocol_id(), &msg);
        Session::pop(&**self, ctx, msg)
    }
}

/// Span-entering wrapper for [`Protocol`] handles; the upward counterpart
/// of [`TracedSession`] (see there for the resolution trick).
pub trait TracedProtocol {
    /// [`Protocol::demux`], entering the protocol's span. Every upward
    /// crossing passes here, so this is where a refusal ([`XError::Reject`])
    /// is counted, once, against the refusing protocol; it returns `Ok`.
    fn demux(&self, ctx: &Ctx, lls: &SessionRef, msg: Message) -> XResult<()>;
}

impl TracedProtocol for ProtocolRef {
    #[inline]
    fn demux(&self, ctx: &Ctx, lls: &SessionRef, msg: Message) -> XResult<()> {
        let _span = span(ctx, EventKind::Demux, || self.id(), &msg);
        match Protocol::demux(&**self, ctx, lls, msg) {
            Err(XError::Reject(why)) => {
                ctx.refused(self.id(), why);
                Ok(())
            }
            done => done,
        }
    }
}

/// A session object: one end-point of a network connection.
pub trait Session: Any {
    /// The protocol this session belongs to.
    fn protocol_id(&self) -> ProtoId;

    /// Passes a message down through this session. Datagram sessions return
    /// `Ok(None)`; request/reply sessions (CHANNEL, the RPC protocols)
    /// block the shepherd and return `Ok(Some(reply))`.
    fn push(&self, ctx: &Ctx, msg: Message) -> XResult<Option<Message>>;

    /// Passes a message up through this session (invoked by the owning
    /// protocol's demux).
    fn pop(&self, _ctx: &Ctx, _msg: Message) -> XResult<()> {
        Err(XError::Unsupported("session pop"))
    }

    /// Reads or sets session parameters.
    fn control(&self, _ctx: &Ctx, _op: &ControlOp) -> XResult<ControlRes> {
        Err(XError::Unsupported("session control op"))
    }

    /// Releases the session's resources. Idempotent.
    fn close(&self, _ctx: &Ctx) -> XResult<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_res_accessors() {
        assert_eq!(ControlRes::Size(9).size().unwrap(), 9);
        assert!(ControlRes::Done.size().is_err());
        assert_eq!(
            ControlRes::Ip(IpAddr::new(1, 2, 3, 4)).ip().unwrap(),
            IpAddr::new(1, 2, 3, 4)
        );
        assert_eq!(
            ControlRes::Eth(EthAddr::from_index(3)).eth().unwrap(),
            EthAddr::from_index(3)
        );
        assert_eq!(ControlRes::U32(7).u32().unwrap(), 7);
        assert_eq!(ControlRes::U32(7).ip(), Err(WRONG_RESULT));
    }
}
