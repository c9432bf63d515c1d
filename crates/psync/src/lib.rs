//! # psync — a minimal Psync conversation protocol
//!
//! Psync (Peterson, Buchholz, Schlichting 1989) provides many-to-many IPC
//! that *preserves the partial order of exchanged messages*: each message
//! carries the ids of the messages it was sent in the context of, and a
//! receiver delivers a message only after everything in its context.
//!
//! Two roles in this reproduction:
//!
//! 1. It is the paper's motivating *reuse* customer for FRAGMENT: "Psync
//!    accommodates messages of up to 16k" and "could use a protocol that
//!    sends large messages, \[but\] does not want at most once RPC semantics"
//!    — which is exactly why FRAGMENT was given unreliable-but-persistent
//!    semantics. Compose `psync -> fragment -> vip` and large conversation
//!    messages ride the same bulk-transfer layer as layered RPC.
//! 2. It demonstrates virtual protocols serving multiple upper protocols:
//!    `psync -> vip` dynamically deletes IP under Psync on a local wire,
//!    just as Figure 2 shows.
//!
//! This is a deliberately minimal Psync: conversations with a static
//! participant set, context tracking, and partial-order delivery. The full
//! protocol's view management and failure handling are out of scope (the
//! RPC paper uses none of them).

#![warn(missing_docs)]
#![warn(clippy::disallowed_types, clippy::disallowed_methods)]

use std::cell::OnceCell;
use std::collections::{HashSet, VecDeque};
use std::rc::{Rc, Weak};

use xkernel::cell::OwnerCell;

use xkernel::graph::{GraphArgs, ProtocolRegistry};
use xkernel::keep::Rewind;
use xkernel::prelude::*;
use xrpc::protnum::num_over;

/// A message identity: (sender address, sender-local counter).
pub type MsgId = (u32, u32);

/// A delivered conversation message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PsyncMsg {
    /// Message identity.
    pub id: MsgId,
    /// The context this message was sent in (ids it depends on).
    pub deps: Vec<MsgId>,
    /// Sender.
    pub from: IpAddr,
    /// Payload.
    pub data: Vec<u8>,
}

/// A conversation's state: what its [`Rewind`] saves (opaque).
#[derive(Clone)]
pub struct ConvState {
    next_local: u32,
    delivered: HashSet<MsgId>,
    leaves: Vec<MsgId>,
    pending: Vec<PsyncMsg>,
    inbox: VecDeque<PsyncMsg>,
}

/// One end of a conversation: send into the context graph, receive in
/// partial order.
pub struct Conversation {
    parent: Rc<Psync>,
    id: u32,
    peers: Vec<IpAddr>,
    st: OwnerCell<ConvState>,
    avail: SharedSema,
}

/// A conversation keeps its context graph, the inbox the application may
/// not have drained, and the availability semaphore's count (positive at a
/// quiescent instant when there is a backlog).
impl Rewind for Conversation {
    type Saved = (ConvState, i64);
    fn save(&self) -> Self::Saved {
        (self.st.save(), self.avail.save())
    }
    fn rewind(&self, (st, avail): &Self::Saved) {
        self.st.rewind(st);
        self.avail.rewind(avail);
    }
}

impl Conversation {
    /// Sends `data` to every other participant, in the context of all
    /// currently-known leaves. Returns the new message's id.
    pub fn send(&self, ctx: &Ctx, data: Vec<u8>) -> XResult<MsgId> {
        let my_ip = self.parent.my_ip();
        let (id, deps) = {
            let mut st = self.st.lock();
            st.next_local += 1;
            let id = (my_ip.0, st.next_local);
            let deps = std::mem::replace(&mut st.leaves, vec![id]);
            st.delivered.insert(id);
            (id, deps)
        };
        let wire = encode(self.id, my_ip, id.1, &deps, &data);
        for peer in &self.peers {
            let sess = self.parent.lower_for(ctx, *peer)?;
            ctx.charge_layer_call();
            sess.push(ctx, ctx.msg(wire.clone()))?;
        }
        Ok(id)
    }

    /// Receives the next deliverable message, waiting up to `timeout_ns`.
    pub fn receive(&self, ctx: &Ctx, timeout_ns: u64) -> XResult<PsyncMsg> {
        loop {
            if let Some(m) = self.st.lock().inbox.pop_front() {
                return Ok(m);
            }
            if !self.avail.p_timeout(ctx, timeout_ns) {
                return Err(XError::Timeout(format!(
                    "psync conversation {} receive",
                    self.id
                )));
            }
        }
    }

    /// Messages delivered so far but not yet received by the application.
    pub fn backlog(&self) -> usize {
        self.st.lock().inbox.len()
    }

    /// Messages stuck waiting for their context (tests).
    pub fn waiting_on_context(&self) -> usize {
        self.st.lock().pending.len()
    }

    /// The current context leaves (tests).
    pub fn leaves(&self) -> Vec<MsgId> {
        self.st.lock().leaves.clone()
    }

    fn message_in(&self, ctx: &Ctx, msg: PsyncMsg) {
        let mut st = self.st.lock();
        if st.delivered.contains(&msg.id) {
            return; // Duplicate (FRAGMENT may duplicate; that's fine).
        }
        st.pending.push(msg);
        // Deliver everything whose context is satisfied, repeatedly.
        let mut delivered_any = true;
        while delivered_any {
            delivered_any = false;
            let mut i = 0;
            while i < st.pending.len() {
                let ready = st.pending[i].deps.iter().all(|d| st.delivered.contains(d));
                if ready {
                    let m = st.pending.remove(i);
                    st.delivered.insert(m.id);
                    st.leaves.retain(|l| !m.deps.contains(l));
                    st.leaves.push(m.id);
                    st.inbox.push_back(m);
                    delivered_any = true;
                    drop(st);
                    self.avail.v(ctx);
                    st = self.st.lock();
                } else {
                    i += 1;
                }
            }
        }
    }
}

/// Fixed wire header prefix: conv(4) sender(4) counter(4) ndeps(2).
const PSYNC_FIXED_HDR: usize = 14;

fn encode(conv: u32, sender: IpAddr, counter: u32, deps: &[MsgId], data: &[u8]) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(PSYNC_FIXED_HDR + deps.len() * 8 + data.len());
    w.u32(conv).ip(sender).u32(counter).u16(deps.len() as u16);
    for (ip, ctr) in deps {
        w.u32(*ip).u32(*ctr);
    }
    w.bytes(data);
    w.finish()
}

/// The Psync protocol object.
pub struct Psync {
    weak_self: Weak<Psync>,
    me: ProtoId,
    lower: ProtoId,
    my_ip: OnceCell<IpAddr>,
    convs: SessionMap<u32, Rc<Conversation>>,
    lowers: SessionMap<u32>,
}

impl Psync {
    /// Creates Psync above `lower` (FRAGMENT, VIP, or IP).
    pub fn new(me: ProtoId, lower: ProtoId) -> Rc<Psync> {
        Rc::new_cyclic(|weak_self| Psync {
            weak_self: weak_self.clone(),
            me,
            lower,
            my_ip: OnceCell::new(),
            convs: SessionMap::new(),
            lowers: SessionMap::new(),
        })
    }

    fn self_rc(&self) -> Rc<Psync> {
        self.weak_self.upgrade().expect("psync alive")
    }

    fn my_ip(&self) -> IpAddr {
        *self.my_ip.get().expect("psync booted")
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

    /// Opens (or joins) conversation `id` with the given other
    /// participants. Every participant must open the same id.
    pub fn open_conv(&self, _ctx: &Ctx, id: u32, peers: Vec<IpAddr>) -> Rc<Conversation> {
        let fresh = || {
            Ok(Rc::new(Conversation {
                parent: self.self_rc(),
                id,
                peers,
                st: OwnerCell::new(ConvState {
                    next_local: 0,
                    delivered: HashSet::new(),
                    leaves: Vec::new(),
                    pending: Vec::new(),
                    inbox: VecDeque::new(),
                }),
                avail: SharedSema::new(0),
            }))
        };
        self.convs
            .resolve_or_insert_with(id, fresh)
            .expect("constructor is infallible")
    }
}

impl Protocol for Psync {
    fn id(&self) -> ProtoId {
        self.me
    }

    fn keeps(&self, k: &mut Keep<'_>) {
        k.sessions(&self.convs);
        k.sessions(&self.lowers);
    }

    fn boot(&self, ctx: &Ctx) -> XResult<()> {
        let kernel = ctx.kernel_ref();
        let lower = kernel.proto_ref(self.lower)?;
        let my_ip = lower.control(ctx, &ControlOp::GetMyHost)?.ip()?;
        self.my_ip
            .set(my_ip)
            .map_err(|_| XError::Config("psync double boot".into()))?;
        let parts =
            ParticipantSet::local(Participant::proto(num_over(kernel, self.me, self.lower)?));
        kernel.open_enable(ctx, self.lower, self.me, &parts)
    }

    fn open(&self, _ctx: &Ctx, _u: ProtoId, _p: &ParticipantSet) -> XResult<SessionRef> {
        Err(XError::Unsupported("psync: use open_conv()"))
    }

    fn open_enable(&self, _ctx: &Ctx, _u: ProtoId, _p: &ParticipantSet) -> XResult<()> {
        Err(XError::Unsupported("psync delivers through Conversation"))
    }

    fn demux(&self, ctx: &Ctx, _lls: &SessionRef, mut msg: Message) -> XResult<()> {
        let fixed = ctx.pop_header(&mut msg, PSYNC_FIXED_HDR)?;
        let mut r = WireReader::new(&fixed, "psync");
        let conv = r.u32()?;
        let sender = r.ip()?;
        let counter = r.u32()?;
        let ndeps = r.u16()? as usize;
        drop(fixed);
        let deps_bytes = ctx.pop_header(&mut msg, ndeps * 8)?;
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup);
        // The conversation first: a frame for none is refused unparsed.
        let c = self
            .convs
            .resolve(&conv)
            .ok_or(Reject::NoEnable("no such conversation"))?;
        let mut r = WireReader::new(&deps_bytes, "psync deps");
        let mut deps = Vec::with_capacity(ndeps);
        for _ in 0..ndeps {
            deps.push((r.u32()?, r.u32()?));
        }
        drop(deps_bytes);
        c.message_in(
            ctx,
            PsyncMsg {
                id: (sender.0, counter),
                deps,
                from: sender,
                data: msg.to_vec(),
            },
        );
        Ok(())
    }

    fn control(&self, _ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            // Psync sends up to 16k and relies on the layer below (FRAGMENT)
            // to move it — the paper's reuse story.
            ControlOp::GetMaxMsgSize => Ok(ControlRes::Size(1500)),
            _ => Err(XError::Unsupported("psync control")),
        }
    }
}

/// Lint contract for Psync: conversation IPC over an internet-like
/// delivery layer. The header is 14 fixed bytes plus 8 per context-graph
/// dependency; 64 bounds the dependency sets this suite produces. Sends
/// block the shepherd on the availability semaphore, V'd from demux.
pub fn psync_contract() -> xkernel::lint::ProtoContract {
    use xkernel::lint::{AddrKind, BlockPoint, ProtoContract, SemaContract};
    ProtoContract::new("psync", AddrKind::Rpc)
        .lower(&[AddrKind::Internet])
        .header(64)
        .sema(SemaContract {
            acquires_pool: false,
            awaits_reply: true,
            wakes_from_demux: true,
        })
        .blocks(&[BlockPoint::Sema, BlockPoint::Timer])
        .clears_slot_on_error() // receive timeout abandons the waiter entry
}

/// Registers `psync -> <fragment|vip|ip>` into the graph vocabulary.
pub fn register_ctors(reg: &mut ProtocolRegistry) {
    reg.add(psync_contract(), |a: &GraphArgs<'_>| {
        Ok(Psync::new(a.me, a.down(0)?) as ProtocolRef)
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_encoding_roundtrips() {
        let deps = vec![(0x0a000001, 7), (0x0a000002, 3)];
        let v = encode(9, IpAddr::new(10, 0, 0, 3), 4, &deps, b"hello");
        let mut m = Message::from_wire(v);
        let fixed = m.pop_header(PSYNC_FIXED_HDR).unwrap();
        let mut r = WireReader::new(&fixed, "t");
        assert_eq!(r.u32().unwrap(), 9);
        assert_eq!(r.ip().unwrap(), IpAddr::new(10, 0, 0, 3));
        assert_eq!(r.u32().unwrap(), 4);
        assert_eq!(r.u16().unwrap(), 2);
        drop(fixed);
        let d = m.pop_header(16).unwrap();
        let mut r = WireReader::new(&d, "t");
        assert_eq!((r.u32().unwrap(), r.u32().unwrap()), deps[0]);
        assert_eq!((r.u32().unwrap(), r.u32().unwrap()), deps[1]);
        drop(d);
        assert_eq!(m.to_vec(), b"hello");
    }
}
