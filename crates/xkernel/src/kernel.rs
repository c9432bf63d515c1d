//! The per-host kernel: a registry of protocol objects.
//!
//! Each simulated host runs one `Kernel`. Protocols are identified by
//! [`ProtoId`] capabilities handed out when the graph is configured; a
//! protocol can only reach the lower protocols whose ids it was given,
//! and binds to them at run time ("late binding between protocol layers").
//!
//! [`Kernel::demux_to`] is the single choke point through which every
//! message travels upward; it charges exactly one layer-crossing cost,
//! which is what makes layers in this kernel "light-weight ... only one
//! procedure call to pass a message from a high-level protocol to a
//! low-level protocol, and vice versa".

use std::cell::OnceCell;
use std::sync::Arc;

use crate::addr::ParticipantSet;
use crate::error::{XError, XResult};
use crate::lint::{Produce, ProtoContract};
use crate::map::AppendTable;
use crate::msg::Message;
use crate::proto::{ControlOp, ControlRes, ProtoId, ProtocolRef, SessionRef, TracedProtocol};
use crate::sim::{Ctx, HostId, Sim};

/// A host's kernel: protocol registry plus identity.
pub struct Kernel {
    name: String,
    host: OnceCell<HostId>,
    /// Slot `i` is `ProtoId(i)`: appended (named, with the contract of its
    /// kind) by `reserve`, its protocol filled by `install`. Append-only, so
    /// crossings and by-name resolution read it with no guard.
    protocols: AppendTable<Slot>,
}

struct Slot {
    name: String,
    /// What the slot holds: its kind is `contract.name`.
    contract: Arc<ProtoContract>,
    /// The slot whose kind names the protocol-number space this one
    /// presents: itself, or for a pass-through layer built over a lower,
    /// that lower's.
    space: ProtoId,
    proto: OnceCell<ProtocolRef>,
}

impl Kernel {
    /// Creates a kernel and registers it with the simulator, allocating its
    /// host id.
    pub fn new(sim: &Sim, name: &str) -> Arc<Kernel> {
        let k = Arc::new(Kernel {
            name: name.to_string(),
            host: OnceCell::new(),
            protocols: AppendTable::new(),
        });
        let host = sim.add_kernel(&k);
        k.host.set(host).expect("host id set exactly once");
        k
    }

    /// This kernel's host id.
    #[inline]
    pub fn host(&self) -> HostId {
        *self.host.get().expect("host id assigned at construction")
    }

    /// The kernel's configured name (e.g. `"client"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Reserves a protocol id under `name` for a protocol of the kind
    /// `contract` describes, so the protocol can be constructed knowing its
    /// own capability, then installed.
    pub fn reserve(&self, name: &str, contract: ProtoContract) -> XResult<ProtoId> {
        self.reserve_over(name, Arc::new(contract), None)
    }

    /// [`Kernel::reserve`] for a protocol configured over `lower`: a
    /// pass-through kind presents `lower`'s protocol-number space.
    pub(crate) fn reserve_over(
        &self,
        name: &str,
        contract: Arc<ProtoContract>,
        lower: Option<ProtoId>,
    ) -> XResult<ProtoId> {
        if self.protocols.iter().any(|slot| slot.name == name) {
            return Err(XError::Config(format!(
                "protocol '{name}' already configured on {}",
                self.name
            )));
        }
        let id = ProtoId(self.protocols.len());
        let space = match lower.and_then(|l| self.protocols.get(l.0)) {
            Some(below) if contract.produces == Produce::Same => below.space,
            _ => id,
        };
        Ok(ProtoId(self.protocols.push(Slot {
            name: name.to_string(),
            contract,
            space,
            proto: OnceCell::new(),
        })))
    }

    /// Installs a constructed protocol into its reserved slot.
    pub fn install(&self, id: ProtoId, proto: ProtocolRef) -> XResult<()> {
        let slot = self
            .protocols
            .get(id.0)
            .ok_or_else(|| XError::Config(format!("install of unreserved id {id:?}")))?;
        slot.proto
            .set(proto)
            .map_err(|_| XError::Config(format!("double install of {id:?}")))
    }

    /// Convenience: reserve + construct + install in one step.
    pub fn register<F>(&self, name: &str, contract: ProtoContract, ctor: F) -> XResult<ProtoId>
    where
        F: FnOnce(ProtoId) -> XResult<ProtocolRef>,
    {
        let id = self.reserve(name, contract)?;
        let proto = ctor(id)?;
        self.install(id, proto)?;
        Ok(id)
    }

    /// The configured instance name behind a protocol id (the reverse of
    /// [`Kernel::lookup`]); used by the trace layer to label span frames.
    pub fn name_of(&self, id: ProtoId) -> Option<String> {
        self.protocols.get(id.0).map(|slot| slot.name.clone())
    }

    /// The contract of the protocol in slot `id`, installed or reserved.
    pub fn contract_of(&self, id: ProtoId) -> XResult<&ProtoContract> {
        match self.protocols.get(id.0) {
            Some(slot) => Ok(&slot.contract),
            None => Err(not_installed(id)),
        }
    }

    /// The kind (constructor name) of the protocol in slot `id`.
    pub fn kind_of(&self, id: ProtoId) -> XResult<&str> {
        self.contract_of(id).map(|c| c.name.as_str())
    }

    /// The kind whose protocol-number space the protocol in slot `id`
    /// presents to the layers above it: its own, or, for a pass-through
    /// layer (`null`, `handicap`), that of the layer beneath it.
    pub fn space_of(&self, id: ProtoId) -> XResult<&str> {
        match self.protocols.get(id.0) {
            Some(slot) => self.kind_of(slot.space),
            None => Err(not_installed(id)),
        }
    }

    /// Resolves a configured protocol name to its id: a scan of the
    /// append-only table — no guard, no hashing.
    pub fn lookup(&self, name: &str) -> XResult<ProtoId> {
        self.protocols
            .iter()
            .position(|slot| slot.name == name)
            .map(ProtoId)
            .ok_or_else(|| XError::Config(format!("no protocol '{name}' on {}", self.name)))
    }

    /// The protocol object behind an id, borrowed out of the table: what
    /// every layer crossing resolves its target through, with no reference
    /// count touched.
    #[inline]
    pub fn proto_ref(&self, id: ProtoId) -> XResult<&ProtocolRef> {
        match self.protocols.get(id.0).and_then(|slot| slot.proto.get()) {
            Some(proto) => Ok(proto),
            None => Err(not_installed(id)),
        }
    }

    /// A shared handle to the protocol object behind a name, for set-up
    /// code that keeps it; crossings use [`Kernel::proto_ref`].
    pub fn get(&self, name: &str) -> XResult<ProtocolRef> {
        self.proto_ref(self.lookup(name)?).cloned()
    }

    /// Runs every installed protocol's [`crate::proto::Protocol::reboot`]
    /// hook in id order — the same bottom-up order the initial boot used.
    /// Invoked by the simulator after [`Sim::restart`] brings the host
    /// back up.
    pub fn reboot_protocols(&self, ctx: &Ctx) -> XResult<()> {
        self.protocols().try_for_each(|p| p.reboot(ctx))
    }

    /// Every installed protocol in id order — the bottom-up order `boot`,
    /// `reboot` and `reseed` all run in.
    pub(crate) fn protocols(&self) -> impl Iterator<Item = &ProtocolRef> {
        self.protocols.iter().filter_map(|slot| slot.proto.get())
    }

    /// Every installed protocol's instance name and contract, in id order.
    pub(crate) fn contracts(&self) -> impl Iterator<Item = (&str, &ProtoContract)> {
        self.protocols
            .iter()
            .filter(|slot| slot.proto.get().is_some())
            .map(|slot| (slot.name.as_str(), &*slot.contract))
    }

    /// Every protocol slot in id order (with holes where ids were reserved
    /// but never installed). The snapshot machinery aligns per-protocol
    /// state blobs to these slots; see [`crate::sim::Sim::snapshot`].
    pub fn protocol_slots(&self) -> impl Iterator<Item = Option<&ProtocolRef>> {
        self.protocols.iter().map(|slot| slot.proto.get())
    }

    /// Names of all configured protocols, in configuration order.
    pub fn protocol_names(&self) -> Vec<String> {
        self.protocols
            .iter()
            .map(|slot| slot.name.clone())
            .collect()
    }

    /// Passes a message up to protocol `upper` — the one-procedure-call
    /// layer crossing. `lls` is the lower session the message arrived on.
    #[inline]
    pub fn demux_to(
        &self,
        ctx: &Ctx,
        upper: ProtoId,
        lls: &SessionRef,
        msg: Message,
    ) -> XResult<()> {
        ctx.charge_layer_call();
        self.proto_ref(upper)?.demux(ctx, lls, msg)
    }

    /// Opens lower protocol `lower` on behalf of `upper` — the downward
    /// layer crossing at session-creation time.
    #[inline]
    pub fn open(
        &self,
        ctx: &Ctx,
        lower: ProtoId,
        upper: ProtoId,
        parts: &ParticipantSet,
    ) -> XResult<SessionRef> {
        ctx.charge_layer_call();
        self.proto_ref(lower)?.open(ctx, upper, parts)
    }

    /// Enables passive opens on `lower` for `upper`.
    pub fn open_enable(
        &self,
        ctx: &Ctx,
        lower: ProtoId,
        upper: ProtoId,
        parts: &ParticipantSet,
    ) -> XResult<()> {
        ctx.charge_layer_call();
        self.proto_ref(lower)?.open_enable(ctx, upper, parts)
    }

    /// Invokes a protocol's control operation by id.
    #[inline]
    pub fn control(&self, ctx: &Ctx, id: ProtoId, op: &ControlOp) -> XResult<ControlRes> {
        ctx.charge_layer_call();
        self.proto_ref(id)?.control(ctx, op)
    }

    /// Notifies `upper` that `lower` passively created session `lls`
    /// (the open-done upcall).
    pub fn open_done(
        &self,
        ctx: &Ctx,
        upper: ProtoId,
        lower: ProtoId,
        lls: &SessionRef,
        parts: &ParticipantSet,
    ) -> XResult<()> {
        ctx.charge_layer_call();
        self.proto_ref(upper)?.open_done(ctx, lower, lls, parts)
    }
}

#[cold]
#[inline(never)]
fn not_installed(id: ProtoId) -> XError {
    XError::Config(format!("protocol id {id:?} not installed"))
}

/// A discarded kernel frees its protocol graph. Protocols and their cached
/// sessions hold each other (see [`crate::proto::Protocol::drop_sessions`]),
/// so without this every rig a process ever built would stay resident.
impl Drop for Kernel {
    fn drop(&mut self) {
        self.protocols().for_each(|p| p.drop_sessions());
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("name", &self.name)
            .field("host", &self.host.get())
            .field("protocols", &self.protocol_names())
            .finish()
    }
}

/// Re-exported for implementors: everything a protocol module usually needs.
pub mod prelude {
    pub use crate::addr::{EthAddr, IpAddr, Participant, ParticipantSet, Port};
    pub use crate::cell::Counter;
    pub use crate::error::{Reject, XError, XResult};
    pub use crate::kernel::Kernel;
    pub use crate::lint::ProtoContract;
    pub use crate::map::{EnableMap, SessionMap, UpperCell};
    pub use crate::msg::Message;
    pub use crate::proto::{
        snap_downcast, ControlOp, ControlRes, ProtoId, Protocol, ProtocolRef, Session, SessionRef,
        SnapBlob, TracedProtocol, TracedSession,
    };
    pub use crate::sim::{Ctx, HostId, HostStats, Mode, RobustEvent, SharedSema, Sim, TimerHandle};
    pub use crate::trace::{CostBreakdown, CostEntry, Event, EventKind, FoldedLine, OpClass};
    pub use crate::wire::{
        internet_checksum, ChecksumAcc, HdrBuf, HdrReader, WireReader, WireWriter,
    };
    pub use crate::wire_header;
}
