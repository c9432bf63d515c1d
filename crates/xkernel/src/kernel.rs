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

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use crate::addr::ParticipantSet;
use crate::error::{XError, XResult};
use crate::msg::Message;
use crate::proto::{ControlOp, ControlRes, ProtoId, ProtocolRef, SessionRef, TracedProtocol};
use crate::sim::{Ctx, HostId, Sim};

/// An append-only table read without a lock: slots are reserved in index
/// order and each is filled at most once, so a reader needs only the
/// acquire load a [`OnceLock`] performs. The simulator's host registry and
/// each kernel's protocol registry are built at configuration time and read
/// on every layer crossing; this is what keeps those reads off any lock.
///
/// Slots live in chunks that double in size (8, 16, 32, …) so the table
/// grows without moving an element a reader may be looking at. Reserving is
/// not synchronized against itself: callers serialize appends (both
/// registries do, under a lock they already hold).
pub(crate) struct AppendTable<T> {
    chunks: [OnceLock<Box<[OnceLock<T>]>>; CHUNKS],
    len: AtomicUsize,
}

/// Chunk `k` holds `8 << k` slots; 28 chunks hold 8 · (2²⁸ − 1).
const CHUNKS: usize = 28;
const FIRST_CHUNK_BITS: u32 = 3;

/// The chunk holding index `i`, and `i`'s offset inside it.
fn locate(i: usize) -> (usize, usize) {
    let block = (i >> FIRST_CHUNK_BITS) + 1;
    let chunk = (usize::BITS - 1 - block.leading_zeros()) as usize;
    (chunk, i - (((1 << chunk) - 1) << FIRST_CHUNK_BITS))
}

impl<T> AppendTable<T> {
    pub(crate) fn new() -> AppendTable<T> {
        AppendTable {
            chunks: [const { OnceLock::new() }; CHUNKS],
            len: AtomicUsize::new(0),
        }
    }

    /// Slots reserved so far.
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Reserves the next slot, empty, and returns its index.
    pub(crate) fn reserve(&self) -> usize {
        let i = self.len.load(Ordering::Relaxed);
        let (chunk, _) = locate(i);
        self.chunks[chunk].get_or_init(|| {
            let slots = 1usize << (chunk as u32 + FIRST_CHUNK_BITS);
            (0..slots).map(|_| OnceLock::new()).collect()
        });
        self.len.store(i + 1, Ordering::Release);
        i
    }

    /// Fills reserved slot `i`; hands `value` back if `i` was never
    /// reserved or is already filled.
    pub(crate) fn fill(&self, i: usize, value: T) -> Result<(), T> {
        match self.slot(i) {
            Some(slot) => slot.set(value),
            None => Err(value),
        }
    }

    /// Reserves and fills the next slot; returns its index.
    pub(crate) fn push(&self, value: T) -> usize {
        let i = self.reserve();
        assert!(self.fill(i, value).is_ok(), "append raced another append");
        i
    }

    /// The value in slot `i`, if that slot is reserved and filled.
    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        self.slot(i)?.get()
    }

    fn slot(&self, i: usize) -> Option<&OnceLock<T>> {
        if i >= self.len() {
            return None;
        }
        let (chunk, offset) = locate(i);
        self.chunks[chunk].get()?.get(offset)
    }

    /// Every reserved slot's value in index order, `None` for unfilled
    /// slots.
    pub(crate) fn slots(&self) -> impl Iterator<Item = Option<&T>> {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Every filled slot's value in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots().flatten()
    }
}

/// A host's kernel: protocol registry plus identity.
pub struct Kernel {
    name: String,
    host: OnceLock<HostId>,
    protocols: AppendTable<ProtocolRef>,
    by_name: RwLock<HashMap<String, ProtoId>>,
}

impl Kernel {
    /// Creates a kernel and registers it with the simulator, allocating its
    /// host id.
    pub fn new(sim: &Sim, name: &str) -> Arc<Kernel> {
        let k = Arc::new(Kernel {
            name: name.to_string(),
            host: OnceLock::new(),
            protocols: AppendTable::new(),
            by_name: RwLock::new(HashMap::new()),
        });
        let host = sim.add_kernel(&k);
        k.host.set(host).expect("host id set exactly once");
        k
    }

    /// This kernel's host id.
    pub fn host(&self) -> HostId {
        *self.host.get().expect("host id assigned at construction")
    }

    /// The kernel's configured name (e.g. `"client"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Reserves a protocol id under `name` so the protocol can be
    /// constructed knowing its own capability, then installed.
    pub fn reserve(&self, name: &str) -> XResult<ProtoId> {
        let mut names = self.by_name.write();
        if names.contains_key(name) {
            return Err(XError::Config(format!(
                "protocol '{name}' already configured on {}",
                self.name
            )));
        }
        // The name map's write lock serializes reservations.
        let id = ProtoId(self.protocols.reserve());
        names.insert(name.to_string(), id);
        Ok(id)
    }

    /// Installs a constructed protocol into its reserved slot.
    pub fn install(&self, id: ProtoId, proto: ProtocolRef) -> XResult<()> {
        if id.0 >= self.protocols.len() {
            return Err(XError::Config(format!("install of unreserved id {id:?}")));
        }
        self.protocols
            .fill(id.0, proto)
            .map_err(|_| XError::Config(format!("double install of {id:?}")))
    }

    /// Convenience: reserve + construct + install in one step.
    pub fn register<F>(&self, name: &str, ctor: F) -> XResult<ProtoId>
    where
        F: FnOnce(ProtoId) -> XResult<ProtocolRef>,
    {
        let id = self.reserve(name)?;
        let proto = ctor(id)?;
        self.install(id, proto)?;
        Ok(id)
    }

    /// The configured instance name behind a protocol id (the reverse of
    /// [`Kernel::lookup`]); used by the trace layer to label span frames.
    pub fn name_of(&self, id: ProtoId) -> Option<String> {
        self.by_name
            .read()
            .iter()
            .find(|(_, v)| **v == id)
            .map(|(n, _)| n.clone())
    }

    /// Resolves a configured protocol name to its id.
    pub fn lookup(&self, name: &str) -> XResult<ProtoId> {
        self.by_name
            .read()
            .get(name)
            .copied()
            .ok_or_else(|| XError::Config(format!("no protocol '{name}' on {}", self.name)))
    }

    /// The protocol object behind an id.
    pub fn proto(&self, id: ProtoId) -> XResult<ProtocolRef> {
        self.protocols
            .get(id.0)
            .cloned()
            .ok_or_else(|| XError::Config(format!("protocol id {id:?} not installed")))
    }

    /// The protocol object behind a name.
    pub fn get(&self, name: &str) -> XResult<ProtocolRef> {
        self.proto(self.lookup(name)?)
    }

    /// Runs every installed protocol's [`crate::proto::Protocol::reboot`]
    /// hook in id order — the same bottom-up order the initial boot used.
    /// Invoked by the simulator after [`Sim::restart`] brings the host
    /// back up.
    pub fn reboot_protocols(&self, ctx: &Ctx) -> XResult<()> {
        self.protocols.iter().try_for_each(|p| p.reboot(ctx))
    }

    /// Every protocol slot in id order (with holes where ids were reserved
    /// but never installed). The snapshot machinery aligns per-protocol
    /// state blobs to these slots; see [`crate::sim::Sim::snapshot`].
    pub fn protocol_slots(&self) -> Vec<Option<ProtocolRef>> {
        self.protocols.slots().map(|p| p.cloned()).collect()
    }

    /// Names of all configured protocols, in configuration order.
    pub fn protocol_names(&self) -> Vec<String> {
        let names = self.by_name.read();
        let mut v: Vec<(ProtoId, String)> = names.iter().map(|(n, id)| (*id, n.clone())).collect();
        v.sort();
        v.into_iter().map(|(_, n)| n).collect()
    }

    /// Passes a message up to protocol `upper` — the one-procedure-call
    /// layer crossing. `lls` is the lower session the message arrived on.
    pub fn demux_to(
        &self,
        ctx: &Ctx,
        upper: ProtoId,
        lls: &SessionRef,
        msg: Message,
    ) -> XResult<()> {
        ctx.charge_layer_call();
        self.proto(upper)?.demux(ctx, lls, msg)
    }

    /// Opens lower protocol `lower` on behalf of `upper` — the downward
    /// layer crossing at session-creation time.
    pub fn open(
        &self,
        ctx: &Ctx,
        lower: ProtoId,
        upper: ProtoId,
        parts: &ParticipantSet,
    ) -> XResult<SessionRef> {
        ctx.charge_layer_call();
        self.proto(lower)?.open(ctx, upper, parts)
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
        self.proto(lower)?.open_enable(ctx, upper, parts)
    }

    /// Invokes a protocol's control operation by id.
    pub fn control(&self, ctx: &Ctx, id: ProtoId, op: &ControlOp) -> XResult<ControlRes> {
        ctx.charge_layer_call();
        self.proto(id)?.control(ctx, op)
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
        self.proto(upper)?.open_done(ctx, lower, lls, parts)
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
    pub use crate::error::{XError, XResult};
    pub use crate::kernel::Kernel;
    pub use crate::msg::Message;
    pub use crate::proto::{
        snap_downcast, ControlOp, ControlRes, ProtoId, Protocol, ProtocolRef, Session, SessionRef,
        SnapBlob, TracedProtocol, TracedSession,
    };
    pub use crate::sim::{Ctx, HostId, HostStats, Mode, RobustEvent, SharedSema, Sim, TimerHandle};
    pub use crate::trace::{CostBreakdown, CostEntry, Event, EventKind, FoldedLine, OpClass};
    pub use crate::wire::{internet_checksum, ChecksumAcc, WireReader, WireWriter};
}
