//! xtrace — structured, bounded, per-layer cost attribution.
//!
//! The paper's central evaluation (Tables I–III) is a *path-length
//! decomposition*: it argues layered RPC is cheap by accounting for where
//! every microsecond goes — layer crossings, demux lookups, checksums,
//! copies. This module is the reproduction's observability substrate for
//! that argument: a bounded per-host ring of structured [`Event`]s, a span
//! stack entered at every `push`/`demux` boundary (maintained generically
//! by the `dyn Session`/`dyn Protocol` wrappers in [`crate::proto`] — no
//! per-protocol code), and a ledger attributing every nanosecond the
//! simulator charges to `(host, protocol stack, operation class)`.
//!
//! Design constraints:
//!
//! * **Zero overhead when disabled.** The simulator tells its observers what
//!   happened through one probe seam (`sim/observe.rs`), whose guard is one
//!   load of the observer mask and a branch; with tracing off there
//!   is no locking, no allocation, and no event construction (proven by a
//!   counting-allocator test and a cell-entry count). Golden tables are
//!   produced with tracing off and must stay bit identical.
//! * **Tracing never moves virtual time.** Attribution observes charges; it
//!   adds none. Enabling tracing therefore reproduces the exact same run,
//!   nanosecond for nanosecond — which is what makes the conservation
//!   invariant below testable at all.
//! * **Conservation.** Every mutation of a host's CPU clock — protocol
//!   charges, header/copy/alloc costs, timer and semaphore operations,
//!   process switches, and the scheduler's idle jumps — flows through the
//!   ledger, so the per-host ledger sum equals the host's clock exactly.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::cost::Nanos;
use crate::kernel::Kernel;
use crate::map::MixMap;
use crate::proto::ProtoId;
use crate::sim::{HostId, Probe, Time};

/// Default per-host event-ring capacity (old events are dropped first).
pub const DEFAULT_RING_CAP: usize = 65_536;

/// The class of work a charge paid for. One bucket per cost-model
/// primitive, plus [`OpClass::Idle`] for scheduler waits and
/// [`OpClass::Compute`] for unclassified protocol work.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum OpClass {
    /// Crossing one protocol layer (the paper's one-procedure-call claim).
    LayerCall,
    /// Demultiplexing: map/table lookups that steer a message.
    Demux,
    /// Header bytes marshalled or stripped.
    Header,
    /// Payload bytes copied.
    Copy,
    /// Checksum bytes folded.
    Checksum,
    /// Buffer allocation.
    Alloc,
    /// Arming or cancelling a timer.
    Timer,
    /// Semaphore P/V.
    Sema,
    /// Process (shepherd) switch.
    Switch,
    /// Interrupt-side dispatch of an arriving frame.
    Dispatch,
    /// Session object creation.
    SessionCreate,
    /// Device (NIC) operation.
    Device,
    /// Modelled-environment overhead (the handicap layer).
    Handicap,
    /// Host CPU idle: waiting for the wire, a peer, or a timer.
    Idle,
    /// Unclassified protocol work.
    Compute,
}

impl OpClass {
    /// Every class, in display order.
    pub const ALL: [OpClass; 15] = [
        OpClass::LayerCall,
        OpClass::Demux,
        OpClass::Header,
        OpClass::Copy,
        OpClass::Checksum,
        OpClass::Alloc,
        OpClass::Timer,
        OpClass::Sema,
        OpClass::Switch,
        OpClass::Dispatch,
        OpClass::SessionCreate,
        OpClass::Device,
        OpClass::Handicap,
        OpClass::Idle,
        OpClass::Compute,
    ];

    /// Stable lowercase name (used in folded stacks and JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            OpClass::LayerCall => "layer_call",
            OpClass::Demux => "demux",
            OpClass::Header => "header",
            OpClass::Copy => "copy",
            OpClass::Checksum => "checksum",
            OpClass::Alloc => "alloc",
            OpClass::Timer => "timer",
            OpClass::Sema => "sema",
            OpClass::Switch => "switch",
            OpClass::Dispatch => "dispatch",
            OpClass::SessionCreate => "session_create",
            OpClass::Device => "device",
            OpClass::Handicap => "handicap",
            OpClass::Idle => "idle",
            OpClass::Compute => "compute",
        }
    }
}

/// What a trace [`Event`] records.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// A message entered a session's `push` (downward).
    Push,
    /// A message entered a protocol's `demux` (upward).
    Demux,
    /// A header was pushed or popped.
    Header,
    /// Virtual CPU time was charged.
    Charge(OpClass),
    /// A timer was armed or cancelled.
    Timer,
    /// A semaphore operation.
    Sema,
    /// A process switch.
    Switch,
    /// A protocol-reported static annotation (replaces the old string
    /// trace lines).
    Note(&'static str),
}

/// One structured trace event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Event {
    /// Host the event occurred on.
    pub host: HostId,
    /// Host-CPU virtual time at the event (0 in inline mode).
    pub t: Time,
    /// The active protocol layer (top of the span stack), if any.
    pub proto: Option<ProtoId>,
    /// What happened.
    pub kind: EventKind,
    /// Message length in bytes for push/demux/header events; 0 otherwise.
    pub len: u64,
    /// Nanoseconds charged, for charge-bearing events; 0 otherwise.
    pub ns: Nanos,
}

/// One attributed cost bucket: everything host `host` spent in `class`
/// while `proto` was the innermost active layer.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CostEntry {
    /// Host charged.
    pub host: HostId,
    /// Instance name of the innermost active protocol (`"(host)"` when no
    /// layer was active — scheduler idle time, setup work).
    pub proto: String,
    /// Operation class.
    pub class: OpClass,
    /// Total nanoseconds attributed to this bucket.
    pub ns: Nanos,
}

/// The per-layer cost ledger surfaced in
/// [`crate::sim::RunReport::breakdown`]. Empty when tracing is off.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CostBreakdown {
    /// Attributed buckets, sorted by `(host, proto, class)`.
    pub entries: Vec<CostEntry>,
}

impl CostBreakdown {
    /// Whether anything was attributed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum over every bucket.
    pub fn total(&self) -> Nanos {
        self.entries.iter().map(|e| e.ns).sum()
    }

    /// Sum over one host's buckets. By the conservation invariant this
    /// equals the host's final CPU clock (when tracing covered the whole
    /// run).
    pub fn host_total(&self, host: HostId) -> Nanos {
        self.entries
            .iter()
            .filter(|e| e.host == host)
            .map(|e| e.ns)
            .sum()
    }

    /// Sum over one class across all hosts.
    pub fn class_total(&self, class: OpClass) -> Nanos {
        self.entries
            .iter()
            .filter(|e| e.class == class)
            .map(|e| e.ns)
            .sum()
    }
}

/// One line of flamegraph-compatible folded-stack output: host name, the
/// span stack outermost-first, and the operation class, semicolon-joined,
/// then the attributed nanoseconds.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct FoldedLine {
    /// Host the sample belongs to.
    pub host: HostId,
    /// Frames: `[host name, outermost layer, ..., innermost layer, class]`.
    pub frames: Vec<String>,
    /// Attributed nanoseconds (the folded "sample count").
    pub ns: Nanos,
}

impl std::fmt::Display for FoldedLine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.frames.join(";"), self.ns)
    }
}

/// Identifies a span stack: one per shepherd process, plus one per host for
/// setup contexts outside any process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum SpanKey {
    /// A shepherd process's stack.
    Lp(u64),
    /// The no-process (setup) stack of a host.
    Host(usize),
}

/// A span stack and its interned id (cached so charges don't re-hash); the
/// default is the empty stack, whose id is 0.
#[derive(Default)]
struct SpanState {
    frames: Vec<ProtoId>,
    id: u32,
}

/// Interns span stacks so the ledger keys on a small integer.
struct Interner {
    ids: MixMap<Vec<ProtoId>, u32>,
    rev: Vec<Vec<ProtoId>>,
}

impl Interner {
    fn new() -> Interner {
        let mut ids = MixMap::default();
        ids.insert(Vec::new(), 0);
        Interner {
            ids,
            rev: vec![Vec::new()],
        }
    }

    fn intern(&mut self, frames: &[ProtoId]) -> u32 {
        if let Some(&id) = self.ids.get(frames) {
            return id;
        }
        let id = self.rev.len() as u32;
        self.ids.insert(frames.to_vec(), id);
        self.rev.push(frames.to_vec());
        id
    }
}

/// The tracer's state: one of the simulator's observers, in its engine's
/// cell, fed by probe only while tracing is on.
pub(crate) struct TraceCore {
    ring_cap: usize,
    rings: Vec<VecDeque<Event>>,
    spans: MixMap<SpanKey, SpanState>,
    interner: Interner,
    /// `(host, interned stack id, class) -> ns`.
    ledger: MixMap<(usize, u32, OpClass), Nanos>,
}

impl Default for TraceCore {
    fn default() -> TraceCore {
        TraceCore {
            ring_cap: DEFAULT_RING_CAP,
            rings: Vec::new(),
            spans: MixMap::default(),
            interner: Interner::new(),
            ledger: MixMap::default(),
        }
    }
}

impl TraceCore {
    /// Takes one probe: span stacks, the ledger and the event rings. `clock`
    /// reads a host's CPU clock.
    pub(crate) fn observe(&mut self, p: Probe, clock: impl Fn(HostId) -> Time) {
        match p {
            // A fresh process has no span stack yet, so the host's idle time
            // (wire latency, timer wait) goes to the empty one.
            Probe::Start(lp, host, idle, now) => {
                self.attribute(host, SpanKey::Lp(lp), OpClass::Idle, idle, now)
            }
            // Both the wait and the resume switch belong to the woken
            // process's span stack (e.g. CHANNEL blocked for a reply).
            Probe::Resume(lp, host, idle, switch, now, _) => {
                self.attribute(host, SpanKey::Lp(lp), OpClass::Idle, idle, now);
                self.attribute(host, SpanKey::Lp(lp), OpClass::Switch, switch, now);
            }
            // The guards unwound with the process: its (empty) span stack
            // goes, so the table doesn't grow with process count.
            Probe::Finish(lp) => drop(self.spans.remove(&SpanKey::Lp(lp))),
            Probe::Charge(host, key, class, ns, t) => self.attribute(host, key, class, ns, t),
            Probe::SpanPush(host, key, proto, kind, len) => {
                let st = self.spans.entry(key).or_default();
                st.frames.push(proto);
                st.id = self.interner.intern(&st.frames);
                self.record(host, Some(proto), kind, len, 0, clock(host));
            }
            Probe::SpanPop(key) => {
                if let Some(st) = self.spans.get_mut(&key) {
                    st.frames.pop();
                    st.id = self.interner.intern(&st.frames);
                }
            }
            Probe::Note(host, key, kind, len) => {
                self.record(host, self.top(key).1, kind, len, 0, clock(host))
            }
            _ => {}
        }
    }

    /// Attributes `ns` of `class` work to `key`'s current span stack and
    /// records the matching event.
    fn attribute(&mut self, host: HostId, key: SpanKey, class: OpClass, ns: Nanos, t: Time) {
        if ns == 0 {
            return;
        }
        let (stack, proto) = self.top(key);
        *self.ledger.entry((host.0, stack, class)).or_insert(0) += ns;
        let kind = match class {
            OpClass::Timer => EventKind::Timer,
            OpClass::Sema => EventKind::Sema,
            OpClass::Switch => EventKind::Switch,
            other => EventKind::Charge(other),
        };
        self.record(host, proto, kind, 0, ns, t);
    }

    /// `key`'s span stack: its interned id (0, the empty stack, if none) and innermost layer.
    fn top(&self, key: SpanKey) -> (u32, Option<ProtoId>) {
        self.spans
            .get(&key)
            .map_or((0, None), |st| (st.id, st.frames.last().copied()))
    }

    /// Appends an event to the host's bounded ring, evicting the oldest.
    fn record(
        &mut self,
        host: HostId,
        proto: Option<ProtoId>,
        kind: EventKind,
        len: u64,
        ns: Nanos,
        t: Time,
    ) {
        if self.rings.len() <= host.0 {
            self.rings.resize_with(host.0 + 1, VecDeque::new);
        }
        let ring = &mut self.rings[host.0];
        if ring.len() == self.ring_cap {
            ring.pop_front();
        }
        ring.push_back(Event {
            host,
            t,
            proto,
            kind,
            len,
            ns,
        });
    }

    /// Resolved ledger rows: `(host, span frames outermost-first, class,
    /// ns)`. Unordered; callers sort after name resolution.
    fn rows(&self) -> Vec<(usize, &[ProtoId], OpClass, Nanos)> {
        self.ledger
            .iter()
            .map(|(&(host, stack, class), &ns)| {
                (
                    host,
                    self.interner.rev[stack as usize].as_slice(),
                    class,
                    ns,
                )
            })
            .collect()
    }

    /// All ring events, host-major in arrival order.
    pub(crate) fn events(&self) -> Vec<Event> {
        self.rings.iter().flatten().copied().collect()
    }

    /// Clears rings and ledger but keeps live span stacks (active call
    /// chains must stay attributed) and the interner.
    pub(crate) fn clear(&mut self) {
        for r in &mut self.rings {
            r.clear();
        }
        self.ledger.clear();
    }
}

/// Builds the sorted per-layer breakdown from the ledger, resolving
/// innermost-layer protocol ids to instance names via the hosts' kernels.
pub(crate) fn breakdown_of(tr: &TraceCore, kernels: &[Arc<Kernel>]) -> CostBreakdown {
    let mut agg: HashMap<(usize, Option<ProtoId>, OpClass), Nanos> = HashMap::new();
    for (host, frames, class, ns) in tr.rows() {
        *agg.entry((host, frames.last().copied(), class))
            .or_insert(0) += ns;
    }
    let mut entries: Vec<CostEntry> = agg
        .into_iter()
        .map(|((host, top, class), ns)| CostEntry {
            host: HostId(host),
            proto: proto_frame_name(kernels, host, top),
            class,
            ns,
        })
        .collect();
    entries.sort();
    CostBreakdown { entries }
}

/// Builds the sorted folded-stack lines from the ledger.
pub(crate) fn folded_of(tr: &TraceCore, kernels: &[Arc<Kernel>]) -> Vec<FoldedLine> {
    let mut lines: Vec<FoldedLine> = tr
        .rows()
        .into_iter()
        .map(|(host, frames, class, ns)| {
            let host_name = kernels
                .get(host)
                .map(|k| k.name().to_string())
                .unwrap_or_else(|| format!("host{host}"));
            let mut out = Vec::with_capacity(frames.len() + 2);
            out.push(host_name);
            for p in frames {
                out.push(proto_frame_name(kernels, host, Some(*p)));
            }
            out.push(class.as_str().to_string());
            FoldedLine {
                host: HostId(host),
                frames: out,
                ns,
            }
        })
        .collect();
    lines.sort();
    lines
}

/// The display name for a span frame: the protocol's configured instance
/// name, or `"(host)"` for the empty stack.
fn proto_frame_name(kernels: &[Arc<Kernel>], host: usize, proto: Option<ProtoId>) -> String {
    match proto {
        None => "(host)".to_string(),
        Some(p) => kernels
            .get(host)
            .and_then(|k| k.name_of(p))
            .unwrap_or_else(|| format!("p{}", p.0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn note(tc: &mut TraceCore, key: SpanKey, t: Time) {
        tc.observe(Probe::Note(HostId(0), key, EventKind::Push, 0), |_| t);
    }

    #[test]
    fn ring_is_bounded() {
        let mut tc = TraceCore {
            ring_cap: 4,
            ..TraceCore::default()
        };
        for i in 0..10 {
            note(&mut tc, SpanKey::Host(0), i);
        }
        let evs = tc.events();
        assert_eq!(evs.len(), 4, "ring caps at configured size");
        assert_eq!(evs[0].t, 6, "oldest events evicted first");
    }

    #[test]
    fn spans_nest_and_attribute() {
        let key = SpanKey::Lp(1);
        let mut tc = TraceCore::default();
        let push = |p| Probe::SpanPush(HostId(0), key, ProtoId(p), EventKind::Push, 0);
        let charge = |ns, t| Probe::Charge(HostId(0), key, OpClass::Checksum, ns, t);
        tc.observe(push(3), |_| 0);
        tc.observe(push(5), |_| 0);
        tc.observe(charge(100, 42), |_| 0);
        tc.observe(Probe::SpanPop(key), |_| 0);
        tc.observe(charge(11, 43), |_| 0);
        let protos: Vec<_> = tc.events().iter().map(|e| e.proto).collect();
        assert_eq!(protos, [3, 5, 5, 3].map(|p| Some(ProtoId(p))));
        let rows = tc.rows();
        assert_eq!(rows.len(), 2, "two distinct stacks in the ledger");
        let deep: Nanos = rows
            .iter()
            .filter(|(_, f, _, _)| f.len() == 2)
            .map(|r| r.3)
            .sum();
        assert_eq!(deep, 100);
    }

    #[test]
    fn clear_keeps_live_spans() {
        let key = SpanKey::Lp(7);
        let mut tc = TraceCore::default();
        tc.observe(
            Probe::SpanPush(HostId(0), key, ProtoId(1), EventKind::Push, 0),
            |_| 0,
        );
        tc.observe(Probe::Charge(HostId(0), key, OpClass::Compute, 5, 0), |_| 0);
        tc.clear();
        assert!(tc.rows().is_empty(), "ledger cleared");
        note(&mut tc, key, 1);
        assert_eq!(
            tc.events()[0].proto,
            Some(ProtoId(1)),
            "span stack survives"
        );
    }

    #[test]
    fn folded_line_format() {
        let line = FoldedLine {
            host: HostId(0),
            frames: vec!["client".into(), "vip".into(), "checksum".into()],
            ns: 1234,
        };
        assert_eq!(line.to_string(), "client;vip;checksum 1234");
    }
}
