//! Static analysis of protocol-graph specs (`xk-lint`).
//!
//! The paper's thesis is that protocol composition is a *configuration-time*
//! decision, and its headline negative result — TCP cannot be layered over
//! VIP because TCP's pseudo-header needs a stable participant address
//! underneath (Section 5) — is a composition error that should be caught
//! before the simulation runs. This module checks a graph spec (the text DSL
//! in [`crate::graph`]) against per-protocol [`ProtoContract`]s **without
//! constructing any protocol**, and reports structured [`Diagnostic`]s.
//!
//! ## Rule catalogue
//!
//! | id    | severity | checks |
//! |-------|----------|--------|
//! | XK001 | Error    | spec line fails to parse |
//! | XK002 | Error    | unknown constructor name |
//! | XK003 | Error    | lower reference to an unknown or later-defined instance (bottom-up / cycle-free wiring) |
//! | XK004 | Error    | duplicate instance name |
//! | XK005 | Error/Warning | lower-capability arity: required slots missing (Error), extra dangling capabilities (Warning) |
//! | XK006 | Error    | address-kind mismatch across an edge (e.g. an Internet-consumer wired to a Hardware producer) |
//! | XK007 | Error    | a protocol requiring stable participant addresses sits above an identity-virtualizing protocol (the Section 5 TCP-over-VIP rule) |
//! | XK008 | Error/Warning | header budget: un-refragmentable headers exceed the wire MTU (Error); total path headers exceed the message headroom so pushes fall back to allocation (Warning) |
//! | XK009 | Error/Warning | constructor-param schema: missing required key or non-numeric value (Error), unknown key (Warning) |
//! | XK010 | Error/Warning | semaphore discipline: a layer blocks a shepherd on a reply with no demux-time signaler (Error); two reply-waiting layers nested on one path (Warning) |
//! | XK011 | Error    | a layer blocks on a reply semaphore without declaring that error paths release its transaction slot (`clears_slot_on_error`) — the slot-leak class PR 2 fixed by hand |
//! | XK012 | Error    | a demux-signalled reply wait whose lower subtree never reaches a device: nothing can ever arrive to run the signaler |
//! | XK013 | Error    | blocking-point declarations incomplete: the semaphore contract (or a device-kind lower slot) implies blocking ops the contract does not declare; declarations mirror the trace ledger's `Sema`/`Timer`/`Device` op-classes |
//! | XK014 | Warning  | excess blocking-point declaration: `Wire` declared but no device-kind lower slot exists |
//! | XK015 | Error    | conflicting lock-acquisition orders across the spec's contracts (the Sched/Hosts split discipline): the merged order relation has a cycle |
//! | XK016 | Error    | a crash-restartable (`crashable`) protocol without a reboot hook: survivors would wake into stale conversation state |
//!
//! ## Suppression
//!
//! A spec may carry directive comments, and callers may pass an allow-set in
//! [`LintOptions`]; both drop every diagnostic of the named rules:
//!
//! ```text
//! # xk-lint: allow=XK008,XK010
//! ```

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;

use crate::graph::{parse_line, ParsedLine};
use crate::msg::DEFAULT_HEADROOM;

/// The wire MTU the header-budget rule (XK008) checks against. Mirrors
/// `inet::eth::ETH_MTU`; duplicated here because the linter must not depend
/// on any protocol crate.
pub const WIRE_MTU: usize = 1500;

/// Rule identifiers, one per check.
pub mod rules {
    /// Spec line fails to parse.
    pub const PARSE: &str = "XK001";
    /// Unknown constructor name.
    pub const UNKNOWN_CTOR: &str = "XK002";
    /// Lower reference to an unknown or later-defined instance.
    pub const UNKNOWN_LOWER: &str = "XK003";
    /// Duplicate instance name.
    pub const DUPLICATE_INSTANCE: &str = "XK004";
    /// Wrong number of lower capabilities.
    pub const LOWER_ARITY: &str = "XK005";
    /// Address-kind mismatch across an edge.
    pub const ADDR_KIND: &str = "XK006";
    /// Stable-participant protocol above an identity virtualizer (§5).
    pub const STABLE_OVER_VIRTUAL: &str = "XK007";
    /// Header budget versus MTU / headroom.
    pub const HEADER_BUDGET: &str = "XK008";
    /// Constructor-param schema violation.
    pub const PARAM_SCHEMA: &str = "XK009";
    /// Shepherd semaphore-discipline violation.
    pub const SEMA_DISCIPLINE: &str = "XK010";
    /// Reply wait without a declared error-path slot release.
    pub const WAIT_HOLDING_SLOT: &str = "XK011";
    /// Demux-signalled wait with no device under it to drive the signaler.
    pub const SIGNAL_PATH: &str = "XK012";
    /// Blocking-point declarations missing ops the contract implies.
    pub const BLOCK_DECL: &str = "XK013";
    /// Blocking-point declaration with no justification in the contract.
    pub const BLOCK_DECL_EXCESS: &str = "XK014";
    /// Conflicting lock-acquisition orders across the spec.
    pub const LOCK_ORDER: &str = "XK015";
    /// Crashable protocol without a reboot hook.
    pub const REBOOT_HOOKS: &str = "XK016";

    /// The concurrency-verifier subset (`xk-lint --xcheck`): XK010–XK016.
    pub const XCHECK: [&str; 7] = [
        SEMA_DISCIPLINE,
        WAIT_HOLDING_SLOT,
        SIGNAL_PATH,
        BLOCK_DECL,
        BLOCK_DECL_EXCESS,
        LOCK_ORDER,
        REBOOT_HOOKS,
    ];
}

/// The kind of address a protocol speaks at its upper interface.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AddrKind {
    /// A raw device endpoint (NIC attachment).
    Device,
    /// Hardware (Ethernet) addresses.
    Hardware,
    /// Internet host addresses.
    Internet,
    /// Port-addressed transport endpoints.
    Transport,
    /// RPC procedure/channel addressing.
    Rpc,
    /// An address-resolution service (ARP): not a data path.
    Resolver,
}

impl fmt::Display for AddrKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AddrKind::Device => "device",
            AddrKind::Hardware => "hardware",
            AddrKind::Internet => "internet",
            AddrKind::Transport => "transport",
            AddrKind::Rpc => "rpc",
            AddrKind::Resolver => "resolver",
        };
        f.write_str(s)
    }
}

/// What a protocol produces at its upper interface.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Produce {
    /// A fixed address kind.
    Kind(AddrKind),
    /// Whatever its first lower produces (pass-through layers: `null`,
    /// `handicap`).
    Same,
    /// Unknown — no edge into or out of this protocol is kind-checked.
    Opaque,
}

/// One lower-capability slot: the address kinds acceptable in it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LowerSlot {
    /// Acceptable producer kinds; empty accepts anything.
    pub kinds: Vec<AddrKind>,
}

impl LowerSlot {
    fn accepts(&self, kind: AddrKind) -> bool {
        self.kinds.is_empty() || self.kinds.contains(&kind)
    }
}

/// One `key=value` constructor parameter.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParamSpec {
    /// Parameter key.
    pub key: String,
    /// Whether the constructor fails without it.
    pub required: bool,
    /// Whether the value must parse as an unsigned integer.
    pub numeric: bool,
}

/// One kind of operation a protocol may block a shepherd process on.
///
/// Each variant mirrors an op-class the trace ledger records at run time
/// (`OpClass::Sema`, `OpClass::Timer`, `OpClass::Device`), so the static
/// declaration is checkable against what the simulator actually observes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BlockPoint {
    /// Blocks on a semaphore (`SharedSema::p`, a reply wait or a pool acquire).
    Sema,
    /// Blocks with a timer armed (`p_timeout`, retransmission machinery).
    Timer,
    /// Blocks on wire/device occupancy (the NIC-facing layer).
    Wire,
}

impl BlockPoint {
    /// The trace-ledger op-class name this blocking point maps to.
    pub fn op_class_name(self) -> &'static str {
        match self {
            BlockPoint::Sema => "Sema",
            BlockPoint::Timer => "Timer",
            BlockPoint::Wire => "Device",
        }
    }
}

impl fmt::Display for BlockPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BlockPoint::Sema => "sema",
            BlockPoint::Timer => "timer",
            BlockPoint::Wire => "wire",
        })
    }
}

/// The wait/signal pairs a protocol's sessions perform on shepherd
/// semaphores, declared statically so XK010 can reason about deadlocks
/// without executing the simulator.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SemaContract {
    /// `push` P's a bounded resource pool (e.g. SELECT's channel pool).
    pub acquires_pool: bool,
    /// `push` blocks the calling shepherd on a reply semaphore.
    pub awaits_reply: bool,
    /// `demux` V's the semaphores `push` blocks on (the matching signaler).
    pub wakes_from_demux: bool,
}

/// Declarative metadata one protocol contributes to the linter.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProtoContract {
    /// Constructor name this contract describes.
    pub name: String,
    /// Address kind produced at the upper interface.
    pub produces: Produce,
    /// Maximum bytes this layer pushes onto a message in one traversal.
    pub max_header_bytes: usize,
    /// `true` if the layer re-fragments oversized messages (FRAGMENT, IP,
    /// TCP, monolithic Sprite): headers pushed above it are not a wire
    /// burden.
    pub fragments: bool,
    /// `true` if the layer virtualizes participant identity (VIP): the
    /// address a lower layer sees is not the stable end-to-end participant.
    pub virtualizes_identity: bool,
    /// `true` if the layer's wire format bakes in the participant address
    /// it was opened with (TCP's pseudo-header) and therefore cannot sit
    /// above a virtualizer.
    pub requires_stable_participants: bool,
    /// Bits of demux key the layer consumes from its header.
    pub demux_key_bits: u32,
    /// Required lower-capability slots, in order.
    pub lowers: Vec<LowerSlot>,
    /// When set, additional lowers must arrive in repeating groups of these
    /// slots (IP's `(eth, arp)` interface pairs).
    pub repeat: Option<Vec<LowerSlot>>,
    /// Optional trailing slots (Sprite's ARP over raw ETH).
    pub optional: Vec<LowerSlot>,
    /// Constructor parameter schema.
    pub params: Vec<ParamSpec>,
    /// Shepherd semaphore behavior.
    pub sema: SemaContract,
    /// The operations this protocol may block a shepherd on (XK013/XK014).
    pub blocking: Vec<BlockPoint>,
    /// Lock-acquisition order this protocol's code observes, outermost
    /// first. Merged across the whole spec and checked for cycles (XK015).
    pub lock_order: Vec<String>,
    /// `true` if the protocol participates in crash/restart testing and is
    /// expected to survive a host reboot (XK016).
    pub crashable: bool,
    /// `true` if the protocol implements the `reboot` hook (XK016).
    pub has_reboot: bool,
    /// `true` if every error path out of a blocking reply wait releases the
    /// transaction slot (channel/outstanding-call entry) it holds (XK011).
    pub clears_slot_on_error: bool,
}

impl ProtoContract {
    /// A contract producing a fixed address kind, with no lowers or params.
    pub fn new(name: &str, produces: AddrKind) -> ProtoContract {
        ProtoContract {
            name: name.to_string(),
            produces: Produce::Kind(produces),
            max_header_bytes: 0,
            fragments: false,
            virtualizes_identity: false,
            requires_stable_participants: false,
            demux_key_bits: 0,
            lowers: Vec::new(),
            repeat: None,
            optional: Vec::new(),
            params: Vec::new(),
            sema: SemaContract::default(),
            blocking: Vec::new(),
            lock_order: Vec::new(),
            crashable: false,
            has_reboot: false,
            clears_slot_on_error: false,
        }
    }

    /// A contract the linter knows nothing about: edges touching it are not
    /// checked. This is the default for protocols without metadata.
    pub fn opaque(name: &str) -> ProtoContract {
        let mut c = ProtoContract::new(name, AddrKind::Device);
        c.produces = Produce::Opaque;
        c
    }

    /// A pass-through layer producing whatever its single lower produces.
    pub fn passthrough(name: &str) -> ProtoContract {
        let mut c = ProtoContract::new(name, AddrKind::Device);
        c.produces = Produce::Same;
        c.lowers = vec![LowerSlot { kinds: Vec::new() }];
        c
    }

    /// Sets the per-traversal header contribution.
    pub fn header(mut self, bytes: usize) -> ProtoContract {
        self.max_header_bytes = bytes;
        self
    }

    /// Marks the layer as re-fragmenting oversized messages.
    pub fn fragments(mut self) -> ProtoContract {
        self.fragments = true;
        self
    }

    /// Marks the layer as virtualizing participant identity (VIP).
    pub fn virtualizes_identity(mut self) -> ProtoContract {
        self.virtualizes_identity = true;
        self
    }

    /// Marks the layer as requiring stable participant addresses (TCP).
    pub fn requires_stable_participants(mut self) -> ProtoContract {
        self.requires_stable_participants = true;
        self
    }

    /// Sets the demux key width in bits.
    pub fn demux_key_bits(mut self, bits: u32) -> ProtoContract {
        self.demux_key_bits = bits;
        self
    }

    /// Appends a required lower slot accepting the given kinds.
    pub fn lower(mut self, kinds: &[AddrKind]) -> ProtoContract {
        self.lowers.push(LowerSlot {
            kinds: kinds.to_vec(),
        });
        self
    }

    /// Declares that lowers repeat in groups of these slots after the
    /// required ones.
    pub fn repeating(mut self, group: &[&[AddrKind]]) -> ProtoContract {
        self.repeat = Some(
            group
                .iter()
                .map(|kinds| LowerSlot {
                    kinds: kinds.to_vec(),
                })
                .collect(),
        );
        self
    }

    /// Appends an optional trailing lower slot.
    pub fn optional_lower(mut self, kinds: &[AddrKind]) -> ProtoContract {
        self.optional.push(LowerSlot {
            kinds: kinds.to_vec(),
        });
        self
    }

    /// Declares a constructor parameter.
    pub fn param(mut self, key: &str, required: bool, numeric: bool) -> ProtoContract {
        self.params.push(ParamSpec {
            key: key.to_string(),
            required,
            numeric,
        });
        self
    }

    /// Sets the semaphore behavior.
    pub fn sema(mut self, sema: SemaContract) -> ProtoContract {
        self.sema = sema;
        self
    }

    /// Declares the operations this protocol may block a shepherd on.
    pub fn blocks(mut self, points: &[BlockPoint]) -> ProtoContract {
        self.blocking = points.to_vec();
        self
    }

    /// Declares the lock-acquisition order this protocol observes,
    /// outermost lock first.
    pub fn locks(mut self, order: &[&str]) -> ProtoContract {
        self.lock_order = order.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Marks the protocol as participating in crash/restart testing.
    pub fn crashable(mut self) -> ProtoContract {
        self.crashable = true;
        self
    }

    /// Records that the protocol implements the `reboot` hook.
    pub fn reboots(mut self) -> ProtoContract {
        self.has_reboot = true;
        self
    }

    /// Records the audited guarantee that error paths out of a blocking
    /// reply wait release the transaction slot they hold.
    pub fn clears_slot_on_error(mut self) -> ProtoContract {
        self.clears_slot_on_error = true;
        self
    }
}

/// Diagnostic severity. `Error` fails `ProtocolRegistry::build` by default.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Suspicious but buildable.
    Warning,
    /// The configuration is wrong; the build is rejected.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One linter finding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Rule id, e.g. `"XK007"` (see [`rules`]).
    pub rule: &'static str,
    /// Severity.
    pub severity: Severity,
    /// 1-based spec line the finding anchors to.
    pub line: usize,
    /// Instance name the finding is about.
    pub instance: String,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub hint: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}: {} {} [{}] {} (hint: {})",
            self.line, self.severity, self.rule, self.instance, self.message, self.hint
        )
    }
}

/// Caller-side lint configuration.
#[derive(Clone, Default, Debug)]
pub struct LintOptions {
    /// Rule ids to suppress, merged with in-spec `# xk-lint: allow=` lines.
    pub allow: BTreeSet<String>,
}

/// A resolved graph node during analysis.
struct Node {
    line: usize,
    ctor: String,
    contract: ProtoContract,
    lowers: Vec<String>,
    params: HashMap<String, String>,
}

/// Lints `spec` against `contracts` (keyed by constructor name).
///
/// * `known_ctor`: whether a name is in the constructor vocabulary; names
///   outside it raise XK002. Constructors without a contract are treated as
///   [`ProtoContract::opaque`].
/// * `externals`: instances that exist before the spec is built (device
///   protocols such as `nic0`, or instances from an earlier `build` call on
///   the same kernel), with the contract describing what they produce.
pub fn lint_spec(
    spec: &str,
    known_ctor: impl Fn(&str) -> bool,
    contracts: &HashMap<String, ProtoContract>,
    externals: &HashMap<String, ProtoContract>,
    opts: &LintOptions,
) -> Vec<Diagnostic> {
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut allow = opts.allow.clone();
    let mut nodes: Vec<(String, Node)> = Vec::new();
    let mut defined: HashSet<String> = externals.keys().cloned().collect();

    for (idx, raw) in spec.lines().enumerate() {
        let lineno = idx + 1;
        if let Some(list) = raw
            .trim()
            .strip_prefix('#')
            .map(str::trim)
            .and_then(|c| c.strip_prefix("xk-lint:"))
            .map(str::trim)
            .and_then(|c| c.strip_prefix("allow="))
        {
            allow.extend(list.split(',').map(|r| r.trim().to_string()));
            continue;
        }
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let ParsedLine {
            instance,
            ctor,
            params,
            down,
        } = match parse_line(line) {
            Ok(p) => p,
            Err(e) => {
                diags.push(Diagnostic {
                    rule: rules::PARSE,
                    severity: Severity::Error,
                    line: lineno,
                    instance: line.to_string(),
                    message: format!("cannot parse spec line: {e}"),
                    hint: "expected 'instance[: ctor] [key=value ...] [-> lower ...]'".into(),
                });
                continue;
            }
        };
        if !known_ctor(&ctor) {
            diags.push(Diagnostic {
                rule: rules::UNKNOWN_CTOR,
                severity: Severity::Error,
                line: lineno,
                instance: instance.clone(),
                message: format!("unknown constructor '{ctor}'"),
                hint: "register the constructor, or fix the spelling".into(),
            });
        }
        if !defined.insert(instance.clone()) {
            diags.push(Diagnostic {
                rule: rules::DUPLICATE_INSTANCE,
                severity: Severity::Error,
                line: lineno,
                instance: instance.clone(),
                message: "duplicate instance name".into(),
                hint: "give the second instance a distinct name ('eth1: eth')".into(),
            });
        }
        for l in &down {
            if !defined.contains(l) {
                diags.push(Diagnostic {
                    rule: rules::UNKNOWN_LOWER,
                    severity: Severity::Error,
                    line: lineno,
                    instance: instance.clone(),
                    message: format!(
                        "lower '{l}' is not defined on an earlier line (the graph is \
                         configured bottom-up, so this also rejects cycles)"
                    ),
                    hint: format!("move the line defining '{l}' above this one"),
                });
            }
        }
        let contract = contracts
            .get(&ctor)
            .cloned()
            .unwrap_or_else(|| ProtoContract::opaque(&ctor));
        nodes.push((
            instance.clone(),
            Node {
                line: lineno,
                ctor,
                contract,
                lowers: down,
                params,
            },
        ));
    }

    let by_name: HashMap<&str, &Node> = nodes.iter().map(|(n, node)| (n.as_str(), node)).collect();

    for (name, node) in &nodes {
        check_arity(name, node, &mut diags);
        check_edge_kinds(name, node, &by_name, externals, &mut diags);
        check_params(name, node, &mut diags);
        if node.contract.sema.awaits_reply && !node.contract.sema.wakes_from_demux {
            diags.push(Diagnostic {
                rule: rules::SEMA_DISCIPLINE,
                severity: Severity::Error,
                line: node.line,
                instance: name.clone(),
                message: format!(
                    "'{}' blocks a shepherd on a reply semaphore but its demux never \
                     signals it: every push deadlocks until the timeout",
                    node.ctor
                ),
                hint: "V the reply semaphore from demux, or stop blocking in push".into(),
            });
        }
        check_slot_discipline(name, node, &mut diags);
        check_block_decls(name, node, &mut diags);
        check_reboot_hooks(name, node, &mut diags);
        check_signal_path(name, node, &by_name, externals, &mut diags);
    }

    check_lock_order(&nodes, &mut diags);
    check_paths(&nodes, &by_name, externals, &mut diags);

    diags.retain(|d| !allow.contains(d.rule));
    diags.sort_by_key(|d| (d.line, d.rule, d.instance.clone()));
    diags.dedup();
    diags
}

/// True when `diags` contains at least one `Error`.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

fn check_arity(name: &str, node: &Node, diags: &mut Vec<Diagnostic>) {
    let c = &node.contract;
    if c.produces == Produce::Opaque {
        return;
    }
    let required = c.lowers.len();
    let given = node.lowers.len();
    if given < required {
        diags.push(Diagnostic {
            rule: rules::LOWER_ARITY,
            severity: Severity::Error,
            line: node.line,
            instance: name.to_string(),
            message: format!(
                "'{}' requires {required} lower protocol(s), got {given}",
                node.ctor
            ),
            hint: format!("list {required} lower(s) after '->'"),
        });
        return;
    }
    let extra = given - required;
    if let Some(group) = &c.repeat {
        if !extra.is_multiple_of(group.len()) {
            diags.push(Diagnostic {
                rule: rules::LOWER_ARITY,
                severity: Severity::Error,
                line: node.line,
                instance: name.to_string(),
                message: format!(
                    "'{}' takes lowers in groups of {}, got {given}",
                    node.ctor,
                    group.len()
                ),
                hint: "complete the last group (e.g. every eth needs its arp)".into(),
            });
        }
    } else if extra > c.optional.len() {
        let used = required + c.optional.len();
        diags.push(Diagnostic {
            rule: rules::LOWER_ARITY,
            severity: Severity::Warning,
            line: node.line,
            instance: name.to_string(),
            message: format!(
                "'{}' uses at most {used} lower(s); capabilities {:?} are dangling (never opened)",
                node.ctor,
                &node.lowers[used..]
            ),
            hint: "drop the unused lower(s) — dead capabilities hide wiring mistakes".into(),
        });
    }
}

/// Resolves the address kind `instance` produces, following pass-through
/// chains. `None` for opaque or unresolvable producers.
fn produced_kind(
    instance: &str,
    by_name: &HashMap<&str, &Node>,
    externals: &HashMap<String, ProtoContract>,
) -> Option<AddrKind> {
    let mut cur = instance.to_string();
    // Bottom-up wiring guarantees termination, but guard anyway.
    for _ in 0..64 {
        let produces = match by_name.get(cur.as_str()) {
            Some(node) => node.contract.produces,
            None => externals.get(&cur)?.produces,
        };
        match produces {
            Produce::Kind(k) => return Some(k),
            Produce::Opaque => return None,
            Produce::Same => {
                cur = by_name.get(cur.as_str())?.lowers.first()?.clone();
            }
        }
    }
    None
}

fn check_edge_kinds(
    name: &str,
    node: &Node,
    by_name: &HashMap<&str, &Node>,
    externals: &HashMap<String, ProtoContract>,
    diags: &mut Vec<Diagnostic>,
) {
    let c = &node.contract;
    if c.produces == Produce::Opaque {
        return;
    }
    // Lay out the slot each given lower lands in: required, then repeating
    // groups or optionals.
    let mut slots: Vec<&LowerSlot> = c.lowers.iter().collect();
    let extra = node.lowers.len().saturating_sub(c.lowers.len());
    if let Some(group) = &c.repeat {
        for i in 0..extra {
            slots.push(&group[i % group.len()]);
        }
    } else {
        slots.extend(c.optional.iter().take(extra));
    }
    for (i, lower) in node.lowers.iter().enumerate() {
        let Some(slot) = slots.get(i) else { break };
        let Some(kind) = produced_kind(lower, by_name, externals) else {
            continue;
        };
        if !slot.accepts(kind) {
            let want = slot
                .kinds
                .iter()
                .map(AddrKind::to_string)
                .collect::<Vec<_>>()
                .join("|");
            diags.push(Diagnostic {
                rule: rules::ADDR_KIND,
                severity: Severity::Error,
                line: node.line,
                instance: name.to_string(),
                message: format!(
                    "lower slot {i} of '{}' expects a {want} producer, but '{lower}' \
                     produces {kind} addresses",
                    node.ctor
                ),
                hint: format!("wire slot {i} to a protocol producing {want} addresses"),
            });
        }
    }
}

fn check_params(name: &str, node: &Node, diags: &mut Vec<Diagnostic>) {
    let c = &node.contract;
    if c.produces == Produce::Opaque {
        return;
    }
    for spec in &c.params {
        match node.params.get(&spec.key) {
            None if spec.required => diags.push(Diagnostic {
                rule: rules::PARAM_SCHEMA,
                severity: Severity::Error,
                line: node.line,
                instance: name.to_string(),
                message: format!("'{}' requires param {}=", node.ctor, spec.key),
                hint: format!("add {}=<value> to the line", spec.key),
            }),
            Some(v) if spec.numeric && v.parse::<u64>().is_err() => diags.push(Diagnostic {
                rule: rules::PARAM_SCHEMA,
                severity: Severity::Error,
                line: node.line,
                instance: name.to_string(),
                message: format!("param {}={v} is not a number", spec.key),
                hint: format!("{} takes an unsigned integer", spec.key),
            }),
            _ => {}
        }
    }
    for key in node.params.keys() {
        if !c.params.iter().any(|p| &p.key == key) {
            diags.push(Diagnostic {
                rule: rules::PARAM_SCHEMA,
                severity: Severity::Warning,
                line: node.line,
                instance: name.to_string(),
                message: format!("'{}' does not take param '{key}' (ignored)", node.ctor),
                hint: "remove the parameter or fix its spelling".into(),
            });
        }
    }
}

/// True when any lower slot of the contract (required, repeating, or
/// optional) explicitly accepts device-kind producers.
fn has_device_slot(c: &ProtoContract) -> bool {
    c.lowers
        .iter()
        .chain(c.repeat.iter().flatten())
        .chain(c.optional.iter())
        .any(|s| s.kinds.contains(&AddrKind::Device))
}

/// XK011: a layer that parks a shepherd on a reply semaphore holds a
/// transaction slot (a channel, an outstanding-call entry) for the duration
/// of the wait. Unless the contract records the audited guarantee that
/// every error path releases that slot, the wait is assumed to leak it —
/// the bug class PR 2 found by hand in `channel.rs`.
fn check_slot_discipline(name: &str, node: &Node, diags: &mut Vec<Diagnostic>) {
    let c = &node.contract;
    if c.sema.awaits_reply && !c.clears_slot_on_error {
        diags.push(Diagnostic {
            rule: rules::WAIT_HOLDING_SLOT,
            severity: Severity::Error,
            line: node.line,
            instance: name.to_string(),
            message: format!(
                "'{}' blocks on a reply semaphore while holding its transaction slot, \
                 and does not declare that error paths release the slot: a timeout or \
                 push failure leaks the channel",
                node.ctor
            ),
            hint: "audit every error path out of the wait, then declare \
                   clears_slot_on_error() on the contract"
                .into(),
        });
    }
}

/// XK013 (Error) / XK014 (Warning): blocking-point declarations versus what
/// the rest of the contract implies. A reply wait blocks on a semaphore
/// with a timeout timer armed; a pool acquire blocks on a semaphore; a
/// device-kind lower slot means the layer waits on wire occupancy. Each
/// declared point mirrors a trace-ledger op-class, so the declaration is
/// what the dynamic checker (and a future cooperative scheduler) can trust.
fn check_block_decls(name: &str, node: &Node, diags: &mut Vec<Diagnostic>) {
    let c = &node.contract;
    if c.produces == Produce::Opaque {
        return;
    }
    let declared = |p: BlockPoint| c.blocking.contains(&p);
    let mut missing: Vec<BlockPoint> = Vec::new();
    if (c.sema.awaits_reply || c.sema.acquires_pool) && !declared(BlockPoint::Sema) {
        missing.push(BlockPoint::Sema);
    }
    if c.sema.awaits_reply && !declared(BlockPoint::Timer) {
        missing.push(BlockPoint::Timer);
    }
    if has_device_slot(c) && !declared(BlockPoint::Wire) {
        missing.push(BlockPoint::Wire);
    }
    if !missing.is_empty() {
        let classes: Vec<&str> = missing.iter().map(|p| p.op_class_name()).collect();
        diags.push(Diagnostic {
            rule: rules::BLOCK_DECL,
            severity: Severity::Error,
            line: node.line,
            instance: name.to_string(),
            message: format!(
                "'{}' blocks shepherds on undeclared operations: contract implies \
                 {missing:?} (trace op-classes {classes:?}) but blocks() omits them",
                node.ctor
            ),
            hint: "declare every blocking op with .blocks(&[...]) so the ledger's \
                   op-classes can be cross-checked against the contract"
                .into(),
        });
    }
    if declared(BlockPoint::Wire) && !has_device_slot(c) {
        diags.push(Diagnostic {
            rule: rules::BLOCK_DECL_EXCESS,
            severity: Severity::Warning,
            line: node.line,
            instance: name.to_string(),
            message: format!(
                "'{}' declares a wire blocking point but has no device-kind lower \
                 slot: nothing in this layer can wait on the NIC",
                node.ctor
            ),
            hint: "drop BlockPoint::Wire from blocks(), or add the device lower".into(),
        });
    }
}

/// XK016: a protocol marked crash-restartable must implement the `reboot`
/// hook, or its survivors wake into conversation state from a dead epoch.
fn check_reboot_hooks(name: &str, node: &Node, diags: &mut Vec<Diagnostic>) {
    let c = &node.contract;
    if c.crashable && !c.has_reboot {
        diags.push(Diagnostic {
            rule: rules::REBOOT_HOOKS,
            severity: Severity::Error,
            line: node.line,
            instance: name.to_string(),
            message: format!(
                "'{}' is declared crashable but has no reboot hook: after a host \
                 restart its sessions keep pre-crash sequence/channel state",
                node.ctor
            ),
            hint: "implement Protocol::reboot (and declare .reboots()), or drop \
                   .crashable() if the protocol is never crash-tested"
                .into(),
        });
    }
}

/// XK012: a layer whose reply waits are signalled from demux can only ever
/// be woken by an arriving frame, which means a device must be reachable
/// somewhere beneath it. If the transitive lower closure never reaches a
/// device-kind producer, the signaler can never fire and every wait times
/// out. (Opaque contracts in the closure make the check inconclusive and
/// suppress it.)
fn check_signal_path(
    name: &str,
    node: &Node,
    by_name: &HashMap<&str, &Node>,
    externals: &HashMap<String, ProtoContract>,
    diags: &mut Vec<Diagnostic>,
) {
    let c = &node.contract;
    if !(c.sema.awaits_reply && c.sema.wakes_from_demux) {
        return;
    }
    let mut stack: Vec<&str> = node.lowers.iter().map(String::as_str).collect();
    let mut visited: HashSet<&str> = HashSet::new();
    let mut inconclusive = stack.is_empty();
    let mut reaches_device = false;
    while let Some(cur) = stack.pop() {
        if !visited.insert(cur) {
            continue;
        }
        match contract_of(cur, by_name, externals) {
            None => inconclusive = true, // unknown lower: XK003 already fired
            Some(lc) => match lc.produces {
                Produce::Opaque => inconclusive = true,
                Produce::Kind(AddrKind::Device) => reaches_device = true,
                _ => {}
            },
        }
        if let Some(n) = by_name.get(cur) {
            stack.extend(n.lowers.iter().map(String::as_str));
        }
    }
    if !reaches_device && !inconclusive {
        diags.push(Diagnostic {
            rule: rules::SIGNAL_PATH,
            severity: Severity::Error,
            line: node.line,
            instance: name.to_string(),
            message: format!(
                "'{}' parks shepherds on a demux-signalled reply semaphore, but no \
                 device is reachable below it: no frame can ever arrive to run the \
                 signaler, so every wait expires",
                node.ctor
            ),
            hint: "wire the stack down to a device protocol (nic), or stop blocking \
                   on demux-signalled semaphores"
                .into(),
        });
    }
}

/// XK015: merges every contract's declared lock-acquisition order into one
/// relation and rejects cycles. Two protocols in one kernel that take the
/// same locks in opposite orders deadlock under the right interleaving —
/// exactly the Sched-before-Hosts discipline the simulator documents, enforced
/// declaratively.
fn check_lock_order(nodes: &[(String, Node)], diags: &mut Vec<Diagnostic>) {
    // edge (a -> b): a is acquired before b, attributed to the declaring
    // node (last declaration wins; any one is enough for the message).
    let mut edges: HashMap<&str, BTreeSet<&str>> = HashMap::new();
    let mut declared_by: HashMap<(&str, &str), (usize, &str)> = HashMap::new();
    for (name, node) in nodes {
        for w in node.contract.lock_order.windows(2) {
            let (a, b) = (w[0].as_str(), w[1].as_str());
            edges.entry(a).or_default().insert(b);
            declared_by.insert((a, b), (node.line, name.as_str()));
        }
    }
    // Iterative coloring DFS over sorted roots for deterministic output.
    let mut locks: Vec<&str> = edges.keys().copied().collect();
    locks.sort_unstable();
    let mut done: HashSet<&str> = HashSet::new();
    for root in locks {
        if done.contains(root) {
            continue;
        }
        let mut path: Vec<&str> = Vec::new();
        let mut on_path: HashSet<&str> = HashSet::new();
        // (lock, next-successor-index) frames.
        let mut frames: Vec<(&str, usize)> = vec![(root, 0)];
        while let Some((lock, idx)) = frames.pop() {
            if idx == 0 {
                path.push(lock);
                on_path.insert(lock);
            }
            let succs: Vec<&str> = edges
                .get(lock)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default();
            if let Some(&next) = succs.get(idx) {
                frames.push((lock, idx + 1));
                if on_path.contains(next) {
                    // Cycle: slice of `path` from `next` onward, closed.
                    let start = path.iter().position(|l| *l == next).unwrap();
                    let mut cycle: Vec<&str> = path[start..].to_vec();
                    cycle.push(next);
                    // Anchor the diagnostic at the latest-declared edge.
                    let (line, inst) = cycle
                        .windows(2)
                        .filter_map(|w| declared_by.get(&(w[0], w[1])))
                        .max()
                        .copied()
                        .unwrap_or((0, ""));
                    let order = cycle.join(" -> ");
                    let holders: BTreeSet<&str> = cycle
                        .windows(2)
                        .filter_map(|w| declared_by.get(&(w[0], w[1])))
                        .map(|(_, n)| *n)
                        .collect();
                    diags.push(Diagnostic {
                        rule: rules::LOCK_ORDER,
                        severity: Severity::Error,
                        line,
                        instance: inst.to_string(),
                        message: format!(
                            "conflicting lock-acquisition orders: {order} (declared \
                             across {holders:?}) — two shepherds taking these locks \
                             concurrently deadlock"
                        ),
                        hint: "pick one global order for the named locks and declare \
                               it identically in every contract"
                            .into(),
                    });
                    return; // one cycle report per spec is enough
                }
                if !done.contains(next) {
                    frames.push((next, 0));
                }
            } else {
                path.pop();
                on_path.remove(lock);
                done.insert(lock);
            }
        }
    }
}

/// Path-sensitive checks: XK007 (stable-over-virtual), XK008 (header
/// budget), XK010 (nested shepherd waits). Walks every root-to-leaf path;
/// graphs are a handful of nodes, so enumeration is cheap.
fn check_paths(
    nodes: &[(String, Node)],
    by_name: &HashMap<&str, &Node>,
    externals: &HashMap<String, ProtoContract>,
    diags: &mut Vec<Diagnostic>,
) {
    let used: HashSet<&str> = nodes
        .iter()
        .flat_map(|(_, n)| n.lowers.iter().map(String::as_str))
        .collect();
    let mut seen: HashSet<(usize, &'static str, String, String)> = HashSet::new();
    for (root, _) in nodes.iter().filter(|(n, _)| !used.contains(n.as_str())) {
        let mut path: Vec<&str> = Vec::new();
        walk(root, by_name, &mut path, &mut |path| {
            check_path(path, by_name, externals, diags, &mut seen);
        });
    }
}

fn walk<'a>(
    name: &'a str,
    by_name: &HashMap<&str, &'a Node>,
    path: &mut Vec<&'a str>,
    visit: &mut impl FnMut(&[&str]),
) {
    if path.contains(&name) {
        return; // cycles are reported as XK003; avoid infinite recursion
    }
    path.push(name);
    match by_name.get(name) {
        Some(node) if !node.lowers.is_empty() => {
            for lower in &node.lowers {
                walk(lower, by_name, path, visit);
            }
        }
        _ => visit(path),
    }
    path.pop();
}

fn contract_of<'a>(
    name: &str,
    by_name: &'a HashMap<&str, &Node>,
    externals: &'a HashMap<String, ProtoContract>,
) -> Option<&'a ProtoContract> {
    by_name
        .get(name)
        .map(|n| &n.contract)
        .or_else(|| externals.get(name))
}

fn line_of(name: &str, by_name: &HashMap<&str, &Node>) -> usize {
    by_name.get(name).map(|n| n.line).unwrap_or(0)
}

fn check_path(
    path: &[&str],
    by_name: &HashMap<&str, &Node>,
    externals: &HashMap<String, ProtoContract>,
    diags: &mut Vec<Diagnostic>,
    seen: &mut HashSet<(usize, &'static str, String, String)>,
) {
    let mut push = |rule: &'static str,
                    severity: Severity,
                    line: usize,
                    instance: &str,
                    message: String,
                    hint: &str,
                    diags: &mut Vec<Diagnostic>| {
        if seen.insert((line, rule, instance.to_string(), message.clone())) {
            diags.push(Diagnostic {
                rule,
                severity,
                line,
                instance: instance.to_string(),
                message,
                hint: hint.into(),
            });
        }
    };

    // XK007: a stable-participant protocol above an identity virtualizer.
    for (i, upper) in path.iter().enumerate() {
        let Some(uc) = contract_of(upper, by_name, externals) else {
            continue;
        };
        if !uc.requires_stable_participants {
            continue;
        }
        for lower in &path[i + 1..] {
            let Some(lc) = contract_of(lower, by_name, externals) else {
                continue;
            };
            if lc.virtualizes_identity {
                push(
                    rules::STABLE_OVER_VIRTUAL,
                    Severity::Error,
                    line_of(upper, by_name),
                    upper,
                    format!(
                        "'{}' requires stable participant addresses but is layered above \
                         '{lower}', which virtualizes participant identity — the Section 5 \
                         rule: TCP's pseudo-header checksum binds the address VIP rewrites",
                        uc.name
                    ),
                    "compose the stable-participant protocol directly over ip, or use an \
                     RPC protocol that does not bake addresses into its wire format",
                    diags,
                );
            }
        }
    }

    // XK008: header budget. Headers below the lowest re-fragmenting layer
    // reach the wire as-is; they must leave payload room within the MTU.
    let hdr = |name: &str| {
        contract_of(name, by_name, externals)
            .map(|c| c.max_header_bytes)
            .unwrap_or(0)
    };
    let total: usize = path.iter().map(|n| hdr(n)).sum();
    let lowest_frag = path
        .iter()
        .rposition(|n| contract_of(n, by_name, externals).is_some_and(|c| c.fragments));
    let wire_burden: usize = match lowest_frag {
        Some(i) => path[i..].iter().map(|n| hdr(n)).sum(),
        None => total,
    };
    let top = path[0];
    if wire_burden >= WIRE_MTU {
        push(
            rules::HEADER_BUDGET,
            Severity::Error,
            line_of(top, by_name),
            top,
            format!(
                "headers below the last fragmenting layer total {wire_burden} bytes, \
                 >= the {WIRE_MTU}-byte wire MTU: no payload can ever be delivered"
            ),
            "insert a fragment layer above the header-heavy protocols, or shrink headers",
            diags,
        );
    } else if total > DEFAULT_HEADROOM {
        push(
            rules::HEADER_BUDGET,
            Severity::Warning,
            line_of(top, by_name),
            top,
            format!(
                "path headers total {total} bytes, exceeding the {DEFAULT_HEADROOM}-byte \
                 pre-allocated headroom: push_header falls back to per-header allocation"
            ),
            "raise the message headroom or trim the stack (the paper's §5 buffer result)",
            diags,
        );
    }

    // XK010 (warning half): nested reply-waiting layers on one path. The
    // upper layer's shepherd holds its reply semaphore while the lower
    // layer's timeout machinery runs — channel exhaustion cascades.
    let awaiters: Vec<&&str> = path
        .iter()
        .filter(|n| contract_of(n, by_name, externals).is_some_and(|c| c.sema.awaits_reply))
        .collect();
    if awaiters.len() >= 2 {
        let top_waiter = awaiters[0];
        let below: Vec<&str> = awaiters[1..].iter().map(|n| **n).collect();
        push(
            rules::SEMA_DISCIPLINE,
            Severity::Warning,
            line_of(top_waiter, by_name),
            top_waiter,
            format!(
                "nested shepherd waits: '{top_waiter}' blocks on a reply while {below:?} \
                 also block below it; a lower-layer timeout pins the upper semaphore and \
                 can exhaust the channel pool"
            ),
            "let exactly one layer in a stack own the request/reply wait",
            diags,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctors(contracts: &HashMap<String, ProtoContract>) -> impl Fn(&str) -> bool + '_ {
        |ctor| contracts.contains_key(ctor)
    }

    /// A miniature vocabulary mirroring the real stack's shape.
    fn vocab() -> HashMap<String, ProtoContract> {
        let mut m = HashMap::new();
        for c in [
            ProtoContract::new("wire", AddrKind::Hardware)
                .lower(&[AddrKind::Device])
                .header(14)
                .blocks(&[BlockPoint::Wire]),
            ProtoContract::new("net", AddrKind::Internet)
                .lower(&[AddrKind::Hardware])
                .header(20)
                .fragments(),
            ProtoContract::new("virt", AddrKind::Internet)
                .lower(&[AddrKind::Internet])
                .virtualizes_identity(),
            ProtoContract::new("stream", AddrKind::Transport)
                .lower(&[AddrKind::Internet])
                .header(20)
                .requires_stable_participants()
                .sema(SemaContract {
                    acquires_pool: false,
                    awaits_reply: true,
                    wakes_from_demux: true,
                })
                .blocks(&[BlockPoint::Sema, BlockPoint::Timer])
                .clears_slot_on_error(),
            ProtoContract::new("rpc", AddrKind::Rpc)
                .lower(&[AddrKind::Internet, AddrKind::Transport])
                .header(18)
                .param("channels", false, true)
                .sema(SemaContract {
                    acquires_pool: true,
                    awaits_reply: true,
                    wakes_from_demux: true,
                })
                .blocks(&[BlockPoint::Sema, BlockPoint::Timer])
                .clears_slot_on_error()
                .crashable()
                .reboots(),
            ProtoContract::passthrough("pass").header(4),
            ProtoContract::new("stuck", AddrKind::Rpc)
                .lower(&[])
                .sema(SemaContract {
                    acquires_pool: false,
                    awaits_reply: true,
                    wakes_from_demux: false,
                })
                .blocks(&[BlockPoint::Sema, BlockPoint::Timer])
                .clears_slot_on_error(),
            // An Internet producer with no lowers: nothing below it can
            // reach a device (XK012's bad case).
            ProtoContract::new("float", AddrKind::Internet),
            // Crashable but no reboot hook (XK016's bad case).
            ProtoContract::new("fragile", AddrKind::Rpc)
                .lower(&[AddrKind::Internet])
                .crashable(),
            // A pair declaring opposite lock orders (XK015's bad case).
            ProtoContract::new("locka", AddrKind::Rpc)
                .lower(&[AddrKind::Internet])
                .locks(&["L1", "L2"]),
            ProtoContract::new("lockb", AddrKind::Rpc)
                .lower(&[AddrKind::Internet])
                .locks(&["L2", "L1"]),
        ] {
            m.insert(c.name.clone(), c);
        }
        m
    }

    fn ext() -> HashMap<String, ProtoContract> {
        let mut m = HashMap::new();
        m.insert(
            "nic0".to_string(),
            ProtoContract::new("nic", AddrKind::Device),
        );
        m
    }

    fn run(spec: &str) -> Vec<Diagnostic> {
        let v = vocab();
        let known = ctors(&v);
        lint_spec(spec, known, &v, &ext(), &LintOptions::default())
    }

    #[test]
    fn clean_stack_has_no_diagnostics() {
        let d = run("wire -> nic0\nnet -> wire\nrpc -> net\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn parse_and_unknown_ctor() {
        let d = run("a: b c d=1\nmystery -> nic0\n");
        assert!(d.iter().any(|d| d.rule == rules::PARSE && d.line == 1));
        assert!(d
            .iter()
            .any(|d| d.rule == rules::UNKNOWN_CTOR && d.line == 2));
    }

    #[test]
    fn forward_reference_and_duplicate() {
        let d = run("net -> wire\nwire -> nic0\nwire -> nic0\n");
        assert!(d
            .iter()
            .any(|d| d.rule == rules::UNKNOWN_LOWER && d.line == 1));
        assert!(d
            .iter()
            .any(|d| d.rule == rules::DUPLICATE_INSTANCE && d.line == 3));
    }

    #[test]
    fn arity_missing_and_dangling() {
        let d = run("wire -> nic0\nnet\n");
        assert!(d
            .iter()
            .any(|d| d.rule == rules::LOWER_ARITY && d.severity == Severity::Error));
        let d = run("wire -> nic0\nnet -> wire wire\n");
        assert!(d
            .iter()
            .any(|d| d.rule == rules::LOWER_ARITY && d.severity == Severity::Warning));
    }

    #[test]
    fn kind_mismatch_detected_through_passthrough() {
        // net expects a hardware producer; pass relays nic0's device kind.
        let d = run("pass -> nic0\nnet -> pass\n");
        assert!(
            d.iter().any(|d| d.rule == rules::ADDR_KIND && d.line == 2),
            "{d:?}"
        );
    }

    #[test]
    fn stable_over_virtualizer_is_an_error() {
        let d = run("wire -> nic0\nnet -> wire\nvirt -> net\nstream -> virt\n");
        let hit = d
            .iter()
            .find(|d| d.rule == rules::STABLE_OVER_VIRTUAL)
            .expect("XK007 fires");
        assert_eq!(hit.severity, Severity::Error);
        assert!(hit.message.contains("virtualizes participant identity"));
        // Directly over net it is fine.
        let d = run("wire -> nic0\nnet -> wire\nstream -> net\n");
        assert!(!d.iter().any(|d| d.rule == rules::STABLE_OVER_VIRTUAL));
    }

    #[test]
    fn header_budget_warning_and_error() {
        // 40 pass layers x 4 bytes + wire 14 > 128 headroom, but net (which
        // fragments) keeps the wire burden legal -> warning only.
        let mut spec = String::from("wire -> nic0\nnet -> wire\n");
        let mut below = String::from("net");
        for i in 0..40 {
            spec.push_str(&format!("p{i}: pass -> {below}\n"));
            below = format!("p{i}");
        }
        let d = run(&spec);
        assert!(d
            .iter()
            .any(|d| d.rule == rules::HEADER_BUDGET && d.severity == Severity::Warning));
        assert!(!d.iter().any(|d| d.severity == Severity::Error), "{d:?}");

        // 400 pass layers below any fragmenter: 1600 bytes of wire headers.
        let mut spec = String::from("wire -> nic0\n");
        let mut below = String::from("wire");
        for i in 0..400 {
            spec.push_str(&format!("p{i}: pass -> {below}\n"));
            below = format!("p{i}");
        }
        let d = run(&spec);
        assert!(d
            .iter()
            .any(|d| d.rule == rules::HEADER_BUDGET && d.severity == Severity::Error));
    }

    #[test]
    fn param_schema_rules() {
        let d = run("wire -> nic0\nnet -> wire\nrpc channels=many -> net\n");
        assert!(d
            .iter()
            .any(|d| d.rule == rules::PARAM_SCHEMA && d.severity == Severity::Error));
        let d = run("wire -> nic0\nnet -> wire\nrpc bogus=1 -> net\n");
        assert!(d
            .iter()
            .any(|d| d.rule == rules::PARAM_SCHEMA && d.severity == Severity::Warning));
    }

    #[test]
    fn sema_deadlock_error_and_nesting_warning() {
        // stuck awaits a reply nothing ever signals.
        let d = run("wire -> nic0\nnet -> wire\nstuck -> net\n");
        let hit = d
            .iter()
            .find(|d| d.rule == rules::SEMA_DISCIPLINE && d.severity == Severity::Error)
            .expect("XK010 error fires");
        assert!(hit.message.contains("deadlock"));
        // rpc over stream: two reply-waiting layers nested.
        let d = run("wire -> nic0\nnet -> wire\nstream -> net\nrpc -> stream\n");
        assert!(d
            .iter()
            .any(|d| d.rule == rules::SEMA_DISCIPLINE && d.severity == Severity::Warning));
    }

    #[test]
    fn suppression_via_directive_and_options() {
        let spec = "# xk-lint: allow=XK006\npass -> nic0\nnet -> pass\n";
        let v = vocab();
        let d = lint_spec(spec, ctors(&v), &v, &ext(), &LintOptions::default());
        assert!(d.is_empty(), "{d:?}");
        let mut opts = LintOptions::default();
        opts.allow.insert(rules::ADDR_KIND.to_string());
        let d = lint_spec("pass -> nic0\nnet -> pass\n", ctors(&v), &v, &ext(), &opts);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn xk011_reply_wait_without_slot_release_declaration() {
        let mut v = vocab();
        // Same shape as stream, minus the audited clears_slot_on_error.
        let mut leaky = v["stream"].clone();
        leaky.name = "leaky".into();
        leaky.clears_slot_on_error = false;
        v.insert("leaky".into(), leaky);
        let d = lint_spec(
            "wire -> nic0\nnet -> wire\nleaky -> net\n",
            ctors(&v),
            &v,
            &ext(),
            &LintOptions::default(),
        );
        let hit = d
            .iter()
            .find(|d| d.rule == rules::WAIT_HOLDING_SLOT)
            .expect("XK011 fires");
        assert_eq!(hit.severity, Severity::Error);
        assert_eq!(hit.instance, "leaky");
        assert!(hit.message.contains("transaction slot"), "{}", hit.message);
        // The audited vocabulary is clean.
        let d = run("wire -> nic0\nnet -> wire\nstream -> net\n");
        assert!(!d.iter().any(|d| d.rule == rules::WAIT_HOLDING_SLOT));
    }

    #[test]
    fn xk012_demux_signaled_wait_needs_a_device_below() {
        // stream's reply semaphore is V'd from demux, but float bottoms out
        // without ever reaching a device: the signaler can never run.
        let d = run("float\nstream -> float\n");
        let hit = d
            .iter()
            .find(|d| d.rule == rules::SIGNAL_PATH)
            .expect("XK012 fires");
        assert_eq!(hit.severity, Severity::Error);
        assert_eq!(hit.instance, "stream");
        // With a real wire underneath, the same layer is clean.
        let d = run("wire -> nic0\nnet -> wire\nstream -> net\n");
        assert!(!d.iter().any(|d| d.rule == rules::SIGNAL_PATH), "{d:?}");
    }

    #[test]
    fn xk013_missing_blocking_declarations() {
        let mut v = vocab();
        let mut undeclared = v["rpc"].clone();
        undeclared.name = "undeclared".into();
        undeclared.blocking.clear();
        v.insert("undeclared".into(), undeclared);
        let d = lint_spec(
            "wire -> nic0\nnet -> wire\nundeclared -> net\n",
            ctors(&v),
            &v,
            &ext(),
            &LintOptions::default(),
        );
        let hit = d
            .iter()
            .find(|d| d.rule == rules::BLOCK_DECL)
            .expect("XK013 fires");
        assert_eq!(hit.severity, Severity::Error);
        assert_eq!(hit.instance, "undeclared");
        assert!(hit.message.contains("Sema"), "{}", hit.message);
        assert!(hit.message.contains("Timer"), "{}", hit.message);
    }

    #[test]
    fn xk014_excess_wire_declaration_warns() {
        let mut v = vocab();
        let mut wired = v["net"].clone();
        wired.name = "wired".into();
        wired.blocking = vec![BlockPoint::Wire];
        v.insert("wired".into(), wired);
        let d = lint_spec(
            "wire -> nic0\nwired -> wire\n",
            ctors(&v),
            &v,
            &ext(),
            &LintOptions::default(),
        );
        let hit = d
            .iter()
            .find(|d| d.rule == rules::BLOCK_DECL_EXCESS)
            .expect("XK014 fires");
        assert_eq!(hit.severity, Severity::Warning);
        assert_eq!(hit.instance, "wired");
    }

    #[test]
    fn xk015_conflicting_lock_orders_are_a_cycle() {
        let d = run("wire -> nic0\nnet -> wire\nlocka -> net\nlockb -> net\n");
        let hit = d
            .iter()
            .find(|d| d.rule == rules::LOCK_ORDER)
            .expect("XK015 fires");
        assert_eq!(hit.severity, Severity::Error);
        assert!(
            hit.message.contains("L1") && hit.message.contains("L2"),
            "{}",
            hit.message
        );
        assert!(
            hit.message.contains("locka") && hit.message.contains("lockb"),
            "cycle names both declaring instances: {}",
            hit.message
        );
        // One consistent order across the spec is clean.
        let d = run("wire -> nic0\nnet -> wire\nlocka -> net\nla2: locka -> net\n");
        assert!(!d.iter().any(|d| d.rule == rules::LOCK_ORDER), "{d:?}");
    }

    #[test]
    fn xk016_crashable_without_reboot_hook() {
        let d = run("wire -> nic0\nnet -> wire\nfragile -> net\n");
        let hit = d
            .iter()
            .find(|d| d.rule == rules::REBOOT_HOOKS)
            .expect("XK016 fires");
        assert_eq!(hit.severity, Severity::Error);
        assert_eq!(hit.instance, "fragile");
        // rpc declares both crashable and reboots: clean.
        let d = run("wire -> nic0\nnet -> wire\nrpc -> net\n");
        assert!(!d.iter().any(|d| d.rule == rules::REBOOT_HOOKS), "{d:?}");
    }

    #[test]
    fn block_points_map_onto_trace_op_classes() {
        // The declaration vocabulary and the runtime ledger must stay in
        // sync: every BlockPoint names a class OpClass::ALL records.
        let classes: Vec<String> = crate::trace::OpClass::ALL
            .iter()
            .map(|c| format!("{c:?}"))
            .collect();
        for bp in [BlockPoint::Sema, BlockPoint::Timer, BlockPoint::Wire] {
            assert!(
                classes.iter().any(|c| c == bp.op_class_name()),
                "{bp} maps to unknown op-class {}",
                bp.op_class_name()
            );
        }
    }

    #[test]
    fn diagnostics_render_with_rule_and_hint() {
        let d = run("wire -> nic0\nnet -> wire\nvirt -> net\nstream -> virt\n");
        let msg = d
            .iter()
            .find(|d| d.rule == rules::STABLE_OVER_VIRTUAL)
            .unwrap()
            .to_string();
        assert!(msg.contains("XK007") && msg.contains("hint:"), "{msg}");
    }
}
