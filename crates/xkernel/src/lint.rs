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
//! [`RULES`] is the catalogue: one row per rule, holding its id, what it
//! finds, whether `xk-lint --xcheck` reports it, and its check.
//!
//! ## Suppression
//!
//! A spec may carry directive comments, and callers may pass an allow-set in
//! [`LintOptions`]; both drop every diagnostic of the named rules:
//!
//! ```text
//! # xk-lint: allow=XK008,XK010
//! ```

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;

use crate::graph::parse_line;
use crate::msg::DEFAULT_HEADROOM;

/// The wire MTU the header-budget rule (XK008) checks against. Mirrors
/// `inet::eth::ETH_MTU`; duplicated here because the linter must not depend
/// on any protocol crate.
pub const WIRE_MTU: usize = 1500;

/// One lint rule: a row of [`RULES`].
pub struct Rule {
    /// The id each of the rule's diagnostics carries, e.g. `"XK007"`.
    pub id: &'static str,
    /// What the rule finds: an error, unless it says warning.
    pub summary: &'static str,
    /// Whether the rule is in the concurrency-verifier subset, the only
    /// rules `xk-lint --xcheck` reports.
    pub xcheck: bool,
    check: fn(&Spec<'_>, &mut Findings),
}

/// The rule catalogue, in id order. [`lint_spec`] runs every row a spec
/// does not allow.
#[rustfmt::skip]
pub static RULES: [Rule; 16] = [
    Rule { id: "XK001", xcheck: false, check: unparsable,
        summary: "a spec line fails to parse" },
    Rule { id: "XK002", xcheck: false, check: unknown_ctors,
        summary: "unknown constructor name" },
    Rule { id: "XK003", xcheck: false, check: undefined_lowers,
        summary: "a lower no earlier line defines (wiring is bottom-up, so cycle-free)" },
    Rule { id: "XK004", xcheck: false, check: duplicates,
        summary: "duplicate instance name" },
    Rule { id: "XK005", xcheck: false, check: arity,
        summary: "required lower slots missing, or extra lowers dangling (warning)" },
    Rule { id: "XK006", xcheck: false, check: edge_kinds,
        summary: "a lower produces an address kind its slot does not take (`udp -> eth`)" },
    Rule { id: "XK007", xcheck: false, check: stable_over_virtual,
        summary: "a stable-participant protocol over an identity virtualizer (§5: TCP/VIP)" },
    Rule { id: "XK008", xcheck: false, check: header_budget,
        summary: "headers below any fragmenter fill the MTU; or exceed headroom (warning)" },
    Rule { id: "XK009", xcheck: false, check: params,
        summary: "a constructor param missing or not numeric; or unknown (warning)" },
    Rule { id: "XK010", xcheck: true, check: sema_discipline,
        summary: "a reply wait demux never signals; or nested reply waits (warning)" },
    Rule { id: "XK011", xcheck: true, check: slot_discipline,
        summary: "a reply wait not declared to free its slot on error (`clears_slot_on_error`)" },
    Rule { id: "XK012", xcheck: true, check: signal_path,
        summary: "a demux-signalled reply wait with no device below it to run the signaler" },
    Rule { id: "XK013", xcheck: true, check: undeclared_blocking,
        summary: "blocking points the contract implies but `blocks()` omits" },
    Rule { id: "XK014", xcheck: true, check: excess_blocking,
        summary: "a `Wire` blocking point with no device-kind lower slot (warning)" },
    Rule { id: "XK015", xcheck: true, check: lock_order,
        summary: "conflicting lock-acquisition orders across the spec (the merged order cycles)" },
    Rule { id: "XK016", xcheck: true, check: reboot_hooks,
        summary: "a `crashable` protocol without a reboot hook" },
];

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
    /// Rule id, e.g. `"XK007"` (see [`RULES`]).
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

/// A spec line that names an instance.
struct Node {
    line: usize,
    name: String,
    ctor: String,
    /// Whether `ctor` is in the constructor vocabulary.
    known: bool,
    contract: ProtoContract,
    lowers: Vec<String>,
    /// Sorted, so unknown keys are reported in one order on every run.
    params: BTreeMap<String, String>,
}

/// A spec as the rules read it, built once per lint.
struct Spec<'a> {
    /// Lines that do not parse: line number, text, and why.
    unparsed: &'a [(usize, &'a str, String)],
    /// The lines that do, in spec order.
    nodes: &'a [Node],
    /// Each instance name's node; the last line wins for a duplicated name.
    by_name: HashMap<&'a str, &'a Node>,
    externals: &'a HashMap<String, ProtoContract>,
    /// Every path from an instance nothing sits above down to one with no
    /// lowers (or to a cycle's edge).
    paths: Vec<Vec<&'a str>>,
}

impl<'a> Spec<'a> {
    /// Nodes whose contract describes them; the rest are opaque and checked
    /// by no contract rule.
    fn described(&self) -> impl Iterator<Item = &'a Node> {
        self.nodes
            .iter()
            .filter(|n| n.contract.produces != Produce::Opaque)
    }

    fn contract(&self, name: &str) -> Option<&'a ProtoContract> {
        self.by_name
            .get(name)
            .map(|n| &n.contract)
            .or_else(|| self.externals.get(name))
    }

    /// The spec line defining `name`; 0 for an external.
    fn line(&self, name: &str) -> usize {
        self.by_name.get(name).map(|n| n.line).unwrap_or(0)
    }

    /// Resolves the address kind `instance` produces, following pass-through
    /// chains. `None` for opaque or unresolvable producers.
    fn produced_kind(&self, instance: &str) -> Option<AddrKind> {
        let mut cur = instance;
        // Bottom-up wiring guarantees termination, but guard anyway.
        for _ in 0..64 {
            match self.contract(cur)?.produces {
                Produce::Kind(k) => return Some(k),
                Produce::Opaque => return None,
                Produce::Same => cur = self.by_name.get(cur)?.lowers.first()?.as_str(),
            }
        }
        None
    }
}

fn walk<'a>(
    name: &'a str,
    by_name: &HashMap<&str, &'a Node>,
    path: &mut Vec<&'a str>,
    paths: &mut Vec<Vec<&'a str>>,
) {
    if path.contains(&name) {
        return; // cycles are reported as XK003; avoid infinite recursion
    }
    path.push(name);
    match by_name.get(name) {
        Some(node) if !node.lowers.is_empty() => {
            for lower in &node.lowers {
                walk(lower, by_name, path, paths);
            }
        }
        _ => paths.push(path.clone()),
    }
    path.pop();
}

/// One rule's findings on one spec, each carrying the rule's id.
struct Findings {
    rule: &'static str,
    found: Vec<Diagnostic>,
}

impl Findings {
    /// The one place a [`Diagnostic`] is built.
    fn report(
        &mut self,
        severity: Severity,
        (line, instance): (usize, &str),
        message: String,
        hint: impl Into<String>,
    ) {
        self.found.push(Diagnostic {
            rule: self.rule,
            severity,
            line,
            instance: instance.to_string(),
            message,
            hint: hint.into(),
        });
    }

    /// Keeps the first of each repeated finding, wherever it falls: a path
    /// rule meets the same layers on every path through them, and a line
    /// may name one undefined lower twice. The one dedup of a lint run.
    fn distinct(&mut self) {
        for d in std::mem::take(&mut self.found) {
            if !self.found.contains(&d) {
                self.found.push(d);
            }
        }
    }
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
    let mut allow = opts.allow.clone();
    let mut unparsed = Vec::new();
    let mut nodes = Vec::new();
    for (idx, raw) in spec.lines().enumerate() {
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
        match parse_line(line) {
            Err(e) => unparsed.push((idx + 1, line, e)),
            Ok(p) => nodes.push(Node {
                line: idx + 1,
                known: known_ctor(&p.ctor),
                contract: contracts
                    .get(&p.ctor)
                    .cloned()
                    .unwrap_or_else(|| ProtoContract::opaque(&p.ctor)),
                name: p.instance,
                ctor: p.ctor,
                lowers: p.down,
                params: p.params.into_iter().collect(),
            }),
        }
    }

    let by_name: HashMap<&str, &Node> = nodes.iter().map(|n| (n.name.as_str(), n)).collect();
    let used: HashSet<&str> = nodes
        .iter()
        .flat_map(|n| n.lowers.iter().map(String::as_str))
        .collect();
    let mut paths = Vec::new();
    for root in nodes.iter().filter(|n| !used.contains(n.name.as_str())) {
        walk(&root.name, &by_name, &mut Vec::new(), &mut paths);
    }
    let ctx = Spec {
        unparsed: &unparsed,
        nodes: &nodes,
        by_name,
        externals,
        paths,
    };
    let mut diags = Vec::new();
    for rule in RULES.iter().filter(|r| !allow.contains(r.id)) {
        let mut findings = Findings {
            rule: rule.id,
            found: Vec::new(),
        };
        (rule.check)(&ctx, &mut findings);
        findings.distinct();
        diags.append(&mut findings.found);
    }
    diags.sort_by_key(|d| (d.line, d.rule, d.instance.clone()));
    diags
}

/// True when `diags` contains at least one `Error`.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

fn unparsable(s: &Spec<'_>, f: &mut Findings) {
    for (line, text, why) in s.unparsed {
        f.report(
            Severity::Error,
            (*line, text),
            format!("cannot parse spec line: {why}"),
            "expected 'instance[: ctor] [key=value ...] [-> lower ...]'",
        );
    }
}

fn unknown_ctors(s: &Spec<'_>, f: &mut Findings) {
    for node in s.nodes.iter().filter(|n| !n.known) {
        f.report(
            Severity::Error,
            (node.line, &node.name),
            format!("unknown constructor '{}'", node.ctor),
            "register the constructor, or fix the spelling",
        );
    }
}

fn undefined_lowers(s: &Spec<'_>, f: &mut Findings) {
    let mut defined: HashSet<&str> = s.externals.keys().map(String::as_str).collect();
    for node in s.nodes {
        defined.insert(&node.name);
        for l in node.lowers.iter().filter(|l| !defined.contains(l.as_str())) {
            f.report(
                Severity::Error,
                (node.line, &node.name),
                format!(
                    "lower '{l}' is not defined on an earlier line (the graph is \
                     configured bottom-up, so this also rejects cycles)"
                ),
                format!("move the line defining '{l}' above this one"),
            );
        }
    }
}

fn duplicates(s: &Spec<'_>, f: &mut Findings) {
    let mut defined: HashSet<&str> = s.externals.keys().map(String::as_str).collect();
    for node in s.nodes.iter().filter(|n| !defined.insert(&n.name)) {
        f.report(
            Severity::Error,
            (node.line, &node.name),
            "duplicate instance name".into(),
            "give the second instance a distinct name ('eth1: eth')",
        );
    }
}

fn arity(s: &Spec<'_>, f: &mut Findings) {
    for node in s.described() {
        let c = &node.contract;
        let (required, given) = (c.lowers.len(), node.lowers.len());
        let ctor = &node.ctor;
        if given < required {
            f.report(
                Severity::Error,
                (node.line, &node.name),
                format!("'{ctor}' requires {required} lower protocol(s), got {given}"),
                format!("list {required} lower(s) after '->'"),
            );
            continue;
        }
        let extra = given - required;
        if let Some(group) = c.repeat.as_ref().map(Vec::len) {
            if !extra.is_multiple_of(group) {
                f.report(
                    Severity::Error,
                    (node.line, &node.name),
                    format!("'{ctor}' takes lowers in groups of {group}, got {given}"),
                    "complete the last group (e.g. every eth needs its arp)",
                );
            }
        } else if extra > c.optional.len() {
            let used = required + c.optional.len();
            f.report(
                Severity::Warning,
                (node.line, &node.name),
                format!(
                    "'{ctor}' uses at most {used} lower(s); capabilities {:?} are dangling \
                     (never opened)",
                    &node.lowers[used..]
                ),
                "drop the unused lower(s) — dead capabilities hide wiring mistakes",
            );
        }
    }
}

fn edge_kinds(s: &Spec<'_>, f: &mut Findings) {
    for node in s.described() {
        let c = &node.contract;
        // The slot each given lower lands in: the required ones, then the
        // repeating group over and over, or else the optional ones.
        let slots = c.lowers.iter().chain(c.repeat.iter().flatten().cycle());
        let slots = slots.chain(&c.optional);
        for (i, (lower, slot)) in node.lowers.iter().zip(slots).enumerate() {
            if let Some(kind) = s.produced_kind(lower).filter(|k| !slot.accepts(*k)) {
                let want: Vec<String> = slot.kinds.iter().map(AddrKind::to_string).collect();
                let want = want.join("|");
                f.report(
                    Severity::Error,
                    (node.line, &node.name),
                    format!(
                        "lower slot {i} of '{}' expects a {want} producer, but '{lower}' \
                         produces {kind} addresses",
                        node.ctor
                    ),
                    format!("wire slot {i} to a protocol producing {want} addresses"),
                );
            }
        }
    }
}

fn stable_over_virtual(s: &Spec<'_>, f: &mut Findings) {
    for path in &s.paths {
        for (i, upper) in path.iter().enumerate() {
            let stable = s.contract(upper).filter(|c| c.requires_stable_participants);
            let Some(uc) = stable else { continue };
            for lower in &path[i + 1..] {
                if s.contract(lower).is_some_and(|c| c.virtualizes_identity) {
                    f.report(
                        Severity::Error,
                        (s.line(upper), upper),
                        format!(
                            "'{}' requires stable participant addresses but is layered \
                             above '{lower}', which virtualizes participant identity — the \
                             Section 5 rule: TCP's pseudo-header checksum binds the address \
                             VIP rewrites",
                            uc.name
                        ),
                        "compose the stable-participant protocol directly over ip, or use \
                         an RPC protocol that does not bake addresses into its wire format",
                    );
                }
            }
        }
    }
}

/// Headers below the lowest re-fragmenting layer reach the wire as-is; they
/// must leave payload room within the MTU.
fn header_budget(s: &Spec<'_>, f: &mut Findings) {
    let hdr = |name: &&str| s.contract(name).map(|c| c.max_header_bytes).unwrap_or(0);
    for path in &s.paths {
        let total: usize = path.iter().map(hdr).sum();
        let frag = path
            .iter()
            .rposition(|n| s.contract(n).is_some_and(|c| c.fragments));
        let wire_burden: usize = path[frag.unwrap_or(0)..].iter().map(hdr).sum();
        let top = path[0];
        if wire_burden >= WIRE_MTU {
            f.report(
                Severity::Error,
                (s.line(top), top),
                format!(
                    "headers below the last fragmenting layer total {wire_burden} bytes, \
                     >= the {WIRE_MTU}-byte wire MTU: no payload can ever be delivered"
                ),
                "insert a fragment layer above the header-heavy protocols, or shrink headers",
            );
        } else if total > DEFAULT_HEADROOM {
            f.report(
                Severity::Warning,
                (s.line(top), top),
                format!(
                    "path headers total {total} bytes, exceeding the {DEFAULT_HEADROOM}-byte \
                     pre-allocated headroom: push_header falls back to per-header allocation"
                ),
                "raise the message headroom or trim the stack (the paper's §5 buffer result)",
            );
        }
    }
}

fn params(s: &Spec<'_>, f: &mut Findings) {
    for node in s.described() {
        let c = &node.contract;
        for spec in &c.params {
            match node.params.get(&spec.key) {
                None if spec.required => f.report(
                    Severity::Error,
                    (node.line, &node.name),
                    format!("'{}' requires param {}=", node.ctor, spec.key),
                    format!("add {}=<value> to the line", spec.key),
                ),
                Some(v) if spec.numeric && v.parse::<u64>().is_err() => f.report(
                    Severity::Error,
                    (node.line, &node.name),
                    format!("param {}={v} is not a number", spec.key),
                    format!("{} takes an unsigned integer", spec.key),
                ),
                _ => {}
            }
        }
        for key in node.params.keys() {
            if !c.params.iter().any(|p| &p.key == key) {
                f.report(
                    Severity::Warning,
                    (node.line, &node.name),
                    format!("'{}' does not take param '{key}' (ignored)", node.ctor),
                    "remove the parameter or fix its spelling",
                );
            }
        }
    }
}

/// In nested reply waits the upper layer's shepherd holds its reply semaphore
/// while the lower layer's timeout machinery runs: channel exhaustion cascades.
fn sema_discipline(s: &Spec<'_>, f: &mut Findings) {
    let unsignalled = |n: &&Node| n.contract.sema.awaits_reply && !n.contract.sema.wakes_from_demux;
    for node in s.nodes.iter().filter(unsignalled) {
        f.report(
            Severity::Error,
            (node.line, &node.name),
            format!(
                "'{}' blocks a shepherd on a reply semaphore but its demux never \
                 signals it: every push deadlocks until the timeout",
                node.ctor
            ),
            "V the reply semaphore from demux, or stop blocking in push",
        );
    }
    let waits = |n: &&str| s.contract(n).is_some_and(|c| c.sema.awaits_reply);
    for path in &s.paths {
        let awaiters: Vec<&str> = path.iter().copied().filter(waits).collect();
        if let [top_waiter, below @ ..] = &awaiters[..] {
            if below.is_empty() {
                continue;
            }
            f.report(
                Severity::Warning,
                (s.line(top_waiter), top_waiter),
                format!(
                    "nested shepherd waits: '{top_waiter}' blocks on a reply while {below:?} \
                     also block below it; a lower-layer timeout pins the upper semaphore and \
                     can exhaust the channel pool"
                ),
                "let exactly one layer in a stack own the request/reply wait",
            );
        }
    }
}

/// A reply wait holds a transaction slot (a channel, an outstanding-call
/// entry); unless the contract records the audited guarantee that every error
/// path releases it, the wait is assumed to leak it.
fn slot_discipline(s: &Spec<'_>, f: &mut Findings) {
    let leaky = |n: &&Node| n.contract.sema.awaits_reply && !n.contract.clears_slot_on_error;
    for node in s.nodes.iter().filter(leaky) {
        f.report(
            Severity::Error,
            (node.line, &node.name),
            format!(
                "'{}' blocks on a reply semaphore while holding its transaction slot, \
                 and does not declare that error paths release the slot: a timeout or \
                 push failure leaks the channel",
                node.ctor
            ),
            "audit every error path out of the wait, then declare \
             clears_slot_on_error() on the contract",
        );
    }
}

/// Only an arriving frame wakes a demux-signalled wait, so a device must be
/// reachable below it. An unknown or opaque contract below makes the check
/// inconclusive, and silent.
fn signal_path(s: &Spec<'_>, f: &mut Findings) {
    for node in s.nodes {
        let c = &node.contract;
        if !(c.sema.awaits_reply && c.sema.wakes_from_demux) {
            continue;
        }
        let mut stack: Vec<&str> = node.lowers.iter().map(String::as_str).collect();
        let mut visited: HashSet<&str> = HashSet::new();
        let mut inconclusive = stack.is_empty();
        let mut reaches_device = false;
        while let Some(cur) = stack.pop() {
            if !visited.insert(cur) {
                continue;
            }
            match s.contract(cur).map(|c| c.produces) {
                None | Some(Produce::Opaque) => inconclusive = true,
                Some(Produce::Kind(AddrKind::Device)) => reaches_device = true,
                _ => {}
            }
            if let Some(n) = s.by_name.get(cur) {
                stack.extend(n.lowers.iter().map(String::as_str));
            }
        }
        if !reaches_device && !inconclusive {
            f.report(
                Severity::Error,
                (node.line, &node.name),
                format!(
                    "'{}' parks shepherds on a demux-signalled reply semaphore, but no \
                     device is reachable below it: no frame can ever arrive to run the \
                     signaler, so every wait expires",
                    node.ctor
                ),
                "wire the stack down to a device protocol (nic), or stop blocking \
                 on demux-signalled semaphores",
            );
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

/// A reply wait blocks on a semaphore with a timeout timer armed; a pool
/// acquire blocks on a semaphore; a device-kind lower slot means the layer
/// waits on wire occupancy. Each declared point mirrors a trace-ledger
/// op-class, so the dynamic checker can trust the declaration.
fn undeclared_blocking(s: &Spec<'_>, f: &mut Findings) {
    for node in s.described() {
        let c = &node.contract;
        let (waits, pools) = (c.sema.awaits_reply, c.sema.acquires_pool);
        let implied = [
            (BlockPoint::Sema, waits || pools),
            (BlockPoint::Timer, waits),
            (BlockPoint::Wire, has_device_slot(c)),
        ];
        let missing: Vec<BlockPoint> = implied
            .into_iter()
            .filter_map(|(p, implied)| (implied && !c.blocking.contains(&p)).then_some(p))
            .collect();
        if !missing.is_empty() {
            let classes: Vec<&str> = missing.iter().map(|p| p.op_class_name()).collect();
            f.report(
                Severity::Error,
                (node.line, &node.name),
                format!(
                    "'{}' blocks shepherds on undeclared operations: contract implies \
                     {missing:?} (trace op-classes {classes:?}) but blocks() omits them",
                    node.ctor
                ),
                "declare every blocking op with .blocks(&[...]) so the ledger's \
                 op-classes can be cross-checked against the contract",
            );
        }
    }
}

fn excess_blocking(s: &Spec<'_>, f: &mut Findings) {
    let excess = |n: &&Node| {
        n.contract.blocking.contains(&BlockPoint::Wire) && !has_device_slot(&n.contract)
    };
    for node in s.described().filter(excess) {
        f.report(
            Severity::Warning,
            (node.line, &node.name),
            format!(
                "'{}' declares a wire blocking point but has no device-kind lower \
                 slot: nothing in this layer can wait on the NIC",
                node.ctor
            ),
            "drop BlockPoint::Wire from blocks(), or add the device lower",
        );
    }
}

fn reboot_hooks(s: &Spec<'_>, f: &mut Findings) {
    for node in s
        .nodes
        .iter()
        .filter(|n| n.contract.crashable && !n.contract.has_reboot)
    {
        f.report(
            Severity::Error,
            (node.line, &node.name),
            format!(
                "'{}' is declared crashable but has no reboot hook: after a host \
                 restart its sessions keep pre-crash sequence/channel state",
                node.ctor
            ),
            "implement Protocol::reboot (and declare .reboots()), or drop \
             .crashable() if the protocol is never crash-tested",
        );
    }
}

/// Merges every contract's declared lock-acquisition order into one
/// relation and rejects cycles: two protocols in one kernel that take the
/// same locks in opposite orders deadlock under the right interleaving (the
/// Sched-before-Hosts discipline the simulator documents, held declaratively).
fn lock_order(s: &Spec<'_>, f: &mut Findings) {
    // edge (a -> b): a is acquired before b, attributed to the declaring
    // node (last declaration wins; any one is enough for the message).
    let mut edges: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut declared_by: HashMap<(&str, &str), (usize, &str)> = HashMap::new();
    for node in s.nodes {
        for w in node.contract.lock_order.windows(2) {
            let (a, b) = (w[0].as_str(), w[1].as_str());
            edges.entry(a).or_default().insert(b);
            declared_by.insert((a, b), (node.line, node.name.as_str()));
        }
    }
    // Roots in sorted order, for deterministic output; one cycle is enough.
    let mut done = HashSet::new();
    let Some(cycle) = edges
        .keys()
        .find_map(|root| find_cycle(root, &edges, &mut Vec::new(), &mut done))
    else {
        return;
    };
    let declared: Vec<(usize, &str)> = cycle
        .windows(2)
        .filter_map(|w| declared_by.get(&(w[0], w[1])).copied())
        .collect();
    // Anchor the diagnostic at the latest-declared edge.
    let at = declared.iter().max().copied().unwrap_or((0, ""));
    let holders: BTreeSet<&str> = declared.iter().map(|(_, n)| *n).collect();
    f.report(
        Severity::Error,
        at,
        format!(
            "conflicting lock-acquisition orders: {} (declared across {holders:?}) — two \
             shepherds taking these locks concurrently deadlock",
            cycle.join(" -> ")
        ),
        "pick one global order for the named locks and declare it identically in every \
         contract",
    );
}

/// The first cycle a depth-first walk from `lock` meets, closed (its first
/// lock repeated last). `done` holds the locks whose every successor has
/// been walked.
fn find_cycle<'a>(
    lock: &'a str,
    edges: &BTreeMap<&'a str, BTreeSet<&'a str>>,
    path: &mut Vec<&'a str>,
    done: &mut HashSet<&'a str>,
) -> Option<Vec<&'a str>> {
    if done.contains(lock) {
        return None;
    }
    path.push(lock);
    for &next in edges.get(lock).into_iter().flatten() {
        if let Some(start) = path.iter().position(|l| *l == next) {
            let mut cycle = path[start..].to_vec();
            cycle.push(next);
            return Some(cycle);
        }
        if let Some(cycle) = find_cycle(next, edges, path, done) {
            return Some(cycle);
        }
    }
    path.pop();
    done.insert(lock);
    None
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
        assert!(d.iter().any(|d| d.rule == "XK001" && d.line == 1));
        assert!(d.iter().any(|d| d.rule == "XK002" && d.line == 2));
    }

    #[test]
    fn forward_reference_and_duplicate() {
        let d = run("net -> wire\nwire -> nic0\nwire -> nic0\n");
        assert!(d.iter().any(|d| d.rule == "XK003" && d.line == 1));
        assert!(d.iter().any(|d| d.rule == "XK004" && d.line == 3));
    }

    #[test]
    fn arity_missing_and_dangling() {
        let d = run("wire -> nic0\nnet\n");
        assert!(d
            .iter()
            .any(|d| d.rule == "XK005" && d.severity == Severity::Error));
        let d = run("wire -> nic0\nnet -> wire wire\n");
        assert!(d
            .iter()
            .any(|d| d.rule == "XK005" && d.severity == Severity::Warning));
    }

    #[test]
    fn kind_mismatch_detected_through_passthrough() {
        // net expects a hardware producer; pass relays nic0's device kind.
        let d = run("pass -> nic0\nnet -> pass\n");
        assert!(d.iter().any(|d| d.rule == "XK006" && d.line == 2), "{d:?}");
    }

    #[test]
    fn stable_over_virtualizer_is_an_error() {
        let d = run("wire -> nic0\nnet -> wire\nvirt -> net\nstream -> virt\n");
        let hit = d.iter().find(|d| d.rule == "XK007").expect("XK007 fires");
        assert_eq!(hit.severity, Severity::Error);
        assert!(hit.message.contains("virtualizes participant identity"));
        // Directly over net it is fine.
        let d = run("wire -> nic0\nnet -> wire\nstream -> net\n");
        assert!(!d.iter().any(|d| d.rule == "XK007"));
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
            .any(|d| d.rule == "XK008" && d.severity == Severity::Warning));
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
            .any(|d| d.rule == "XK008" && d.severity == Severity::Error));
    }

    #[test]
    fn param_schema_rules() {
        let d = run("wire -> nic0\nnet -> wire\nrpc channels=many -> net\n");
        assert!(d
            .iter()
            .any(|d| d.rule == "XK009" && d.severity == Severity::Error));
        let d = run("wire -> nic0\nnet -> wire\nrpc bogus=1 -> net\n");
        assert!(d
            .iter()
            .any(|d| d.rule == "XK009" && d.severity == Severity::Warning));
    }

    #[test]
    fn sema_deadlock_error_and_nesting_warning() {
        // stuck awaits a reply nothing ever signals.
        let d = run("wire -> nic0\nnet -> wire\nstuck -> net\n");
        let hit = d
            .iter()
            .find(|d| d.rule == "XK010" && d.severity == Severity::Error)
            .expect("XK010 error fires");
        assert!(hit.message.contains("deadlock"));
        // rpc over stream: two reply-waiting layers nested.
        let d = run("wire -> nic0\nnet -> wire\nstream -> net\nrpc -> stream\n");
        assert!(d
            .iter()
            .any(|d| d.rule == "XK010" && d.severity == Severity::Warning));
    }

    #[test]
    fn suppression_via_directive_and_options() {
        let spec = "# xk-lint: allow=XK006\npass -> nic0\nnet -> pass\n";
        let v = vocab();
        let d = lint_spec(spec, ctors(&v), &v, &ext(), &LintOptions::default());
        assert!(d.is_empty(), "{d:?}");
        let mut opts = LintOptions::default();
        opts.allow.insert("XK006".to_string());
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
        let hit = d.iter().find(|d| d.rule == "XK011").expect("XK011 fires");
        assert_eq!(hit.severity, Severity::Error);
        assert_eq!(hit.instance, "leaky");
        assert!(hit.message.contains("transaction slot"), "{}", hit.message);
        // The audited vocabulary is clean.
        let d = run("wire -> nic0\nnet -> wire\nstream -> net\n");
        assert!(!d.iter().any(|d| d.rule == "XK011"));
    }

    #[test]
    fn xk012_demux_signaled_wait_needs_a_device_below() {
        // stream's reply semaphore is V'd from demux, but float bottoms out
        // without ever reaching a device: the signaler can never run.
        let d = run("float\nstream -> float\n");
        let hit = d.iter().find(|d| d.rule == "XK012").expect("XK012 fires");
        assert_eq!(hit.severity, Severity::Error);
        assert_eq!(hit.instance, "stream");
        // With a real wire underneath, the same layer is clean.
        let d = run("wire -> nic0\nnet -> wire\nstream -> net\n");
        assert!(!d.iter().any(|d| d.rule == "XK012"), "{d:?}");
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
        let hit = d.iter().find(|d| d.rule == "XK013").expect("XK013 fires");
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
        let hit = d.iter().find(|d| d.rule == "XK014").expect("XK014 fires");
        assert_eq!(hit.severity, Severity::Warning);
        assert_eq!(hit.instance, "wired");
    }

    #[test]
    fn xk015_conflicting_lock_orders_are_a_cycle() {
        let d = run("wire -> nic0\nnet -> wire\nlocka -> net\nlockb -> net\n");
        let hit = d.iter().find(|d| d.rule == "XK015").expect("XK015 fires");
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
        assert!(!d.iter().any(|d| d.rule == "XK015"), "{d:?}");
    }

    #[test]
    fn xk016_crashable_without_reboot_hook() {
        let d = run("wire -> nic0\nnet -> wire\nfragile -> net\n");
        let hit = d.iter().find(|d| d.rule == "XK016").expect("XK016 fires");
        assert_eq!(hit.severity, Severity::Error);
        assert_eq!(hit.instance, "fragile");
        // rpc declares both crashable and reboots: clean.
        let d = run("wire -> nic0\nnet -> wire\nrpc -> net\n");
        assert!(!d.iter().any(|d| d.rule == "XK016"), "{d:?}");
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
        let msg = d.iter().find(|d| d.rule == "XK007").unwrap().to_string();
        assert!(msg.contains("XK007") && msg.contains("hint:"), "{msg}");
    }
}
