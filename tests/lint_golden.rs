//! Golden-diagnostic tests for `xk-lint`: every rule exercised against the
//! *real* registry contracts (not the synthetic vocabulary the unit tests
//! in `xkernel::lint` use), plus the checked-in specs under `specs/`.
//!
//! Each case pins the whole rendered output of one spec — every diagnostic,
//! in order, as `Display` prints it — so a rule's id, severity, line,
//! instance, message, hint and place in the order are all held.

use xkernel::graph::{GraphArgs, ProtocolRegistry};
use xkernel::lint::{
    AddrKind, BlockPoint, Diagnostic, LintOptions, ProtoContract, SemaContract, Severity, RULES,
};
use xkernel::prelude::*;
use xkernel_repro::{default_externals, full_registry};

const BASE: &str = "eth -> nic0\narp ip=10.0.0.1 -> eth\nip -> eth arp\n";

/// One spec and everything the linter says about it.
struct Case {
    /// The test that runs this case.
    test: &'static str,
    /// The rule the case is for.
    rule: &'static str,
    /// Contracts grafted onto the real vocabulary, each with a lint-only
    /// constructor so XK002 stays quiet.
    extra: Vec<ProtoContract>,
    spec: String,
    /// Every diagnostic, rendered, in the order `lint` returns them.
    expect: &'static [&'static str],
}

fn case(
    test: &'static str,
    rule: &'static str,
    spec: impl Into<String>,
    expect: &'static [&'static str],
) -> Case {
    Case {
        test,
        rule,
        extra: Vec::new(),
        spec: spec.into(),
        expect,
    }
}

/// `n` null layers stacked over `below`, the top one named `n{n-1}`.
fn nulls(head: &str, below: &str, n: usize) -> String {
    let mut spec = String::from(head);
    let mut lower = below.to_string();
    for i in 0..n {
        spec.push_str(&format!("n{i}: null -> {lower}\n"));
        lower = format!("n{i}");
    }
    spec
}

/// A reply-waiting RPC-kind contract over an internet lower.
fn waiter(name: &str, wakes_from_demux: bool) -> ProtoContract {
    ProtoContract::new(name, AddrKind::Rpc)
        .lower(&[AddrKind::Internet])
        .sema(SemaContract {
            acquires_pool: false,
            awaits_reply: true,
            wakes_from_demux,
        })
}

fn cases() -> Vec<Case> {
    vec![
        case(
            "xk001_parse_error",
            "XK001",
            "eth extra tokens no arrow\n",
            &[
                "line 1: error XK001 [eth extra tokens no arrow] cannot parse spec line: unexpected token 'tokens' (hint: expected 'instance[: ctor] [key=value ...] [-> lower ...]')",
            ],
        ),
        case("xk002_unknown_ctor", "XK002", "mystery -> nic0\n", &[
                "line 1: error XK002 [mystery] unknown constructor 'mystery' (hint: register the constructor, or fix the spelling)",
            ]),
        // channel names fragment before fragment exists: the graph must be
        // built bottom-up, so this can never instantiate.
        case(
            "xk003_forward_reference_breaks_bottom_up_wiring",
            "XK003",
            format!("{BASE}channel -> fragment\nfragment -> ip\n"),
            &[
                "line 4: error XK003 [channel] lower 'fragment' is not defined on an earlier line (the graph is configured bottom-up, so this also rejects cycles) (hint: move the line defining 'fragment' above this one)",
            ],
        ),
        // The same undefined lower named twice is one finding.
        case(
            "xk003_forward_reference_breaks_bottom_up_wiring",
            "XK003",
            "fan: null -> x x\n",
            &[
                "line 1: error XK003 [fan] lower 'x' is not defined on an earlier line (the graph is configured bottom-up, so this also rejects cycles) (hint: move the line defining 'x' above this one)",
                "line 1: warning XK005 [fan] 'null' uses at most 1 lower(s); capabilities [\"x\"] are dangling (never opened) (hint: drop the unused lower(s) — dead capabilities hide wiring mistakes)",
            ],
        ),
        // Named twice with another between: still one finding each.
        case(
            "xk003_forward_reference_breaks_bottom_up_wiring",
            "XK003",
            "a: null -> x y x\n",
            &[
                "line 1: error XK003 [a] lower 'x' is not defined on an earlier line (the graph is configured bottom-up, so this also rejects cycles) (hint: move the line defining 'x' above this one)",
                "line 1: error XK003 [a] lower 'y' is not defined on an earlier line (the graph is configured bottom-up, so this also rejects cycles) (hint: move the line defining 'y' above this one)",
                "line 1: warning XK005 [a] 'null' uses at most 1 lower(s); capabilities [\"y\", \"x\"] are dangling (never opened) (hint: drop the unused lower(s) — dead capabilities hide wiring mistakes)",
            ],
        ),
        case(
            "xk004_duplicate_instance",
            "XK004",
            format!("{BASE}udp -> ip\nudp -> ip\n"),
            &[
                "line 5: error XK004 [udp] duplicate instance name (hint: give the second instance a distinct name ('eth1: eth'))",
            ],
        ),
        // ip needs its resolver capability alongside the hardware one.
        case(
            "xk005_arity_missing_and_dangling",
            "XK005",
            "eth -> nic0\nip -> eth\n",
            &[
                "line 2: error XK005 [ip] 'ip' requires 2 lower protocol(s), got 1 (hint: list 2 lower(s) after '->')",
            ],
        ),
        // udp takes exactly one lower; the second is dangling.
        case(
            "xk005_arity_missing_and_dangling",
            "XK005",
            format!("{BASE}icmp -> ip\nudp -> ip icmp\n"),
            &[
                "line 5: warning XK005 [udp] 'udp' uses at most 1 lower(s); capabilities [\"icmp\"] are dangling (never opened) (hint: drop the unused lower(s) — dead capabilities hide wiring mistakes)",
            ],
        ),
        // udp demuxes on internet addresses; eth offers hardware ones.
        case(
            "xk006_address_kind_mismatch",
            "XK006",
            "eth -> nic0\nudp -> eth\n",
            &[
                "line 2: error XK006 [udp] lower slot 0 of 'udp' expects a internet producer, but 'eth' produces hardware addresses (hint: wire slot 0 to a protocol producing internet addresses)",
            ],
        ),
        // The acceptance case: tcp -> vip rejected citing the §5 rule.
        case(
            "xk007_stable_participants_over_identity_virtualizer",
            "XK007",
            format!("{BASE}vip -> ip eth arp\ntcp -> vip\n"),
            &[
                "line 5: error XK007 [tcp] 'tcp' requires stable participant addresses but is layered above 'vip', which virtualizes participant identity — the Section 5 rule: TCP's pseudo-header checksum binds the address VIP rewrites (hint: compose the stable-participant protocol directly over ip, or use an RPC protocol that does not bake addresses into its wire format)",
            ],
        ),
        // Same rule through an interposed passthrough layer: still caught.
        case(
            "xk007_stable_participants_over_identity_virtualizer",
            "XK007",
            format!("{BASE}vip -> ip eth arp\nnl: null -> vip\ntcp -> nl\n"),
            &[
                "line 6: error XK007 [tcp] 'tcp' requires stable participant addresses but is layered above 'vip', which virtualizes participant identity — the Section 5 rule: TCP's pseudo-header checksum binds the address VIP rewrites (hint: compose the stable-participant protocol directly over ip, or use an RPC protocol that does not bake addresses into its wire format)",
            ],
        ),
        // Paths through vip, vipaddr and vip again: each pair is one
        // finding, in the order the paths first meet it.
        case(
            "xk007_stable_participants_over_identity_virtualizer",
            "XK007",
            format!(
                "{BASE}vip -> ip eth arp\nvipaddr -> ip eth arp\n\
                 fan: null -> vip vipaddr vip\ntcp -> fan\n"
            ),
            &[
                "line 6: warning XK005 [fan] 'null' uses at most 1 lower(s); capabilities [\"vipaddr\", \"vip\"] are dangling (never opened) (hint: drop the unused lower(s) — dead capabilities hide wiring mistakes)",
                "line 7: error XK007 [tcp] 'tcp' requires stable participant addresses but is layered above 'vip', which virtualizes participant identity — the Section 5 rule: TCP's pseudo-header checksum binds the address VIP rewrites (hint: compose the stable-participant protocol directly over ip, or use an RPC protocol that does not bake addresses into its wire format)",
                "line 7: error XK007 [tcp] 'tcp' requires stable participant addresses but is layered above 'vipaddr', which virtualizes participant identity — the Section 5 rule: TCP's pseudo-header checksum binds the address VIP rewrites (hint: compose the stable-participant protocol directly over ip, or use an RPC protocol that does not bake addresses into its wire format)",
            ],
        ),
        // 25 null layers x 4 bytes on top of eth+ip (34) = 134 > the 128-byte
        // message headroom: every push re-allocates.
        case(
            "xk008_header_budget_warning_and_suppression",
            "XK008",
            nulls(BASE, "ip", 25),
            &[
                "line 28: warning XK008 [n24] path headers total 134 bytes, exceeding the 128-byte pre-allocated headroom: push_header falls back to per-header allocation (hint: raise the message headroom or trim the stack (the paper's §5 buffer result))",
            ],
        ),
        // The in-spec directive silences it.
        case(
            "xk008_header_budget_warning_and_suppression",
            "XK008",
            nulls(&format!("# xk-lint: allow=XK008\n{BASE}"), "ip", 25),
            &[],
        ),
        // 400 null layers straight over eth, below any fragmenting layer:
        // 1,600 bytes of headers leave no room for payload in the MTU.
        case(
            "xk008_header_budget_warning_and_suppression",
            "XK008",
            nulls("eth -> nic0\n", "eth", 400),
            &[
                "line 401: error XK008 [n399] headers below the last fragmenting layer total 1614 bytes, >= the 1500-byte wire MTU: no payload can ever be delivered (hint: insert a fragment layer above the header-heavy protocols, or shrink headers)",
            ],
        ),
        // Over vip the top layer reaches the wire on four paths, through ip
        // or straight to eth, with or without arp: one finding per distinct
        // total, in path order.
        case(
            "xk008_header_budget_warning_and_suppression",
            "XK008",
            nulls(&format!("{BASE}vip -> ip eth arp\n"), "vip", 30),
            &[
                "line 34: warning XK008 [n29] path headers total 154 bytes, exceeding the 128-byte pre-allocated headroom: push_header falls back to per-header allocation (hint: raise the message headroom or trim the stack (the paper's §5 buffer result))",
                "line 34: warning XK008 [n29] path headers total 134 bytes, exceeding the 128-byte pre-allocated headroom: push_header falls back to per-header allocation (hint: raise the message headroom or trim the stack (the paper's §5 buffer result))",
            ],
        ),
        // Below the top, paths through ip, eth and ip again: totals 158,
        // 158, 138, 158, 158 reach the top, and each total is one finding.
        case(
            "xk008_header_budget_warning_and_suppression",
            "XK008",
            nulls(&format!("{BASE}fan: null -> ip eth ip\n"), "fan", 30),
            &[
                "line 4: warning XK005 [fan] 'null' uses at most 1 lower(s); capabilities [\"eth\", \"ip\"] are dangling (never opened) (hint: drop the unused lower(s) — dead capabilities hide wiring mistakes)",
                "line 34: warning XK008 [n29] path headers total 158 bytes, exceeding the 128-byte pre-allocated headroom: push_header falls back to per-header allocation (hint: raise the message headroom or trim the stack (the paper's §5 buffer result))",
                "line 34: warning XK008 [n29] path headers total 138 bytes, exceeding the 128-byte pre-allocated headroom: push_header falls back to per-header allocation (hint: raise the message headroom or trim the stack (the paper's §5 buffer result))",
            ],
        ),
        // arp without its required ip= address.
        case(
            "xk009_param_schema",
            "XK009",
            "eth -> nic0\narp -> eth\n",
            &[
                "line 2: error XK009 [arp] 'arp' requires param ip= (hint: add ip=<value> to the line)",
            ],
        ),
        // Unknown key: typo'd forward= on ip.
        case(
            "xk009_param_schema",
            "XK009",
            "eth -> nic0\narp ip=10.0.0.1 -> eth\nip forwrad=1 -> eth arp\n",
            &[
                "line 3: warning XK009 [ip] 'ip' does not take param 'forwrad' (ignored) (hint: remove the parameter or fix its spelling)",
            ],
        ),
        // A numeric key given a word.
        case(
            "xk009_param_schema",
            "XK009",
            "eth -> nic0\narp ip=10.0.0.1 -> eth\nip forward=yes -> eth arp\n",
            &[
                "line 3: error XK009 [ip] param forward=yes is not a number (hint: forward takes an unsigned integer)",
            ],
        ),
        // Two unknown keys come out in key order, whatever order the line
        // gives them in.
        case(
            "xk009_param_schema",
            "XK009",
            "eth -> nic0\narp ip=10.0.0.1 -> eth\nip zz=1 forwrad=1 -> eth arp\n",
            &[
                "line 3: warning XK009 [ip] 'ip' does not take param 'forwrad' (ignored) (hint: remove the parameter or fix its spelling)",
                "line 3: warning XK009 [ip] 'ip' does not take param 'zz' (ignored) (hint: remove the parameter or fix its spelling)",
            ],
        ),
        // A layer that blocks a shepherd on a reply semaphore its demux never
        // signals: the lock-order bug the paper's shepherd discipline forbids.
        Case {
            extra: vec![waiter("stuck", false)],
            ..case(
                "xk010_deadlocked_shepherd_is_an_error",
                "XK010",
                format!("{BASE}stuck -> ip\n"),
                &[
                "line 4: error XK010 [stuck] 'stuck' blocks a shepherd on a reply semaphore but its demux never signals it: every push deadlocks until the timeout (hint: V the reply semaphore from demux, or stop blocking in push)",
                "line 4: error XK011 [stuck] 'stuck' blocks on a reply semaphore while holding its transaction slot, and does not declare that error paths release the slot: a timeout or push failure leaks the channel (hint: audit every error path out of the wait, then declare clears_slot_on_error() on the contract)",
                "line 4: error XK013 [stuck] 'stuck' blocks shepherds on undeclared operations: contract implies [Sema, Timer] (trace op-classes [\"Sema\", \"Timer\"]) but blocks() omits them (hint: declare every blocking op with .blocks(&[...]) so the ledger's op-classes can be cross-checked against the contract)",
            ],
            )
        },
        // request_reply already owns a reply wait; stacking it on tcp (which
        // also blocks on its handshake/ack semaphores) nests two waiters.
        case(
            "xk010_nested_reply_waiters_warn",
            "XK010",
            format!("{BASE}tcp -> ip\nrequest_reply -> tcp\n"),
            &[
                "line 5: warning XK010 [request_reply] nested shepherd waits: 'request_reply' blocks on a reply while [\"tcp\"] also block below it; a lower-layer timeout pins the upper semaphore and can exhaust the channel pool (hint: let exactly one layer in a stack own the request/reply wait)",
            ],
        ),
        // Paths through tcp, sprite and tcp again under request_reply: each
        // nesting is one finding, in the order the paths first meet it.
        case(
            "xk010_nested_reply_waiters_warn",
            "XK010",
            format!(
                "{BASE}tcp -> ip\nsprite -> ip\nfan: null -> tcp sprite tcp\n\
                 request_reply -> fan\n"
            ),
            &[
                "line 6: warning XK005 [fan] 'null' uses at most 1 lower(s); capabilities [\"sprite\", \"tcp\"] are dangling (never opened) (hint: drop the unused lower(s) — dead capabilities hide wiring mistakes)",
                "line 7: warning XK010 [request_reply] nested shepherd waits: 'request_reply' blocks on a reply while [\"tcp\"] also block below it; a lower-layer timeout pins the upper semaphore and can exhaust the channel pool (hint: let exactly one layer in a stack own the request/reply wait)",
                "line 7: warning XK010 [request_reply] nested shepherd waits: 'request_reply' blocks on a reply while [\"sprite\"] also block below it; a lower-layer timeout pins the upper semaphore and can exhaust the channel pool (hint: let exactly one layer in a stack own the request/reply wait)",
            ],
        ),
        // Blocks on a reply semaphore but never audited its error paths: the
        // slot-leak class the channel layer was fixed for by hand.
        Case {
            extra: vec![waiter("leaky", true).blocks(&[BlockPoint::Sema, BlockPoint::Timer])],
            ..case(
                "xk011_reply_wait_without_slot_release_guarantee",
                "XK011",
                format!("{BASE}leaky -> ip\n"),
                &[
                "line 4: error XK011 [leaky] 'leaky' blocks on a reply semaphore while holding its transaction slot, and does not declare that error paths release the slot: a timeout or push failure leaks the channel (hint: audit every error path out of the wait, then declare clears_slot_on_error() on the contract)",
            ],
            )
        },
        // floaty's reply semaphore is signalled from demux, but its whole
        // lower subtree is `isle`, which produces internet addresses out of
        // thin air: no frame can ever arrive to run the signaler.
        Case {
            extra: vec![
                ProtoContract::new("isle", AddrKind::Internet),
                waiter("floaty", true)
                    .blocks(&[BlockPoint::Sema, BlockPoint::Timer])
                    .clears_slot_on_error(),
            ],
            ..case(
                "xk012_demux_signalled_wait_with_no_device_below",
                "XK012",
                "isle\nfloaty -> isle\n",
                &[
                "line 2: error XK012 [floaty] 'floaty' parks shepherds on a demux-signalled reply semaphore, but no device is reachable below it: no frame can ever arrive to run the signaler, so every wait expires (hint: wire the stack down to a device protocol (nic), or stop blocking on demux-signalled semaphores)",
            ],
            )
        },
        // Awaits a reply (implying Sema + Timer blocking points) but declares
        // no blocks() at all.
        Case {
            extra: vec![waiter("mute", true).clears_slot_on_error()],
            ..case(
                "xk013_undeclared_blocking_points",
                "XK013",
                format!("{BASE}mute -> ip\n"),
                &[
                "line 4: error XK013 [mute] 'mute' blocks shepherds on undeclared operations: contract implies [Sema, Timer] (trace op-classes [\"Sema\", \"Timer\"]) but blocks() omits them (hint: declare every blocking op with .blocks(&[...]) so the ledger's op-classes can be cross-checked against the contract)",
            ],
            )
        },
        // Declares a wire blocking point with no device-kind lower slot.
        Case {
            extra: vec![ProtoContract::new("nowire", AddrKind::Rpc)
                .lower(&[AddrKind::Internet])
                .blocks(&[BlockPoint::Wire])],
            ..case(
                "xk014_excess_wire_declaration",
                "XK014",
                format!("{BASE}nowire -> ip\n"),
                &[
                "line 4: warning XK014 [nowire] 'nowire' declares a wire blocking point but has no device-kind lower slot: nothing in this layer can wait on the NIC (hint: drop BlockPoint::Wire from blocks(), or add the device lower)",
            ],
            )
        },
        // The xcheck deadlock toy pair is registered in the full registry:
        // dl_ab declares sem_a < sem_b, dl_ba the reverse — the merged order
        // relation is cyclic.
        case(
            "xk015_conflicting_lock_orders_via_the_deadlock_toy",
            "XK015",
            "ab: dl_ab\nba: dl_ba -> ab\n",
            &[
                "line 2: error XK015 [ba] conflicting lock-acquisition orders: dl.sem_a -> dl.sem_b -> dl.sem_a (declared across {\"ab\", \"ba\"}) — two shepherds taking these locks concurrently deadlock (hint: pick one global order for the named locks and declare it identically in every contract)",
            ],
        ),
    ]
}

fn registry(extra: &[ProtoContract]) -> ProtocolRegistry {
    let mut reg = full_registry();
    for c in extra {
        reg.add(c.clone(), |_a: &GraphArgs<'_>| {
            Err(XError::Config("lint-only constructor".into()))
        });
    }
    reg
}

fn lint(c: &Case) -> Vec<Diagnostic> {
    registry(&c.extra).lint(&c.spec, &default_externals(), &LintOptions::default())
}

/// Runs every case of `test`: each renders exactly as pinned, and each
/// fires the rule it is for unless it pins silence.
fn check(test: &str) {
    let mine: Vec<Case> = cases().into_iter().filter(|c| c.test == test).collect();
    assert!(!mine.is_empty(), "no case for {test}");
    for c in &mine {
        let got: Vec<String> = lint(c).iter().map(Diagnostic::to_string).collect();
        assert_eq!(
            got,
            c.expect,
            "{} on\n{}\nrendered:\n{}",
            c.rule,
            c.spec,
            got.iter().map(|l| format!("{l:?},\n")).collect::<String>()
        );
        assert!(
            c.expect.is_empty() || got.iter().any(|l| l.contains(c.rule)),
            "{} does not fire on\n{}",
            c.rule,
            c.spec
        );
    }
}

macro_rules! rule_tests {
    ($($test:ident),* $(,)?) => {
        /// Every test that runs cases.
        const TESTS: &[&str] = &[$(stringify!($test)),*];
        $(#[test] fn $test() { check(stringify!($test)) })*
    };
}

rule_tests!(
    xk001_parse_error,
    xk002_unknown_ctor,
    xk003_forward_reference_breaks_bottom_up_wiring,
    xk004_duplicate_instance,
    xk005_arity_missing_and_dangling,
    xk006_address_kind_mismatch,
    xk007_stable_participants_over_identity_virtualizer,
    xk008_header_budget_warning_and_suppression,
    xk009_param_schema,
    xk010_deadlocked_shepherd_is_an_error,
    xk010_nested_reply_waiters_warn,
    xk011_reply_wait_without_slot_release_guarantee,
    xk012_demux_signalled_wait_with_no_device_below,
    xk013_undeclared_blocking_points,
    xk014_excess_wire_declaration,
    xk015_conflicting_lock_orders_via_the_deadlock_toy,
);

#[test]
fn every_case_runs_under_a_test() {
    for c in cases() {
        assert!(TESTS.contains(&c.test), "{} names no test", c.test);
    }
}

#[test]
fn every_rule_has_a_case_that_fires_it() {
    let cases = cases();
    for rule in &RULES {
        assert!(
            cases
                .iter()
                .any(|c| c.rule == rule.id && c.expect.iter().any(|l| l.contains(rule.id))),
            "no case fires {} ({})",
            rule.id,
            rule.summary
        );
    }
}

/// `xk-lint`'s whole output over the checked-in stacks and specs.
const TRANSCRIPT: &str = concat!(
    "$ xk-lint --builtin => 0\n",
    "xk-lint: 14 spec(s), 0 error(s), 0 warning(s)\n",
    "$ xk-lint specs/good/l-rpc-vip.xk specs/good/standard-inet.xk specs/good/sunrpc-udp.xk => 0\n",
    "xk-lint: 3 spec(s), 0 error(s), 0 warning(s)\n",
    "$ xk-lint specs/bad/deadlock-toy.xk specs/bad/miswired.xk specs/bad/tcp-over-vip.xk => 1\n",
    "specs/bad/deadlock-toy.xk: line 8: error XK015 [ba] conflicting lock-acquisition orders: dl.sem_a -> dl.sem_b -> dl.sem_a (declared across {\"ab\", \"ba\"}) — two shepherds taking these locks concurrently deadlock (hint: pick one global order for the named locks and declare it identically in every contract)\n",
    "specs/bad/miswired.xk: line 7: error XK006 [udp] lower slot 0 of 'udp' expects a internet producer, but 'eth' produces hardware addresses (hint: wire slot 0 to a protocol producing internet addresses)\n",
    "specs/bad/miswired.xk: line 8: error XK003 [channel] lower 'fragment' is not defined on an earlier line (the graph is configured bottom-up, so this also rejects cycles) (hint: move the line defining 'fragment' above this one)\n",
    "specs/bad/miswired.xk: line 9: error XK009 [arp] 'arp' requires param ip= (hint: add ip=<value> to the line)\n",
    "specs/bad/miswired.xk: line 10: error XK005 [ip] 'ip' requires 2 lower protocol(s), got 1 (hint: list 2 lower(s) after '->')\n",
    "specs/bad/tcp-over-vip.xk: line 9: error XK007 [tcp] 'tcp' requires stable participant addresses but is layered above 'vip', which virtualizes participant identity — the Section 5 rule: TCP's pseudo-header checksum binds the address VIP rewrites (hint: compose the stable-participant protocol directly over ip, or use an RPC protocol that does not bake addresses into its wire format)\n",
    "xk-lint: 3 spec(s), 6 error(s), 0 warning(s)\n",
    "$ xk-lint --xcheck specs/bad/deadlock-toy.xk specs/bad/miswired.xk specs/bad/tcp-over-vip.xk => 1\n",
    "specs/bad/deadlock-toy.xk: line 8: error XK015 [ba] conflicting lock-acquisition orders: dl.sem_a -> dl.sem_b -> dl.sem_a (declared across {\"ab\", \"ba\"}) — two shepherds taking these locks concurrently deadlock (hint: pick one global order for the named locks and declare it identically in every contract)\n",
    "xk-lint: 3 spec(s), 1 error(s), 0 warning(s)\n",
);

#[test]
fn xk_lint_transcript_is_pinned() {
    let run = |args: Vec<String>| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_xk-lint"))
            .args(&args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .expect("xk-lint runs");
        format!(
            "$ xk-lint {} => {}\n{}",
            args.join(" "),
            out.status.code().unwrap_or(-1),
            String::from_utf8(out.stdout).expect("utf-8 output")
        )
    };
    let specs = |flag: Option<&str>, sub: &str| -> Vec<String> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("specs");
        let mut out: Vec<String> = std::fs::read_dir(dir.join(sub))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|f| f.ends_with(".xk"))
            .map(|f| format!("specs/{sub}/{f}"))
            .collect();
        out.sort();
        flag.map(str::to_string).into_iter().chain(out).collect()
    };
    let got = [
        run(vec!["--builtin".to_string()]),
        run(specs(None, "good")),
        run(specs(None, "bad")),
        run(specs(Some("--xcheck"), "bad")),
    ]
    .concat();
    assert_eq!(got, TRANSCRIPT, "transcript:\n{got}");
}

#[test]
fn checked_in_specs_match_expectations() {
    let reg = full_registry();
    let externals = default_externals();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("specs");
    let read = |sub: &str| -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = std::fs::read_dir(dir.join(sub))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "xk"))
            .map(|p| {
                (
                    p.display().to_string(),
                    std::fs::read_to_string(&p).unwrap(),
                )
            })
            .collect();
        out.sort();
        assert!(!out.is_empty(), "no .xk specs under specs/{sub}");
        out
    };
    for (path, spec) in read("good") {
        let d = reg.lint(&spec, &externals, &LintOptions::default());
        assert!(d.is_empty(), "{path} should lint clean:\n{d:?}");
    }
    for (path, spec) in read("bad") {
        let d = reg.lint(&spec, &externals, &LintOptions::default());
        assert!(
            d.iter().any(|d| d.severity == Severity::Error),
            "{path} should produce at least one error"
        );
    }
    // The bad specs name the rule they demonstrate in their comments.
    let tcp = std::fs::read_to_string(dir.join("bad/tcp-over-vip.xk")).unwrap();
    let d = reg.lint(&tcp, &externals, &LintOptions::default());
    assert!(d.iter().any(|d| d.rule == "XK007"), "{d:?}");
    let mis = std::fs::read_to_string(dir.join("bad/miswired.xk")).unwrap();
    let d = reg.lint(&mis, &externals, &LintOptions::default());
    for rule in ["XK006", "XK003", "XK009", "XK005"] {
        assert!(d.iter().any(|d| d.rule == rule), "{rule} missing: {d:?}");
    }
    let dl = std::fs::read_to_string(dir.join("bad/deadlock-toy.xk")).unwrap();
    let d = reg.lint(&dl, &externals, &LintOptions::default());
    assert!(
        d.iter()
            .any(|d| d.rule == "XK015" && d.severity == Severity::Error),
        "deadlock-toy.xk should trip XK015: {d:?}"
    );
}
