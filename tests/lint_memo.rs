//! A registry proves a configuration once.
//!
//! `ProtocolRegistry::build` lints every spec, but the verdict depends only
//! on the registry's constructors and contracts, the spec text, and what the
//! kernel already holds — so the registry keeps it, and a second build of the
//! same configuration runs no lint pass. Nothing is skipped: a kept *error*
//! rejects the second build exactly as the first, anything that could change
//! a verdict (a constructor or contract added, a different `nic0` under the
//! same spec text) misses, and `WarnOnly` still reports on every build.
//!
//! "Runs no lint pass" is counted from here, in heap allocations: the pass
//! makes hundreds (node tables, cloned contracts, path sets), a kept verdict
//! a handful (naming the kernel's externals to look it up).

mod common;

use std::sync::Arc;

use common::allocs;
use simnet::{LanConfig, SimNet};
use xkernel::graph::{LintMode, ProtocolRegistry};
use xkernel::lint::{AddrKind, Diagnostic, LintOptions, ProtoContract, Severity};
use xkernel::prelude::*;
use xkernel::sim::SimConfig;
use xkernel_repro::{default_externals, full_registry};
use xrpc::stacks::L_RPC_VIP;

/// A simulation with one kernel that holds a NIC named `nic0` and nothing
/// else: what `build` starts from.
fn blank_host() -> (Sim, Arc<Kernel>) {
    let sim = Sim::new(SimConfig::inline_mode());
    let net = SimNet::new(&sim);
    let lan = net.add_lan(LanConfig::default());
    let k = Kernel::new(&sim, "host0");
    net.attach(&k, lan, "nic0", EthAddr::from_index(1))
        .expect("nic attaches");
    (sim, k)
}

fn l_rpc_vip_spec() -> String {
    format!(
        "{}{}",
        inet::standard_graph("nic0", "10.0.0.1"),
        L_RPC_VIP.graph
    )
}

/// Allocations `f` makes on this thread, and what it returned.
fn counting<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = allocs();
    let r = f();
    (allocs() - before, r)
}

/// What one whole lint pass over `spec` allocates.
fn lint_pass_allocs(reg: &ProtocolRegistry, spec: &str) -> u64 {
    let (n, diags) = counting(|| reg.lint(spec, &default_externals(), &LintOptions::default()));
    drop(diags);
    n
}

#[test]
fn second_build_of_a_spec_runs_no_lint_pass() {
    let reg = full_registry();
    let spec = l_rpc_vip_spec();
    let pass = lint_pass_allocs(&reg, &spec);
    assert!(
        pass > 100,
        "a pass over a whole stack allocates {pass} times"
    );

    let build = |checked: bool| {
        let (sim, k) = blank_host();
        let (n, built) = counting(|| {
            if checked {
                reg.build(&sim, &k, &spec)
            } else {
                reg.build_unchecked(&sim, &k, &spec)
            }
        });
        built.expect("L_RPC-VIP builds");
        n
    };
    let first = build(true);
    let second = build(true);
    let unchecked = build(false);
    assert!(
        first >= unchecked + pass * 9 / 10,
        "the first build lints: {first} allocations against {unchecked} unchecked + {pass} a pass"
    );
    assert!(
        second <= unchecked + pass / 10,
        "the second build ran a lint pass: {second} allocations against {unchecked} unchecked \
         (a pass is {pass})"
    );

    // And it is the same verdict, not an empty stand-in for one.
    let (_sim, k) = blank_host();
    let fresh = reg.lint(&spec, &default_externals(), &LintOptions::default());
    assert_eq!(&*reg.lint_for_kernel(&k, &spec), fresh.as_slice());
}

#[test]
fn a_failing_spec_fails_again_from_the_memo() {
    let reg = full_registry();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("specs/bad");
    let mut specs: Vec<(String, String)> = std::fs::read_dir(dir)
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
    specs.sort();
    assert_eq!(specs.len(), 3, "specs/bad holds three known-bad graphs");
    specs.push(("XK001".into(), "eth extra tokens no arrow\n".into()));
    specs.push(("XK002".into(), "eth -> nic0\nnosuch -> eth\n".into()));

    for (name, spec) in specs {
        let pass = lint_pass_allocs(&reg, &spec);
        let reject = || {
            // A rejected build leaves its kernel untouched, but a fresh one
            // shows the verdict is kept per configuration, not per kernel.
            let (sim, k) = blank_host();
            let (n, built) = counting(|| reg.build(&sim, &k, &spec));
            match built {
                Err(XError::Lint(diags)) => (n, diags),
                other => panic!("{name}: expected a lint rejection, got {other:?}"),
            }
        };
        let (first_allocs, first) = reject();
        let (second_allocs, second) = reject();
        assert!(
            first.iter().any(|d| d.severity == Severity::Error),
            "{name}"
        );
        assert_eq!(first, second, "{name}: the kept verdict is the verdict");
        assert!(
            first_allocs >= second_allocs + pass * 9 / 10,
            "{name}: the second rejection did not save a lint pass \
             ({first_allocs} then {second_allocs} allocations; a pass is {pass})"
        );
    }
}

/// `thing` over a NIC: clean while `thing` is opaque, XK006 once a contract
/// says it wants a hardware address below it.
const THING_SPEC: &str = "thing -> nic0\n";

fn thing_registry() -> ProtocolRegistry {
    let mut reg = ProtocolRegistry::new();
    reg.add("thing", |a| {
        Ok(xkernel::shim::NullLayer::new(a.me, a.down(0)?) as ProtocolRef)
    });
    reg
}

#[test]
fn a_contract_or_constructor_added_after_a_build_invalidates() {
    let mut reg = thing_registry();
    let (_sim, k) = blank_host();
    assert!(reg.lint_for_kernel(&k, THING_SPEC).is_empty());
    assert!(reg.lint_for_kernel(&k, THING_SPEC).is_empty(), "and kept");

    reg.add_contract(ProtoContract::new("thing", AddrKind::Internet).lower(&[AddrKind::Hardware]));
    let now = reg.lint_for_kernel(&k, THING_SPEC).into_owned();
    assert!(
        now.iter().any(|d| d.rule == "XK006"),
        "the contract is checked, not the verdict from before it: {now:?}"
    );

    let later = "thing -> nic0\nlater -> nic0\n";
    let before = reg.lint_for_kernel(&k, later).into_owned();
    assert!(before.iter().any(|d| d.rule == "XK002"));
    reg.add("later", |a| {
        Ok(xkernel::shim::NullLayer::new(a.me, a.down(0)?) as ProtocolRef)
    });
    let after = reg.lint_for_kernel(&k, later).into_owned();
    assert!(!after.iter().any(|d| d.rule == "XK002"));
}

/// Something registered as `nic0` that is not a device.
struct OddNic(ProtoId);

impl Protocol for OddNic {
    fn name(&self) -> &'static str {
        "oddnic"
    }
    fn id(&self) -> ProtoId {
        self.0
    }
    fn contract(&self) -> ProtoContract {
        ProtoContract::new("oddnic", AddrKind::Rpc)
    }
    fn open(&self, _: &Ctx, _: ProtoId, _: &ParticipantSet) -> XResult<SessionRef> {
        Err(XError::Unsupported("oddnic open"))
    }
    fn open_enable(&self, _: &Ctx, _: ProtoId, _: &ParticipantSet) -> XResult<()> {
        Ok(())
    }
    fn demux(&self, _: &Ctx, _: &SessionRef, _: Message) -> XResult<()> {
        Ok(())
    }
}

#[test]
fn kernels_whose_nic0_contracts_differ_get_different_verdicts_for_one_spec() {
    let reg = full_registry();
    let spec = "eth -> nic0\n";
    let (_sim, real) = blank_host();
    let odd_sim = Sim::new(SimConfig::inline_mode());
    let odd = Kernel::new(&odd_sim, "host0");
    odd.register("nic0", |id| Ok(std::rc::Rc::new(OddNic(id)) as ProtocolRef))
        .unwrap();

    // Either order: neither kernel is answered with the other's verdict.
    for _ in 0..2 {
        let on_odd: Vec<Diagnostic> = reg.lint_for_kernel(&odd, spec).into_owned();
        let on_real: Vec<Diagnostic> = reg.lint_for_kernel(&real, spec).into_owned();
        assert!(on_real.is_empty(), "{on_real:?}");
        assert!(
            on_odd.iter().any(|d| d.rule == "XK006"),
            "eth over an RPC-addressed 'nic0' is XK006: {on_odd:?}"
        );
    }
}

/// A spec with findings that still constructs (the paper's TCP-over-VIP,
/// XK007), under the mode that prints findings and never rejects.
fn warning_spec() -> (ProtocolRegistry, String) {
    let mut reg = full_registry();
    reg.set_lint_mode(LintMode::WarnOnly);
    let spec = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("specs/bad/tcp-over-vip.xk"),
    )
    .unwrap();
    (reg, spec)
}

/// Run by [`warn_only_reports_on_every_build`] in a child process, whose
/// stderr it reads; on its own it only shows the builds go through.
#[test]
#[ignore = "the child half of warn_only_reports_on_every_build"]
fn warn_only_child_builds_twice() {
    let (reg, spec) = warning_spec();
    for _ in 0..2 {
        let (sim, k) = blank_host();
        reg.build(&sim, &k, &spec)
            .expect("WarnOnly never rejects a build");
    }
}

#[test]
fn warn_only_reports_on_every_build() {
    let (reg, spec) = warning_spec();
    let (_sim, k) = blank_host();
    let findings = reg.lint_for_kernel(&k, &spec).len();
    assert!(findings > 0);

    // The report goes to stderr, which the harness captures in-process; a
    // child running the two builds uncaptured is where it can be read.
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "--ignored",
            "--exact",
            "warn_only_child_builds_twice",
            "--nocapture",
        ])
        .output()
        .expect("the test binary re-runs itself");
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let reported = stderr
        .lines()
        .filter(|l| l.starts_with("xk-lint: "))
        .count();
    assert_eq!(
        reported,
        2 * findings,
        "both builds report all {findings} findings:\n{stderr}"
    );
}
