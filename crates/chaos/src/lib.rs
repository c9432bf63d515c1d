//! Chaos harness: the paper's protocol configurations under adversity.
//!
//! The latency and throughput chapters of the paper run on a quiet,
//! loss-free Ethernet; the *robustness* machinery (CHANNEL's at-most-once
//! filtering, FRAGMENT's persistence, the adaptive retransmission timers,
//! checksums, crash recovery) only executes when the wire misbehaves. This
//! crate drives every full stack — the five RPC configurations of
//! Tables I–II, Sun RPC with its authentication layers, the mixed
//! SUN_SELECT-over-CHANNEL composition, and Psync conversations — under
//! seeded, time-varying [`FaultSchedule`]s, and asserts the invariants that
//! must survive:
//!
//! * **at-most-once** — a side-effecting procedure executes exactly once
//!   per call on CHANNEL-based stacks, no matter how often the wire
//!   duplicates or forces retransmission (REQUEST_REPLY is zero-or-more by
//!   design and is held to `executed >= calls` instead);
//! * **replies match requests** — every reply is the server's transform of
//!   the request that was actually sent, byte for byte;
//! * **corrupt frames never surface** — a flipped bit is caught by a
//!   checksum (and retransmitted around), never delivered as payload;
//! * **bounded completion** — under the bounded loss each profile injects,
//!   every call completes within the retransmission budget and no process
//!   is left blocked;
//! * **determinism** — the same scenario and seed reproduce a bit-identical
//!   [`RunReport`] and [`LanStats`], so any failure is replayable from two
//!   integers.
//!
//! Faults are derived from the scenario seed by a local splitmix64 stream,
//! *independent* of the simulation's own PRNG: the schedule a seed denotes
//! never changes when a protocol consumes more or fewer random draws.

use std::sync::{Arc, OnceLock};

use xkernel::cell::OwnerCell;

use inet::arp::Arp;
use inet::testbed::{lan_hosts, two_hosts, TwoHosts};
use inet::with_concrete;
use simnet::fault::{FaultPlan, FaultSchedule};
use simnet::{FaultEvent, LanStats};
use sunrpc::sunselect::SunSelect;
use xkernel::check::CheckReport;
use xkernel::graph::ProtocolRegistry;
use xkernel::journal::Journal;
use xkernel::prelude::*;
use xkernel::sim::{RunReport, ScheduleChooser, SimConfig};
use xrpc::stacks::{StackDef, ALL_RPC_STACKS};

pub mod bisect;

/// Virtual-time gap between successive client calls, so a scenario's calls
/// straddle the fault windows instead of finishing before the first opens.
pub const CALL_GAP_NS: u64 = 12_000_000;

/// Receive timeout for Psync conversations (they have no retransmission;
/// a lossless profile must deliver within this bound).
pub const PSYNC_RECV_TIMEOUT_NS: u64 = 3_000_000_000;

/// Classic Sun RPC: SUN_SELECT / AUTH_UNIX / REQUEST_REPLY / UDP.
pub const SUNRPC_UDP_GRAPH: &str = "request_reply -> udp\n\
     auth: auth_unix uid=1000 machine=sun3 allow=1000 -> request_reply\n\
     sunselect -> auth\n";

/// The §5 mix: SUN_SELECT over CHANNEL–FRAGMENT–VIP.
pub const SUNRPC_CHANNEL_GRAPH: &str = "vip -> ip eth arp\n\
     fragment -> vip\n\
     channel -> fragment\n\
     sunselect -> channel\n";

const SUN_PROG: u32 = 100_099;
const SUN_VERS: u32 = 1;
const SUN_PROC: u32 = 7;
const RPC_PROC: u16 = 7;

/// Every constructor a scenario can name: the RPC stacks plus Psync.
fn full_registry() -> ProtocolRegistry {
    let mut reg = sunrpc::registry();
    psync::register_ctors(&mut reg);
    reg
}

/// The registry every scenario in the process is configured from. A soak
/// builds the same sixteen host graphs thousands of times over; sharing the
/// registry is what lets it prove each once (the registry memoises lint
/// verdicts) instead of once per scenario.
fn registry() -> &'static ProtocolRegistry {
    static REGISTRY: OnceLock<ProtocolRegistry> = OnceLock::new();
    REGISTRY.get_or_init(full_registry)
}

/// Resolves `peer` from `host` on the still-quiet wire, before a fault
/// schedule is installed. ARP's bootstrap budget (3 × 50 ms) is smaller
/// than the delays some profiles inject, and a starved probe poisons the
/// negative cache for ten virtual seconds — but address resolution is
/// boot-time work, not the robustness machinery under test. ARP learns the
/// requester's mapping opportunistically, so one resolve warms both
/// directions. Nothing above VIP runs, so retransmission timers stay cold.
pub fn warm_arp(sim: &Sim, host: HostId, peer: IpAddr) {
    sim.spawn(host, move |ctx| {
        let k = ctx.kernel();
        with_concrete::<Arp, _>(&k, "arp", |a| a.resolve(ctx, peer))
            .expect("arp registered")
            .expect("warm-up resolve on the quiet wire");
    });
    assert_eq!(
        sim.run_until_idle().blocked,
        0,
        "warm-up left a blocked process"
    );
}

/// The splitmix64 step — the harness's local PRNG for deriving fault
/// profiles and payloads from a scenario seed.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Reconstructs the self-describing payload body for `tag` at `len` bytes:
/// the tag itself, then a splitmix64 stream seeded by it. Anyone holding
/// the first eight bytes can verify the rest, which is how the harness
/// detects a corrupt frame surfacing as data.
pub fn body_from_tag(tag: u64, len: usize) -> Vec<u8> {
    let len = len.max(8);
    let mut v = tag.to_be_bytes().to_vec();
    let mut s = tag;
    while v.len() < len {
        v.extend_from_slice(&splitmix64(&mut s).to_be_bytes());
    }
    v.truncate(len);
    v
}

/// The request payload for call `call` of the scenario seeded `seed`.
pub fn chaos_payload(seed: u64, call: u64) -> Vec<u8> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ call;
    let tag = splitmix64(&mut s);
    let len = 16 + (splitmix64(&mut s) % 344) as usize;
    body_from_tag(tag, len)
}

/// True when `data` is an intact chaos payload (no byte was flipped).
pub fn payload_is_intact(data: &[u8]) -> bool {
    if data.len() < 8 {
        return false;
    }
    let tag = u64::from_be_bytes(data[..8].try_into().expect("8 bytes"));
    data == body_from_tag(tag, data.len()).as_slice()
}

/// The server's transform of a request — distinct from the request, so an
/// echo of the request by any buggy path cannot pass for a reply.
pub fn expected_reply(req: &[u8]) -> Vec<u8> {
    req.iter().map(|b| b.wrapping_add(1)).collect()
}

/// A named fault shape; concrete rates, window placements, and jitter
/// magnitudes are derived from the scenario seed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Profile {
    /// The quiet wire of the paper's measurement chapters.
    FaultFree,
    /// Uniform random loss (60–149 per mille).
    Lossy,
    /// Light base loss plus two heavy burst-loss windows.
    Bursty,
    /// No loss: heavy per-frame delay (60–179 ms) plus light duplication —
    /// the shape that separates adaptive from fixed timeouts.
    Jittery,
    /// Healing directional partitions: client→server cut during
    /// [30 ms, 110 ms), server→client during [180 ms, 240 ms).
    Partitioned,
    /// Loss + duplication + jitter + a burst window + (on checksummed
    /// stacks) corruption, all at once.
    Chaotic,
    /// Light loss plus a long bidirectional outage — cut for longer than
    /// any retransmission budget can ride out, so bounded completion
    /// *must* fail. Deliberately not in [`Profile::ALL`]: it exists as
    /// the guaranteed fault-induced failure the bisection driver
    /// ([`crate::bisect`]) minimizes, not as a soak profile.
    Blackout,
}

impl Profile {
    /// Every profile, in escalation order.
    pub const ALL: [Profile; 6] = [
        Profile::FaultFree,
        Profile::Lossy,
        Profile::Bursty,
        Profile::Jittery,
        Profile::Partitioned,
        Profile::Chaotic,
    ];

    /// Profiles that never drop a frame — the only ones a protocol without
    /// retransmission (Psync) can be held to completion under.
    pub fn is_lossless(self) -> bool {
        matches!(self, Profile::FaultFree | Profile::Jittery)
    }

    /// Derives the concrete schedule for this profile from `seed`.
    /// `client`/`server` are the two hosts' Ethernet addresses (for the
    /// directional windows); `checksummed` gates corruption, which only a
    /// stack with end-to-end checksums (IP/UDP on the path) may face.
    pub fn schedule(
        self,
        seed: u64,
        client: EthAddr,
        server: EthAddr,
        checksummed: bool,
    ) -> FaultSchedule {
        let mut s = seed ^ (self as u64).wrapping_mul(0x5851_f42d_4c95_7f2d);
        let mut draw = |m: u64| splitmix64(&mut s) % m;
        let sched = match self {
            Profile::FaultFree => FaultSchedule::none(),
            Profile::Lossy => FaultSchedule::from_plan(FaultPlan::lossy(60 + draw(90) as u32)),
            Profile::Bursty => FaultSchedule::from_plan(FaultPlan::lossy(20))
                .burst_loss(800 + draw(100) as u32, 20_000_000, 60_000_000)
                .burst_loss(800 + draw(100) as u32, 150_000_000, 190_000_000),
            Profile::Jittery => FaultSchedule::from_plan(FaultPlan {
                dup_per_mille: 40,
                jitter_ns: 60_000_000 + draw(120_000_000),
                ..FaultPlan::default()
            }),
            Profile::Partitioned => FaultSchedule::none()
                .partition(client, server, 30_000_000, 110_000_000)
                .partition(server, client, 180_000_000, 240_000_000),
            Profile::Chaotic => FaultSchedule::from_plan(FaultPlan {
                drop_per_mille: 50 + draw(50) as u32,
                dup_per_mille: 50,
                corrupt_per_mille: if checksummed { 50 } else { 0 },
                jitter_ns: 2_000_000,
                ..FaultPlan::default()
            })
            .burst_loss(600, 50_000_000, 90_000_000),
            Profile::Blackout => {
                // 40 ms – 2 s: longer than REQUEST_REPLY's whole backoff
                // ladder (7 attempts top out near 550 ms warm), so every
                // in-window call must exhaust its budget and fail.
                FaultSchedule::from_plan(FaultPlan::lossy(20 + draw(20) as u32)).partition_both(
                    client,
                    server,
                    40_000_000,
                    2_000_000_000,
                )
            }
        };
        sched.validate().expect("derived schedule is well-formed");
        sched
    }
}

/// Which composed stack a scenario drives.
#[derive(Clone, Copy, Debug)]
pub enum StackKind {
    /// One of the paper's five full RPC configurations (Tables I–II, §4.3).
    Paper(StackDef),
    /// Classic Sun RPC: SUN_SELECT / AUTH_UNIX / REQUEST_REPLY / UDP —
    /// zero-or-more semantics, IP+UDP checksums on the path.
    SunRpcUdp,
    /// The §5 mix: SUN_SELECT over CHANNEL–FRAGMENT–VIP — Sun RPC's
    /// selection with Sprite's at-most-once transaction layer.
    SunRpcChannel,
    /// A two-party Psync conversation (no retransmission layer).
    Psync,
}

impl StackKind {
    /// Every paper RPC stack, wrapped for scenarios.
    pub fn all_paper() -> Vec<StackKind> {
        ALL_RPC_STACKS
            .iter()
            .copied()
            .map(StackKind::Paper)
            .collect()
    }

    /// The scenario's display name.
    pub fn name(&self) -> &'static str {
        match self {
            StackKind::Paper(s) => s.name,
            StackKind::SunRpcUdp => "SUNRPC-UDP",
            StackKind::SunRpcChannel => "SUNRPC-CHANNEL",
            StackKind::Psync => "PSYNC",
        }
    }

    /// True when the transaction layer guarantees at-most-once execution.
    pub fn at_most_once(&self) -> bool {
        !matches!(self, StackKind::SunRpcUdp)
    }

    /// True when every data frame crosses an end-to-end checksum (IP or
    /// UDP), so corruption faults are survivable. VIP stacks take the raw
    /// Ethernet path between local peers and carry no checksum.
    pub fn checksummed(&self) -> bool {
        match self {
            StackKind::Paper(s) => s.name == "M_RPC-IP",
            StackKind::SunRpcUdp => true,
            StackKind::SunRpcChannel | StackKind::Psync => false,
        }
    }

    /// The profiles this stack can be held to bounded completion under.
    /// Psync has no retransmission, so only lossless profiles apply;
    /// REQUEST_REPLY's six-retry budget is too small to ride out the
    /// 80 ms partition window.
    pub fn profiles(&self) -> &'static [Profile] {
        match self {
            StackKind::Paper(_) | StackKind::SunRpcChannel => &Profile::ALL,
            StackKind::SunRpcUdp => &[
                Profile::FaultFree,
                Profile::Lossy,
                Profile::Bursty,
                Profile::Jittery,
                Profile::Chaotic,
            ],
            StackKind::Psync => &[Profile::FaultFree, Profile::Jittery],
        }
    }
}

/// One reproducible run: a stack, a fault shape, a seed, a call count.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// The composed stack under test.
    pub stack: StackKind,
    /// The fault shape.
    pub profile: Profile,
    /// Seeds both the simulation PRNG and the fault/payload derivation.
    pub seed: u64,
    /// Number of sequential client calls (Psync: conversation rounds).
    pub calls: u32,
    /// Closed-loop client population: this many concurrent client
    /// processes each issue `calls` sequential calls with distinct
    /// payloads. `1` (or `0`) is the classic single-client scenario,
    /// bit-identical to the harness before populations existed. Not
    /// supported for Psync scenarios.
    pub population: u32,
}

/// Everything observable about one scenario run. Derives `Eq` so the
/// determinism invariant is "two runs, one assert".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosReport {
    /// `stack/profile/seed`, for assertion messages.
    pub label: String,
    /// The simulator's verdict (virtual end time, event count, blocked
    /// processes, per-host robustness counters).
    pub run: RunReport,
    /// Wire counters for the scenario's LAN.
    pub lan: LanStats,
    /// Calls the client issued.
    pub attempted: u32,
    /// Calls that returned the exact expected reply.
    pub completed: u32,
    /// Calls that returned a wrong-byte reply (must stay 0).
    pub mismatched: u32,
    /// Calls that errored (timeout etc.; must stay 0 under these profiles).
    pub failed: u32,
    /// Times the server-side procedure actually executed.
    pub executed: u32,
    /// Requests the server saw whose payload failed self-verification —
    /// a corrupt frame surfacing as data (must stay 0).
    pub garbage: u32,
    /// Distinct call payloads the procedure executed more than once — a
    /// per-call at-most-once violation (must stay 0 on CHANNEL stacks,
    /// even with a multi-client population racing retransmissions).
    pub duplicate_execs: u32,
}

/// Internal knobs threaded through the scenario runners: structured
/// tracing, the xcheck concurrency checker, and an optional scheduling
/// oracle (installed only after the warm-up phase, so exploration covers
/// the measured workload).
#[derive(Default)]
struct RunOpts<'r> {
    trace: bool,
    check: bool,
    chooser: Option<Box<dyn ScheduleChooser>>,
    /// Record every nondeterminism-relevant decision into the scheduler
    /// journal (see [`xkernel::journal`]).
    journal: bool,
    /// Record the pre-suppression fault timeline on the scenario's LAN
    /// (the bisection search space).
    record_faults: bool,
    /// Suppress recorded-class faults whose packet index is >= this cutoff
    /// (see [`simnet::SimNet::suppress_faults_from`]).
    suppress_from: Option<u64>,
    /// Configure from this registry instead of the shared one.
    registry: Option<&'r ProtocolRegistry>,
}

/// What a scenario run produced beyond the report: the simulator (for
/// checker queries), the recorded fault timeline, and the journal.
struct RunOutput {
    report: ChaosReport,
    sim: Sim,
    faults: Vec<FaultEvent>,
    journal: Option<Journal>,
}

/// A scenario run with the concurrency checker enabled: the ordinary
/// report plus everything xcheck observed about this schedule.
pub struct Verified {
    /// The scenario outcome (bit-identical to [`Scenario::run`] when no
    /// chooser steered the schedule — the checker only observes).
    pub report: ChaosReport,
    /// The checker's findings (happens-before violations, deadlock scan).
    pub check: CheckReport,
    /// One replayable repro string per violation, in the same order.
    pub repros: Vec<String>,
    /// Chaos invariants that failed on this schedule (empty on a clean
    /// run); the non-panicking form of [`Scenario::check`].
    pub invariant_failures: Vec<String>,
}

/// Mutable counters shared between the client/server closures and the
/// report assembly.
#[derive(Default, Clone)]
struct Tally {
    completed: u32,
    mismatched: u32,
    failed: u32,
    executed: u32,
    garbage: u32,
    /// Tags of intact request payloads the procedure has executed, for
    /// per-call duplicate detection.
    seen: std::collections::HashSet<u64>,
    duplicate_execs: u32,
}

impl Scenario {
    fn label(&self) -> String {
        format!(
            "{}/{:?}/seed={}",
            self.stack.name(),
            self.profile,
            self.seed
        )
    }

    /// Runs the scenario to completion and returns the report. Use
    /// [`Scenario::run_checked`] to also assert the invariants.
    pub fn run(&self) -> ChaosReport {
        self.run_inner(RunOpts::default()).report
    }

    /// [`Scenario::run`], handing back the simulation the report came from
    /// while it is still alive, for a caller that goes on to look inside it:
    /// its kernels and their protocols, its counters.
    pub fn run_with_sim(&self) -> (ChaosReport, Sim) {
        let out = self.run_inner(RunOpts::default());
        (out.report, out.sim)
    }

    /// Runs the scenario with the scheduler journal recording every
    /// nondeterminism-relevant decision (same-time tie picks, realized
    /// wire faults, crash/restart boots). The journal is stamped with the
    /// seed and final `sched_hash`; [`Scenario::run_replayed`] replays it.
    pub fn run_journaled(&self) -> (ChaosReport, Journal) {
        let out = self.run_inner(RunOpts {
            journal: true,
            ..RunOpts::default()
        });
        (out.report, out.journal.expect("journaling was on"))
    }

    /// Replays a journaled run: the journal's tie picks drive every
    /// forced-choice point, and a fresh journal is recorded for
    /// cross-checking (`replayed_journal.matches(original.sched_hash)`
    /// must hold, as must report equality).
    pub fn run_replayed(&self, journal: &Journal) -> (ChaosReport, Journal) {
        let out = self.run_inner(RunOpts {
            journal: true,
            chooser: Some(Box::new(journal.chooser())),
            ..RunOpts::default()
        });
        (out.report, out.journal.expect("journaling was on"))
    }

    /// Runs the scenario while recording the pre-suppression fault
    /// timeline on its LAN, optionally suppressing every recorded-class
    /// fault at packet index >= `suppress_from` (faults become clean
    /// deliveries; the PRNG draw sequence is unchanged, so everything
    /// before the cutoff replays exactly). The bisection probe.
    pub fn run_recorded(&self, suppress_from: Option<u64>) -> (ChaosReport, Vec<FaultEvent>) {
        let out = self.run_inner(RunOpts {
            record_faults: true,
            suppress_from,
            ..RunOpts::default()
        });
        (out.report, out.faults)
    }

    /// Runs the scenario with the xcheck concurrency checker enabled:
    /// vector-clock happens-before tracking, deadlock/lost-wakeup
    /// detection, and per-violation repro strings. The checker only
    /// observes, so the report is bit-identical to [`Scenario::run`].
    pub fn run_verified(&self) -> Verified {
        self.run_verified_inner(None)
    }

    /// [`Scenario::run_verified`] with a scheduling oracle steering every
    /// same-time event tie — one schedule out of xcheck's bounded
    /// exploration. The chooser is installed after warm-up, so its
    /// decisions cover only the measured workload.
    pub fn run_verified_with(&self, chooser: Box<dyn ScheduleChooser>) -> Verified {
        self.run_verified_inner(Some(chooser))
    }

    fn run_verified_inner(&self, chooser: Option<Box<dyn ScheduleChooser>>) -> Verified {
        let out = self.run_inner(RunOpts {
            check: true,
            chooser,
            ..RunOpts::default()
        });
        let (report, sim) = (out.report, out.sim);
        let check = sim.check_report();
        let repros = check.violations.iter().map(|v| sim.repro(v)).collect();
        let invariant_failures = self.invariant_failures(&report);
        Verified {
            report,
            check,
            repros,
            invariant_failures,
        }
    }

    /// Runs the scenario with structured tracing enabled, so the returned
    /// report's [`RunReport::breakdown`] carries the per-layer cost ledger
    /// (and each host's final CPU clock in
    /// [`xkernel::sim::HostStats::cpu_ns`]). Tracing observes charges but
    /// never adds any, so the virtual-time outcome is bit-identical to
    /// [`Scenario::run`].
    pub fn run_traced(&self) -> ChaosReport {
        self.run_inner(RunOpts {
            trace: true,
            ..RunOpts::default()
        })
        .report
    }

    fn run_inner(&self, opts: RunOpts<'_>) -> RunOutput {
        match self.stack {
            StackKind::Paper(def) => self.run_rpc(RpcFlavor::Paper(def), opts),
            StackKind::SunRpcUdp => self.run_rpc(RpcFlavor::SunRpc(SUNRPC_UDP_GRAPH), opts),
            StackKind::SunRpcChannel => self.run_rpc(RpcFlavor::SunRpc(SUNRPC_CHANNEL_GRAPH), opts),
            StackKind::Psync => self.run_psync(opts),
        }
    }

    /// Runs the scenario and asserts every invariant that applies to it.
    pub fn run_checked(&self) -> ChaosReport {
        let r = self.run();
        self.check(&r);
        r
    }

    /// Asserts the harness invariants against a report from this scenario.
    pub fn check(&self, r: &ChaosReport) {
        let failures = self.invariant_failures(r);
        assert!(
            failures.is_empty(),
            "chaos invariants violated:\n{}",
            failures.join("\n")
        );
    }

    /// The non-panicking form of [`Scenario::check`]: every chaos
    /// invariant that fails on `r`, as messages. xcheck's schedule
    /// explorer uses this to assert the invariants on *every* explored
    /// schedule and keep exploring past a failure.
    pub fn invariant_failures(&self, r: &ChaosReport) -> Vec<String> {
        let mut f = Vec::new();
        if r.run.blocked != 0 {
            f.push(format!(
                "{}: {} processes left blocked",
                r.label, r.run.blocked
            ));
        }
        if r.garbage != 0 {
            f.push(format!("{}: corrupt payload reached a server", r.label));
        }
        if r.mismatched != 0 {
            f.push(format!("{}: reply did not match request", r.label));
        }
        if r.failed != 0 || r.completed != r.attempted {
            f.push(format!(
                "{}: bounded completion violated ({} of {} calls, {} failed)",
                r.label, r.completed, r.attempted, r.failed
            ));
        }
        if self.stack.at_most_once() {
            if r.executed != r.attempted {
                f.push(format!(
                    "{}: at-most-once violated ({} executions for {} calls)",
                    r.label, r.executed, r.attempted
                ));
            }
            if r.duplicate_execs != 0 {
                f.push(format!(
                    "{}: a call's payload executed more than once",
                    r.label
                ));
            }
        } else if r.executed < r.completed {
            f.push(format!(
                "{}: zero-or-more executed fewer times than it completed",
                r.label
            ));
        }
        f
    }

    /// The simulator configuration and registry a scenario's rig is built
    /// from.
    fn rig_config<'r>(&self, opts: &RunOpts<'r>) -> (SimConfig, &'r ProtocolRegistry) {
        let mut cfg = SimConfig::scheduled().with_seed(self.seed);
        if opts.trace {
            cfg = cfg.with_trace();
        }
        if opts.check {
            cfg = cfg.with_check();
        }
        (cfg, opts.registry.unwrap_or_else(|| registry()))
    }

    fn install_schedule(&self, tb: &TwoHosts) {
        let sched = self.profile.schedule(
            self.seed,
            EthAddr::from_index(1),
            EthAddr::from_index(2),
            self.stack.checksummed(),
        );
        tb.net.set_fault_schedule(tb.lan, sched);
    }

    /// Builds the two-host rig for an RPC flavor: registers the serving
    /// handler, warms ARP on the quiet wire, installs the fault schedule,
    /// and arms journaling / fault recording / suppression per `opts` —
    /// everything up to (but not including) spawning client processes.
    fn rpc_setup(
        &self,
        flavor: RpcFlavor,
        opts: &RunOpts<'_>,
    ) -> (TwoHosts, Arc<OwnerCell<Tally>>) {
        let graph = match flavor {
            RpcFlavor::Paper(def) => def.graph,
            RpcFlavor::SunRpc(g) => g,
        };
        let (cfg, reg) = self.rig_config(opts);
        let tb = two_hosts(cfg, reg, graph).expect("chaos testbed builds");
        let tally = Arc::new(OwnerCell::new(Tally::default()));

        // Server: a side-effecting procedure that verifies the request's
        // integrity and replies with its transform.
        let t2 = Arc::clone(&tally);
        let handler = move |_ctx: &Ctx, msg: Message| {
            let req = msg.to_vec();
            let mut t = t2.lock();
            t.executed += 1;
            if !payload_is_intact(&req) {
                t.garbage += 1;
            } else {
                let tag = u64::from_be_bytes(req[..8].try_into().expect("8 bytes"));
                if !t.seen.insert(tag) {
                    t.duplicate_execs += 1;
                }
            }
            drop(t);
            Ok(Message::from_user(expected_reply(&req)))
        };
        match flavor {
            RpcFlavor::Paper(def) => {
                xrpc::serve(&tb.server, def.entry, RPC_PROC, handler).expect("serve")
            }
            RpcFlavor::SunRpc(_) => {
                with_concrete::<SunSelect, _>(&tb.server, "sunselect", move |s| {
                    s.serve(SUN_PROG, SUN_VERS, SUN_PROC, handler)
                })
                .expect("sunselect registered")
            }
        }

        warm_arp(&tb.sim, tb.client.host(), tb.server_ip);
        self.install_schedule(&tb);
        if opts.journal {
            tb.sim.journal_enable();
        }
        if opts.record_faults {
            tb.net.record_faults(tb.lan);
        }
        if let Some(cutoff) = opts.suppress_from {
            tb.net.suppress_faults_from(tb.lan, Some(cutoff));
        }
        (tb, tally)
    }

    /// Spawns the closed-loop client population, each process issuing
    /// sequential calls `lo..hi` spaced over the fault windows. Client 0
    /// uses the scenario seed directly, so a population of one is
    /// bit-identical to the original single-client harness; the others
    /// derive disjoint payload streams from it.
    fn spawn_rpc_clients(
        &self,
        tb: &TwoHosts,
        tally: &Arc<OwnerCell<Tally>>,
        flavor: RpcFlavor,
        lo: u32,
        hi: u32,
    ) {
        let population = self.population.max(1);
        let seed = self.seed;
        let server_ip = tb.server_ip;
        for j in 0..population {
            let client_seed = if j == 0 {
                seed
            } else {
                seed.wrapping_add(u64::from(j).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            };
            let t3 = Arc::clone(tally);
            tb.sim.spawn(tb.client.host(), move |ctx| {
                for i in lo..hi {
                    let req = chaos_payload(client_seed, u64::from(i));
                    let want = expected_reply(&req);
                    let got = match flavor {
                        RpcFlavor::Paper(def) => {
                            let k = ctx.kernel();
                            xrpc::call(ctx, &k, def.entry, server_ip, RPC_PROC, req)
                        }
                        RpcFlavor::SunRpc(_) => {
                            with_concrete::<SunSelect, _>(&ctx.kernel(), "sunselect", |s| {
                                s.call(ctx, server_ip, SUN_PROG, SUN_VERS, SUN_PROC, req)
                            })
                            .expect("sunselect registered")
                        }
                    };
                    let mut t = t3.lock();
                    match got {
                        Ok(r) if r == want => t.completed += 1,
                        Ok(_) => t.mismatched += 1,
                        Err(_) => t.failed += 1,
                    }
                    drop(t);
                    ctx.sleep(CALL_GAP_NS);
                }
            });
        }
    }

    fn run_rpc(&self, flavor: RpcFlavor, mut opts: RunOpts<'_>) -> RunOutput {
        let chooser = opts.chooser.take();
        let (tb, tally) = self.rpc_setup(flavor, &opts);
        if let Some(ch) = chooser {
            tb.sim.set_chooser(ch);
        }
        self.spawn_rpc_clients(&tb, &tally, flavor, 0, self.calls);
        let run = tb.sim.run_until_idle();
        let attempted = self.calls * self.population.max(1);
        let report = self.report(run, tb.net.stats(tb.lan), &tally, attempted);
        RunOutput {
            report,
            sim: tb.sim.clone(),
            faults: if opts.record_faults {
                tb.net.recorded_faults(tb.lan)
            } else {
                Vec::new()
            },
            journal: opts.journal.then(|| tb.sim.journal_take()),
        }
    }

    /// Runs the scenario in two phases split at call `mid`, snapshotting
    /// the whole quiescent system (scheduler, PRNG, hosts, every
    /// protocol's private state, and the wire) between them; then restores
    /// the snapshot and re-runs phase two on the same rig. The two reports
    /// must be `Eq`-identical — the snapshot/restore bit-identity
    /// guarantee — which [`SnapshotRun::assert_identical`] checks.
    pub fn run_snapshotted(&self, mid: u32) -> SnapshotRun {
        assert!(
            mid > 0 && mid < self.calls,
            "{}: midpoint {mid} must split {} calls",
            self.label(),
            self.calls
        );
        match self.stack {
            StackKind::Paper(def) => self.run_rpc_snapshotted(RpcFlavor::Paper(def), mid),
            StackKind::SunRpcUdp => {
                self.run_rpc_snapshotted(RpcFlavor::SunRpc(SUNRPC_UDP_GRAPH), mid)
            }
            StackKind::SunRpcChannel => {
                self.run_rpc_snapshotted(RpcFlavor::SunRpc(SUNRPC_CHANNEL_GRAPH), mid)
            }
            StackKind::Psync => self.run_psync_snapshotted(mid),
        }
    }

    fn run_rpc_snapshotted(&self, flavor: RpcFlavor, mid: u32) -> SnapshotRun {
        let opts = RunOpts::default();
        let (tb, tally) = self.rpc_setup(flavor, &opts);
        let attempted = self.calls * self.population.max(1);

        // Phase one warms the system: sessions opened, channels allocated,
        // RTO estimators trained, fault-schedule positions advanced.
        self.spawn_rpc_clients(&tb, &tally, flavor, 0, mid);
        assert_eq!(
            tb.sim.run_until_idle().blocked,
            0,
            "{}: phase one left a blocked process",
            self.label()
        );

        let sim_snap = tb.sim.snapshot().expect("quiescent after run_until_idle");
        let net_snap = tb.net.snapshot();
        let tally_snap = tally.lock().clone();

        // Continue uninterrupted: the reference run.
        self.spawn_rpc_clients(&tb, &tally, flavor, mid, self.calls);
        let first = self.report(
            tb.sim.run_until_idle(),
            tb.net.stats(tb.lan),
            &tally,
            attempted,
        );

        // Rewind everything and replay phase two on the same rig.
        tb.sim.restore(&sim_snap).expect("restore on the same rig");
        tb.net.restore(&net_snap);
        *tally.lock() = tally_snap;
        self.spawn_rpc_clients(&tb, &tally, flavor, mid, self.calls);
        let replayed = self.report(
            tb.sim.run_until_idle(),
            tb.net.stats(tb.lan),
            &tally,
            attempted,
        );

        SnapshotRun {
            first,
            replayed,
            snapshot_at: sim_snap.now(),
        }
    }

    /// Builds the two-party Psync rig: conversations opened on both sides,
    /// ARP warmed, fault schedule installed, journaling/recording armed.
    fn psync_setup(&self, opts: &RunOpts<'_>) -> PsyncRig {
        assert!(
            self.profile.is_lossless(),
            "{}: psync has no retransmission; only lossless profiles apply",
            self.label()
        );
        assert!(
            self.population <= 1,
            "{}: psync conversations are two-party; populations do not apply",
            self.label()
        );
        let (cfg, reg) = self.rig_config(opts);
        let rig = lan_hosts(cfg, reg, "vip -> ip eth arp\npsync -> vip\n", 2)
            .expect("psync testbed builds");
        let (a_ip, b_ip) = (rig.ip_of(0), rig.ip_of(1));
        let open = |host: usize, peer: IpAddr| {
            let ctx = rig.sim.ctx(rig.kernels[host].host());
            with_concrete::<psync::Psync, _>(&rig.kernels[host], "psync", |p| {
                p.open_conv(&ctx, 1, vec![peer])
            })
            .expect("psync conversation opens")
        };
        let conv_a = open(0, b_ip);
        let conv_b = open(1, a_ip);

        warm_arp(&rig.sim, rig.kernels[0].host(), b_ip);
        let sched = self.profile.schedule(
            self.seed,
            EthAddr::from_index(1),
            EthAddr::from_index(2),
            false,
        );
        rig.net.set_fault_schedule(rig.lan, sched);
        if opts.journal {
            rig.sim.journal_enable();
        }
        if opts.record_faults {
            rig.net.record_faults(rig.lan);
        }
        if let Some(cutoff) = opts.suppress_from {
            rig.net.suppress_faults_from(rig.lan, Some(cutoff));
        }
        PsyncRig {
            rig,
            conv_a,
            conv_b,
            tally: Arc::new(OwnerCell::new(Tally::default())),
        }
    }

    /// Spawns one conversation phase: side A sends rounds `lo..hi` and
    /// awaits each transform; side B serves `hi - lo` rounds.
    fn spawn_psync_phase(&self, pr: &PsyncRig, lo: u32, hi: u32) {
        let seed = self.seed;

        // Side A: send a round, await its transform.
        let conv_a = Arc::clone(&pr.conv_a);
        let ta = Arc::clone(&pr.tally);
        let ha = pr.rig.kernels[0].host();
        pr.rig.sim.spawn(ha, move |ctx| {
            for i in lo..hi {
                let req = chaos_payload(seed, u64::from(i));
                let want = expected_reply(&req);
                if conv_a.send(ctx, req).is_err() {
                    ta.lock().failed += 1;
                    continue;
                }
                // Receive *before* taking the tally lock: receive blocks in
                // the scheduler, and side B needs the lock to make progress.
                let got = conv_a.receive(ctx, PSYNC_RECV_TIMEOUT_NS);
                let mut t = ta.lock();
                match got {
                    Ok(m) if m.data == want => t.completed += 1,
                    Ok(_) => t.mismatched += 1,
                    Err(_) => t.failed += 1,
                }
            }
        });

        // Side B: receive each round, verify, reply in its context.
        let conv_b = Arc::clone(&pr.conv_b);
        let tb2 = Arc::clone(&pr.tally);
        let hb = pr.rig.kernels[1].host();
        pr.rig.sim.spawn(hb, move |ctx| {
            for _ in lo..hi {
                let m = match conv_b.receive(ctx, PSYNC_RECV_TIMEOUT_NS) {
                    Ok(m) => m,
                    Err(_) => return,
                };
                let mut t = tb2.lock();
                t.executed += 1;
                if !payload_is_intact(&m.data) {
                    t.garbage += 1;
                }
                drop(t);
                let _ = conv_b.send(ctx, expected_reply(&m.data));
            }
        });
    }

    fn run_psync(&self, mut opts: RunOpts<'_>) -> RunOutput {
        let chooser = opts.chooser.take();
        let pr = self.psync_setup(&opts);
        if let Some(ch) = chooser {
            pr.rig.sim.set_chooser(ch);
        }
        self.spawn_psync_phase(&pr, 0, self.calls);
        let run = pr.rig.sim.run_until_idle();
        let report = self.report(run, pr.rig.net.stats(pr.rig.lan), &pr.tally, self.calls);
        RunOutput {
            report,
            sim: pr.rig.sim.clone(),
            faults: if opts.record_faults {
                pr.rig.net.recorded_faults(pr.rig.lan)
            } else {
                Vec::new()
            },
            journal: opts.journal.then(|| pr.rig.sim.journal_take()),
        }
    }

    fn run_psync_snapshotted(&self, mid: u32) -> SnapshotRun {
        let pr = self.psync_setup(&RunOpts::default());

        self.spawn_psync_phase(&pr, 0, mid);
        assert_eq!(
            pr.rig.sim.run_until_idle().blocked,
            0,
            "{}: phase one left a blocked process",
            self.label()
        );

        let sim_snap = pr
            .rig
            .sim
            .snapshot()
            .expect("quiescent after run_until_idle");
        let net_snap = pr.rig.net.snapshot();
        let tally_snap = pr.tally.lock().clone();

        self.spawn_psync_phase(&pr, mid, self.calls);
        let first = self.report(
            pr.rig.sim.run_until_idle(),
            pr.rig.net.stats(pr.rig.lan),
            &pr.tally,
            self.calls,
        );

        pr.rig
            .sim
            .restore(&sim_snap)
            .expect("restore on the same rig");
        pr.rig.net.restore(&net_snap);
        *pr.tally.lock() = tally_snap;
        self.spawn_psync_phase(&pr, mid, self.calls);
        let replayed = self.report(
            pr.rig.sim.run_until_idle(),
            pr.rig.net.stats(pr.rig.lan),
            &pr.tally,
            self.calls,
        );

        SnapshotRun {
            first,
            replayed,
            snapshot_at: sim_snap.now(),
        }
    }

    fn report(
        &self,
        run: RunReport,
        lan: LanStats,
        tally: &OwnerCell<Tally>,
        attempted: u32,
    ) -> ChaosReport {
        let t = tally.lock();
        ChaosReport {
            label: self.label(),
            run,
            lan,
            attempted,
            completed: t.completed,
            mismatched: t.mismatched,
            failed: t.failed,
            executed: t.executed,
            garbage: t.garbage,
            duplicate_execs: t.duplicate_execs,
        }
    }
}

#[derive(Clone, Copy)]
enum RpcFlavor {
    Paper(StackDef),
    SunRpc(&'static str),
}

/// The Psync two-party rig plus the handles a phased run needs.
struct PsyncRig {
    rig: inet::testbed::Lan,
    conv_a: Arc<psync::Conversation>,
    conv_b: Arc<psync::Conversation>,
    tally: Arc<OwnerCell<Tally>>,
}

/// Outcome of [`Scenario::run_snapshotted`]: the uninterrupted run and
/// the restore-and-replay run, which must be bit-identical.
#[derive(Clone, Debug)]
pub struct SnapshotRun {
    /// Phase one + phase two, run straight through (the snapshot was
    /// taken between the phases but never used).
    pub first: ChaosReport,
    /// The same phase two re-run after restoring the snapshot.
    pub replayed: ChaosReport,
    /// Virtual time at which the snapshot was captured.
    pub snapshot_at: u64,
}

impl SnapshotRun {
    /// Panics unless the replayed run is `Eq`-identical to the
    /// uninterrupted one — the snapshot/restore bit-identity guarantee
    /// (this covers `RunReport`, and with it `sched_hash`).
    pub fn assert_identical(&self) {
        assert_eq!(
            self.first, self.replayed,
            "restore-and-replay diverged from the uninterrupted run \
             (snapshot at t={}ns)",
            self.snapshot_at
        );
    }
}

/// Builds the full soak matrix: every paper RPC stack plus the Sun RPC and
/// Psync compositions, each under every profile it can be held to bounded
/// completion under, across `seeds_per_cell` consecutive seeds starting at
/// `seed_base`. The matrix order is fixed — stacks in registry order,
/// profiles in escalation order, seeds ascending — so two runs of the same
/// matrix are comparable element by element.
pub fn full_matrix(seed_base: u64, seeds_per_cell: u64, calls: u32) -> Vec<Scenario> {
    let mut stacks = StackKind::all_paper();
    stacks.push(StackKind::SunRpcUdp);
    stacks.push(StackKind::SunRpcChannel);
    stacks.push(StackKind::Psync);
    let mut out = Vec::new();
    for stack in stacks {
        for &profile in stack.profiles() {
            for i in 0..seeds_per_cell {
                out.push(Scenario {
                    stack,
                    profile,
                    seed: seed_base + i,
                    calls,
                    population: 1,
                });
            }
        }
    }
    out
}

/// Runs a batch of scenarios across `threads` OS threads and returns the
/// reports **in input order**. Every scenario owns its whole simulation
/// (hosts, PRNG, event queue), so the only cross-scenario coupling is the
/// report order — which [`xkernel::par::run_indexed`] pins to the input
/// order. A run with `threads == 1` and a run with `threads == N` produce
/// `Eq`-identical report vectors; the parallel soak is therefore exactly as
/// reproducible as the sequential one, just faster in wall-clock terms.
///
/// With `checked`, every scenario's invariants are asserted as it completes
/// (a violation panics the batch).
pub fn run_matrix(scenarios: Vec<Scenario>, threads: usize, checked: bool) -> Vec<ChaosReport> {
    xkernel::par::run_indexed(scenarios, threads, |sc| {
        if checked {
            sc.run_checked()
        } else {
            sc.run()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_are_self_verifying_and_flips_are_caught() {
        for i in 0..10 {
            let p = chaos_payload(42, i);
            assert!(p.len() >= 16);
            assert!(payload_is_intact(&p));
            let mut bad = p.clone();
            bad[p.len() / 2] ^= 0x20;
            assert!(!payload_is_intact(&bad), "flip must be detectable");
        }
    }

    #[test]
    fn payloads_differ_across_calls_and_seeds() {
        assert_ne!(chaos_payload(1, 0), chaos_payload(1, 1));
        assert_ne!(chaos_payload(1, 0), chaos_payload(2, 0));
        // And are reproducible.
        assert_eq!(chaos_payload(7, 3), chaos_payload(7, 3));
    }

    #[test]
    fn profile_derivation_is_deterministic_and_valid() {
        let a = EthAddr::from_index(1);
        let b = EthAddr::from_index(2);
        for p in Profile::ALL {
            for seed in [0u64, 1, 0xdead_beef] {
                let s1 = p.schedule(seed, a, b, true);
                let s2 = p.schedule(seed, a, b, true);
                assert!(s1.validate().is_ok());
                assert_eq!(s1.windows, s2.windows, "{p:?} windows reproducible");
                assert_eq!(
                    (
                        s1.base.drop_per_mille,
                        s1.base.dup_per_mille,
                        s1.base.corrupt_per_mille,
                        s1.base.jitter_ns
                    ),
                    (
                        s2.base.drop_per_mille,
                        s2.base.dup_per_mille,
                        s2.base.corrupt_per_mille,
                        s2.base.jitter_ns
                    ),
                    "{p:?} rates reproducible"
                );
            }
        }
    }

    #[test]
    fn corruption_is_gated_on_checksummed_stacks() {
        let a = EthAddr::from_index(1);
        let b = EthAddr::from_index(2);
        let with = Profile::Chaotic.schedule(9, a, b, true);
        let without = Profile::Chaotic.schedule(9, a, b, false);
        assert!(with.base.corrupt_per_mille > 0);
        assert_eq!(without.base.corrupt_per_mille, 0);
    }

    /// Sharing one registry (and with it the lint verdicts and whatever
    /// else a registry may come to keep) changes nothing a scenario can
    /// observe: every stack's report equals the one from a registry built
    /// for that run alone.
    #[test]
    fn shared_registry_reports_equal_fresh_registry_reports() {
        let mut seen = Vec::new();
        for sc in full_matrix(3, 1, 4) {
            let fresh = full_registry();
            let out = sc.run_inner(RunOpts {
                registry: Some(&fresh),
                ..RunOpts::default()
            });
            assert_eq!(sc.run(), out.report);
            if !seen.contains(&sc.stack.name()) {
                seen.push(sc.stack.name());
            }
        }
        assert_eq!(seen.len(), 8, "{seen:?}");
    }

    #[test]
    fn fault_free_scenario_completes_on_the_layered_stack() {
        let sc = Scenario {
            stack: StackKind::Paper(xrpc::stacks::L_RPC_VIP),
            profile: Profile::FaultFree,
            seed: 1,
            calls: 3,
            population: 1,
        };
        let r = sc.run_checked();
        assert_eq!(r.completed, 3);
        assert_eq!(r.executed, 3);
        let client = r.run.hosts[0];
        assert_eq!(client.retransmits, 0, "quiet wire: no retransmissions");
    }
}
