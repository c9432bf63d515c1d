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
//!   is left blocked (a REQUEST_REPLY call may instead spend the whole
//!   budget and return `Timeout`, counted in [`ChaosReport::timed_out`]);
//! * **determinism** — the same scenario and seed reproduce a bit-identical
//!   [`RunReport`] and [`LanStats`], so any failure is replayable from two
//!   integers.
//!
//! Faults are derived from the scenario seed by a local splitmix64 stream,
//! *independent* of the simulation's own PRNG: the schedule a seed denotes
//! never changes when a protocol consumes more or fewer random draws.

#![warn(clippy::disallowed_types, clippy::disallowed_methods)]

use std::cell::RefCell;
use std::hash::BuildHasherDefault;
use std::rc::Rc;
use std::sync::OnceLock;

use xkernel::cell::OwnerCell;

use inet::arp::Arp;
use inet::testbed::{lan_hosts, two_hosts, Lan, TwoHosts};
use inet::with_concrete;
use simnet::fault::{FaultPlan, FaultSchedule};
use simnet::{FaultEvent, LanId, LanStats, Template};
use sunrpc::sunselect::SunSelect;
use xkernel::graph::ProtocolRegistry;
use xkernel::journal::Journal;
use xkernel::map::MixHasher;
use xkernel::prelude::*;
pub use xkernel::rng::splitmix64;
use xkernel::sim::{RunReport, ScheduleChooser, SimConfig};
use xrpc::stacks::{StackDef, ALL_RPC_STACKS};

pub mod bisect;

/// Virtual-time gap between successive client calls, so a scenario's calls
/// straddle the fault windows instead of finishing before the first opens.
pub const CALL_GAP_NS: u64 = 12_000_000;

/// Receive timeout for Psync conversations (they have no retransmission;
/// a lossless profile must deliver within this bound).
pub const PSYNC_RECV_TIMEOUT_NS: u64 = 3_000_000_000;

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
        with_concrete::<Arp, _>(ctx.kernel_ref(), "arp", |a| a.resolve(ctx, peer))
            .expect("arp registered")
            .expect("warm-up resolve on the quiet wire");
    });
    assert_eq!(
        sim.run_until_idle().blocked,
        0,
        "warm-up left a blocked process"
    );
}

/// Reconstructs the self-describing payload body for `tag` at `len` bytes:
/// the tag itself, then a splitmix64 stream seeded by it. Anyone holding
/// the first eight bytes can verify the rest, which is how the harness
/// detects a corrupt frame surfacing as data.
pub fn body_from_tag(tag: u64, len: usize) -> Vec<u8> {
    let len = len.max(8);
    let mut v = Vec::with_capacity(len);
    v.extend_from_slice(&tag.to_be_bytes());
    let mut s = tag;
    while v.len() < len {
        let word = splitmix64(&mut s).to_be_bytes();
        v.extend_from_slice(&word[..word.len().min(len - v.len())]);
    }
    v
}

/// The request payload for call `call` of the scenario seeded `seed`.
pub fn chaos_payload(seed: u64, call: u64) -> Vec<u8> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ call;
    let tag = splitmix64(&mut s);
    let len = 16 + (splitmix64(&mut s) % 344) as usize;
    body_from_tag(tag, len)
}

/// True when `data` is an intact chaos payload (no byte was flipped): every
/// byte after the tag is compared, in place, with the stream the tag seeds.
pub fn payload_is_intact(data: &[u8]) -> bool {
    let Some((tag, rest)) = data.split_first_chunk::<8>() else {
        return false;
    };
    let mut s = u64::from_be_bytes(*tag);
    rest.chunks(8)
        .all(|chunk| *chunk == splitmix64(&mut s).to_be_bytes()[..chunk.len()])
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
    /// Calls that errored. Must stay 0 on an at-most-once stack; on a
    /// zero-or-more one every failure must be a [`ChaosReport::timed_out`].
    pub failed: u32,
    /// The failed calls that returned `Timeout`: the transaction layer spent
    /// its whole retry budget and gave the call back.
    pub timed_out: u32,
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

/// How to run a scenario: which observers to attach and whether to split
/// the run at a snapshot. The default is the plain run; the observers
/// (`trace`, `check`, `journal`, `record_faults` with no cutoff) compose
/// freely and leave the virtual-time outcome bit-identical.
#[derive(Default)]
pub struct RunOpts {
    /// Structured tracing: the report's [`RunReport::breakdown`] carries
    /// the per-layer cost ledger and each host's final CPU clock lands in
    /// [`xkernel::sim::HostStats::cpu_ns`]. Tracing observes charges but
    /// never adds any.
    pub trace: bool,
    /// The xcheck concurrency checker: double-wait, deadlock, lost-wakeup
    /// and cross-host-signal detection, read back through
    /// [`Sim::check_report`] on the outcome's `sim`. The checker only
    /// observes.
    pub check: bool,
    /// A watchdog: this many charged operations a process
    /// ([`SimConfig::with_fuel`]), so a protocol that spins is a report
    /// with `fuel_exhausted > 0` — which [`Scenario::invariant_failures`]
    /// names — at the same event every time, not a hung run. A budget no
    /// process reaches leaves the report bit-identical.
    pub fuel: Option<u64>,
    /// Record every nondeterminism-relevant decision (same-time tie
    /// picks, realized wire faults, crash/restart boots) into the
    /// scheduler journal (see [`xkernel::journal`]); the outcome's
    /// `journal` is stamped with the seed and final `sched_hash`.
    pub journal: bool,
    /// A scheduling oracle steering every same-time event tie — a
    /// journal's [`Journal::chooser`] to replay it, or one schedule out of
    /// xcheck's bounded exploration. Installed after warm-up, so its
    /// decisions cover only the measured workload.
    pub chooser: Option<Box<dyn ScheduleChooser>>,
    /// Record the scenario LAN's fault timeline (the bisection search
    /// space), optionally suppressing part of it.
    pub record_faults: FaultRecording,
    /// Run in two phases split at this call, snapshotting the whole
    /// quiescent system (scheduler, PRNG, hosts, every protocol's private
    /// state, and the wire) between them; then restore the snapshot and
    /// re-run phase two on the same rig. The outcome's `replayed` holds
    /// both reports. [`Sim::snapshot`] captures no observer state, so this
    /// composes with no other option: the runner panics naming the clash.
    pub snapshot_at: Option<u32>,
}

/// Whether a run records the fault timeline on its LAN.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub enum FaultRecording {
    /// No recording.
    #[default]
    Off,
    /// Record every pre-suppression fault decision. With `suppress_from`,
    /// recorded-class faults at packet index >= the cutoff become clean
    /// deliveries (see [`simnet::SimNet::suppress_faults_from`]); the PRNG
    /// draw sequence is unchanged, so everything before the cutoff replays
    /// exactly. The bisection probe.
    On {
        /// The suppression cutoff, if any.
        suppress_from: Option<u64>,
    },
}

/// What [`Scenario::run_with`] produced.
pub struct RunOutcome {
    /// The scenario outcome — bit-identical to [`Scenario::run`] unless a
    /// chooser steered the schedule or a cutoff suppressed faults.
    pub report: ChaosReport,
    /// The simulation the report came from, still alive, for a caller that
    /// goes on to look inside it: its kernels and their protocols, its
    /// counters, the checker's findings ([`Sim::check_report`],
    /// [`Sim::repro`]).
    pub sim: Sim,
    /// The recorded fault timeline (empty unless `record_faults` was on).
    pub faults: Vec<FaultEvent>,
    /// The scheduler journal, when `journal` was set.
    pub journal: Option<Journal>,
    /// The restore-and-replay comparison, when `snapshot_at` was set.
    pub replayed: Option<SnapshotRun>,
}

/// Mutable counters shared between the client/server closures and the
/// report assembly.
#[derive(Default, Clone)]
struct Tally {
    completed: u32,
    mismatched: u32,
    failed: u32,
    timed_out: u32,
    executed: u32,
    garbage: u32,
    /// Tags of intact request payloads the procedure has executed, for
    /// per-call duplicate detection. Only whether a tag was new is read, so
    /// the set's order (and its hasher) cannot reach a report.
    seen: std::collections::HashSet<u64, BuildHasherDefault<MixHasher>>,
    duplicate_execs: u32,
}

impl Tally {
    /// Zeroes every count for the next scenario, keeping the set's room.
    fn reset(&mut self) {
        let mut seen = std::mem::take(&mut self.seen);
        seen.clear();
        *self = Tally {
            seen,
            ..Tally::default()
        };
    }

    /// Files one client call's outcome against the reply it wanted.
    fn call_returned(&mut self, got: XResult<Vec<u8>>, want: &[u8]) {
        match got {
            Ok(r) if r == want => self.completed += 1,
            Ok(_) => self.mismatched += 1,
            Err(e) => {
                self.failed += 1;
                self.timed_out += u32::from(matches!(e, XError::Timeout(_)));
            }
        }
    }
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

    /// Runs the scenario to completion and returns the report;
    /// [`Scenario::check`] asserts the invariants on it. The rig comes from
    /// this thread's pool and goes back to it.
    pub fn run(&self) -> ChaosReport {
        let rig = self.check_out();
        let report = self.drive(&rig, RunOpts::default()).report;
        check_in(self.stack.name(), rig, &report);
        report
    }

    /// Runs the scenario as `opts` says — the one way to run it with
    /// observers attached, a steered schedule, suppressed faults or a
    /// mid-run snapshot. The rig leaves the pool for good: the outcome's
    /// `sim` is the only handle left on it.
    pub fn run_with(&self, opts: RunOpts) -> RunOutcome {
        let rig = if opts.trace || opts.check || opts.fuel.is_some() {
            // Tracing, checking and a fuel budget are fixed when a
            // simulation is made and cover its set-up too: such a run gets a
            // rig of its own.
            self.build(&opts, registry())
        } else {
            self.check_out()
        };
        POOL.with_borrow_mut(|p| p.stats.given_away += 1);
        self.drive(&rig, opts)
    }

    /// This thread's pooled rig for the scenario's stack, or a new one.
    fn check_out(&self) -> Rig {
        let name = self.stack.name();
        let pooled = POOL.with_borrow_mut(|p| {
            let at = p.rigs.iter().position(|(n, _)| *n == name)?;
            Some(p.rigs.swap_remove(at).1)
        });
        pooled.unwrap_or_else(|| self.build(&RunOpts::default(), registry()))
    }

    /// Builds the stack's rig from `reg` and warms it — everything a run
    /// needs that does not depend on the scenario's seed, profile or call
    /// count — and captures it as the template every run forks from.
    fn build(&self, opts: &RunOpts, reg: &ProtocolRegistry) -> Rig {
        POOL.with_borrow_mut(|p| p.stats.built += 1);
        let mut cfg = SimConfig::scheduled().with_seed(self.seed);
        if opts.trace {
            cfg = cfg.with_trace();
        }
        if opts.check {
            cfg = cfg.with_check();
        }
        cfg.fuel = opts.fuel;
        match self.stack {
            StackKind::Paper(def) => rpc_setup(RpcFlavor::Paper(def), cfg, reg),
            StackKind::SunRpcUdp => rpc_setup(RpcFlavor::SunRpc(sunrpc::UDP_GRAPH), cfg, reg),
            StackKind::SunRpcChannel => {
                rpc_setup(RpcFlavor::SunRpc(sunrpc::CHANNEL_GRAPH), cfg, reg)
            }
            StackKind::Psync => psync_setup(cfg, reg),
        }
    }

    /// One rig shape serves every stack, so a run is written once: fork the
    /// template under the scenario's seed, arm the wire and the observers,
    /// run the phases, assemble the outcome.
    fn drive(&self, rig: &Rig, opts: RunOpts) -> RunOutcome {
        if let Some(mid) = opts.snapshot_at {
            assert!(
                mid > 0 && mid < self.calls,
                "{}: midpoint {mid} must split {} calls",
                self.label(),
                self.calls
            );
            for (name, set) in [
                ("trace", opts.trace),
                ("check", opts.check),
                ("journal", opts.journal),
                ("chooser", opts.chooser.is_some()),
                ("record_faults", opts.record_faults != FaultRecording::Off),
            ] {
                assert!(
                    !set,
                    "{}: snapshot_at does not compose with {name}: a \
                     snapshot captures no {name} state to rewind",
                    self.label()
                );
            }
        }
        if matches!(self.stack, StackKind::Psync) {
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
        }
        let (sim, net) = (rig.warm.sim(), rig.warm.net());

        rig.warm.fork(self.seed);
        POOL.with_borrow_mut(|p| p.stats.forked += 1);
        rig.tally.lock().reset();

        let sched = self.profile.schedule(
            self.seed,
            EthAddr::from_index(1),
            EthAddr::from_index(2),
            self.stack.checksummed(),
        );
        net.set_fault_schedule(rig.lan, sched);
        if opts.journal {
            sim.journal_enable();
        }
        if let FaultRecording::On { suppress_from } = opts.record_faults {
            net.record_faults(rig.lan);
            net.suppress_faults_from(rig.lan, suppress_from);
        }
        if let Some(ch) = opts.chooser {
            sim.set_chooser(ch);
        }

        // Phase one of a snapshotted run warms the system: sessions opened,
        // channels allocated, RTO estimators trained, fault-schedule
        // positions advanced.
        let mid = opts.snapshot_at.map(|mid| {
            (rig.spawn_phase)(self, 0, mid);
            assert_eq!(
                sim.run_until_idle().blocked,
                0,
                "{}: phase one left a blocked process",
                self.label()
            );
            (Template::capture(sim, net), rig.tally.lock().clone())
        });
        // The last phase — the whole run when nothing split it.
        let last_phase = || {
            (rig.spawn_phase)(self, opts.snapshot_at.unwrap_or(0), self.calls);
            let run = sim.run_until_idle();
            let lan = net.stats(rig.lan);
            let t = rig.tally.lock();
            ChaosReport {
                label: self.label(),
                run,
                lan,
                attempted: self.calls * self.population.max(1),
                completed: t.completed,
                mismatched: t.mismatched,
                failed: t.failed,
                timed_out: t.timed_out,
                executed: t.executed,
                garbage: t.garbage,
                duplicate_execs: t.duplicate_execs,
            }
        };
        let report = last_phase();
        // Rewind everything and replay the last phase on the same rig.
        let replayed = mid.map(|(mid, tally)| {
            mid.rewind();
            *rig.tally.lock() = tally;
            SnapshotRun {
                first: report.clone(),
                replayed: last_phase(),
                snapshot_at: mid.captured_at(),
            }
        });

        RunOutcome {
            report,
            faults: net.recorded_faults(rig.lan),
            journal: opts.journal.then(|| sim.journal_take()),
            sim: sim.clone(),
            replayed,
        }
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
        if r.run.fuel_exhausted != 0 {
            f.push(format!(
                "{}: {} process(es) ran out of fuel",
                r.label, r.run.fuel_exhausted
            ));
        }
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
        // What "bounded" means depends on the transaction layer. CHANNEL and
        // M_RPC ride out every profile they are held to. REQUEST_REPLY makes
        // seven attempts and then gives the call back — about once in 4,000
        // lossy scenarios all seven are lost — so a zero-or-more stack is
        // held to: every call completes *or* returns `Timeout`, having fired
        // its whole budget first. (Its slot is released either way: a leaked
        // one leaves a later call blocked or answered by a stale reply,
        // which the checks above catch.)
        let timed_out = if self.stack.at_most_once() {
            0
        } else {
            r.timed_out
        };
        if r.failed != timed_out || r.completed + timed_out != r.attempted {
            f.push(format!(
                "{}: bounded completion violated ({} of {} calls, {} failed, {} timed out)",
                r.label, r.completed, r.attempted, r.failed, r.timed_out
            ));
        }
        let budget = u64::from(sunrpc::rr::MAX_RETRIES + 1) * u64::from(timed_out);
        let fired = r.run.hosts.first().map_or(0, |h| h.timeouts_fired);
        if fired < budget {
            f.push(format!(
                "{}: {timed_out} call(s) timed out after only {fired} timeouts \
                 (the retry budget is {budget})",
                r.label
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

    /// Spawns the closed-loop client population, each process issuing
    /// sequential calls `lo..hi` spaced over the fault windows. Client 0
    /// uses the scenario seed directly, so a population of one is
    /// bit-identical to the original single-client harness; the others
    /// derive disjoint payload streams from it.
    fn spawn_rpc_clients(
        &self,
        tb: &TwoHosts,
        tally: &Rc<OwnerCell<Tally>>,
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
            let t3 = Rc::clone(tally);
            tb.sim.spawn(tb.client.host(), move |ctx| {
                for i in lo..hi {
                    let req = chaos_payload(client_seed, u64::from(i));
                    let want = expected_reply(&req);
                    let got = match flavor {
                        RpcFlavor::Paper(def) => {
                            xrpc::call(ctx, ctx.kernel_ref(), def.entry, server_ip, RPC_PROC, req)
                        }
                        RpcFlavor::SunRpc(_) => {
                            with_concrete::<SunSelect, _>(ctx.kernel_ref(), "sunselect", |s| {
                                s.call(ctx, server_ip, SUN_PROG, SUN_VERS, SUN_PROC, req)
                            })
                            .expect("sunselect registered")
                        }
                    };
                    t3.lock().call_returned(got, &want);
                    ctx.sleep(CALL_GAP_NS);
                }
            });
        }
    }

    /// Spawns one conversation phase: side A sends rounds `lo..hi` and
    /// awaits each transform; side B serves `hi - lo` rounds.
    fn spawn_psync_phase(
        &self,
        rig: &Lan,
        (conv_a, conv_b): (&Rc<psync::Conversation>, &Rc<psync::Conversation>),
        tally: &Rc<OwnerCell<Tally>>,
        lo: u32,
        hi: u32,
    ) {
        let seed = self.seed;

        // Side A: send a round, await its transform.
        let conv_a = Rc::clone(conv_a);
        let ta = Rc::clone(tally);
        let ha = rig.kernels[0].host();
        rig.sim.spawn(ha, move |ctx| {
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
                ta.lock().call_returned(got.map(|m| m.data), &want);
            }
        });

        // Side B: receive each round, verify, reply in its context.
        let conv_b = Rc::clone(conv_b);
        let tb2 = Rc::clone(tally);
        let hb = rig.kernels[1].host();
        rig.sim.spawn(hb, move |ctx| {
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
}

#[derive(Clone, Copy)]
enum RpcFlavor {
    Paper(StackDef),
    SunRpc(&'static str),
}

/// The one shape every stack's rig takes once it is built: what the runner
/// forks, arms, drives and reads, whichever testbed is behind it. Nothing in
/// it depends on a scenario's seed, profile or call count, so one rig serves
/// every scenario of its stack.
struct Rig {
    /// The warmed, quiescent instant every run starts from (and the handles
    /// on the simulation and its network).
    warm: Template,
    lan: LanId,
    tally: Rc<OwnerCell<Tally>>,
    /// Owns the testbed, so the kernels live as long as the rig.
    spawn_phase: Box<SpawnPhase>,
}

/// Spawns the processes that issue a scenario's calls (Psync: rounds)
/// `lo..hi`.
type SpawnPhase = dyn Fn(&Scenario, u32, u32);

/// Builds the two-host rig for an RPC flavor: registers the serving handler
/// and warms ARP on the quiet wire — everything up to (but not including)
/// arming the wire and spawning client processes.
fn rpc_setup(flavor: RpcFlavor, cfg: SimConfig, reg: &ProtocolRegistry) -> Rig {
    let graph = match flavor {
        RpcFlavor::Paper(def) => def.graph,
        RpcFlavor::SunRpc(g) => g,
    };
    let tb = two_hosts(cfg, reg, graph).expect("chaos testbed builds");
    let tally = Rc::new(OwnerCell::new(Tally::default()));

    // Server: a side-effecting procedure that verifies the request's
    // integrity and replies with its transform.
    let t2 = Rc::clone(&tally);
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
        RpcFlavor::SunRpc(_) => with_concrete::<SunSelect, _>(&tb.server, "sunselect", move |s| {
            s.serve(SUN_PROG, SUN_VERS, SUN_PROC, handler)
        })
        .expect("sunselect registered"),
    }

    warm_arp(&tb.sim, tb.client.host(), tb.server_ip);
    Rig {
        warm: Template::capture(&tb.sim, &tb.net),
        lan: tb.lan,
        tally: Rc::clone(&tally),
        spawn_phase: Box::new(move |sc, lo, hi| sc.spawn_rpc_clients(&tb, &tally, flavor, lo, hi)),
    }
}

/// Builds the two-party Psync rig: conversations opened on both sides and
/// ARP warmed.
fn psync_setup(cfg: SimConfig, reg: &ProtocolRegistry) -> Rig {
    let rig =
        lan_hosts(cfg, reg, "vip -> ip eth arp\npsync -> vip\n", 2).expect("psync testbed builds");
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
    let tally = Rc::new(OwnerCell::new(Tally::default()));
    Rig {
        warm: Template::capture(&rig.sim, &rig.net),
        lan: rig.lan,
        tally: Rc::clone(&tally),
        spawn_phase: Box::new(move |sc, lo, hi| {
            sc.spawn_psync_phase(&rig, (&conv_a, &conv_b), &tally, lo, hi)
        }),
    }
}

/// What this thread's rig pool has done so far (see [`pool_stats`]).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct PoolStats {
    /// Rigs built: a stack's first run on this thread, a run after its rig
    /// was given away or discarded, and every `trace`/`check`/`fuel` run.
    pub built: u64,
    /// Runs started — each one a [`Template::fork`].
    pub forked: u64,
    /// Rigs that left with a [`RunOutcome`] ([`Scenario::run_with`]).
    pub given_away: u64,
    /// Rigs a [`Scenario::run`] did not put back: the run ended with a
    /// process blocked or the simulation otherwise not quiescent, so they
    /// were killed off and dropped and the next run rebuilds.
    pub discarded: u64,
}

/// The rigs waiting for their stack's next [`Scenario::run`] on this thread,
/// at most one a stack, and the counters. A rig is in here or owned by
/// exactly one run or outcome, never both.
#[derive(Default)]
struct Pool {
    rigs: Vec<(&'static str, Rig)>,
    stats: PoolStats,
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::default();
}

/// This thread's pool counters: whether something rebuilds a rig for every
/// scenario is read here, not off a profiler.
pub fn pool_stats() -> PoolStats {
    POOL.with_borrow(|p| p.stats)
}

/// Puts `rig` back for `stack`'s next run — if the run it just served left
/// it as a template can rewind it. A dirty rig never re-enters the pool: its
/// suspended processes are killed (a coroutine's stack holds the simulation
/// alive otherwise) and it is dropped.
fn check_in(stack: &'static str, rig: Rig, report: &ChaosReport) {
    let sim = rig.warm.sim();
    if report.run.blocked == 0 && sim.is_quiescent() {
        POOL.with_borrow_mut(|p| p.rigs.push((stack, rig)));
    } else {
        sim.kill_suspended();
        POOL.with_borrow_mut(|p| p.stats.discarded += 1);
    }
}

/// Outcome of a run split by [`RunOpts::snapshot_at`]: the uninterrupted
/// run and the restore-and-replay run, which must be bit-identical.
#[derive(Clone, Debug)]
pub struct SnapshotRun {
    /// Phase one + phase two, run straight through (the snapshot was
    /// taken between the phases but never used): the outcome's `report`.
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
        let r = sc.run();
        if checked {
            sc.check(&r);
        }
        r
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

    /// The body is the tag and then whole splitmix64 words cut at `len`,
    /// whatever the length; the check reads every byte of it.
    #[test]
    fn bodies_are_the_tagged_stream_and_every_byte_is_checked() {
        for tag in [0, 1, 0xdead_beef, u64::MAX] {
            for len in 0..=41 {
                let mut want = tag.to_be_bytes().to_vec();
                let mut s = tag;
                while want.len() < len {
                    want.extend_from_slice(&splitmix64(&mut s).to_be_bytes());
                }
                want.truncate(len.max(8));
                let body = body_from_tag(tag, len);
                assert_eq!(body, want, "tag {tag:#x}, len {len}");
                assert!(payload_is_intact(&body));
                for i in 0..body.len() {
                    let mut bad = body.clone();
                    bad[i] ^= 1;
                    assert!(!payload_is_intact(&bad) || i < 8, "flip at {i} of {len}");
                }
                assert!(!payload_is_intact(&body[..body.len().min(7)]));
            }
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
            let rig = sc.build(&RunOpts::default(), &fresh);
            assert_eq!(sc.run(), sc.drive(&rig, RunOpts::default()).report);
            if !seen.contains(&sc.stack.name()) {
                seen.push(sc.stack.name());
            }
        }
        assert_eq!(seen.len(), 8, "{seen:?}");
    }

    /// One scenario per stack of the matrix, in matrix order.
    fn one_scenario_per_stack() -> Vec<Scenario> {
        let mut per_stack: Vec<Scenario> = Vec::new();
        for sc in full_matrix(11, 1, 8) {
            if per_stack.last().map(|l| l.stack.name()) != Some(sc.stack.name()) {
                per_stack.push(sc);
            }
        }
        assert_eq!(per_stack.len(), 8);
        per_stack
    }

    /// What a fork has to redo, per rig: one boot-incarnation draw a host
    /// where the graph holds CHANNEL or M_RPC, nothing elsewhere — and the
    /// warm-up draws nothing on any of them (`Sim::reseed` would panic).
    #[test]
    fn a_two_host_rig_makes_one_boot_draw_per_transaction_layer() {
        for sc in one_scenario_per_stack() {
            let rig = sc.build(&RunOpts::default(), registry());
            let draws = match sc.stack {
                StackKind::SunRpcUdp | StackKind::Psync => 0,
                StackKind::Paper(_) | StackKind::SunRpcChannel => 2,
            };
            assert_eq!(rig.warm.sim().reseed(77), draws, "{}", sc.stack.name());
            assert_eq!(rig.warm.sim().seed(), 77);
        }
    }

    /// A run that ends with a process blocked never reaches the pool: the
    /// rig is killed off and freed — a parked coroutine's stack would hold
    /// the simulation alive otherwise — and the stack's next runs, on a rig
    /// built for them, are the from-scratch runs.
    #[test]
    fn a_rig_left_with_a_parked_client_is_discarded_and_freed() {
        let sc = full_matrix(21, 1, 8)[0];
        let clean = sc.run();
        let rig = sc.check_out();
        let mut report = sc.drive(&rig, RunOpts::default()).report;
        assert_eq!(report, clean);
        // Cut the next one off: a client parks on a semaphore nothing signals.
        let sim = rig.warm.sim().clone();
        sim.spawn(HostId(0), |ctx| SharedSema::new(0).p(ctx));
        report.run = sim.run_until_idle();
        assert_eq!(report.run.blocked, 1);
        assert!(!sc.invariant_failures(&report).is_empty());
        let weak = sim.downgrade();
        drop(sim);

        let before = pool_stats();
        check_in(sc.stack.name(), rig, &report);
        assert!(weak.upgrade().is_none(), "the discarded rig is freed");
        assert_eq!(
            pool_stats(),
            PoolStats {
                discarded: 1,
                ..before
            }
        );
        for seed in 0..100 {
            let sc = Scenario { seed, ..sc };
            let scratch = sc.build(&RunOpts::default(), registry());
            assert_eq!(sc.run(), sc.drive(&scratch, RunOpts::default()).report);
        }
        assert_eq!(pool_stats().built, before.built + 101);
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
        let r = sc.run();
        sc.check(&r);
        assert_eq!(r.completed, 3);
        assert_eq!(r.executed, 3);
        let client = r.run.hosts[0];
        assert_eq!(client.retransmits, 0, "quiet wire: no retransmissions");
    }
}
