//! The six workloads. Each is fixed work per round: a round does the same
//! calls on every commit, so counts repeat exactly and only the host time a
//! round takes is free to move. Why each exists is in `catalog.rs`.

use std::sync::{Arc, Mutex};

use chaos::{full_matrix, Scenario, StackKind};
use inet::testbed::TwoHosts;
use inet::with_concrete;
use simnet::LanId;
use xkernel::prelude::*;
use xkernel::sim::{SimConfig, VProc, VStep, WakeReason};
use xload::{build_rig, Hist, LatencySummary, LoadRig, LoadStack, Topology};
use xrpc::procs::{ECHO_PROC, NULL_PROC, SINK_PROC};
use xrpc::select::Select;
use xrpc::stacks::{StackDef, ALL_RPC_STACKS, L_RPC_VIP, M_RPC_ETH, M_RPC_VIP};

use crate::gen;
use crate::probe::Stopwatch;
use crate::rig::{self, Cum};
use crate::span::Tracer;

/// Calls in one span at most, so a span is long enough to time and short
/// enough to show a slow stretch.
pub const BATCH: u64 = 10_000;

/// Stretches a sub-second scheduled round is run in, with a probe between:
/// the machine's speed does not hold for a whole round (a round of seconds
/// takes four times as many).
const SLICES: u64 = 4;

/// What one round did, as the program's own public reports count it. All
/// integers: where rounds repeat the same work, `==` on two of these is the
/// determinism check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Calls whose reply was verified.
    pub calls: u64,
    /// Calls attempted that did not verify (error, wrong bytes, a broken
    /// chaos invariant, a process left blocked).
    pub failed: u64,
    /// Request payload bytes of the verified calls.
    pub payload_bytes: u64,
    /// Virtual nanoseconds the round's timed windows cover.
    pub virt_ns: u64,
    pub events: u64,
    pub fuel: u64,
    pub peak_live: u64,
    pub frames: u64,
    pub wire_busy_ns: u64,
    pub dropped: u64,
    pub duplicated: u64,
    pub corrupted: u64,
    pub retransmits: u64,
    pub timeouts: u64,
    pub dups_suppressed: u64,
    pub corrupt_rejected: u64,
    pub shepherd_peak_queue: u64,
    pub shepherd_dropped: u64,
    pub shepherd_peak_workers: u64,
    /// Wrapping sum of the `sched_hash` of every simulation the round ran
    /// from scratch (0 where rigs are kept across rounds: their hash folds
    /// in every earlier round).
    pub sched_hash: u64,
    /// Virtual latency of the verified calls.
    pub lat: LatencySummary,
}

impl Counters {
    /// Adds what a kept rig did between `before` and `after`.
    fn absorb(&mut self, before: &Cum, after: &Cum) {
        self.virt_ns += after.virt_ns - before.virt_ns;
        self.events += after.events - before.events;
        self.fuel += after.fuel - before.fuel;
        self.frames += after.lan.sent - before.lan.sent;
        self.wire_busy_ns += after.lan.busy_ns - before.lan.busy_ns;
        self.dropped += after.lan.dropped - before.lan.dropped;
        self.duplicated += after.lan.duplicated - before.lan.duplicated;
        self.corrupted += after.lan.corrupted - before.lan.corrupted;
        self.retransmits += after.retransmits - before.retransmits;
        self.timeouts += after.timeouts - before.timeouts;
        self.dups_suppressed += after.dups_suppressed - before.dups_suppressed;
        self.corrupt_rejected += after.corrupt_rejected - before.corrupt_rejected;
    }
}

/// One workload, set up and warm.
pub trait Workload {
    /// Runs one round. Round 0 is the untimed warm-up; the number only
    /// feeds the generators. The caller has started `sw`; the round splits
    /// it every few hundred milliseconds of work.
    fn round(&mut self, r: u64, tr: &mut Tracer, sw: &mut Stopwatch) -> Counters;

    /// Whether every round does identical work from an identical state, so
    /// that each must reproduce the first round's [`Counters`].
    fn rounds_repeat(&self) -> bool {
        true
    }
}

/// `(name, seconds one round takes on the box the sizes were chosen on, most
/// rounds one process can make)`.
///
/// `chaos_soak` is capped because the program never frees a simulation
/// (`Kernel` and `SimCore` hold each other): every scenario leaves about
/// four memory mappings behind, and near 16,000 scenarios the process meets
/// `vm.max_map_count` and `vproc::Stack::new` panics.
const PLAN: [(&str, f64, u64); 6] = [
    ("null_inline", 0.55, u64::MAX),
    ("null_sched", 0.82, u64::MAX),
    ("bulk_xfer", 0.70, u64::MAX),
    ("load_contended", 0.89, u64::MAX),
    ("resident_200k", 4.4, u64::MAX),
    ("chaos_soak", 0.17, 10),
];

/// Seconds one full-size round of `name` takes, nominally.
pub fn nominal_round_s(name: &str) -> f64 {
    PLAN.iter().find(|p| p.0 == name).map_or(1.0, |p| p.1)
}

/// Timed rounds of a run that is to measure for about `seconds`. The work
/// is fixed by this count, never by a clock, so both commits of a
/// comparison do the same calls; at least three, so there is a median.
pub fn rounds_for(name: &str, seconds: u64, quick: bool) -> u64 {
    if quick {
        return 3;
    }
    let cap = PLAN.iter().find(|p| p.0 == name).map_or(u64::MAX, |p| p.2);
    ((seconds as f64 / nominal_round_s(name)).round() as u64).clamp(3, cap)
}

/// Builds workload `name` from `seed`; `div` divides the round size (1 for
/// a measurement, 20 for the smoke run).
pub fn build(name: &str, seed: u64, div: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "null_inline" => Box::new(NullInline::new(seed, 50_000 / div)),
        "null_sched" => Box::new(NullSched::new(seed, 40_000 / div)),
        "bulk_xfer" => Box::new(BulkXfer::new(seed, 15_000 / div, 4_000 / div)),
        "load_contended" => Box::new(LoadContended::new(seed, 5_000 / div)),
        "resident_200k" => Box::new(Resident {
            seed,
            clients: 200_000 / div,
        }),
        "chaos_soak" => Box::new(ChaosSoak::new(seed, (25 / div).max(2))),
        _ => return None,
    })
}

/// A null reply to a null or sink call is the whole expected output.
fn is_null_reply(r: &XResult<Vec<u8>>) -> bool {
    matches!(r, Ok(bytes) if bytes.is_empty())
}

// ---------------------------------------------------------------------------

/// `null_inline`: null calls on all five stacks, inline mode.
struct NullInline {
    rigs: Vec<(StackDef, TwoHosts)>,
    calls: u64,
}

impl NullInline {
    fn new(seed: u64, calls: u64) -> NullInline {
        let reg = rig::registry();
        let rigs = ALL_RPC_STACKS
            .iter()
            .map(|s| {
                (
                    *s,
                    rig::rpc_rig(&reg, s, SimConfig::inline_mode().with_seed(seed)),
                )
            })
            .collect();
        NullInline { rigs, calls }
    }
}

impl Workload for NullInline {
    fn round(&mut self, _r: u64, tr: &mut Tracer, sw: &mut Stopwatch) -> Counters {
        let mut c = Counters::default();
        for (i, (stack, tb)) in self.rigs.iter().enumerate() {
            if i > 0 {
                sw.split();
            }
            let ctx = tb.sim.ctx(tb.client.host());
            let mut left = self.calls;
            while left > 0 {
                let n = left.min(BATCH);
                left -= n;
                let failed = tr.span("xrpc::call", stack.name, n, |_| {
                    (0..n)
                        .filter(|_| {
                            !is_null_reply(&xrpc::call(
                                &ctx,
                                &tb.client,
                                stack.entry,
                                tb.server_ip,
                                NULL_PROC,
                                Vec::new(),
                            ))
                        })
                        .count() as u64
                });
                c.calls += n - failed;
                c.failed += failed;
            }
        }
        c
    }
}

// ---------------------------------------------------------------------------

/// A scheduled two-host rig kept across rounds, with the cumulative
/// counters at the end of its last round.
struct Kept {
    name: &'static str,
    tb: TwoHosts,
    last: Cum,
}

impl Kept {
    fn new(name: &'static str, tb: TwoHosts) -> Kept {
        Kept {
            name,
            tb,
            last: Cum::default(),
        }
    }

    /// Runs `body` as the one client process of a round: `calls` calls,
    /// each returning whether it verified. Adds the outcome to `c` and the
    /// per-call virtual latencies to `hist`.
    fn client_round(
        &mut self,
        calls: u64,
        bytes_per_call: u64,
        tr: &mut Tracer,
        c: &mut Counters,
        hist: &mut Hist,
        body: impl Fn(&Ctx, &Arc<Kernel>) -> bool + Send + 'static,
    ) {
        let tb = &self.tb;
        let (done, report) = tr.span("Sim::run_until_idle", self.name, calls, |_| {
            rig::run_client(tb, move |ctx| {
                let k = ctx.kernel();
                let mut h = Hist::new();
                let mut ok = 0u64;
                for _ in 0..calls {
                    let t0 = ctx.now();
                    if body(ctx, &k) {
                        ok += 1;
                        h.record(ctx.now() - t0);
                    }
                }
                (h, ok)
            })
        });
        // A client that never finished is left blocked: none of its calls
        // count as verified.
        let ok = match done {
            Some((h, ok)) if report.blocked == 0 => {
                hist.merge(&h);
                ok
            }
            _ => 0,
        };
        c.calls += ok;
        c.failed += calls - ok;
        c.payload_bytes += ok * bytes_per_call;
        let now = Cum::of(&report, tb.net.stats(tb.lan));
        c.absorb(&self.last, &now);
        c.peak_live = c.peak_live.max(report.peak_live as u64);
        self.last = now;
    }
}

/// `null_sched`: the same null calls under the discrete-event scheduler.
struct NullSched {
    rigs: Vec<(StackDef, Kept)>,
    calls: u64,
}

impl NullSched {
    fn new(seed: u64, calls: u64) -> NullSched {
        let reg = rig::registry();
        let rigs = ALL_RPC_STACKS
            .iter()
            .map(|s| {
                let tb = rig::rpc_rig(&reg, s, SimConfig::scheduled().with_seed(seed));
                (*s, Kept::new(s.name, tb))
            })
            .collect();
        NullSched { rigs, calls }
    }
}

impl Workload for NullSched {
    fn round(&mut self, _r: u64, tr: &mut Tracer, sw: &mut Stopwatch) -> Counters {
        let mut c = Counters::default();
        let mut hist = Hist::new();
        for (i, (stack, kept)) in self.rigs.iter_mut().enumerate() {
            if i > 0 {
                sw.split();
            }
            let (entry, server) = (stack.entry, kept.tb.server_ip);
            kept.client_round(self.calls, 0, tr, &mut c, &mut hist, move |ctx, k| {
                is_null_reply(&xrpc::call(ctx, k, entry, server, NULL_PROC, Vec::new()))
            });
        }
        c.lat = hist.summary();
        c
    }
}

// ---------------------------------------------------------------------------

/// Request sizes of the throughput test.
pub const BULK_RPC_BYTES: usize = 16 * 1024;
pub const BULK_SUN_BYTES: usize = 8 * 1024;

/// `bulk_xfer`: large requests, small replies, on three stacks that
/// fragment in three different places.
struct BulkXfer {
    rpc: Vec<(StackDef, Kept)>,
    sun: Kept,
    rpc_calls: u64,
    sun_calls: u64,
    rpc_body: Vec<u8>,
    sun_body: Vec<u8>,
}

impl BulkXfer {
    fn new(seed: u64, rpc_calls: u64, sun_calls: u64) -> BulkXfer {
        let reg = rig::registry();
        let cfg = SimConfig::scheduled().with_seed(seed);
        BulkXfer {
            rpc: [M_RPC_VIP, L_RPC_VIP]
                .iter()
                .map(|s| (*s, Kept::new(s.name, rig::rpc_rig(&reg, s, cfg))))
                .collect(),
            sun: Kept::new("SUNRPC-UDP", rig::sun_rig(&reg, cfg)),
            rpc_calls,
            sun_calls,
            rpc_body: gen::payload(seed, 0, BULK_RPC_BYTES),
            sun_body: gen::payload(seed, 1, BULK_SUN_BYTES),
        }
    }
}

impl Workload for BulkXfer {
    fn round(&mut self, _r: u64, tr: &mut Tracer, sw: &mut Stopwatch) -> Counters {
        let mut c = Counters::default();
        let mut hist = Hist::new();
        for (stack, kept) in &mut self.rpc {
            let (entry, server) = (stack.entry, kept.tb.server_ip);
            let body = self.rpc_body.clone();
            kept.client_round(
                self.rpc_calls,
                BULK_RPC_BYTES as u64,
                tr,
                &mut c,
                &mut hist,
                move |ctx, k| {
                    is_null_reply(&xrpc::call(ctx, k, entry, server, SINK_PROC, body.clone()))
                },
            );
            sw.split();
        }
        let server = self.sun.tb.server_ip;
        let body = self.sun_body.clone();
        let want = rig::digest(&body);
        self.sun.client_round(
            self.sun_calls,
            BULK_SUN_BYTES as u64,
            tr,
            &mut c,
            &mut hist,
            move |ctx, _k| {
                matches!(rig::sun_call(ctx, server, body.clone()), Ok(reply) if reply == want)
            },
        );
        c.lat = hist.summary();
        c
    }
}

// ---------------------------------------------------------------------------

/// Registers the echo procedure on a load rig's server and makes one call
/// from every client host on the quiet wire, one host at a time: ARP and
/// session state are boot-time work, not load.
fn serve_echo_and_warm(rig: &LoadRig, stack: &StackDef) {
    let entry = stack.entry;
    xrpc::serve(&rig.server, entry, ECHO_PROC, |_ctx, msg| Ok(msg)).expect("echo registers");
    for k in &rig.clients {
        let server = rig.server_ip;
        rig.sim.spawn(k.host(), move |ctx| {
            xrpc::call(ctx, &ctx.kernel(), entry, server, ECHO_PROC, vec![0; 8])
                .expect("warm-up call on the quiet wire");
        });
        assert_eq!(rig.sim.run_until_idle().blocked, 0, "warm-up drains");
    }
}

/// Client hosts, client processes and mean think time of `load_contended`:
/// about 80 % of the offered load at which retransmissions collapse this
/// segment (see the README before changing any of them).
const LOAD_HOSTS: usize = 8;
const LOAD_CLIENTS: u64 = 24;
const LOAD_THINK_NS: u64 = 40_000_000;
const LOAD_BYTES: usize = 64;

/// `load_contended`: many clients with random think times against a
/// bounded shepherd pool on one shared segment.
struct LoadContended {
    rig: LoadRig,
    seed: u64,
    calls_per_client: usize,
    last: Cum,
    last_shepherd_dropped: u64,
}

impl LoadContended {
    fn new(seed: u64, calls_per_client: u64) -> LoadContended {
        let rig = build_rig(
            Topology::Segment { hosts: LOAD_HOSTS },
            LoadStack::Paper(L_RPC_VIP),
            "shepherds=4 pending=64 policy=drop",
            seed,
            false,
        )
        .expect("load testbed builds");
        serve_echo_and_warm(&rig, &L_RPC_VIP);
        let last = Cum::of(&rig.sim.run_until_idle(), rig.net.stats(LanId(0)));
        LoadContended {
            rig,
            seed,
            calls_per_client: calls_per_client as usize,
            last,
            last_shepherd_dropped: 0,
        }
    }
}

impl Workload for LoadContended {
    fn round(&mut self, r: u64, tr: &mut Tracer, sw: &mut Stopwatch) -> Counters {
        let n = self.calls_per_client;
        let total = LOAD_CLIENTS * n as u64;
        type Slot = Arc<Mutex<Option<(Hist, u64)>>>;
        let slots: Vec<Slot> = (0..LOAD_CLIENTS).map(|_| Slot::default()).collect();
        for (client, slot) in slots.iter().enumerate() {
            let think = gen::think_times(self.seed, client as u64, r, n, LOAD_THINK_NS);
            let body = gen::payload(self.seed, client as u64, LOAD_BYTES);
            let server = self.rig.server_ip;
            let slot = Arc::clone(slot);
            let host = self.rig.clients[client % LOAD_HOSTS].host();
            self.rig.sim.spawn(host, move |ctx| {
                let k = ctx.kernel();
                let mut h = Hist::new();
                let mut ok = 0u64;
                for (i, &t) in think.iter().enumerate() {
                    ctx.sleep(t);
                    // The call number rides in the request, so a reply
                    // that answers another call cannot pass for this one.
                    let mut req = body.clone();
                    req[..8].copy_from_slice(&(i as u64).to_le_bytes());
                    let t0 = ctx.now();
                    let reply = xrpc::call(ctx, &k, L_RPC_VIP.entry, server, ECHO_PROC, req);
                    let echoed = matches!(&reply, Ok(rep) if rep.len() == LOAD_BYTES
                        && rep[..8] == (i as u64).to_le_bytes()
                        && rep[8..] == body[8..]);
                    if echoed {
                        ok += 1;
                        h.record(ctx.now() - t0);
                    }
                }
                *slot.lock().expect("no panic holds the slot") = Some((h, ok));
            });
        }
        // A client's round is about `n` think times and calls long; run
        // it in stretches with a probe between, then to the end.
        let sim = &self.rig.sim;
        let (start, span_ns) = (self.last.virt_ns, n as u64 * LOAD_THINK_NS);
        let report = tr.span("Sim::run_until_idle", "L_RPC-VIP", total, |_| {
            for slice in 1..SLICES {
                sim.run_until_time(start + span_ns * slice / SLICES);
                sw.split();
            }
            sim.run_until_idle()
        });

        let mut c = Counters::default();
        let mut hist = Hist::new();
        for slot in &slots {
            // A client left blocked never filled its slot.
            if let Some((h, ok)) = slot.lock().expect("no panic holds the slot").take() {
                hist.merge(&h);
                c.calls += ok;
            }
        }
        c.failed = total - c.calls;
        c.payload_bytes = c.calls * LOAD_BYTES as u64;
        c.lat = hist.summary();
        let now = Cum::of(&report, self.rig.net.stats(LanId(0)));
        c.absorb(&self.last, &now);
        self.last = now;
        c.peak_live = report.peak_live as u64;
        let pool =
            with_concrete::<Select, _>(&self.rig.server, L_RPC_VIP.entry, |s| s.shepherd_stats())
                .expect("select registered");
        c.shepherd_peak_queue = pool.peak_queue;
        c.shepherd_peak_workers = pool.peak_workers;
        c.shepherd_dropped = pool.dropped - self.last_shepherd_dropped;
        self.last_shepherd_dropped = pool.dropped;
        c
    }

    /// The rig is kept warm and every round thinks differently.
    fn rounds_repeat(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------

/// Offered load of `resident_200k`, calls per virtual second. Stagger and
/// think time are `clients / RESIDENT_CPS`, which keeps the calls in flight
/// (each owns a coroutine stack) few at any population.
const RESIDENT_CPS: u64 = 800;
const RESIDENT_HOSTS: usize = 32;
const RESIDENT_CALLS: u32 = 2;
const RESIDENT_BYTES: usize = 8;

/// `resident_200k`: a large resident population of stackless client
/// machines, each in a slow closed loop.
///
/// This is `xload::MClientSpec::run` written out over the same public
/// pieces — `build_rig`, one persistent `VProc` machine per client, one
/// transient coroutine per call in flight — because that function runs to
/// completion in one go, and this workload has to stop for probes.
struct Resident {
    seed: u64,
    clients: u64,
}

/// What the clients of one host have seen.
#[derive(Default)]
struct HostTally {
    hist: Hist,
    ok: u64,
}

/// Where a client machine is between blocking points.
enum Phase {
    /// Spawned; has not yet slept its start offset.
    Start,
    /// A timer fired: make the next call.
    Fire,
    /// The call in flight has signalled `done`.
    Reap,
}

struct ClientMachine {
    phase: Phase,
    remaining: u32,
    offset_ns: u64,
    think_ns: u64,
    server: IpAddr,
    tally: Arc<Mutex<HostTally>>,
    done: SharedSema,
}

impl VProc for ClientMachine {
    fn resume(&mut self, ctx: &Ctx, _why: WakeReason) -> VStep {
        match self.phase {
            Phase::Start => {
                self.phase = Phase::Fire;
                VStep::Sleep(self.offset_ns)
            }
            Phase::Fire => {
                self.remaining -= 1;
                // The call blocks inside the protocol graph, so it needs a
                // stack: a coroutine that lives only while the call does.
                let (server, tally, done) =
                    (self.server, Arc::clone(&self.tally), self.done.clone());
                ctx.spawn_on(ctx.host(), move |cctx| {
                    let req = vec![0xa5u8; RESIDENT_BYTES];
                    let t0 = cctx.now();
                    let reply = xrpc::call(
                        cctx,
                        &cctx.kernel(),
                        M_RPC_ETH.entry,
                        server,
                        ECHO_PROC,
                        req,
                    );
                    if matches!(&reply, Ok(rep) if rep[..] == [0xa5u8; RESIDENT_BYTES]) {
                        let mut t = tally.lock().expect("no panic holds the tally");
                        t.ok += 1;
                        t.hist.record(cctx.now() - t0);
                    }
                    done.v(cctx);
                });
                self.phase = Phase::Reap;
                VStep::Wait {
                    sema: self.done.clone(),
                    timeout: None,
                }
            }
            Phase::Reap if self.remaining == 0 => VStep::Done,
            Phase::Reap => {
                self.phase = Phase::Fire;
                VStep::Sleep(self.think_ns)
            }
        }
    }
}

impl Workload for Resident {
    fn round(&mut self, r: u64, tr: &mut Tracer, sw: &mut Stopwatch) -> Counters {
        // The warm-up holds a tenth of the population: it pages in the code
        // and grows the allocator's arenas without costing a timed round.
        let clients = if r == 0 {
            self.clients / 10
        } else {
            self.clients
        };
        let spread_ns = clients * 1_000_000_000 / RESIDENT_CPS;
        let total = clients * u64::from(RESIDENT_CALLS);

        let rig = build_rig(
            Topology::Segment {
                hosts: RESIDENT_HOSTS,
            },
            LoadStack::Paper(M_RPC_ETH),
            "shepherds=8 pending=1024 policy=reject",
            self.seed,
            false,
        )
        .expect("resident testbed builds");
        serve_echo_and_warm(&rig, &M_RPC_ETH);

        // Parking the population charges every host a process switch per
        // machine, so a start offset inside that drift would already be in
        // its host's past and the staggered first calls would arrive as one
        // burst. Lead the window past it (as `xload::mclient` does).
        let cost = rig.sim.cost();
        let per_host = clients.div_ceil(RESIDENT_HOSTS as u64);
        let lead_ns = per_host * (cost.proc_switch + cost.sema_op) * 2;
        let tallies: Vec<Arc<Mutex<HostTally>>> =
            (0..RESIDENT_HOSTS).map(|_| Arc::default()).collect();
        tr.span("Sim::spawn_vproc", "M_RPC-ETH", clients, |_| {
            for i in 0..clients {
                let h = i as usize % RESIDENT_HOSTS;
                let machine = ClientMachine {
                    phase: Phase::Start,
                    remaining: RESIDENT_CALLS,
                    offset_ns: lead_ns + i * spread_ns / clients,
                    think_ns: spread_ns,
                    server: rig.server_ip,
                    tally: Arc::clone(&tallies[h]),
                    done: SharedSema::new(0),
                };
                rig.sim
                    .spawn_vproc(rig.clients[h].host(), Box::new(machine));
            }
        });
        // First calls fill one spread, second calls the next.
        let horizon = lead_ns + u64::from(RESIDENT_CALLS) * spread_ns;
        // The short warm-up needs no probes inside it.
        let slices = if r == 0 { 1 } else { 4 * SLICES };
        let report = tr.span("Sim::run_until_time", "M_RPC-ETH", total, |_| {
            for slice in 1..=slices {
                sw.split();
                rig.sim.run_until_time(horizon * slice / slices);
            }
            sw.split();
            rig.sim.run_until_idle()
        });

        let mut c = Counters::default();
        let mut hist = Hist::new();
        for t in &tallies {
            let t = t.lock().expect("no panic holds the tally");
            hist.merge(&t.hist);
            c.calls += t.ok;
        }
        // Machines left blocked never made their calls: those count too.
        c.failed = total - c.calls;
        c.payload_bytes = c.calls * RESIDENT_BYTES as u64;
        c.lat = hist.summary();
        c.absorb(&Cum::default(), &Cum::of(&report, rig.net.stats(LanId(0))));
        c.peak_live = report.peak_live as u64;
        c.sched_hash = report.sched_hash;
        c
    }
}

// ---------------------------------------------------------------------------

/// Calls per chaos scenario.
const CHAOS_CALLS: u32 = 8;

/// `chaos_soak`: the whole stack × fault-profile matrix, every scenario a
/// fresh simulation.
struct ChaosSoak {
    scenarios: Vec<Scenario>,
    seeds_per_cell: usize,
}

impl ChaosSoak {
    fn new(seed: u64, seeds_per_cell: u64) -> ChaosSoak {
        // Cells take consecutive seeds from the base, so bases a thousand
        // apart never share a scenario.
        let mut scenarios = full_matrix(seed.wrapping_mul(1000), seeds_per_cell, CHAOS_CALLS);
        // REQUEST_REPLY gives up after seven attempts, so under random loss
        // a call fails by design once in a few thousand scenarios (2 of the
        // first 106 seed bases held one), and a benchmark's operations may
        // not fail. SUNRPC-UDP keeps its lossless profiles, where delay and
        // duplication still drive its retransmit and duplicate paths.
        scenarios
            .retain(|sc| !matches!(sc.stack, StackKind::SunRpcUdp) || sc.profile.is_lossless());
        ChaosSoak {
            scenarios,
            seeds_per_cell: seeds_per_cell as usize,
        }
    }
}

impl Workload for ChaosSoak {
    fn round(&mut self, r: u64, tr: &mut Tracer, _sw: &mut Stopwatch) -> Counters {
        let mut c = Counters::default();
        // `full_matrix` orders by stack, then profile, then seed: one chunk
        // is one cell.
        // The warm-up runs a fifth of each cell: scenarios are rationed
        // (see `PLAN`), and the timed rounds need them.
        let take = match r {
            0 => self.seeds_per_cell.div_ceil(5),
            _ => self.seeds_per_cell,
        };
        for cell in self.scenarios.chunks(self.seeds_per_cell) {
            let cell = &cell[..take];
            let calls = cell.len() as u64 * u64::from(CHAOS_CALLS);
            tr.span("Scenario::run", cell[0].stack.name(), calls, |_| {
                for sc in cell {
                    let rep = sc.run();
                    let broken = !sc.invariant_failures(&rep).is_empty();
                    let attempted = u64::from(rep.attempted);
                    // A scenario that breaks an invariant without losing a
                    // call (a duplicate execution, say) still counts one.
                    let failed = match attempted - u64::from(rep.completed) {
                        0 if broken => 1,
                        lost => lost,
                    };
                    c.calls += attempted - failed;
                    c.failed += failed;
                    let cum = Cum::of(&rep.run, rep.lan);
                    c.absorb(&Cum::default(), &cum);
                    c.peak_live = c.peak_live.max(rep.run.peak_live as u64);
                    c.sched_hash = c.sched_hash.wrapping_add(rep.run.sched_hash);
                }
            });
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::LanStats;

    #[test]
    fn rounds_follow_seconds_within_their_limits() {
        assert_eq!(rounds_for("null_inline", 10, false), 18);
        assert_eq!(
            rounds_for("null_inline", 1, false),
            3,
            "never fewer than three"
        );
        assert_eq!(rounds_for("resident_200k", 10, false), 3);
        assert_eq!(rounds_for("chaos_soak", 10, false), 10);
        assert_eq!(rounds_for("chaos_soak", 60, false), 10, "the leak's cap");
        assert_eq!(rounds_for("bulk_xfer", 60, true), 3, "the smoke run");
    }

    #[test]
    fn absorb_adds_the_difference_of_two_instants() {
        let at = |events, virt_ns, sent, busy_ns, retransmits| Cum {
            events,
            virt_ns,
            lan: LanStats {
                sent,
                busy_ns,
                ..LanStats::default()
            },
            retransmits,
            ..Cum::default()
        };
        let (before, after) = (at(10, 0, 4, 0, 1), at(25, 1_000, 9, 70, 3));
        let mut c = Counters::default();
        c.absorb(&before, &after);
        c.absorb(&before, &after);
        assert_eq!(
            (c.events, c.virt_ns, c.frames, c.wire_busy_ns, c.retransmits),
            (30, 2_000, 10, 140, 4)
        );
    }
}
