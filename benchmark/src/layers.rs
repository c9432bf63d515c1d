//! The per-layer ledger that does not depend on the workload under trace:
//! each layer's public functions timed and allocation-counted from here,
//! and Table III's rule — a layer costs what its stack prefix costs more
//! than the prefix beneath it — applied to host nanoseconds.
//!
//! Batches are interleaved round-robin and the statistic is the median over
//! rounds, as for the workloads.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use chaos::{run_matrix, Profile, Scenario, StackKind};
use inet::testbed::{two_hosts, TwoHosts};
use xkernel::graph::ProtocolRegistry;
use xkernel::msg::Message;
use xkernel::prelude::*;
use xkernel::sim::{SimConfig, VProc, VStep, WakeReason};
use xload::topo::SUN_GRAPH;
use xload::Hist;
use xrpc::procs::{NULL_PROC, SINK_PROC};
use xrpc::stacks::{
    StackDef, ALL_RPC_STACKS, L_RPC_VIP, L_RPC_VIPSIZE, M_RPC_ETH, M_RPC_IP, M_RPC_VIP,
    TABLE3_STACKS,
};

use crate::alloc::counting;
use crate::catalog::RUNGS;
use crate::probe::Stopwatch;
use crate::rig;
use crate::span::Tracer;
use crate::stats::median;
use crate::workloads::{BATCH, BULK_RPC_BYTES, BULK_SUN_BYTES};

/// Samples per metric, one per round.
#[derive(Default)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: impl Into<String>, v: f64) {
        self.0.entry(name.into()).or_default().push(v);
    }

    /// Multiplies the newest sample of every metric that has more samples
    /// than `before` says it had: those are the host times taken since.
    fn scale_since(&mut self, before: &BTreeMap<String, usize>, by: f64) {
        for (name, v) in &mut self.0 {
            if v.len() > before.get(name).copied().unwrap_or(0) {
                *v.last_mut().expect("non-empty") *= by;
            }
        }
    }

    fn lens(&self) -> BTreeMap<String, usize> {
        self.0.iter().map(|(k, v)| (k.clone(), v.len())).collect()
    }

    fn set(&mut self, name: impl Into<String>, v: f64) {
        self.0.insert(name.into(), vec![v]);
    }

    fn med(&self, name: &str) -> f64 {
        median(
            self.0
                .get(name)
                .unwrap_or_else(|| panic!("{name} was sampled")),
        )
    }

    /// The median of every sampled metric.
    pub fn medians(&self) -> BTreeMap<String, f64> {
        self.0.iter().map(|(k, v)| (k.clone(), median(v))).collect()
    }
}

/// Outcome of the ledger: the metrics, and how many operations were
/// checked along the way.
pub struct Ledger {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// How one ladder rung makes a round trip.
#[derive(Clone, Copy)]
enum Trip {
    /// `Pinger::rtt` over a stack prefix.
    Ping,
    /// `xrpc::call` on a whole RPC stack: the null procedure for an empty
    /// request, the sink for any other; a null reply either way.
    Rpc(&'static str),
    /// `SunSelect::call` of the digest sink.
    Sun,
}

impl Trip {
    fn api(self) -> &'static str {
        match self {
            Trip::Ping => "Pinger::rtt",
            Trip::Rpc(_) => "xrpc::call",
            Trip::Sun => "SunSelect::call",
        }
    }

    /// `n` round trips carrying `body` from `ctx`; returns how many failed
    /// to verify.
    fn make(self, ctx: &Ctx, client: &Arc<Kernel>, server: IpAddr, body: &[u8], n: u64) -> u64 {
        let digest = rig::digest(body);
        let proc_id = if body.is_empty() {
            NULL_PROC
        } else {
            SINK_PROC
        };
        (0..n)
            .filter(|_| {
                let reply = match self {
                    Trip::Ping => rig::ping(ctx, client, server),
                    Trip::Rpc(entry) => {
                        xrpc::call(ctx, client, entry, server, proc_id, body.to_vec())
                    }
                    Trip::Sun => rig::sun_call(ctx, server, body.to_vec()),
                };
                let want: &[u8] = if matches!(self, Trip::Sun) {
                    &digest
                } else {
                    &[]
                };
                !matches!(reply, Ok(bytes) if bytes == want)
            })
            .count() as u64
    }

    /// The same from a client process of its own on the scheduled rig `tb`.
    /// A process left blocked fails all `n`.
    fn make_scheduled(self, tb: &TwoHosts, n: u64) -> u64 {
        let (client, server) = (Arc::clone(&tb.client), tb.server_ip);
        let (bad, report) = rig::run_client(tb, move |ctx| self.make(ctx, &client, server, &[], n));
        match bad {
            Some(bad) if report.blocked == 0 => bad,
            _ => n,
        }
    }
}

struct Rung {
    name: &'static str,
    trip: Trip,
    inline: TwoHosts,
    /// The same stack under the scheduler, where the ledger needs the
    /// engine's share.
    sched: Option<TwoHosts>,
}

/// Calls made before a virtual-time window opens (ARP, sessions, caches),
/// as `xbench`'s tables make them.
const VIRT_WARM: u64 = 8;

/// A VProc machine that sleeps `left` more times, `period` apart.
struct Sleeper {
    left: u32,
    period: u64,
}

impl VProc for Sleeper {
    fn resume(&mut self, _ctx: &Ctx, _why: WakeReason) -> VStep {
        if self.left == 0 {
            return VStep::Done;
        }
        self.left -= 1;
        VStep::Sleep(self.period)
    }
}

/// A scheduled simulation with one host and no protocols.
fn bare_sim() -> (Sim, HostId) {
    let sim = Sim::new(SimConfig::scheduled());
    let host = Kernel::new(&sim, "bare").host();
    (sim, host)
}

/// Everything the ledger keeps between rounds.
pub struct Layers {
    reg: ProtocolRegistry,
    seed: u64,
    rungs: Vec<Rung>,
    /// `(rung, request)` of the large-message slope.
    bulk: [(&'static str, Vec<u8>); 3],
    samples: Samples,
    rounds_done: u64,
    attempted: u64,
    failed: u64,
}

impl Layers {
    pub fn new(seed: u64) -> Layers {
        let reg = rig::registry();
        let inline = SimConfig::inline_mode().with_seed(seed);
        let sched = SimConfig::scheduled().with_seed(seed);
        let ping = |graph: &str, lower: &str, cfg| rig::pinger_rig(&reg, graph, lower, cfg);
        let rpc = |s: &StackDef, cfg| rig::rpc_rig(&reg, s, cfg);
        let rpc_rung = |name, s: &StackDef| Rung {
            name,
            trip: Trip::Rpc(s.entry),
            inline: rpc(s, inline),
            sched: Some(rpc(s, sched)),
        };
        let [vip, fragment, channel, _select] = TABLE3_STACKS;
        let ping_rung = |name, (_, graph, lower): (&str, &str, &str), with_sched: bool| Rung {
            name,
            trip: Trip::Ping,
            inline: ping(graph, lower, inline),
            sched: with_sched.then(|| ping(graph, lower, sched)),
        };
        let rungs = vec![
            ping_rung("ip", ("", "", "ip"), false),
            ping_rung("vip", vip, true),
            ping_rung("fragment", fragment, false),
            ping_rung("channel", channel, false),
            rpc_rung("select", &L_RPC_VIP),
            rpc_rung("vipsize", &L_RPC_VIPSIZE),
            rpc_rung("mrpc_eth", &M_RPC_ETH),
            rpc_rung("mrpc_ip", &M_RPC_IP),
            rpc_rung("mrpc_vip", &M_RPC_VIP),
            Rung {
                name: "sunrpc_udp",
                trip: Trip::Sun,
                inline: rig::sun_rig(&reg, inline),
                sched: None,
            },
        ];
        assert!(rungs.iter().map(|r| r.name).eq(RUNGS), "catalogue order");

        let big = |tag, len| crate::gen::payload(seed, tag, len);
        let bulk = [
            ("select", big(0, BULK_RPC_BYTES)),
            ("mrpc_vip", big(0, BULK_RPC_BYTES)),
            ("sunrpc_udp", big(1, BULK_SUN_BYTES)),
        ];

        let mut me = Layers {
            reg,
            seed,
            rungs,
            bulk,
            samples: Samples::default(),
            rounds_done: 0,
            attempted: 0,
            failed: 0,
        };
        // One round trip everywhere first: ARP and sessions are boot-time.
        for i in 0..me.rungs.len() {
            me.rung_batch(i, false, &[], 1, &mut Tracer::new(false));
            if me.rungs[i].sched.is_some() {
                me.rung_batch(i, true, &[], 1, &mut Tracer::new(false));
            }
        }
        me
    }

    /// Times `ops` operations done by `f`, inside a span, and returns
    /// nanoseconds per operation.
    fn timed<R>(
        tr: &mut Tracer,
        api: &'static str,
        label: &'static str,
        ops: u64,
        f: impl FnOnce() -> R,
    ) -> (f64, R) {
        tr.span(api, label, ops, |_| {
            let t0 = Instant::now();
            let r = f();
            (t0.elapsed().as_nanos() as f64 / ops as f64, r)
        })
    }

    fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// One batch of `n` round trips carrying `body` on rung `i`, inline or
    /// (an empty `body` only) scheduled; returns ns per round trip.
    fn rung_batch(&mut self, i: usize, sched: bool, body: &[u8], n: u64, tr: &mut Tracer) -> f64 {
        let r = &self.rungs[i];
        let trip = r.trip;
        let (ns, failed) = if sched {
            let tb = r.sched.as_ref().expect("rung has a scheduled rig");
            Self::timed(tr, "Sim::run_until_idle", r.name, n, || {
                trip.make_scheduled(tb, n)
            })
        } else {
            let tb = &r.inline;
            let ctx = tb.sim.ctx(tb.client.host());
            Self::timed(tr, trip.api(), r.name, n, || {
                trip.make(&ctx, &tb.client, tb.server_ip, body, n)
            })
        };
        self.tally(n, failed);
        ns
    }

    /// One interleaved round of every host-time measurement. Each group is
    /// timed between two probes and its samples scaled to the reference
    /// speed, as the end-to-end times are.
    pub fn round(&mut self, tr: &mut Tracer, sw: &mut Stopwatch) {
        type Group = fn(&mut Layers, &mut Tracer);
        let groups: [Group; 4] = [
            Layers::ladder,
            |me, tr| {
                me.bulk_slope(tr);
                me.msg(tr);
            },
            Layers::sim,
            |me, tr| {
                me.graph(tr);
                me.chaos(tr);
                me.observers(tr);
                me.hist(tr);
            },
        ];
        for group in groups {
            let before = self.samples.lens();
            sw.start();
            group(self, tr);
            let lap = sw.stop();
            self.samples.scale_since(&before, lap.scaled_s / lap.raw_s);
        }
        self.rounds_done += 1;
    }

    fn ladder(&mut self, tr: &mut Tracer) {
        for i in 0..self.rungs.len() {
            let name = self.rungs[i].name;
            let ns = self.rung_batch(i, false, &[], BATCH, tr);
            self.samples.push(format!("ladder.{name}.ns_per_rt"), ns);
            if self.rungs[i].sched.is_some() {
                let ns = self.rung_batch(i, true, &[], BATCH / 2, tr);
                self.samples.push(format!("sched.{name}"), ns);
            }
        }
    }

    fn bulk_slope(&mut self, tr: &mut Tracer) {
        for (rung, body) in self.bulk.clone() {
            let i = RUNGS
                .iter()
                .position(|r| *r == rung)
                .expect("a catalogued rung");
            let ns = self.rung_batch(i, false, &body, BATCH / 10, tr);
            self.samples.push(format!("bulk.{rung}"), ns);
        }
    }

    fn msg(&mut self, tr: &mut Tracer) {
        const N: u64 = 20_000;
        let (ns, ()) = Self::timed(tr, "Message::push_header", "hdr5", N, || {
            for _ in 0..N {
                black_box(hdr5());
            }
        });
        self.samples.push("msg.hdr5.ns", ns);

        const M: u64 = 2_000;
        let base = Message::from_user(vec![0xa5; BULK_RPC_BYTES]);
        let (ns, bad) = Self::timed(tr, "Message::split_off", "frag16k", M, || {
            (0..M)
                .filter(|_| black_box(frag16k(&base)).len() != BULK_RPC_BYTES)
                .count() as u64
        });
        self.samples.push("msg.frag16k.ns", ns);
        self.tally(M, bad);

        let rope = cksum_rope();
        let want = {
            let flat = rope.to_vec();
            internet_checksum(&[&flat])
        };
        let (ns, bad) = Self::timed(tr, "ChecksumAcc::add_message", "cksum1500", N, || {
            (0..N)
                .filter(|_| {
                    let mut acc = ChecksumAcc::new();
                    acc.add_message(black_box(&rope));
                    acc.finish() != want
                })
                .count() as u64
        });
        self.samples.push("msg.cksum1500.ns", ns);
        self.tally(N, bad);
    }

    fn sim(&mut self, tr: &mut Tracer) {
        // K coroutines looping `ctx.sleep`, periods a few ns apart so the
        // heap order keeps changing.
        for (k, sleeps, name) in [
            (2u64, 10_000u64, "sim.sleep.ns_per_event.k2"),
            (256, 80, "sim.sleep.ns_per_event.k256"),
        ] {
            let (sim, host) = bare_sim();
            for i in 0..k {
                sim.spawn(host, move |ctx| {
                    for _ in 0..sleeps {
                        ctx.sleep(1_000 + i);
                    }
                });
            }
            let (ns, report) = Self::timed(tr, "Sim::run_until_idle", "sleep", k * sleeps, || {
                sim.run_until_idle()
            });
            self.samples
                .push(name, ns * (k * sleeps) as f64 / report.events as f64);
            self.tally(k, report.blocked as u64);
        }

        // 65,536 stackless machines, three sleeps each.
        const MACHINES: u64 = 65_536;
        let (sim, host) = bare_sim();
        let (ns, ()) = Self::timed(tr, "Sim::spawn_vproc", "k64k", MACHINES, || {
            for i in 0..MACHINES {
                let m = Sleeper {
                    left: 3,
                    period: 1_000_000 + i * 7,
                };
                sim.spawn_vproc(host, Box::new(m));
            }
        });
        self.samples.push("sim.machine.spawn_ns", ns);
        let (ns, report) = Self::timed(tr, "Sim::run_until_idle", "k64k", MACHINES * 4, || {
            sim.run_until_idle()
        });
        self.samples.push(
            "sim.machine.ns_per_event.k64k",
            ns * (MACHINES * 4) as f64 / report.events as f64,
        );
        self.tally(MACHINES, report.blocked as u64);

        // Two coroutines handing a token back and forth.
        const HANDOFFS: u64 = 10_000;
        let (sim, host) = bare_sim();
        let (ping, pong) = (SharedSema::new(0), SharedSema::new(0));
        let (ping2, pong2) = (ping.clone(), pong.clone());
        sim.spawn(host, move |ctx| {
            for _ in 0..HANDOFFS {
                ping.v(ctx);
                pong.p(ctx);
            }
        });
        sim.spawn(host, move |ctx| {
            for _ in 0..HANDOFFS {
                ping2.p(ctx);
                pong2.v(ctx);
            }
        });
        let (ns, report) = Self::timed(tr, "Sema::p", "handoff", 2 * HANDOFFS, || {
            sim.run_until_idle()
        });
        self.samples.push("sim.sema.ns_per_handoff", ns);
        self.tally(2, report.blocked as u64);

        // Spawn, run, exit: the coroutine stack comes from the pool.
        const SPAWNS: u64 = 5_000;
        let (sim, host) = bare_sim();
        let (ns, report) = Self::timed(tr, "Sim::spawn", "spawn", SPAWNS, || {
            for _ in 0..SPAWNS {
                sim.spawn(host, |ctx| ctx.charge(1));
            }
            sim.run_until_idle()
        });
        self.samples.push("sim.spawn.ns", ns);
        self.tally(SPAWNS, report.blocked as u64);
    }

    fn graph(&mut self, tr: &mut Tracer) {
        const N: u64 = 200;
        for (name, extra) in [
            ("graph.build_us.l_rpc_vip", L_RPC_VIP.graph),
            ("graph.build_us.sunrpc_udp", SUN_GRAPH),
        ] {
            // Everything `build` needs, made outside the timed call.
            let blanks: Vec<_> = (0..N)
                .map(|_| {
                    let sim = Sim::new(SimConfig::inline_mode());
                    let net = simnet::SimNet::new(&sim);
                    let lan = net.add_lan(simnet::LanConfig::default());
                    let k = Kernel::new(&sim, "host0");
                    net.attach(&k, lan, "nic0", EthAddr::from_index(1))
                        .expect("nic attaches");
                    (sim, k)
                })
                .collect();
            let spec = format!("{}{extra}", inet::standard_graph("nic0", "10.0.0.1"));
            let reg = &self.reg;
            let (ns, bad) = Self::timed(tr, "ProtocolRegistry::build", "graph", N, || {
                blanks
                    .iter()
                    .filter(|(sim, k)| reg.build(sim, k, &spec).is_err())
                    .count() as u64
            });
            self.samples.push(name, ns / 1e3);
            self.tally(N, bad);
        }
        let reg = &self.reg;
        let (ns, bad) = Self::timed(tr, "two_hosts", "L_RPC-VIP", N, || {
            (0..N)
                .filter(|_| two_hosts(SimConfig::inline_mode(), reg, L_RPC_VIP.graph).is_err())
                .count() as u64
        });
        self.samples.push("graph.rig_us.two_hosts", ns / 1e3);
        self.tally(N, bad);
    }

    fn chaos(&mut self, tr: &mut Tracer) {
        const N: u64 = 20;
        let round = self.rounds_done;
        for profile in Profile::ALL {
            let name = format!("chaos.us_per_scenario.{profile:?}").to_lowercase();
            let cell: Vec<Scenario> = (0..N)
                .map(|i| Scenario {
                    stack: StackKind::Paper(L_RPC_VIP),
                    profile,
                    seed: self.seed.wrapping_mul(1000).wrapping_add(round * N + i),
                    calls: 8,
                    population: 1,
                })
                .collect();
            let (ns, bad) = Self::timed(tr, "Scenario::run", "L_RPC-VIP", N, || {
                cell.iter()
                    .filter(|sc| !sc.invariant_failures(&sc.run()).is_empty())
                    .count() as u64
            });
            self.samples.push(name, ns / 1e3);
            self.tally(N, bad);
        }
    }

    fn observers(&mut self, tr: &mut Tracer) {
        // A fresh rig per batch and few calls: the checker's cost per call
        // grows with every call a simulation has made (these 400 cost 19
        // times what they do unchecked, the 4,000th on a kept rig a thousand
        // times), so the ratio only means something at a stated size from a
        // stated state.
        const N: u64 = 400;
        let sched = SimConfig::scheduled().with_seed(self.seed);
        for (name, cfg) in [
            ("off", sched),
            ("trace", sched.with_trace()),
            ("check", sched.with_check()),
            ("journal", sched),
        ] {
            let tb = rig::rpc_rig(&self.reg, &L_RPC_VIP, cfg);
            if name == "journal" {
                tb.sim.journal_enable();
            }
            let (ns, failed) = Self::timed(tr, "Sim::run_until_idle", name, N, || {
                Trip::Rpc(L_RPC_VIP.entry).make_scheduled(&tb, N)
            });
            self.samples.push(format!("observer.{name}"), ns);
            self.tally(N, failed);
        }
    }

    fn hist(&mut self, tr: &mut Tracer) {
        const N: u64 = 200_000;
        let mut h = Hist::new();
        let (ns, ()) = Self::timed(tr, "Hist::record", "hist", N, || {
            let mut v = 1_700_000u64;
            for _ in 0..N {
                // A cheap walk over two octaves of plausible latencies.
                v = 1_000_000 + (v.wrapping_mul(6_364_136_223_846_793_005) >> 43);
                h.record(black_box(v));
            }
        });
        black_box(h.count());
        self.samples.push("hist.record_ns", ns);
    }

    /// What is measured once: exact allocation counts, resident bytes per
    /// machine, the two-thread soak, and the modelled system's virtual
    /// numbers.
    pub fn once(&mut self, tr: &mut Tracer) {
        self.alloc_counts(tr);
        self.machine_bytes();
        self.par_speedup(tr);
        self.virt(tr);
    }

    fn alloc_counts(&mut self, tr: &mut Tracer) {
        const N: u64 = 1_000;
        let per_op = |count: u64| count as f64 / N as f64;
        for i in 0..self.rungs.len() {
            let (a, _) = counting(|| self.rung_batch(i, false, &[], N, tr));
            let name = self.rungs[i].name;
            self.samples
                .set(format!("ladder.{name}.allocs_per_rt"), per_op(a.allocs));
        }
        let (a, ()) = counting(|| (0..N).for_each(|_| drop(black_box(hdr5()))));
        self.samples.set("msg.hdr5.allocs", per_op(a.allocs));

        let base = Message::from_user(vec![0xa5; BULK_RPC_BYTES]);
        let (a, ()) = counting(|| (0..N).for_each(|_| drop(black_box(frag16k(&base)))));
        self.samples.set("msg.frag16k.allocs", per_op(a.allocs));
        self.samples.set("msg.frag16k.alloc_bytes", per_op(a.bytes));
    }

    fn machine_bytes(&mut self) {
        const MACHINES: u64 = 100_000;
        let (sim, host) = bare_sim();
        let before = crate::host::rss_bytes();
        for i in 0..MACHINES {
            let m = Sleeper {
                left: 1,
                period: 1_000_000_000 + i,
            };
            sim.spawn_vproc(host, Box::new(m));
        }
        // Run each machine to its first blocking point: parked on a timer
        // is the state a resident population is held in.
        sim.run_until_time(1_000);
        let grown = crate::host::rss_bytes().saturating_sub(before);
        self.samples
            .set("sim.machine.bytes_resident", grown as f64 / MACHINES as f64);
        self.tally(MACHINES, sim.run_until_idle().blocked as u64);
    }

    fn par_speedup(&mut self, tr: &mut Tracer) {
        let matrix = chaos::full_matrix(self.seed.wrapping_mul(1000).wrapping_add(500), 5, 8);
        let n = matrix.len() as u64;
        let mut wall = [0.0; 2];
        let mut reports = Vec::new();
        for (threads, w) in [1usize, 2].into_iter().zip(&mut wall) {
            let m = matrix.clone();
            let (ns, r) = Self::timed(tr, "chaos::run_matrix", "threads", n, || {
                run_matrix(m, threads, false)
            });
            *w = ns;
            reports.push(r);
        }
        self.samples.set("par.speedup_2t.chaos", wall[0] / wall[1]);
        // One thread or two, the reports must be the same reports.
        self.tally(n, u64::from(reports[0] != reports[1]) * n);
    }

    fn virt(&mut self, tr: &mut Tracer) {
        const CALLS: u64 = 400;
        const BULK_CALLS: u64 = 60;
        // Null-call round trip per stack, as Tables I and II measure it.
        let mut rtt_ms = BTreeMap::new();
        for stack in ALL_RPC_STACKS {
            let ns = self.virt_window(tr, &stack, &[], CALLS);
            let key = stack.name.to_lowercase().replace('-', "_");
            self.samples
                .set(format!("virt.rtt_us.{key}"), ns as f64 / 1e3);
            rtt_ms.insert(stack.name, ns as f64 / 1e6);
        }
        // 16 KiB throughput on the two stacks Table II prints it for.
        let mut kbs = BTreeMap::new();
        for stack in [M_RPC_VIP, L_RPC_VIP] {
            let ns = self.virt_window(tr, &stack, &[0xa5; BULK_RPC_BYTES], BULK_CALLS);
            kbs.insert(stack.name, 16.0 / (ns as f64 / 1e9));
        }
        let err = |ours: f64, paper: f64| (ours - paper).abs() / paper;
        let errs = [
            err(rtt_ms["M_RPC-ETH"], 1.73),
            err(rtt_ms["M_RPC-IP"], 2.10),
            err(rtt_ms["M_RPC-VIP"], 1.79),
            err(rtt_ms["L_RPC-VIP"], 1.93),
            err(kbs["M_RPC-VIP"], 860.0),
            err(kbs["L_RPC-VIP"], 839.0),
        ];
        self.samples.set(
            "virt.paper_err_pct",
            100.0 * errs.iter().sum::<f64>() / errs.len() as f64,
        );

        // Where a layered null call's virtual microseconds go, from the
        // program's own ledger on a traced rig (client host only).
        let cfg = SimConfig::scheduled().with_seed(self.seed).with_trace();
        let tb = rig::rpc_rig(&self.reg, &L_RPC_VIP, cfg);
        let trip = Trip::Rpc(L_RPC_VIP.entry);
        let sim = tb.sim.clone();
        let (client, server) = (Arc::clone(&tb.client), tb.server_ip);
        let (out, report) = rig::run_client(&tb, move |ctx| {
            let warm_bad = trip.make(ctx, &client, server, &[], VIRT_WARM);
            ctx.trace_clear();
            let bad = trip.make(ctx, &client, server, &[], CALLS);
            (warm_bad + bad, sim.cost_breakdown())
        });
        let (bad, ledger) = out.unwrap_or((CALLS, CostBreakdown::default()));
        self.tally(CALLS, if report.blocked == 0 { bad } else { CALLS });
        for layer in ["eth", "vip", "fragment", "channel", "select", "host"] {
            let proto = if layer == "host" { "(host)" } else { layer };
            let ns: u64 = ledger
                .entries
                .iter()
                .filter(|e| e.host == tb.client.host() && e.proto == proto)
                .map(|e| e.ns)
                .sum();
            self.samples.set(
                format!("virt.ledger_us.{layer}"),
                ns as f64 / CALLS as f64 / 1e3,
            );
        }
    }

    /// Virtual nanoseconds per call over `calls` calls carrying `body` on a
    /// fresh scheduled rig of `stack`, after [`VIRT_WARM`] calls.
    fn virt_window(&mut self, tr: &mut Tracer, stack: &StackDef, body: &[u8], calls: u64) -> u64 {
        let cfg = SimConfig::scheduled().with_seed(self.seed);
        let tb = rig::rpc_rig(&self.reg, stack, cfg);
        let trip = Trip::Rpc(stack.entry);
        let (client, server, body) = (Arc::clone(&tb.client), tb.server_ip, body.to_vec());
        let (out, report) = tr.span("Sim::run_until_idle", stack.name, calls, |_| {
            rig::run_client(&tb, move |ctx| {
                let warm_bad = trip.make(ctx, &client, server, &body, VIRT_WARM);
                let t0 = ctx.now();
                let bad = trip.make(ctx, &client, server, &body, calls);
                ((ctx.now() - t0) / calls, warm_bad + bad)
            })
        });
        let (ns, bad) = out.unwrap_or((0, calls));
        self.tally(calls, if report.blocked == 0 { bad } else { calls });
        ns
    }

    /// Derives the differenced metrics and hands everything over.
    pub fn finish(mut self) -> Ledger {
        let s = &mut self.samples;
        let rt = |s: &Samples, rung: &str| s.med(&format!("ladder.{rung}.ns_per_rt"));
        let vip = rt(s, "vip");
        let derived = [
            ("xrpc.vip_eth.self_ns", vip),
            ("inet.ip.self_ns", rt(s, "ip") - vip),
            ("xrpc.fragment.self_ns", rt(s, "fragment") - vip),
            ("xrpc.channel.self_ns", rt(s, "channel") - rt(s, "fragment")),
            ("xrpc.select.self_ns", rt(s, "select") - rt(s, "channel")),
            ("xrpc.mrpc.self_ns", rt(s, "mrpc_vip") - vip),
            ("sunrpc.self_ns", rt(s, "sunrpc_udp") - rt(s, "ip")),
            (
                "ladder.select.ns_per_kb",
                (s.med("bulk.select") - rt(s, "select")) / 16.0,
            ),
            (
                "ladder.mrpc_vip.ns_per_kb",
                (s.med("bulk.mrpc_vip") - rt(s, "mrpc_vip")) / 16.0,
            ),
            (
                "ladder.sunrpc_udp.ns_per_kb",
                (s.med("bulk.sunrpc_udp") - rt(s, "sunrpc_udp")) / 8.0,
            ),
            ("simnet.vip_rt.sched_ns", s.med("sched.vip")),
            // A round trip is two frames.
            (
                "simnet.sched_tax.ns_per_frame",
                (s.med("sched.vip") - vip) / 2.0,
            ),
            (
                "trace.overhead_ratio",
                s.med("observer.trace") / s.med("observer.off"),
            ),
            (
                "check.overhead_ratio",
                s.med("observer.check") / s.med("observer.off"),
            ),
            (
                "journal.overhead_ratio",
                s.med("observer.journal") / s.med("observer.off"),
            ),
            (
                "sim.engine_tax.ns_per_call",
                ["select", "vipsize", "mrpc_eth", "mrpc_ip", "mrpc_vip"]
                    .iter()
                    .map(|r| s.med(&format!("sched.{r}")) - rt(s, r))
                    .sum::<f64>()
                    / 5.0,
            ),
        ];
        for (name, v) in derived {
            s.set(name, v);
        }
        let mut metrics = s.medians();
        // Scaffolding of the differences above, not metrics of their own.
        let scaffolding = ["sched.", "bulk.", "observer."];
        metrics.retain(|k, _| !scaffolding.iter().any(|p| k.starts_with(p)));
        Ledger {
            metrics,
            attempted: self.attempted,
            failed: self.failed,
        }
    }
}

/// A 64-byte message through five layers' worth of 16-byte headers, down
/// and back up.
fn hdr5() -> Message {
    let mut m = Message::from_user(vec![0u8; 64]);
    for _ in 0..5 {
        m.push_header(&[7u8; 16]);
    }
    for _ in 0..5 {
        let popped = m.pop_header(16).expect("a pushed header pops");
        debug_assert_eq!(popped.len(), 16);
    }
    m
}

/// 16 KiB cut into 1,480-byte pieces, a 12-byte header pushed on and popped
/// off each, and the pieces joined again.
fn frag16k(base: &Message) -> Message {
    const PIECE: usize = 1_480;
    let mut rest = base.clone();
    let mut pieces = Vec::with_capacity(BULK_RPC_BYTES / PIECE + 1);
    while rest.len() > PIECE {
        let tail = rest.split_off(PIECE).expect("split inside the message");
        pieces.push(std::mem::replace(&mut rest, tail));
    }
    pieces.push(rest);
    for p in &mut pieces {
        p.push_header(&[3u8; 12]);
        p.pop_header(12).expect("a pushed header pops");
    }
    Message::concat(pieces)
}

/// A 1,500-byte rope of three segments with odd lengths, so the checksum
/// carries a byte across each seam.
fn cksum_rope() -> Message {
    let bytes: Vec<u8> = (0..1_500u32).map(|i| (i * 31 % 251) as u8).collect();
    Message::concat([
        Message::from_user(bytes[..333].to_vec()),
        Message::from_user(bytes[333..1_000].to_vec()),
        Message::from_user(bytes[1_000..].to_vec()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_new_host_times_are_scaled() {
        let mut s = Samples::default();
        s.push("a.ns", 10.0);
        let before = s.lens();
        s.push("a.ns", 20.0);
        s.push("b.us", 4.0);
        s.scale_since(&before, 0.5);
        assert_eq!(s.0["a.ns"], [10.0, 10.0], "the older sample is left alone");
        assert_eq!(s.0["b.us"], [2.0]);
    }

    #[test]
    fn message_exercises_preserve_the_bytes() {
        assert_eq!(hdr5().to_vec(), vec![0u8; 64]);
        let base = Message::from_user((0..BULK_RPC_BYTES).map(|i| i as u8).collect());
        assert_eq!(frag16k(&base).to_vec(), base.to_vec());
        let rope = cksum_rope();
        assert_eq!((rope.len(), rope.segment_count()), (1_500, 3));
    }
}
