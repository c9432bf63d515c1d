//! Million-client closed loops on stackless machines.
//!
//! The classic closed loop of [`crate::gen`] spawns one *coroutine* per
//! client, which is exactly right up to a few thousand clients and exactly
//! wrong past it: a suspended coroutine owns a 512 KiB mapped stack, so a
//! million-client population would need half a terabyte of address space
//! and two `mmap` regions per client — more than `vm.max_map_count` allows
//! on a stock kernel.
//!
//! This module scales the same experiment three orders of magnitude by
//! splitting each client in two:
//!
//! * a **persistent stackless machine** ([`xkernel::sim::VProc`]) holding
//!   the client's entire suspended state in a few dozen bytes — which call
//!   it is on, its think timer, and a private done-semaphore. A million of
//!   these cost a few hundred megabytes, not half a terabyte.
//! * a **transient call coroutine** spawned per RPC. Only *in-flight*
//!   calls own stacks, and in a correctly-provisioned closed loop the
//!   in-flight population is tiny (offered load below service capacity),
//!   so the engine's bounded stack pool recycles a handful of stacks
//!   across a million calls.
//!
//! The loop stays *closed*: a client never has two calls outstanding — it
//! sleeps a staggered start offset, calls, waits on its done-semaphore for
//! the reply, thinks, and repeats. [`xkernel::sim::RunReport::peak_live`]
//! counts every machine and coroutine alive at once, so `peak_live >=
//! clients` is the engine's own proof that the whole population was
//! concurrently resident.
//!
//! Provisioning note: all first calls are staggered uniformly across
//! [`MClientSpec::stagger_ns`], so the offered rate is roughly
//! `clients / stagger` calls per virtual second. Keep that below the
//! server's service capacity (a few hundred calls/sec of *virtual* time on
//! the shared segment) and the in-flight population — i.e. the number of
//! live stacks — stays O(1). Virtual seconds are free; host stacks are not.

use std::rc::Rc;

use xkernel::cell::OwnerCell;

use xkernel::prelude::*;
use xkernel::sim::{RunReport, SharedSema, VProc, VStep, WakeReason};

use crate::gen::{do_call, serve_echo, warm, Shard};
use crate::hist::{Hist, LatencySummary};
use crate::topo::{build_rig, LoadStack, Topology};

/// A fully-specified million-client (well, `clients`-client) closed loop.
#[derive(Clone, Copy, Debug)]
pub struct MClientSpec {
    /// The stack under load.
    pub stack: LoadStack,
    /// Client/server placement (clients spread round-robin over hosts).
    pub topo: Topology,
    /// Client population. Each is one persistent stackless machine.
    pub clients: u32,
    /// Closed-loop calls each client performs before retiring.
    pub calls_per_client: u32,
    /// Window (virtual ns) the clients' *first* calls are uniformly
    /// staggered across. Offered load ≈ `clients / stagger_ns`.
    pub stagger_ns: u64,
    /// Think time between a reply and the client's next call (ns).
    pub think_ns: u64,
    /// Request payload size (bytes; the server echoes it).
    pub payload: usize,
    /// Simulation seed.
    pub seed: u64,
    /// Server shepherd pool size.
    pub shepherds: u64,
    /// Bounded pending-queue depth behind the pool.
    pub pending: u64,
}

impl MClientSpec {
    /// A provisioned population of `clients` on the shared segment:
    /// 32 client hosts, one call per client, first calls staggered at
    /// 10 ms of virtual time apiece (≈100 calls/virtual-second offered,
    /// comfortably under segment capacity, so in-flight stacks stay O(1)
    /// at any population).
    pub fn sized(clients: u32) -> MClientSpec {
        MClientSpec {
            stack: LoadStack::Paper(xrpc::stacks::M_RPC_ETH),
            topo: Topology::Segment { hosts: 32 },
            clients,
            calls_per_client: 1,
            stagger_ns: u64::from(clients) * 10_000_000,
            think_ns: 1_000_000_000,
            payload: 8,
            seed: 0x4d43_4c49, // "MCLI"
            shepherds: 8,
            pending: 1024,
        }
    }

    /// Runs the population and returns its report.
    ///
    /// # Panics
    ///
    /// Panics if the testbed fails to build or any process is left blocked
    /// at the end of the run — both are harness bugs, not load outcomes.
    pub fn run(&self) -> MClientReport {
        assert!(self.clients > 0, "need at least one client");
        assert!(self.calls_per_client > 0, "need at least one call");
        let rig = build_rig(
            self.topo,
            self.stack,
            &format!(
                "shepherds={} pending={} policy=reject",
                self.shepherds, self.pending
            ),
            self.seed,
            false,
        )
        .expect("mclient testbed builds");
        serve_echo(&self.stack, &rig.server);
        warm(&rig, &self.stack);

        let n_hosts = rig.clients.len();
        let shards: Vec<Rc<OwnerCell<Shard>>> = (0..n_hosts)
            .map(|_| Rc::new(OwnerCell::new(Shard::default())))
            .collect();
        // Spawning the population is itself work: every machine's first
        // suspension charges a process switch to its host's CPU clock, so
        // by the time the last client is parked each host's clock sits
        // `per_host * proc_switch` past the window base. Any stagger
        // offset inside that drift would collapse onto the same instant
        // (its wake is in the host's past) and the "staggered" first
        // calls would arrive as one burst. Lead the whole window past the
        // drift, with 2x margin for the semaphore/warm-up charges.
        let per_host = (self.clients as usize).div_ceil(n_hosts) as u64;
        let cost = rig.sim.cost();
        let lead_ns = per_host * (cost.proc_switch + cost.sema_op) * 2;
        for i in 0..self.clients as usize {
            let h = i % n_hosts;
            // Integer stagger in u128 so clients * stagger cannot overflow.
            let offset = lead_ns
                + ((i as u128 * u128::from(self.stagger_ns)) / u128::from(self.clients)) as u64;
            let client = Client {
                phase: Phase::Start,
                remaining: self.calls_per_client,
                offset_ns: offset,
                think_ns: self.think_ns,
                stack: self.stack,
                server_ip: rig.server_ip,
                payload: self.payload,
                shard: Rc::clone(&shards[h]),
                done: SharedSema::labeled(0, "mclient.done"),
            };
            rig.sim.spawn_vproc(rig.clients[h].host(), Box::new(client));
        }
        let run = rig.sim.run_until_idle();
        assert_eq!(run.blocked, 0, "mclient run left blocked processes");

        let mut hist = Hist::new();
        let mut attempted = 0u64;
        let mut completed = 0u64;
        let mut failed = 0u64;
        for shard in &shards {
            let s = shard.lock();
            hist.merge(&s.hist);
            attempted += s.attempted;
            completed += s.completed;
            failed += s.failed;
        }
        MClientReport {
            label: format!(
                "{}/{}/mclient{}x{}/seed={}",
                self.stack.name(),
                self.topo.label(),
                self.clients,
                self.calls_per_client,
                self.seed
            ),
            clients: self.clients,
            calls_per_client: self.calls_per_client,
            attempted,
            completed,
            failed,
            latency: hist.summary(),
            run,
        }
    }
}

/// Everything observable about one machine-client run; all integers, so
/// determinism across repeats is `assert_eq!` on the whole report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MClientReport {
    /// `stack/topo/mclientNxM/seed=S`, for assertion messages.
    pub label: String,
    /// Client population.
    pub clients: u32,
    /// Calls per client.
    pub calls_per_client: u32,
    /// Calls issued.
    pub attempted: u64,
    /// Calls that returned the full-length echo.
    pub completed: u64,
    /// Calls that errored.
    pub failed: u64,
    /// The latency distribution summary.
    pub latency: LatencySummary,
    /// The simulator's verdict. `run.peak_live >= clients` proves the
    /// whole population was concurrently resident.
    pub run: RunReport,
}

/// Where a client machine is between blocking points.
#[derive(Clone, Copy, Debug)]
enum Phase {
    /// Spawned, has not yet slept its stagger offset.
    Start,
    /// Think/stagger timer fired: launch the next call.
    Fire,
    /// The in-flight call's reply V'd the done-semaphore.
    Reap,
}

/// One closed-loop client as a stackless machine. The struct *is* the
/// continuation: every field survives a [`xkernel::sim::Sim::snapshot`]
/// via [`VProc::fork`].
#[derive(Clone)]
struct Client {
    phase: Phase,
    remaining: u32,
    offset_ns: u64,
    think_ns: u64,
    stack: LoadStack,
    server_ip: IpAddr,
    payload: usize,
    shard: Rc<OwnerCell<Shard>>,
    done: SharedSema,
}

impl VProc for Client {
    fn resume(&mut self, ctx: &Ctx, _why: WakeReason) -> VStep {
        match self.phase {
            Phase::Start => {
                self.phase = Phase::Fire;
                VStep::Sleep(self.offset_ns)
            }
            Phase::Fire => {
                self.remaining -= 1;
                // The call itself needs a real stack (it blocks inside the
                // protocol graph), so it runs as a transient coroutine that
                // V's our done-semaphore on completion. Only in-flight
                // calls own stacks.
                let stack = self.stack;
                let (server_ip, payload) = (self.server_ip, self.payload);
                let shard = Rc::clone(&self.shard);
                let done = self.done.clone();
                ctx.spawn_on(ctx.host(), move |cctx| {
                    let t0 = cctx.now();
                    let got = do_call(&stack, cctx, server_ip, payload);
                    let dt = cctx.now() - t0;
                    let mut s = shard.lock();
                    s.attempted += 1;
                    match got {
                        Ok(r) if r.len() == payload => {
                            s.completed += 1;
                            s.hist.record(dt);
                        }
                        _ => s.failed += 1,
                    }
                    drop(s);
                    done.v(cctx);
                });
                self.phase = Phase::Reap;
                VStep::Wait {
                    sema: self.done.clone(),
                    timeout: None,
                }
            }
            Phase::Reap => {
                if self.remaining == 0 {
                    return VStep::Done;
                }
                self.phase = Phase::Fire;
                VStep::Sleep(self.think_ns)
            }
        }
    }

    fn fork(&self) -> Option<Box<dyn VProc>> {
        Some(Box::new(self.clone()))
    }

    fn label(&self) -> &'static str {
        "mclient"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(clients: u32) -> MClientSpec {
        let mut spec = MClientSpec::sized(clients);
        spec.topo = Topology::Segment { hosts: 4 };
        spec
    }

    /// The acceptance pair's population: the 100,000 clients on 32 hosts
    /// that CI's optimized run (`cargo test --release`) holds resident, a
    /// few hundred on 4 hosts unoptimized.
    fn sized_for_build(debug_clients: u32) -> MClientSpec {
        if cfg!(debug_assertions) {
            small_spec(debug_clients)
        } else {
            MClientSpec::sized(100_000)
        }
    }

    /// Runs `spec` and holds it to what a machine-client soak is accepted
    /// on: every client calls, every call completes, nothing is left
    /// blocked, and the whole population was alive at once.
    fn run_accepted(spec: MClientSpec) -> MClientReport {
        let r = spec.run();
        let expect = u64::from(spec.clients) * u64::from(spec.calls_per_client);
        assert_eq!(r.attempted, expect, "every client must call");
        assert_eq!(r.completed, expect, "every call must complete");
        assert_eq!(r.failed, 0, "no call may fail on the quiet segment");
        assert_eq!(r.run.blocked, 0, "the run must drain");
        // Every machine is spawned at the window base and lives until its
        // (staggered) call completes, so the engine must have seen the
        // whole population alive at once.
        assert!(
            r.run.peak_live >= spec.clients as usize,
            "peak_live {} < clients {} — the population was not concurrent",
            r.run.peak_live,
            spec.clients
        );
        r
    }

    #[test]
    fn every_client_completes_every_call() {
        let mut spec = sized_for_build(200);
        spec.calls_per_client = 2;
        let r = run_accepted(spec);
        assert_eq!(r.latency.count, 2 * u64::from(spec.clients));
        assert!(r.latency.min_ns > 0);
    }

    #[test]
    fn whole_population_is_concurrently_resident() {
        run_accepted(sized_for_build(300));
    }

    /// The full-size soak, run by hand:
    /// `cargo test --release -p xload -- --ignored --nocapture million`.
    #[test]
    #[ignore = "a million clients: seconds of host time and ~350 MB"]
    fn a_million_clients_are_concurrently_resident() {
        let r = run_accepted(MClientSpec::sized(1_000_000));
        println!("{}: peak_live {}", r.label, r.run.peak_live);
    }

    #[test]
    fn machine_clients_are_deterministic() {
        let spec = small_spec(150);
        let a = spec.run();
        let b = spec.run();
        assert_eq!(a, b, "same spec, same report — including RunReport");
        let mut other = spec;
        other.seed ^= 1;
        let c = other.run();
        assert_eq!(c.completed, a.completed, "workload is seed-independent");
    }
}
