//! A simulation is freed when its last handle goes.
//!
//! `SimCore` owns the kernels and the kernels own the NICs, which own the
//! network; nothing points back up strongly (`Kernel` keeps no `Sim`, the
//! network keeps no `Sim` and only weak NIC references), so dropping a rig
//! drops the engine, its event and process tables, and every kernel. Before
//! this held, every simulation a process ever built stayed resident: a
//! chaos matrix leaked ≈ 36 kB and four stack mappings per scenario and
//! died at `vm.max_map_count` after ≈ 16,000 of them.
//!
//! Below the kernels the same holds for the protocol graph: a protocol and
//! the sessions it caches hold each other, and a dropped kernel has every
//! protocol let go of its tables (`Protocol::drop_sessions`). Before that
//! FRAGMENT, CHANNEL, SELECT and M_RPC outlived every rig, ≈ 7 kB a scenario.

mod common;

use std::rc::{Rc, Weak};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use chaos::{full_matrix, pool_stats, RunOpts, Scenario};
use common::live_bytes;
use inet::testbed::{base_registry, two_hosts, TwoHosts};
use xkernel::addr::IpAddr;
use xkernel::graph::ProtocolRegistry;
use xkernel::prelude::Protocol;
use xkernel::sim::{HostId, RunReport, SharedSema, Sim, SimConfig};
use xrpc::procs::NULL_PROC;
use xrpc::stacks::L_RPC_VIP;

fn registry() -> ProtocolRegistry {
    let mut reg = base_registry();
    xrpc::register_ctors(&mut reg);
    reg
}

/// Builds a two-host L_RPC-VIP rig, makes `calls` null calls on it, and
/// returns what outlives the rig: a weak handle on its simulation.
fn run_and_drop(reg: &ProtocolRegistry, seed: u64, calls: u64) -> xkernel::sim::WeakSim {
    let cfg = SimConfig::scheduled().with_seed(seed);
    let tb = two_hosts(cfg, reg, L_RPC_VIP.graph).expect("testbed builds");
    xrpc::procs::register_standard(&tb.server, L_RPC_VIP.entry).unwrap();
    let done = Arc::new(AtomicU64::new(0));
    let (d2, server) = (Arc::clone(&done), tb.server_ip);
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        for _ in 0..calls {
            let reply = xrpc::call(ctx, &k, L_RPC_VIP.entry, server, NULL_PROC, Vec::new());
            assert_eq!(reply.unwrap(), Vec::<u8>::new());
            d2.fetch_add(1, Ordering::Relaxed);
        }
    });
    let report = tb.sim.run_until_idle();
    assert_eq!(report.blocked, 0);
    assert_eq!(done.load(Ordering::Relaxed), calls);
    let weak = tb.sim.downgrade();
    assert!(weak.upgrade().is_some(), "alive while the rig is");
    weak
}

#[test]
fn dropping_every_handle_frees_the_simulation() {
    let weak = run_and_drop(&registry(), 7, 25);
    assert!(
        weak.upgrade().is_none(),
        "a strong cycle kept the simulation alive after its rig was dropped"
    );
}

/// Spawns a client on `client` making `calls` null calls to `server` and
/// runs the simulation to idle.
fn null_calls(sim: &Sim, client: HostId, server: IpAddr, calls: u64) -> RunReport {
    sim.spawn(client, move |ctx| {
        let k = ctx.kernel();
        for _ in 0..calls {
            let reply = xrpc::call(ctx, &k, L_RPC_VIP.entry, server, NULL_PROC, Vec::new());
            assert_eq!(reply.unwrap(), Vec::<u8>::new());
        }
    });
    sim.run_until_idle()
}

/// `Sim: Send` and `Arc<Kernel>: Send`, exercised: a rig is built and
/// warmed here; while it is quiescent its `Send` handles — the simulation,
/// both kernels, the server's address — move into a scoped thread, drive it
/// there and come back through the join, and the rig is dropped here. The
/// network handle stays behind, untouched meanwhile. One thread drives the
/// rig at a time and each hand-off is a real synchronisation point — the
/// contract written beside `Sim`'s `Send` impl — so the run is the one it
/// would have been in place, event for event, and no cell trips its entry
/// check on the way.
#[test]
fn a_quiescent_rig_moved_to_another_thread_runs_as_it_would_in_place() {
    let reg = registry();
    let warmed = || {
        let cfg = SimConfig::scheduled().with_seed(0x5e4d);
        let tb = two_hosts(cfg, &reg, L_RPC_VIP.graph).expect("testbed builds");
        xrpc::procs::register_standard(&tb.server, L_RPC_VIP.entry).unwrap();
        let warm = null_calls(&tb.sim, tb.client.host(), tb.server_ip, 2);
        assert_eq!(warm.blocked, 0);
        tb
    };

    let in_place = {
        let tb = warmed();
        null_calls(&tb.sim, tb.client.host(), tb.server_ip, 5)
    };

    let TwoHosts {
        sim,
        net,
        client,
        server,
        server_ip,
        ..
    } = warmed();
    let (sim, client, server, moved) = std::thread::scope(|s| {
        s.spawn(move || {
            let report = null_calls(&sim, client.host(), server_ip, 5);
            (sim, client, server, report)
        })
        .join()
        .expect("the moved simulation ran")
    });
    let weak = sim.downgrade();
    drop((sim, net, client, server));
    assert!(weak.upgrade().is_none(), "freed on the spawning thread");

    assert_eq!(in_place.blocked, 0);
    assert_eq!(moved.sched_hash, in_place.sched_hash);
    assert_eq!(moved, in_place);
}

/// One process, many simulations: each is freed before the next is built,
/// so neither memory nor the kernel's mapping budget (`vm.max_map_count`,
/// 65,530 by default: ≈ 16,000 leaked simulations at four mappings each)
/// bounds how many a process can run. The full 20,000 take a few seconds
/// optimized, so the unoptimized tier-1 run does a tenth.
#[test]
fn twenty_thousand_one_call_simulations_in_one_process() {
    let sims = if cfg!(debug_assertions) {
        2_000
    } else {
        20_000
    };
    let reg = registry();
    for seed in 0..sims {
        let weak = run_and_drop(&reg, seed, 1);
        assert!(weak.upgrade().is_none(), "simulation {seed} leaked");
    }
}

/// One scenario per stack of the soak matrix — the five paper stacks, both
/// Sun RPC graphs, Psync — under the harshest profile the matrix holds it to.
fn one_faulted_scenario_per_stack() -> Vec<Scenario> {
    let mut per_stack: Vec<Scenario> = Vec::new();
    for sc in full_matrix(5, 1, 6) {
        match per_stack.last_mut() {
            Some(last) if last.stack.name() == sc.stack.name() => *last = sc,
            _ => per_stack.push(sc),
        }
    }
    assert_eq!(per_stack.len(), 8, "the matrix drives eight stacks");
    assert!(per_stack
        .iter()
        .all(|sc| sc.profile != chaos::Profile::FaultFree));
    per_stack
}

#[test]
fn a_dropped_scenario_frees_every_protocol_on_both_kernels() {
    for sc in one_faulted_scenario_per_stack() {
        let chaos::RunOutcome { report, sim, .. } = sc.run_with(chaos::RunOpts::default());
        assert_eq!(report.run.blocked, 0, "{}", report.label);
        let kernels = sim.kernels();
        assert_eq!(kernels.len(), 2);
        let protocols: Vec<(String, Weak<dyn Protocol>)> = kernels
            .iter()
            .flat_map(|k| {
                let on = k.name().to_string();
                k.protocol_names()
                    .into_iter()
                    .zip(k.protocol_slots())
                    .map(move |(name, p)| {
                        let p = p.expect("every reserved slot was installed");
                        (format!("{on}/{name}"), Rc::downgrade(p))
                    })
            })
            .collect();
        assert!(protocols.len() >= 2 * 7, "{}: {protocols:?}", report.label);
        drop(kernels);
        drop(sim);
        let alive: Vec<&str> = protocols
            .iter()
            .filter(|(_, p)| p.upgrade().is_some())
            .map(|(name, _)| name.as_str())
            .collect();
        assert!(
            alive.is_empty(),
            "{}: protocols outlived their rig: {alive:?}",
            report.label
        );
    }
}

/// A scenario cut off with a client parked on a semaphore nothing will
/// signal. Its coroutine's stack holds a `Ctx`, and the `Ctx` the
/// simulation, so dropping every handle frees nothing (open since PR 12);
/// `Sim::kill_suspended` — what the rig pool's discard path and xcheck's
/// walks call — unwinds it, and then the drop does. The rig had left the
/// pool with its outcome, so the stack's next `run` is on a rig built for
/// it and returns the from-scratch report.
#[test]
fn a_scenario_cut_off_with_a_parked_client_is_freed_once_it_is_killed() {
    for sc in one_faulted_scenario_per_stack() {
        let sim = sc.run_with(RunOpts::default()).sim;
        sim.spawn(HostId(0), |ctx| SharedSema::new(0).p(ctx));
        assert_eq!(sim.run_until_idle().blocked, 1, "{}", sc.stack.name());
        let weak = sim.downgrade();
        drop(sim);
        let sim = weak.upgrade().expect("held by its own parked process");
        assert_eq!(sim.kill_suspended(), 1);
        drop(sim);
        assert!(weak.upgrade().is_none(), "{}: still alive", sc.stack.name());

        let scratch = sc.run_with(RunOpts {
            check: true,
            ..RunOpts::default()
        });
        assert_eq!(sc.run(), scratch.report, "{}", sc.stack.name());
    }
    let stats = pool_stats();
    assert_eq!((stats.given_away, stats.discarded), (16, 0));
    assert_eq!(stats.built, 24, "8 given away, 8 checked, 8 pooled");
}

/// The soak's memory is flat in the number of scenarios run: whatever the
/// first batch left behind (the shared registry, its lint verdicts, pooled
/// coroutine stacks, the eight pooled rigs), a second batch as long adds
/// nothing to — and builds nothing. The leak this guards against was
/// ≈ 6.4 kB a scenario — 12.7 MB over the second batch.
#[test]
fn live_bytes_plateau_across_thousands_of_scenarios() {
    const SLACK: i64 = 64 * 1024;
    let batch = if cfg!(debug_assertions) { 200 } else { 2_000 };
    let cells = full_matrix(0, 1, 8);
    let run_batch = |nth: usize| {
        for i in nth * batch..(nth + 1) * batch {
            let mut sc = cells[i % cells.len()];
            sc.seed = i as u64;
            sc.run();
        }
        live_bytes()
    };
    let after_one = run_batch(0);
    let built = pool_stats().built;
    assert_eq!(built, 8, "one rig a stack");
    let after_two = run_batch(1);
    assert_eq!(pool_stats().built, built, "the second batch rebuilt a rig");
    assert!(
        after_two <= after_one + SLACK,
        "{batch} more scenarios left {} more bytes live ({after_one} -> {after_two})",
        after_two - after_one
    );
}

/// The whole process's high-water mark after a soak the leak could not
/// survive quietly: at ≈ 7 kB a scenario it stood at ≈ 38 MB here. Reads
/// process-wide state, so `ci.sh` (lifetime-gate) runs it alone.
#[test]
#[ignore = "reads the process's peak RSS; ci.sh lifetime-gate runs it alone"]
fn five_thousand_scenarios_stay_under_the_rss_ceiling() {
    const CEILING_KB: u64 = 16 * 1024;
    let scenarios = full_matrix(0, 117, 8);
    assert!(scenarios.len() >= 5_000);
    for sc in &scenarios {
        sc.run();
    }
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let hwm_kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    assert!(
        hwm_kb <= CEILING_KB,
        "peak RSS {hwm_kb} kB after {} scenarios (ceiling {CEILING_KB} kB)",
        scenarios.len()
    );
    println!("peak RSS {hwm_kb} kB after {} scenarios", scenarios.len());
}
