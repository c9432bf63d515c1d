//! A simulation is freed when its last handle goes.
//!
//! `SimCore` owns the kernels and the kernels own the NICs, which own the
//! network; nothing points back up strongly (`Kernel` keeps no `Sim`, the
//! network keeps no `Sim` and only weak NIC references), so dropping a rig
//! drops the engine, its event and process tables, and every kernel. Before
//! this held, every simulation a process ever built stayed resident: a
//! chaos matrix leaked ≈ 36 kB and four stack mappings per scenario and
//! died at `vm.max_map_count` after ≈ 16,000 of them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use inet::testbed::{base_registry, two_hosts};
use xkernel::graph::ProtocolRegistry;
use xkernel::sim::SimConfig;
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
