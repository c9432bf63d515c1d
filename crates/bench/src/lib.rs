//! # xbench — the experiment harness
//!
//! Regenerates every table and figure in the paper's evaluation section.
//! One binary, `xbench <subcommand>` ([`cli`]): each of [`tables`], [`intro`]
//! and [`ablations`] prints a table with the paper's values beside ours, and
//! [`load`] and [`prof`] write the load and profile reports. Everything here
//! reports **virtual** time; how fast the simulator itself runs on the host
//! is `benchmark/`'s job, and nothing in this crate reads the host's clock.
//!
//! Methodology mirrors §4: the latency test is "the round trip delay for
//! invoking a null procedure with null request and reply messages"; the
//! throughput test uses "a series of large request messages (ranging in
//! size from 1k-bytes to 16k-bytes) and a null reply", fragments ≤ 1500
//! bytes, kernel-to-kernel, two hosts on an isolated 10 Mbps Ethernet.
//! Measurements run in virtual time, so they are exactly reproducible; the
//! per-primitive Sun 3/75 cost calibration lives in
//! [`xkernel::cost::CostModel::sun3_75`] and is shared by every experiment.

#![warn(missing_docs)]
#![warn(clippy::disallowed_types)]

pub mod ablations;
pub mod cli;
pub mod intro;
pub mod load;
pub mod prof;
pub mod tables;

use std::sync::{Arc, Mutex};

use inet::testbed::two_hosts;
use inet::with_concrete;
use xkernel::graph::ProtocolRegistry;
use xkernel::prelude::*;
use xkernel::sim::{Sim, SimConfig};
use xrpc::pinger::Pinger;
use xrpc::procs::{NULL_PROC, SINK_PROC};
use xrpc::stacks::StackDef;

/// Iterations for virtual-time latency runs. The simulation is
/// deterministic, so a few hundred suffice where the paper needed 10,000.
pub const LATENCY_ITERS: usize = 400;
/// Warm-up calls before measuring (ARP, session creation, caches).
pub const WARMUP_ITERS: usize = 8;
/// Iterations per size for throughput runs.
pub const THROUGHPUT_ITERS: usize = 60;

/// The registry with every constructor in the workspace.
pub fn registry() -> ProtocolRegistry {
    let mut reg = sunrpc::registry();
    xkernel::shim::register_ctors(&mut reg);
    psync::register_ctors(&mut reg);
    reg
}

/// Results of one measured window — `iters` back-to-back calls on the
/// client's clock — plus, when the run was traced, the per-layer cost
/// ledger scoped to exactly that window.
#[derive(Clone, Debug)]
pub struct TracedLatency {
    /// Average round trip, ns (same definition as [`rpc_latency`]).
    pub latency_ns: u64,
    /// The whole measured window (`iters` calls), ns.
    pub window_ns: u64,
    /// Iterations measured.
    pub iters: usize,
    /// Client host (the one whose clock defines the window).
    pub client: HostId,
    /// Server host.
    pub server: HostId,
    /// Per-layer cost ledger for the window (empty untraced). By the
    /// conservation invariant, `breakdown.host_total(client) == window_ns`
    /// exactly.
    pub breakdown: CostBreakdown,
    /// Flamegraph-compatible folded stacks for the same window.
    pub folded: Vec<FoldedLine>,
}

/// The one measurement every experiment here is: build the standard two-host
/// rig with the standard procedures on the server, warm it up (ARP, session
/// creation, caches), then time `iters` calls of `proc` with `size`-byte
/// requests. With `trace`, the ledger is scoped to exactly the timed window.
fn measure_window(
    stack: &StackDef,
    proc: u16,
    size: usize,
    iters: usize,
    trace: bool,
) -> TracedLatency {
    let mut cfg = SimConfig::scheduled();
    if trace {
        cfg = cfg.with_trace();
    }
    let tb = two_hosts(cfg, &registry(), stack.graph).expect("testbed builds");
    xrpc::procs::register_standard(&tb.server, stack.entry).expect("procedures register");
    let server_ip = tb.server_ip;
    let entry = stack.entry;
    let sim2 = tb.sim.clone();
    let out = Arc::new(Mutex::new(None));
    let o2 = Arc::clone(&out);
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        let payload: Vec<u8> = vec![0xA5; size];
        for _ in 0..WARMUP_ITERS {
            xrpc::call(ctx, &k, entry, server_ip, proc, payload.clone()).unwrap();
        }
        // Scope the ledger to the measured window: everything before this
        // point (boot, ARP, warmup) is discarded.
        ctx.trace_clear();
        let t0 = ctx.now();
        for _ in 0..iters {
            xrpc::call(ctx, &k, entry, server_ip, proc, payload.clone()).unwrap();
        }
        let window = ctx.now() - t0;
        // Capture the ledger *here*, before process teardown and the final
        // scheduler drain can attribute anything past the window's end.
        *o2.lock().unwrap() = Some((window, ctx.cost_breakdown(), sim2.folded()));
    });
    let r = tb.sim.run_until_idle();
    assert_eq!(r.blocked, 0, "measured run must drain");
    let (window_ns, breakdown, folded) = out
        .lock()
        .unwrap()
        .take()
        .expect("client captured the window");
    TracedLatency {
        latency_ns: window_ns / iters as u64,
        window_ns,
        iters,
        client: tb.client.host(),
        server: tb.server.host(),
        breakdown,
        folded,
    }
}

/// Round-trip latency (virtual ns) of a null RPC on `stack`.
pub fn rpc_latency(stack: &StackDef) -> u64 {
    rpc_latency_iters(stack, LATENCY_ITERS)
}

/// [`rpc_latency`] at an arbitrary iteration count (`xprof --quick` uses
/// fewer than [`LATENCY_ITERS`]).
pub fn rpc_latency_iters(stack: &StackDef, iters: usize) -> u64 {
    measure_window(stack, NULL_PROC, 0, iters, false).latency_ns
}

/// Runs the null-RPC latency experiment with structured tracing enabled
/// and returns the per-layer decomposition of the measured window.
///
/// Tracing observes charges but never adds any, so `window_ns / iters`
/// is bit-identical to [`rpc_latency`] — the goldens pin both.
pub fn rpc_latency_traced(stack: &StackDef, iters: usize) -> TracedLatency {
    measure_window(stack, NULL_PROC, 0, iters, true)
}

/// One throughput measurement: round trips of `size`-byte requests with
/// null replies. Returns average ns per call.
pub fn rpc_rtt_for_size(stack: &StackDef, size: usize, iters: usize) -> u64 {
    measure_window(stack, SINK_PROC, size, iters, false).latency_ns
}

/// Results of the full §4 measurement battery for one configuration.
#[derive(Clone, Copy, Debug)]
pub struct StackResult {
    /// Null-RPC round trip, ns.
    pub latency_ns: u64,
    /// Throughput at 16 k-byte messages, kbytes/sec.
    pub throughput_kbs: f64,
    /// Incremental cost per additional kbyte, msec (slope of the 1k..16k
    /// sweep).
    pub incr_ms_per_k: f64,
}

/// Runs latency + the 1k..16k throughput sweep for `stack`.
pub fn measure_stack(stack: &StackDef) -> StackResult {
    let latency_ns = rpc_latency(stack);
    let t1k = rpc_rtt_for_size(stack, 1024, THROUGHPUT_ITERS);
    let t16k = rpc_rtt_for_size(stack, 16 * 1024, THROUGHPUT_ITERS);
    let throughput_kbs = 16.0 * 1024.0 / (t16k as f64 / 1e9) / 1024.0;
    let incr_ms_per_k = (t16k - t1k) as f64 / 15.0 / 1e6;
    StackResult {
        latency_ns,
        throughput_kbs,
        incr_ms_per_k,
    }
}

/// Round-trip latency (virtual ns) through a partial stack measured with
/// the PINGER protocol (Table III rows without a full RPC on top).
pub fn pinger_latency(graph: &str, lower: &str) -> u64 {
    let sim = Sim::new(SimConfig::scheduled());
    let net = simnet::SimNet::new(&sim);
    let lan = net.add_lan(simnet::LanConfig::default());
    let reg = registry();
    let mut kernels = Vec::new();
    for (i, ip) in ["10.0.0.1", "10.0.0.2"].iter().enumerate() {
        let k = Kernel::new(&sim, &format!("h{i}"));
        net.attach(&k, lan, "nic0", EthAddr::from_index(i as u16 + 1))
            .expect("attach");
        let spec = format!(
            "{}{}pinger echo={} -> {lower}\n",
            inet::standard_graph("nic0", ip),
            graph,
            i
        );
        reg.build(&sim, &k, &spec).expect("graph builds");
        kernels.push(k);
    }
    let server_ip = IpAddr::new(10, 0, 0, 2);
    let out = Arc::new(Mutex::new(0u64));
    let o2 = Arc::clone(&out);
    let client = Arc::clone(&kernels[0]);
    sim.spawn(client.host(), move |ctx| {
        with_concrete::<Pinger, _>(&ctx.kernel(), "pinger", |p| {
            p.run_series(ctx, server_ip, WARMUP_ITERS, 0).unwrap();
            let total = p.run_series(ctx, server_ip, LATENCY_ITERS, 0).unwrap();
            *o2.lock().unwrap() = total / LATENCY_ITERS as u64;
        })
        .unwrap();
    });
    let r = sim.run_until_idle();
    assert_eq!(r.blocked, 0, "pinger run must drain");
    let v = *out.lock().unwrap();
    v
}

/// Formats nanoseconds as the paper's msec with two decimals.
pub fn ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

/// Prints a table header in the paper's style.
pub fn print_table_header(title: &str, columns: &[&str]) {
    println!("\n{title}");
    println!("{}", "=".repeat(title.len()));
    let mut line = String::new();
    for c in columns {
        line.push_str(&format!("{c:>24}"));
    }
    println!("{line}");
    println!("{}", "-".repeat(24 * columns.len()));
}

/// Prints one table row.
pub fn print_row(cells: &[String]) {
    let mut line = String::new();
    for c in cells {
        line.push_str(&format!("{c:>24}"));
    }
    println!("{line}");
}
