//! `xbench xload` — throughput and tail latency under offered load.
//!
//! For each of the six stacks (the five paper configurations plus Sun RPC
//! over UDP) this harness sweeps an open-loop Poisson arrival rate across
//! a multi-host Ethernet segment and reports goodput plus the latency
//! percentile table at every point, runs a closed-loop population sample,
//! and drives the routed two-segment internetwork for the IP-capable
//! stacks. Every spec in the batch is an independent simulation, so the
//! whole batch fans out across OS threads via [`xkernel::par`]; the
//! parallel reports must be `Eq`-identical to the sequential ones, and the
//! goodput curve of every sweep must be monotone until it saturates.
//!
//! Emits `BENCH_xload.json` through [`xkernel::json::JsonWriter`]; the run
//! fails on a non-monotone curve or a sequential/parallel divergence.
//!
//! ```text
//! xbench xload [--quick] [--threads N] [--out PATH]
//! ```

use std::path::PathBuf;

use xkernel::json::JsonWriter;
use xkernel::par;
use xload::{GenMode, LoadReport, LoadSpec, LoadStack, Topology};

/// What `xbench xload` takes.
#[derive(Debug, PartialEq, Eq)]
pub struct Opts {
    /// The CI-sized sweep: three rates, two client hosts, 150 ms.
    pub quick: bool,
    /// Worker threads for the parallel pass.
    pub threads: usize,
    /// Where the report goes.
    pub out: PathBuf,
}

/// A goodput curve is acceptable when each point either keeps up with the
/// previous one (monotone within 5%) or sits on the saturation plateau
/// (within 20% of the curve's maximum).
fn monotone_then_saturating(goodputs: &[u64]) -> bool {
    let max = goodputs.iter().copied().max().unwrap_or(0);
    goodputs.windows(2).all(|w| {
        let floor = w[0].saturating_mul(95) / 100;
        w[1] >= floor || w[1].saturating_mul(5) >= max.saturating_mul(4)
    })
}

/// One load report (a sweep point or a sample row) as a JSON object.
fn point(w: &mut JsonWriter, r: &LoadReport) {
    w.object(|w| {
        w.key("gen").string(&r.gen);
        for (key, v) in [
            ("offered_cps", r.offered_cps),
            ("attempted", r.attempted),
            ("completed", r.completed),
            ("failed", r.failed),
            ("goodput_cps", r.goodput_cps),
            ("p50_ns", r.latency.p50_ns),
            ("p90_ns", r.latency.p90_ns),
            ("p99_ns", r.latency.p99_ns),
            ("p999_ns", r.latency.p999_ns),
            ("max_ns", r.latency.max_ns),
            ("dropped", r.shepherd.dropped),
            ("rejected", r.shepherd.rejected),
            ("peak_queue", r.shepherd.peak_queue),
        ] {
            w.key(key).u64(v);
        }
    });
}

/// `stack` beside its one sample `point`, for the closed-loop and routed rows.
fn samples(w: &mut JsonWriter, stacks: &[LoadStack], reports: &[LoadReport]) {
    w.array(|w| {
        for (stack, r) in stacks.iter().zip(reports) {
            w.object(|w| {
                w.key("stack").string(stack.name());
                point(w.key("point"), r);
            });
        }
    });
}

/// Runs the batch and writes the report to `opts.out`.
pub fn run(opts: &Opts) -> Result<(), String> {
    // Full-mode scale is bounded by in-flight call processes: past
    // saturation an open loop piles up outstanding calls, and each costs a
    // live simulated process until its reply. ~800 arrivals at the top
    // rate keeps the engine comfortably inside process memory.
    let (rates, duration_ns, hosts, closed_clients) = if opts.quick {
        (vec![100u64, 400, 1200], 150_000_000u64, 2usize, 6u32)
    } else {
        (vec![100u64, 400, 1600, 3200], 250_000_000u64, 4usize, 12u32)
    };
    let stacks = LoadStack::all();

    // The whole batch as one spec vector, so sequential-vs-parallel
    // bit-identity covers every number this harness reports.
    let mut specs: Vec<LoadSpec> = Vec::new();
    let base = |stack: LoadStack| LoadSpec {
        stack,
        topo: Topology::Segment { hosts },
        gen: GenMode::Open { rate_cps: 100 },
        duration_ns,
        payload: 64,
        seed: 0x10ad,
        shepherds: 2,
        pending: 16,
        reject: false,
        trace: false,
    };
    for &stack in &stacks {
        for &r in &rates {
            specs.push(LoadSpec {
                gen: GenMode::Open { rate_cps: r },
                ..base(stack)
            });
        }
    }
    let closed_at = specs.len();
    for &stack in &stacks {
        specs.push(LoadSpec {
            gen: GenMode::Closed {
                clients: closed_clients,
                think_ns: 2_000_000,
            },
            ..base(stack)
        });
    }
    let routed_at = specs.len();
    let routed: Vec<LoadStack> = stacks.iter().copied().filter(|s| s.routable()).collect();
    for &stack in &routed {
        specs.push(LoadSpec {
            topo: Topology::Routed { hosts },
            gen: GenMode::Open { rate_cps: rates[1] },
            ..base(stack)
        });
    }

    eprintln!(
        "xload: {} specs ({} stacks x {} rates + closed + routed), sequential then {} threads",
        specs.len(),
        stacks.len(),
        rates.len(),
        opts.threads
    );
    let seq = par::run_indexed(specs.clone(), 1, LoadSpec::run);
    let parl = par::run_indexed(specs, opts.threads, LoadSpec::run);
    let identical = seq == parl;

    // One goodput curve a stack: its points and whether it holds its shape.
    let curves: Vec<(&LoadStack, &[LoadReport], bool)> = stacks
        .iter()
        .zip(seq[..closed_at].chunks(rates.len()))
        .map(|(stack, points)| {
            let goodputs: Vec<u64> = points.iter().map(|r| r.goodput_cps).collect();
            let mono = monotone_then_saturating(&goodputs);
            eprintln!(
                "  {:>13}  goodput {:?} cps, p99 {:?} us, monotone {}",
                stack.name(),
                goodputs,
                points
                    .iter()
                    .map(|r| r.latency.p99_ns / 1000)
                    .collect::<Vec<_>>(),
                mono
            );
            (stack, points, mono)
        })
        .collect();
    let all_monotone = curves.iter().all(|&(_, _, mono)| mono);

    let mut w = JsonWriter::pretty();
    w.object(|w| {
        w.key("schema").string("xbench.xload/1");
        w.key("quick").bool(opts.quick);
        w.key("threads").u64(opts.threads as u64);
        w.key("client_hosts").u64(hosts as u64);
        w.key("duration_ns").u64(duration_ns);
        w.key("sweep").array(|w| {
            for &(stack, points, mono) in &curves {
                w.object(|w| {
                    w.key("stack").string(stack.name());
                    w.key("monotone").bool(mono);
                    w.key("points")
                        .array(|w| points.iter().for_each(|r| point(w, r)));
                });
            }
        });
        samples(w.key("closed"), &stacks, &seq[closed_at..routed_at]);
        samples(w.key("routed"), &routed, &seq[routed_at..]);
        w.key("reports_bit_identical").bool(identical);
    });

    assert!(
        identical,
        "parallel load reports diverged from sequential — determinism broken"
    );
    assert!(
        all_monotone,
        "a goodput curve regressed before saturating — see sweep output"
    );
    if let Some(dir) = opts.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&opts.out, w.finish())
        .map_err(|e| format!("write {}: {e}", opts.out.display()))?;
    eprintln!("wrote {}", opts.out.display());
    Ok(())
}
