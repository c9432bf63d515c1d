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
//! Emits `BENCH_xload.json` (self-validated before writing; the process
//! exits non-zero on a schema violation, a non-monotone curve, or a
//! sequential/parallel divergence). Usage:
//!
//! ```text
//! xload [--quick] [--threads N] [--out PATH]
//! ```

use std::fmt::Write as _;

use xbench::{js, validate};
use xkernel::par;
use xload::{GenMode, LoadReport, LoadSpec, LoadStack, Topology};

struct Opts {
    quick: bool,
    threads: usize,
    out: String,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        quick: false,
        threads: par::detect_cores(),
        out: "BENCH_xload.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--threads" => {
                let v = args.next().expect("--threads needs a value");
                opts.threads = v.parse().expect("--threads needs a number");
            }
            "--out" => opts.out = args.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: xload [--quick] [--threads N] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    opts
}

/// Required fields of the `xbench.xload/1` schema; `ci.sh` greps for the
/// same list, so a field can't silently vanish from either side.
const REQUIRED_FIELDS: &[&str] = &[
    "schema",
    "quick",
    "threads",
    "sweep",
    "stack",
    "points",
    "offered_cps",
    "completed",
    "goodput_cps",
    "p50_ns",
    "p90_ns",
    "p99_ns",
    "p999_ns",
    "dropped",
    "rejected",
    "peak_queue",
    "monotone",
    "closed",
    "routed",
    "reports_bit_identical",
];

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

/// One JSON object for a load report (a sweep point or a sample row).
fn point_json(r: &LoadReport) -> String {
    format!(
        "{{\"gen\": {}, \"offered_cps\": {}, \"attempted\": {}, \"completed\": {}, \
         \"failed\": {}, \"goodput_cps\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \
         \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}, \"dropped\": {}, \
         \"rejected\": {}, \"peak_queue\": {}}}",
        js(&r.gen),
        r.offered_cps,
        r.attempted,
        r.completed,
        r.failed,
        r.goodput_cps,
        r.latency.p50_ns,
        r.latency.p90_ns,
        r.latency.p99_ns,
        r.latency.p999_ns,
        r.latency.max_ns,
        r.shepherd.dropped,
        r.shepherd.rejected,
        r.shepherd.peak_queue,
    )
}

fn main() {
    let opts = parse_opts();
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

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"xbench.xload/1\",\n");
    let _ = writeln!(json, "  \"quick\": {},", opts.quick);
    let _ = writeln!(json, "  \"threads\": {},", opts.threads);
    let _ = writeln!(json, "  \"client_hosts\": {hosts},");
    let _ = writeln!(json, "  \"duration_ns\": {duration_ns},");

    let mut all_monotone = true;
    json.push_str("  \"sweep\": [\n");
    for (si, stack) in stacks.iter().enumerate() {
        let points = &seq[si * rates.len()..(si + 1) * rates.len()];
        let goodputs: Vec<u64> = points.iter().map(|r| r.goodput_cps).collect();
        let mono = monotone_then_saturating(&goodputs);
        all_monotone &= mono;
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
        let _ = writeln!(json, "    {{\"stack\": {},", js(stack.name()));
        let _ = writeln!(json, "     \"monotone\": {mono},");
        json.push_str("     \"points\": [\n");
        for (i, r) in points.iter().enumerate() {
            let _ = writeln!(
                json,
                "       {}{}",
                point_json(r),
                if i + 1 < points.len() { "," } else { "" }
            );
        }
        json.push_str("     ]\n");
        let _ = writeln!(
            json,
            "    }}{}",
            if si + 1 < stacks.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");

    json.push_str("  \"closed\": [\n");
    for (i, (stack, r)) in stacks.iter().zip(&seq[closed_at..routed_at]).enumerate() {
        let _ = writeln!(
            json,
            "    {{\"stack\": {}, \"point\": {}}}{}",
            js(stack.name()),
            point_json(r),
            if i + 1 < stacks.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");

    json.push_str("  \"routed\": [\n");
    for (i, (stack, r)) in routed.iter().zip(&seq[routed_at..]).enumerate() {
        let _ = writeln!(
            json,
            "    {{\"stack\": {}, \"point\": {}}}{}",
            js(stack.name()),
            point_json(r),
            if i + 1 < routed.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");

    let _ = writeln!(json, "  \"reports_bit_identical\": {identical}");
    json.push_str("}\n");

    if let Err(e) = validate(&json, "xbench.xload/1", REQUIRED_FIELDS) {
        eprintln!("BENCH_xload.json failed schema validation: {e}");
        std::process::exit(1);
    }
    assert!(
        identical,
        "parallel load reports diverged from sequential — determinism broken"
    );
    assert!(
        all_monotone,
        "a goodput curve regressed before saturating — see sweep output"
    );
    std::fs::write(&opts.out, &json).expect("write BENCH_xload.json");
    eprintln!("wrote {}", opts.out);
}
