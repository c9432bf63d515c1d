//! `xbench wallclock` — the wall-clock performance harness.
//!
//! Every other binary in this crate reports **virtual** time: calibrated
//! Sun 3/75 nanoseconds that reproduce the paper's tables bit for bit.
//! This one measures how fast the simulator itself runs on the host —
//! null-RPC calls per second over the inline-synchronous network, scheduler
//! events per second in discrete-event mode, and the chaos soak matrix's
//! wall time sequentially versus fanned out across OS threads.
//!
//! Emits `BENCH_wallclock.json` (self-validated before writing; the
//! process exits non-zero if a required field is missing). Usage:
//!
//! ```text
//! wallclock [--quick] [--threads N] [--out PATH]
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use chaos::{full_matrix, run_matrix};
use parking_lot::Mutex;
use std::sync::Arc;
use xbench::{registry, rpc_rig};
use xkernel::par;
use xkernel::sim::Mode;
use xrpc::procs::NULL_PROC;
use xrpc::stacks::{StackDef, ALL_RPC_STACKS};

/// Sequential-vs-parallel soak samples taken, and the least time the
/// sequential side of each runs for.
const SOAK_SAMPLES: usize = 5;
const SOAK_SAMPLE_SECS: f64 = 0.5;

struct Opts {
    quick: bool,
    threads: usize,
    out: String,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        quick: false,
        threads: par::default_threads(),
        out: "BENCH_wallclock.json".to_string(),
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
                eprintln!("usage: wallclock [--quick] [--threads N] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    opts
}

/// Wall-clock time of `calls` null RPCs over the inline-synchronous
/// network (one call chain on one thread, no scheduler).
fn null_rpc_wall(stack: &StackDef, calls: u32) -> f64 {
    let tb = rpc_rig(stack, Mode::Inline);
    let ctx = tb.sim.ctx(tb.client.host());
    let k = tb.client.clone();
    let server_ip = tb.server_ip;
    // Warm ARP and session caches outside the timed window.
    xrpc::call(&ctx, &k, stack.entry, server_ip, NULL_PROC, Vec::new()).expect("warm-up call");
    let t0 = Instant::now();
    for _ in 0..calls {
        xrpc::call(&ctx, &k, stack.entry, server_ip, NULL_PROC, Vec::new()).expect("null call");
    }
    t0.elapsed().as_secs_f64()
}

/// Runs `calls` null RPCs in discrete-event mode and returns
/// (events executed, wall seconds) for the whole scheduled run.
fn scheduled_events_wall(stack: &StackDef, calls: u32) -> (u64, f64) {
    let tb = rpc_rig(stack, Mode::Scheduled);
    let server_ip = tb.server_ip;
    let entry = stack.entry;
    let done = Arc::new(Mutex::new(false));
    let d2 = Arc::clone(&done);
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        for _ in 0..calls {
            xrpc::call(ctx, &k, entry, server_ip, NULL_PROC, Vec::new()).expect("null call");
        }
        *d2.lock() = true;
    });
    let t0 = Instant::now();
    let report = tb.sim.run_until_idle();
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(report.blocked, 0, "scheduled run must drain");
    assert!(*done.lock(), "client must finish");
    (report.events, wall)
}

/// Escapes a string for JSON (the only non-ASCII-safe thing we emit is a
/// stack name, but be correct anyway).
fn js(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Required fields of the `xbench.wallclock/1` schema. The harness refuses
/// to write a file that is missing any of them, and `ci.sh` greps for the
/// same list, so a field can't silently vanish from either side.
const REQUIRED_FIELDS: &[&str] = &[
    "\"schema\"",
    "\"quick\"",
    "\"cores\"",
    "\"threads\"",
    "\"null_rpc\"",
    "\"calls_per_sec\"",
    "\"scheduled\"",
    "\"events_per_sec\"",
    "\"soak\"",
    "\"scenarios\"",
    "\"samples\"",
    "\"sample_secs\"",
    "\"sequential_wall_secs\"",
    "\"parallel_wall_secs\"",
    "\"per_stack_wall_secs\"",
    "\"speedup\"",
    "\"reports_bit_identical\"",
];

fn validate(json: &str) -> Result<(), String> {
    for f in REQUIRED_FIELDS {
        if !json.contains(f) {
            return Err(format!("missing required field {f}"));
        }
    }
    let opens = json.matches(['{', '[']).count();
    let closes = json.matches(['}', ']']).count();
    if opens != closes {
        return Err(format!("unbalanced brackets: {opens} open, {closes} close"));
    }
    if !json.contains("\"schema\": \"xbench.wallclock/1\"") {
        return Err("schema tag is not xbench.wallclock/1".to_string());
    }
    Ok(())
}

fn main() {
    let opts = parse_opts();
    // Honest core count: available_parallelism alone under-reports inside
    // cgroup-pinned containers (see par::detect_cores), which used to make
    // this harness claim cores: 1 / threads: 1 on multi-core hosts.
    let cores = par::detect_cores();
    let (null_calls, sched_calls, soak_seeds, soak_calls) = if opts.quick {
        (200u32, 100u32, 1u64, 4u32)
    } else {
        (2000u32, 400u32, 2u64, 8u32)
    };

    // Touch the registry once up front so first-use construction cost does
    // not land inside the first stack's timed window.
    let _ = registry();

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"xbench.wallclock/1\",\n");
    let _ = writeln!(json, "  \"quick\": {},", opts.quick);
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(json, "  \"threads\": {},", opts.threads);

    // --- Null-RPC calls/sec, inline-synchronous network. ---
    eprintln!("null-RPC calls/sec (inline, {null_calls} calls per stack)");
    json.push_str("  \"null_rpc\": [\n");
    for (i, stack) in ALL_RPC_STACKS.iter().enumerate() {
        let wall = null_rpc_wall(stack, null_calls);
        let rate = f64::from(null_calls) / wall;
        eprintln!("  {:>12}  {:>12.0} calls/sec", stack.name, rate);
        let _ = writeln!(
            json,
            "    {{\"stack\": {}, \"calls\": {}, \"wall_secs\": {:.6}, \"calls_per_sec\": {:.1}}}{}",
            js(stack.name),
            null_calls,
            wall,
            rate,
            if i + 1 < ALL_RPC_STACKS.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");

    // --- Scheduler events/sec, discrete-event mode. ---
    eprintln!("scheduler events/sec (scheduled, {sched_calls} calls per stack)");
    json.push_str("  \"scheduled\": [\n");
    for (i, stack) in ALL_RPC_STACKS.iter().enumerate() {
        let (events, wall) = scheduled_events_wall(stack, sched_calls);
        let rate = events as f64 / wall;
        eprintln!("  {:>12}  {:>12.0} events/sec", stack.name, rate);
        let _ = writeln!(
            json,
            "    {{\"stack\": {}, \"events\": {}, \"wall_secs\": {:.6}, \"events_per_sec\": {:.1}}}{}",
            js(stack.name),
            events,
            wall,
            rate,
            if i + 1 < ALL_RPC_STACKS.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");

    // --- Chaos soak matrix: sequential vs parallel wall time. ---
    let scenarios = full_matrix(0xbe9c_0000, soak_seeds, soak_calls);
    eprintln!(
        "soak matrix: {} scenarios, sequential then {} threads",
        scenarios.len(),
        opts.threads
    );
    // Per-stack sequential wall time: each scenario timed individually so
    // the per-stack split costs nothing extra.
    let mut per_stack: Vec<(&'static str, f64)> = Vec::new();
    let mut seq_reports = Vec::with_capacity(scenarios.len());
    for sc in &scenarios {
        let t0 = Instant::now();
        seq_reports.push(sc.run_checked());
        let dt = t0.elapsed().as_secs_f64();
        let name = sc.stack.name();
        match per_stack.iter_mut().find(|(n, _)| *n == name) {
            Some((_, acc)) => *acc += dt,
            None => per_stack.push((name, dt)),
        }
    }
    let par_reports = run_matrix(scenarios.clone(), opts.threads, true);
    let identical = seq_reports == par_reports;

    // One pass of the matrix is milliseconds — shorter than this host's
    // speed holds still, and shorter than a worker thread takes to start
    // and map its coroutine stacks — so a single sequential-vs-parallel pair
    // says nothing. Each sample repeats the matrix until the sequential side
    // has run for SOAK_SAMPLE_SECS, then fans the same number of passes out
    // as one batch, so the threads start once per sample as they do in a
    // soak of that length; the figures reported are per pass, medians over
    // the samples.
    let mut samples: Vec<(f64, f64)> = (0..SOAK_SAMPLES)
        .map(|_| {
            let t_seq = Instant::now();
            let mut passes = 0usize;
            while t_seq.elapsed().as_secs_f64() < SOAK_SAMPLE_SECS {
                run_matrix(scenarios.clone(), 1, true);
                passes += 1;
            }
            let seq = t_seq.elapsed().as_secs_f64();
            let batch = scenarios.repeat(passes);
            let t_par = Instant::now();
            run_matrix(batch, opts.threads, true);
            let par = t_par.elapsed().as_secs_f64();
            (seq / passes as f64, par / passes as f64)
        })
        .collect();
    let mut median_by = |key: fn(&(f64, f64)) -> f64| {
        samples.sort_by(|a, b| key(a).total_cmp(&key(b)));
        key(&samples[samples.len() / 2])
    };
    let seq_wall = median_by(|s| s.0);
    let par_wall = median_by(|s| s.1);
    let speedup = median_by(|s| s.0 / s.1);
    eprintln!(
        "  per pass, median of {SOAK_SAMPLES} samples of {SOAK_SAMPLE_SECS}s: sequential \
         {seq_wall:.4}s, parallel {par_wall:.4}s, speedup {speedup:.2}x, \
         bit-identical: {identical}"
    );

    json.push_str("  \"soak\": {\n");
    let _ = writeln!(json, "    \"scenarios\": {},", scenarios.len());
    let _ = writeln!(json, "    \"calls_per_scenario\": {soak_calls},");
    let _ = writeln!(json, "    \"samples\": {SOAK_SAMPLES},");
    let _ = writeln!(json, "    \"sample_secs\": {SOAK_SAMPLE_SECS},");
    let _ = writeln!(json, "    \"sequential_wall_secs\": {seq_wall:.6},");
    let _ = writeln!(json, "    \"parallel_wall_secs\": {par_wall:.6},");
    let _ = writeln!(json, "    \"parallel_threads\": {},", opts.threads);
    let _ = writeln!(json, "    \"speedup\": {speedup:.3},");
    let _ = writeln!(json, "    \"reports_bit_identical\": {identical},");
    json.push_str("    \"per_stack_wall_secs\": [\n");
    for (i, (name, secs)) in per_stack.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"stack\": {}, \"wall_secs\": {:.6}}}{}",
            js(name),
            secs,
            if i + 1 < per_stack.len() { "," } else { "" }
        );
    }
    json.push_str("    ]\n");
    json.push_str("  }\n");
    json.push_str("}\n");

    if let Err(e) = validate(&json) {
        eprintln!("BENCH_wallclock.json failed schema validation: {e}");
        std::process::exit(1);
    }
    assert!(
        identical,
        "parallel soak reports diverged from sequential — determinism broken"
    );
    std::fs::write(&opts.out, &json).expect("write BENCH_wallclock.json");
    eprintln!("wrote {}", opts.out);
}
