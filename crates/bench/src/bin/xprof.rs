//! `xbench xprof` — where the microseconds go.
//!
//! Reruns the Table I/II null-RPC latency experiment with structured
//! tracing enabled and decomposes each stack's round trip into per-layer,
//! per-operation-class costs. Three artifacts per run:
//!
//! * `XPROF.folded` — flamegraph-compatible folded stacks (one root frame
//!   per stack configuration; feed to `flamegraph.pl` or speedscope).
//! * `XPROF.md` — the per-layer cost tables in markdown.
//! * `BENCH_xprof.json` — machine-readable summary (self-validated before
//!   writing; the process exits non-zero on a missing field).
//!
//! The harness asserts the ledger's conservation invariant before writing
//! anything: every client-host bucket must sum to the measured window to
//! the nanosecond, and the traced latency must equal the untraced golden
//! measurement bit for bit.
//!
//! ```text
//! xprof [--quick] [--out-dir DIR]
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use xbench::{js, rpc_latency_iters, rpc_latency_traced, validate, TracedLatency, LATENCY_ITERS};
use xrpc::stacks::ALL_RPC_STACKS;

struct Opts {
    quick: bool,
    out_dir: PathBuf,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        quick: false,
        out_dir: PathBuf::from("."),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--out-dir" => {
                opts.out_dir = PathBuf::from(args.next().expect("--out-dir needs a value"))
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: xprof [--quick] [--out-dir DIR]");
                std::process::exit(2);
            }
        }
    }
    opts
}

/// Required fields of the `xbench.xprof/1` schema; `ci.sh` greps for the
/// same list, so neither side can silently drop one.
const REQUIRED_FIELDS: &[&str] = &[
    "schema",
    "quick",
    "iters",
    "stacks",
    "latency_ns",
    "window_ns",
    "client_sum_ns",
    "conserved",
    "layers",
];

fn main() {
    let opts = parse_opts();
    let iters = if opts.quick { 40 } else { LATENCY_ITERS };

    let mut folded = String::new();
    let mut md = String::new();
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"xbench.xprof/1\",\n");
    let _ = writeln!(json, "  \"quick\": {},", opts.quick);
    let _ = writeln!(json, "  \"iters\": {iters},");
    json.push_str("  \"stacks\": [\n");

    md.push_str("# Where the microseconds go\n\n");
    let _ = writeln!(
        md,
        "Null-RPC round trips, {iters} calls per stack, per-layer cost \
         attribution from the xtrace ledger. Every table sums to the \
         stack's round-trip latency exactly.\n"
    );

    for (si, stack) in ALL_RPC_STACKS.iter().enumerate() {
        let tr: TracedLatency = rpc_latency_traced(stack, iters);
        let client_sum = tr.breakdown.host_total(tr.client);
        let conserved = client_sum == tr.window_ns;
        // Non-interference with the goldens: the traced run must measure
        // the same virtual time the untraced tables print.
        let untraced = rpc_latency_iters(stack, iters);
        eprintln!(
            "{:>14}: {:>9} ns/call, client ledger {} ns / window {} ns ({})",
            stack.name,
            tr.latency_ns,
            client_sum,
            tr.window_ns,
            if conserved { "conserved" } else { "LEAK" }
        );
        assert!(
            conserved,
            "{}: ledger leak — client buckets sum to {client_sum} ns, window is {} ns",
            stack.name, tr.window_ns
        );
        assert_eq!(
            tr.latency_ns, untraced,
            "{}: tracing perturbed the measured latency",
            stack.name
        );

        // --- folded stacks, rooted at the stack name ---
        for line in &tr.folded {
            let _ = writeln!(folded, "{};{line}", stack.name);
        }

        // --- markdown table: client-host buckets, biggest first ---
        let _ = writeln!(
            md,
            "## {} — {} ns per null call\n",
            stack.name, tr.latency_ns
        );
        md.push_str("| layer | class | ns/call | % of round trip |\n");
        md.push_str("|---|---|---:|---:|\n");
        let mut rows: Vec<_> = tr
            .breakdown
            .entries
            .iter()
            .filter(|e| e.host == tr.client)
            .collect();
        rows.sort_by(|a, b| b.ns.cmp(&a.ns).then(a.proto.cmp(&b.proto)));
        for e in rows {
            let _ = writeln!(
                md,
                "| {} | {} | {:.1} | {:.2} |",
                e.proto,
                e.class.as_str(),
                e.ns as f64 / iters as f64,
                100.0 * e.ns as f64 / tr.window_ns as f64
            );
        }
        md.push('\n');

        // --- JSON ---
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"stack\": {},", js(stack.name));
        let _ = writeln!(json, "      \"latency_ns\": {},", tr.latency_ns);
        let _ = writeln!(json, "      \"window_ns\": {},", tr.window_ns);
        let _ = writeln!(json, "      \"client_sum_ns\": {client_sum},");
        let _ = writeln!(json, "      \"conserved\": {conserved},");
        json.push_str("      \"layers\": [\n");
        let n = tr.breakdown.entries.len();
        for (i, e) in tr.breakdown.entries.iter().enumerate() {
            let _ = writeln!(
                json,
                "        {{\"host\": {}, \"layer\": {}, \"class\": {}, \"ns\": {}}}{}",
                e.host.0,
                js(&e.proto),
                js(e.class.as_str()),
                e.ns,
                if i + 1 < n { "," } else { "" }
            );
        }
        json.push_str("      ]\n");
        let _ = writeln!(
            json,
            "    }}{}",
            if si + 1 < ALL_RPC_STACKS.len() {
                ","
            } else {
                ""
            }
        );
    }
    json.push_str("  ]\n}\n");

    if let Err(e) = validate(&json, "xbench.xprof/1", REQUIRED_FIELDS) {
        eprintln!("BENCH_xprof.json failed schema validation: {e}");
        std::process::exit(1);
    }
    std::fs::create_dir_all(&opts.out_dir).expect("create --out-dir");
    let fold_path = opts.out_dir.join("XPROF.folded");
    let md_path = opts.out_dir.join("XPROF.md");
    let json_path = opts.out_dir.join("BENCH_xprof.json");
    std::fs::write(&fold_path, &folded).expect("write XPROF.folded");
    std::fs::write(&md_path, &md).expect("write XPROF.md");
    std::fs::write(&json_path, &json).expect("write BENCH_xprof.json");
    eprintln!(
        "wrote {}, {}, {}",
        fold_path.display(),
        md_path.display(),
        json_path.display()
    );
}
