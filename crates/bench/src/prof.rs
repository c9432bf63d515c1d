//! `xbench xprof` — where the microseconds go.
//!
//! Reruns the Table I/II null-RPC latency experiment with structured
//! tracing enabled and decomposes each stack's round trip into per-layer,
//! per-operation-class costs. Three artifacts per run:
//!
//! * `XPROF.folded` — flamegraph-compatible folded stacks (one root frame
//!   per stack configuration; feed to `flamegraph.pl` or speedscope).
//! * `XPROF.md` — the per-layer cost tables in markdown.
//! * `BENCH_xprof.json` — machine-readable summary, written through
//!   [`xkernel::json::JsonWriter`].
//!
//! The harness asserts the ledger's conservation invariant before writing
//! anything: every client-host bucket must sum to the measured window to
//! the nanosecond, and the traced latency must equal the untraced golden
//! measurement bit for bit.
//!
//! ```text
//! xbench xprof [--quick] [--out-dir DIR]
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use xkernel::json::JsonWriter;
use xrpc::stacks::ALL_RPC_STACKS;

use crate::{rpc_latency_iters, rpc_latency_traced, LATENCY_ITERS};

/// What `xbench xprof` takes.
#[derive(Debug, PartialEq, Eq)]
pub struct Opts {
    /// 40 calls a stack instead of [`LATENCY_ITERS`].
    pub quick: bool,
    /// The directory the three artifacts go to.
    pub out_dir: PathBuf,
}

/// Runs the traced experiment on every stack and writes the three artifacts.
pub fn run(opts: &Opts) -> Result<(), String> {
    let iters = if opts.quick { 40 } else { LATENCY_ITERS };

    let mut folded = String::new();
    let mut md = String::new();
    md.push_str("# Where the microseconds go\n\n");
    let _ = writeln!(
        md,
        "Null-RPC round trips, {iters} calls per stack, per-layer cost \
         attribution from the xtrace ledger. Every table sums to the \
         stack's round-trip latency exactly.\n"
    );

    let mut traced = Vec::new();
    for stack in &ALL_RPC_STACKS {
        let tr = rpc_latency_traced(stack, iters);
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
        traced.push((stack.name, tr, client_sum));
    }

    let mut json = JsonWriter::pretty();
    json.object(|w| {
        w.key("schema").string("xbench.xprof/1");
        w.key("quick").bool(opts.quick);
        w.key("iters").u64(iters as u64);
        w.key("stacks").array(|w| {
            for (stack, tr, client_sum) in &traced {
                w.object(|w| {
                    w.key("stack").string(stack);
                    w.key("latency_ns").u64(tr.latency_ns);
                    w.key("window_ns").u64(tr.window_ns);
                    w.key("client_sum_ns").u64(*client_sum);
                    w.key("conserved").bool(*client_sum == tr.window_ns);
                    w.key("layers").array(|w| {
                        for e in &tr.breakdown.entries {
                            w.object(|w| {
                                w.key("host").u64(e.host.0 as u64);
                                w.key("layer").string(&e.proto);
                                w.key("class").string(e.class.as_str());
                                w.key("ns").u64(e.ns);
                            });
                        }
                    });
                });
            }
        });
    });

    let write = |name: &str, text: &str| {
        let path = opts.out_dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok::<_, String>(path.display().to_string())
    };
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("create {}: {e}", opts.out_dir.display()))?;
    eprintln!(
        "wrote {}, {}, {}",
        write("XPROF.folded", &folded)?,
        write("XPROF.md", &md)?,
        write("BENCH_xprof.json", &json.finish())?
    );
    Ok(())
}
