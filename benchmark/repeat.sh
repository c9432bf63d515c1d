#!/usr/bin/env bash
# Measures the benchmark's own steadiness on one commit, the way the driver
# does, and writes REPEATABILITY.md:
#
#   * two sets of untraced runs, each all six workloads at seeds 1..10; for
#     every end-to-end metric the spread (inter-quartile distance over the
#     median) of each set and how far set B's median is from set A's;
#   * traced runs at seed 1 twice and seed 2 once; which per-layer metrics
#     repeat exactly, and which of those the seed moves;
#   * the sanity checks on the ledger.
#
# About 35 minutes. Raw result lines are kept in out/repeat/;
# `repeat.sh --report` only rewrites REPEATABILITY.md from them.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
raw="$here/out/repeat"
mkdir -p "$raw"
workloads="null_inline null_sched bulk_xfer load_contended resident_200k chaos_soak"

run() { # run <file> <trace> <seed> <workload>
    local out raw_cps
    out="$("$here/run.sh" --workload "$4" --seed "$3" --trace "$2")"
    # The untraced run's info line keeps the unscaled throughput.
    raw_cps="$(sed -n 's/.* raw_calls_per_s \([0-9]*\) .*/\1/p' <<<"$out")"
    printf '{"workload": "%s", "seed": %s, "raw_calls_per_s": %s, "result": %s}\n' \
        "$4" "$3" "${raw_cps:-null}" "$(tail -n 1 <<<"$out")" >>"$1"
}

if [ "${1:-}" != "--report" ]; then
    for set in A B; do
        : >"$raw/e2e_$set.jsonl"
        for seed in 1 2 3 4 5 6 7 8 9 10; do
            for w in $workloads; do run "$raw/e2e_$set.jsonl" 0 "$seed" "$w"; done
        done
    done
    for name in seed1_a:1 seed1_b:1 seed2:2; do
        : >"$raw/layer_${name%%:*}.jsonl"
        for w in $workloads; do run "$raw/layer_${name%%:*}.jsonl" 1 "${name##*:}" "$w"; done
    done
fi

python3 - "$raw" "$here/../BENCHMARK.json" >"$here/REPEATABILITY.md" <<'EOF'
import json, statistics, sys
raw, manifest = sys.argv[1], json.load(open(sys.argv[2]))

def load(name):
    return [json.loads(line) for line in open(f"{raw}/{name}.jsonl")]

def values(rows, workload, metric):
    return [r["result"]["metrics"][metric]["value"] for r in rows if r["workload"] == workload]

def spread(vals):
    q = statistics.quantiles(vals, n=4)
    return (q[2] - q[0]) / statistics.median(vals)

workloads = [w["name"] for w in manifest["workloads"]]
sets = {s: load(f"e2e_{s}") for s in "AB"}
print("# Repeatability of xkbench on one commit\n")
print("Written by `benchmark/repeat.sh`; do not edit. Two sets of runs of the same")
print("code, each all six workloads at seeds 1 to 10, `--trace 0`, one process per run.")
print("Spread is the distance between the first and third quartile of a set's ten")
print("values (`statistics.quantiles(values, n=4)`) as a share of their median. Drift is")
print("how much worse set B's median is than set A's (negative: better). A row passes")
print("when both spreads and the drift are within the bound (`setup_s`: the drift")
print("only); `steady` says whether both spreads are also under a third of it.\n")
failed = sum(r["result"]["failed"] for s in sets.values() for r in s)
wrong = sum(not r["result"]["correct"] for s in sets.values() for r in s)
runs = sum(len(s) for s in sets.values())
print(f"{runs} runs, {wrong} incorrect, {failed} failed operations.\n")
print("| workload | metric | unit | median A | spread A | median B | spread B | drift | bound | pass | steady |")
print("|---|---|---|---|---|---|---|---|---|---|---|")
ok = True
for w in workloads:
    for m in manifest["end_to_end"]:
        a, b = (values(sets[s], w, m["name"]) for s in "AB")
        ma, mb = statistics.median(a), statistics.median(b)
        drift = (mb - ma) / ma * (1 if m["better"] == "lower" else -1)
        sa, sb = spread(a), spread(b)
        spreads_ok = m["name"] == "setup_s" or max(sa, sb) <= m["bound"]
        passed = spreads_ok and drift <= m["bound"]
        ok &= passed
        steady = max(sa, sb) <= m["bound"] / 3
        print(f"| {w} | {m['name']} | {m['unit']} | {ma:.6g} | {sa:.1%} | {mb:.6g} | {sb:.1%} | "
              f"{drift:+.1%} | {m['bound']:.0%} | {'yes' if passed else 'NO'} | {'yes' if steady else 'no'} |")
print(f"\nEvery row passes: {'yes' if ok else 'NO'}.\n")

print("## What the probe buys\n")
print("`calls_per_s` as reported (round times scaled by the reference kernel beside")
print("them) against the same runs' unscaled throughput from their `info` lines.\n")
print("| workload | spread A, unscaled | spread A, scaled | spread B, unscaled | spread B, scaled |")
print("|---|---|---|---|---|")
for w in workloads:
    cells = []
    for s in "AB":
        unscaled = [r["raw_calls_per_s"] for r in sets[s] if r["workload"] == w]
        cells += [f"{spread(unscaled):.1%}", f"{spread(values(sets[s], w, 'calls_per_s')):.1%}"]
    print(f"| {w} | {' | '.join(cells)} |")
print()

a, b, other = load("layer_seed1_a"), load("layer_seed1_b"), load("layer_seed2")
exact_units = {"count", "bytes", "virt_us", "1/virt_s", "kB/virt_s"}
exact = [m["name"] for m in manifest["per_layer"]
         if m["unit"] in exact_units or m["name"] in ("simnet.wire_util", "virt.paper_err_pct")]
# Measured, not derived: the resident set size comes in pages, and the
# workload's allocation count moves by parts in ten million with the standard
# library's per-process hash seeds (when a table sheds its tombstones).
for measured in ("sim.machine.bytes_resident", "alloc.allocs_per_call", "alloc.bytes_per_call"):
    exact.remove(measured)
print("## Per-layer metrics that must repeat exactly\n")
print(f"{len(exact)} of the {len(manifest['per_layer'])} per-layer metrics are counts or virtual time.")
print("Two traced runs at seed 1 must print them identically on every workload; a traced")
print("run at seed 2 may differ only where the seed feeds the inputs (think times and")
print("payloads of `load_contended`, the scenarios of `chaos_soak`).\n")
print("| workload | differ between the two seed-1 runs | differ at seed 2 |")
print("|---|---|---|")
for w in workloads:
    same = [m for m in exact if values(a, w, m) != values(b, w, m)]
    moved = [m for m in exact if values(a, w, m) != values(other, w, m)]
    print(f"| {w} | {', '.join(same) or 'none'} | {', '.join(moved) or 'none'} |")

def layer(rows, w, m):
    return values(rows, w, m)[0]

print("\n## Sanity of the ledger (first seed-1 traced run)\n")
rungs = ["select", "vipsize", "mrpc_eth", "mrpc_ip", "mrpc_vip"]
ladder = statistics.mean(layer(a, "null_inline", f"ladder.{r}.ns_per_rt") for r in rungs)
inline = 1e9 / statistics.median(values(sets["A"], "null_inline", "calls_per_s"))
parts = ["xrpc.vip_eth.self_ns", "xrpc.fragment.self_ns", "xrpc.channel.self_ns", "xrpc.select.self_ns"]
total = sum(layer(a, "null_inline", p) for p in parts)
select = layer(a, "null_inline", "ladder.select.ns_per_rt")
checks = [
    (f"mean of the five RPC rungs {ladder:.0f} ns vs `null_inline` {inline:.0f} ns per call "
     f"({ladder / inline - 1:+.1%})", abs(ladder / inline - 1) <= 0.10),
    (f"self times of vip_eth, fragment, channel, select sum to {total:.1f} ns = "
     f"`ladder.select.ns_per_rt` {select:.1f} ns", abs(total - select) < 1e-6 * select),
    (f"`null_sched` sim.events_per_call = {layer(a, 'null_sched', 'sim.events_per_call'):.6g} "
     "(stack mean of 3, 3, 3, 5, 3, plus one spawn per rig and round)",
     abs(layer(a, "null_sched", "sim.events_per_call") - 3.4) < 0.001),
]
for rows, seed in ((a, 1), (other, 2)):
    cps = layer(rows, "load_contended", "virt.goodput_cps")
    ev = layer(rows, "load_contended", "sim.events_per_call")
    rx = layer(rows, "load_contended", "rto.retransmits_per_kcall")
    checks.append((f"`load_contended` seed {seed}: goodput {cps:.1f} calls per virtual second, "
                   f"{ev:.2f} events and {rx / 1e3:.4f} retransmits per call (below the collapse knee)",
                   520 <= cps <= 570 and 6.9 <= ev <= 7.2 and rx < 10))
live = layer(a, "resident_200k", "sim.peak_live")
p50, p999 = (layer(a, "resident_200k", f"virt.{p}_us") for p in ("p50", "p999"))
checks.append((f"`resident_200k` peak_live {live:.0f}, virtual p50 {p50:.0f} us < p99.9 {p999:.0f} us",
               live >= 200000 and p999 > p50))
for text, good in checks:
    print(f"- {'ok' if good else 'FAILED'}: {text}")
EOF
echo "repeat.sh: wrote $here/REPEATABILITY.md"
