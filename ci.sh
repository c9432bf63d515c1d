#!/usr/bin/env bash
# The full local gate: formatting, lints, release build, tests, and xk-lint
# over every checked-in spec. Run from the repo root; exits non-zero on the
# first failure.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets --all-features -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace -q

echo "==> cargo test --release"
# The optimized run is where the sized tests run at full size: the
# 20,000-simulations-in-one-process leak soak (tests/sim_lifetime.rs does a
# tenth unoptimized) and the 50,000-process crash reap's time bound
# (crates/xkernel/tests/engine.rs).
cargo test --workspace --release -q

echo "==> chaos-soak: fixed seed set x all stacks, each run again under a fuel watchdog"
# Already compiled by the workspace test run above; named separately so the
# invariant suite visibly gates every PR even if the test layout changes.
# chaos_runs.rs runs every soak scenario twice: pooled and unfuelled, then on
# a rig of its own under 1 << 20 charges a process (RunOpts.fuel), requiring
# fuel_exhausted == 0 and a report Eq to the first — a protocol that spins is
# a named failure at a fixed event, not a hung gate.
cargo test -p chaos -q

echo "==> count-gate: what a call costs in counts no host can move"
# ROADMAP 5(b): wall-clock stays reported, not gated; these are exact on every
# host and build, so one that rises fails here by name. Per stack: context
# switches and coroutines started per run of warm calls (2n + 4 and 2 — a
# delivered frame starts nothing), events, fuel and live processes per
# scheduled null call, allocations per inline null call — in release, as the
# benchmark builds — and cell entries per inline null call in debug (release
# builds carry no entry counter). The switch table is printed.
cargo test --release -q --test events_per_call --test alloc_per_call -- --test-threads=1 --nocapture
cargo test -q --test cell_entries

echo "==> lifetime-gate: a dropped rig frees everything"
# Protocols and the sessions they cache hold each other; a dropped kernel
# has every protocol empty its tables (Protocol::drop_sessions, DESIGN.md
# §13). A new table that its protocol forgets to list there would pass every
# behavioural test and leak a few kB per discarded rig, so the two lifetime
# tests are a named gate at full size, and a 5,000-scenario matrix run alone
# in its process must stay under a fixed peak-RSS ceiling (it stood at
# ≈ 38 MB when FRAGMENT, CHANNEL and SELECT outlived their rigs; ≈ 4 MB now).
cargo test --release -q --test sim_lifetime -- \
    a_dropped_scenario_frees_every_protocol_on_both_kernels \
    a_scenario_cut_off_with_a_parked_client_is_freed_once_it_is_killed \
    live_bytes_plateau_across_thousands_of_scenarios
cargo test --release -q --test sim_lifetime -- --ignored --exact \
    five_thousand_scenarios_stay_under_the_rss_ceiling

echo "==> vproc-gate: no OS threads in the per-process engine"
# The vproc engine runs every shepherd process as an explicit continuation
# (stackful coroutine or stackless machine) on the scheduler's own thread.
# A thread::spawn creeping back into the engine would silently reintroduce
# OS-scheduler nondeterminism, so its absence is a named gate.
SIM_DIR=crates/xkernel/src/sim
if [ ! -f "$SIM_DIR/engine.rs" ]; then
    echo "ci: vproc-gate: no $SIM_DIR/engine.rs (gate is stale)" >&2
    exit 1
fi
if hits=$(grep -n 'thread::spawn' "$SIM_DIR"/*.rs crates/xkernel/src/vproc.rs); then
    echo "ci: vproc-gate: the vproc engine spawns an OS thread — it must not:" >&2
    echo "$hits" >&2
    exit 1
fi

echo "==> engine-gate: no hash map, no lock on the charging path"
# The scheduler keeps events and processes in slabs addressed by (id, slot)
# and per-host clocks, fuel and counters in lock-free cells (DESIGN.md §11).
# The threaded engine's structure coming back — a HashMap keyed by event seq
# or process id, or a lock taken to charge a host or read a clock — would
# pass every test and quietly double the engine's cost, so it is a gate.
for fossil in 'HashMap<u64, EvKind>' 'HashMap<u64, LpState>'; do
    if hits=$(grep -nF "$fossil" "$SIM_DIR"/*.rs); then
        echo "ci: engine-gate: $SIM_DIR holds a $fossil again:" >&2
        echo "$hits" >&2
        exit 1
    fi
done
# The timeline is one mechanism (sim/timeline.rs, a radix heap whose only
# binary heap is the small `due` inside it): a second queue kept beside it, or
# the whole timeline back in a BinaryHeap, is the structure PR 21 removed.
if hits=$(grep -n 'BinaryHeap' "$SIM_DIR"/*.rs | grep -v "^$SIM_DIR/timeline.rs:"); then
    echo "ci: engine-gate: a BinaryHeap outside $SIM_DIR/timeline.rs:" >&2
    echo "$hits" >&2
    exit 1
fi
# The charging path's methods live on Ctx, Sim and SimCore: every definition
# of a method in those two files, signature to closing brace.
CHARGE_RS="$SIM_DIR/ctx.rs $SIM_DIR/handle.rs"
method_bodies() {
    # shellcheck disable=SC2086
    awk -v name="$1" '
        $0 ~ "^    (pub |pub\\((crate|super)\\) )?fn " name "[(<]" { on = 1 }
        on { print }
        on && /^    }$/ { on = 0 }' $CHARGE_RS
}
for f in charge_class now event_time note boot_epoch next_u64; do
    body=$(method_bodies "$f")
    if [ -z "$body" ]; then
        echo "ci: engine-gate: no method $f in $CHARGE_RS (gate is stale)" >&2
        exit 1
    fi
    if grep -qF '.lock()' <<<"$body"; then
        echo "ci: engine-gate: $f takes a lock" >&2
        exit 1
    fi
done
# charge_class's clock half may take the lock only to reach the trace ledger,
# i.e. only behind the trace_on flag.
if [ -z "$(method_bodies charge_clock)" ] ||
    method_bodies charge_clock | awk '/trace_on/ { guarded = 1 } /engine/ && !guarded { bad = 1 } END { exit !bad }'; then
    echo "ci: engine-gate: charge_clock is missing or takes the lock with tracing off" >&2
    exit 1
fi

echo "==> crossing-gate: no hand-rolled demux table, no clone per layer crossing"
# Every protocol's demux tables are xkernel::map's (lock-free enable side,
# one-acquisition session side; DESIGN.md §12), and a crossing reaches its
# kernel through the borrowing `Ctx::kernel_ref()`. An `OwnerCell<HashMap<..>>`
# trio copied into one more protocol, or the cloning `ctx.kernel().open(..)`
# spelling, would pass every test and quietly put the extra cell entries, the
# SipHash and the `Arc` traffic back on the path, so their absence is a gate.
TABLE_DIRS="crates/core/src crates/inet/src crates/sunrpc/src crates/psync/src crates/simnet/src
            crates/xkernel/src/kernel.rs crates/xkernel/src/shim.rs"
# shellcheck disable=SC2086
if hits=$(grep -rnE '(Mutex|RwLock|OwnerCell)<(HashMap|BTreeMap)' $TABLE_DIRS); then
    echo "ci: crossing-gate: a hand-rolled locked table is back (use xkernel::map):" >&2
    echo "$hits" >&2
    exit 1
fi
if hits=$(grep -rnE '\.kernel\(\)\.(demux_to|open|open_enable|control|open_done)\(' crates/*/src); then
    echo "ci: crossing-gate: a crossing clones its kernel (use ctx.kernel_ref()):" >&2
    echo "$hits" >&2
    exit 1
fi

echo "==> owner-gate: one guard type in a simulation, unsafe in two files, a real mutex in two"
# In-simulation state sits in xkernel::cell::OwnerCell (DESIGN.md §11): one
# thread drives a simulation, so its guards cost a load and two stores. A
# mutex coming back into a protocol crate would pass every test and put two
# atomic read-modify-writes per acquisition back on the path; a third guard
# flavour, or `unsafe` outside the two audited files, is what the cell was
# written to make unnecessary. A real mutex stays only where two OS threads
# meet: EnableMap's writer lock (map.rs) and par's result slots (par.rs).
CELL_RS=crates/xkernel/src/cell.rs
if ! grep -q 'unsafe impl' "$CELL_RS"; then
    echo "ci: owner-gate: $CELL_RS no longer holds an 'unsafe impl' (gate is stale)" >&2
    exit 1
fi
if hits=$(grep -rnw 'unsafe' crates/*/src | grep -v -e '^crates/xkernel/src/vproc.rs:' -e "^$CELL_RS:"); then
    echo "ci: owner-gate: unsafe outside vproc.rs and cell.rs:" >&2
    echo "$hits" >&2
    exit 1
fi
if hits=$(grep -rnwE 'parking_lot|Mutex|RwLock' crates/core/src crates/inet/src crates/sunrpc/src \
    crates/psync/src crates/simnet/src crates/xkernel/src |
    grep -v -e '^crates/xkernel/src/map.rs:' -e '^crates/xkernel/src/par.rs:'); then
    echo "ci: owner-gate: a mutex in in-simulation code (use xkernel::cell::OwnerCell):" >&2
    echo "$hits" >&2
    exit 1
fi

echo "==> txn-gate: one retransmit loop, one RTO policy, one boot-id draw"
# CHANNEL, M_RPC and REQUEST_REPLY recover from loss through xrpc::txn
# (DESIGN.md §14): the wait-and-retransmit loop, the RTO knob bundle and the
# incarnation draw are written there once. A fix that is applied to a private
# copy in one of the three — the way the poisoned-slot leak had to be fixed
# three times — would pass every test, so a copy coming back is a gate.
TXN_RS=crates/core/src/txn.rs
RTO_RS=crates/core/src/rto.rs
TXN_DIRS="crates/core/src crates/sunrpc/src"
BOOT_DRAW='& 0xffff_ffff) as u32 | 1'
for pat in 'RobustEvent::Retransmit' 'RobustEvent::TimeoutFired' 'backoff_rto(' \
           'p_timeout(' 'const DEFAULT_MAX_BACKOFF' "$BOOT_DRAW"; do
    if ! grep -qF "$pat" "$TXN_RS"; then
        echo "ci: txn-gate: $TXN_RS no longer holds '$pat' (gate is stale)" >&2
        exit 1
    fi
done
# shellcheck disable=SC2086
if hits=$(grep -rnE 'RobustEvent::(Retransmit|TimeoutFired)' $TXN_DIRS | grep -v "^$TXN_RS:"); then
    echo "ci: txn-gate: a retransmission is counted outside txn::transact:" >&2
    echo "$hits" >&2
    exit 1
fi
# shellcheck disable=SC2086
if hits=$(grep -rnF 'backoff_rto(' $TXN_DIRS | grep -v -e "^$TXN_RS:" -e "^$RTO_RS:"); then
    echo "ci: txn-gate: a timeout is computed outside txn::RtoPolicy:" >&2
    echo "$hits" >&2
    exit 1
fi
if hits=$(grep -nF 'p_timeout(' crates/core/src/channel.rs crates/core/src/mrpc.rs crates/sunrpc/src/rr.rs); then
    echo "ci: txn-gate: a transaction layer waits for its reply outside txn::transact:" >&2
    echo "$hits" >&2
    exit 1
fi
# shellcheck disable=SC2086
if hits=$(grep -rnF 'struct Tunables' $TXN_DIRS); then
    echo "ci: txn-gate: a per-protocol RTO knob bundle is back (use txn::RtoPolicy):" >&2
    echo "$hits" >&2
    exit 1
fi
for once in 'const DEFAULT_MAX_BACKOFF' "$BOOT_DRAW"; do
    # shellcheck disable=SC2086
    n=$(grep -rhF "$once" $TXN_DIRS | wc -l)
    if [ "$n" -ne 1 ]; then
        echo "ci: txn-gate: '$once' occurs $n times under $TXN_DIRS, want 1" >&2
        exit 1
    fi
done

echo "==> codec-gate: fixed-size headers are arrays, and the leaf codec is inlinable"
# A fixed-size header is built in a HdrBuf on the stack and read through a
# HdrReader (xkernel::wire; DESIGN.md, "What crosses a crate"); WireWriter and
# XdrWriter are for what has no fixed size. A header going back to a heap
# writer, or the codec losing its #[inline] hints, would pass every test and
# put an allocation per header and a call per field back on every frame
# (tests/alloc_per_call.rs sees the first; only a profile sees the second).
WIRE_RS=crates/xkernel/src/wire.rs
if ! grep -q '#\[inline\]' "$WIRE_RS" || ! grep -q 'pub struct HdrBuf' "$WIRE_RS"; then
    echo "ci: codec-gate: $WIRE_RS no longer names #[inline] and HdrBuf (gate is stale)" >&2
    exit 1
fi
if hits=$(grep -rnE 'WireWriter::with_capacity\([A-Z_]+_LEN\b' crates/*/src); then
    echo "ci: codec-gate: a fixed-size header is built on the heap (use HdrBuf):" >&2
    echo "$hits" >&2
    exit 1
fi
if hits=$(grep -n 'XdrWriter' crates/sunrpc/src/rr.rs crates/sunrpc/src/sunselect.rs); then
    echo "ci: codec-gate: a Sun RPC fixed-field header goes through XdrWriter (use HdrBuf):" >&2
    echo "$hits" >&2
    exit 1
fi
if hits=$(grep -nE 'fn encode\(.*-> Vec<u8>' crates/core/src/hdr.rs crates/inet/src/*.rs \
    crates/sunrpc/src/rr.rs crates/sunrpc/src/sunselect.rs); then
    echo "ci: codec-gate: a fixed-size header's encode returns Vec<u8> (return [u8; LEN]):" >&2
    echo "$hits" >&2
    exit 1
fi

echo "==> harness-gate: host time is measured in one place"
# xbench reports virtual time only; benchmark/ is the only code that reads the
# host's clock (long alternating runs, a probe-scaled clock), and wall-clock is
# reported there, not asserted here. A stopwatch, a criterion target, a
# checked-in BENCH_*.json or an environment knob coming back under crates/
# would be a second harness whose numbers nothing judges, so each is a gate.
PROBE_RS=benchmark/src/probe.rs
if ! grep -qw 'Instant' "$PROBE_RS"; then
    echo "ci: harness-gate: $PROBE_RS no longer names Instant (gate is stale)" >&2
    exit 1
fi
hits=$(grep -rnw 'Instant' crates/*/src crates/bench shims | sort -u) || true
if [ -n "$hits" ]; then
    echo "ci: harness-gate: the host's clock is read outside benchmark/:" >&2
    echo "$hits" >&2
    exit 1
fi
if hits=$(grep -n 'criterion' Cargo.toml crates/*/Cargo.toml shims/*/Cargo.toml benchmark/Cargo.toml); then
    echo "ci: harness-gate: a manifest names criterion (host time belongs to benchmark/):" >&2
    echo "$hits" >&2
    exit 1
fi
if hits=$(ls BENCH_*.json 2>/dev/null); then
    echo "ci: harness-gate: a BENCH_*.json sits at the repo root (reports are run outputs; write them elsewhere):" >&2
    echo "$hits" >&2
    exit 1
fi
if hits=$(grep -rn 'XK_THREADS' crates); then
    echo "ci: harness-gate: XK_THREADS is back (pass --threads, or take par::detect_cores()):" >&2
    echo "$hits" >&2
    exit 1
fi

echo "==> runner-gate: one way to run a scenario, one PRNG step, no sim.rs"
# chaos::Scenario runs through run_with(RunOpts) over one phased rig, and
# `run` is its default (DESIGN.md, "One runner"). An eleventh entry point that
# sets one option, a per-stack runner beside the shared one, a private copy of
# the splitmix64 step, or the simulator growing back into one file would each
# pass every test, so each is a gate.
CHAOS_RS=crates/chaos/src/lib.rs
if ! grep -q 'pub fn run_with(' "$CHAOS_RS"; then
    echo "ci: runner-gate: $CHAOS_RS no longer defines run_with (gate is stale)" >&2
    exit 1
fi
if hits=$(grep -nE 'pub fn run_' "$CHAOS_RS" | grep -vE 'pub fn run_(with|matrix)\('); then
    echo "ci: runner-gate: a run_* entry point beside run_with (add a RunOpts field):" >&2
    echo "$hits" >&2
    exit 1
fi
if hits=$(grep -nE 'fn run_(rpc|psync)' "$CHAOS_RS"); then
    echo "ci: runner-gate: a per-stack runner is back (the rig's spawn_phase is the only per-stack part):" >&2
    echo "$hits" >&2
    exit 1
fi
n=$(grep -c 'match self\.stack' "$CHAOS_RS" || true)
if [ "$n" -ne 1 ]; then
    echo "ci: runner-gate: 'match self.stack' occurs $n times in $CHAOS_RS, want 1 (the rig dispatch)" >&2
    exit 1
fi
n=$(grep -rhF '0xbf58_476d_1ce4_e5b9' crates/*/src | wc -l)
if [ "$n" -ne 1 ]; then
    echo "ci: runner-gate: the splitmix64 multiplier occurs $n times under crates/*/src, want 1 (xkernel::rng)" >&2
    exit 1
fi
if [ -e crates/xkernel/src/sim.rs ]; then
    echo "ci: runner-gate: crates/xkernel/src/sim.rs exists again (the simulator is crates/xkernel/src/sim/)" >&2
    exit 1
fi

echo "==> load-smoke: xbench xload --quick"
# Rate sweep over all six stacks (open loop), a closed-loop point, and the
# routed topology. The binary asserts goodput is monotone-then-saturating
# per stack and that the parallel fan-out reproduces the sequential reports
# bit for bit, then self-validates the JSON; the grep re-checks from the
# outside.
LOAD_SMOKE=$(mktemp /tmp/BENCH_xload.XXXXXX.json)
cargo run --release -q -p xbench --bin xload -- --quick --out "$LOAD_SMOKE"
for field in schema sweep stack points offered_cps goodput_cps p50_ns \
             p99_ns p999_ns dropped rejected monotone closed routed \
             reports_bit_identical; do
    if ! grep -q "\"$field\"" "$LOAD_SMOKE"; then
        echo "ci: BENCH_xload.json missing field \"$field\"" >&2
        exit 1
    fi
done
grep -q '"reports_bit_identical": true' "$LOAD_SMOKE" || {
    echo "ci: parallel load reports not bit-identical" >&2
    exit 1
}
if grep -q '"monotone": false' "$LOAD_SMOKE"; then
    echo "ci: a stack's goodput curve is not monotone-then-saturating" >&2
    exit 1
fi
rm -f "$LOAD_SMOKE"

echo "==> profile-smoke: xbench xprof --quick"
# Traced rerun of the Table I/II latency experiment. The binary asserts the
# ledger's conservation invariant (client buckets sum to the window to the
# nanosecond) and that tracing leaves the measured latency bit-identical,
# then self-validates the JSON. The checks below re-verify the artifacts
# from the outside: required JSON fields, the conserved flags, and the
# folded-stack grammar ("frame;frame;... <ns>" on every line).
XPROF_DIR=$(mktemp -d /tmp/xprof.XXXXXX)
cargo run --release -q -p xbench --bin xprof -- --quick --out-dir "$XPROF_DIR"
for field in schema quick iters stacks latency_ns window_ns client_sum_ns \
             conserved layers; do
    if ! grep -q "\"$field\"" "$XPROF_DIR/BENCH_xprof.json"; then
        echo "ci: BENCH_xprof.json missing field \"$field\"" >&2
        exit 1
    fi
done
if grep -q '"conserved": false' "$XPROF_DIR/BENCH_xprof.json"; then
    echo "ci: xprof ledger leaked (conserved: false)" >&2
    exit 1
fi
[ "$(grep -c '"conserved": true' "$XPROF_DIR/BENCH_xprof.json")" -eq 5 ] || {
    echo "ci: expected 5 conserved stacks in BENCH_xprof.json" >&2
    exit 1
}
[ -s "$XPROF_DIR/XPROF.folded" ] || {
    echo "ci: XPROF.folded is empty" >&2
    exit 1
}
if grep -qvE '^[^ ;][^ ]*(;[^ ]+)+ [0-9]+$' "$XPROF_DIR/XPROF.folded"; then
    echo "ci: XPROF.folded has malformed lines" >&2
    exit 1
fi
grep -q '^## ' "$XPROF_DIR/XPROF.md" || {
    echo "ci: XPROF.md has no per-stack sections" >&2
    exit 1
}
rm -rf "$XPROF_DIR"

echo "==> trace-overhead smoke: disabled tracing allocates nothing"
cargo test -q -p xkernel --test trace_overhead

echo "==> check-overhead smoke: disabled checking allocates nothing"
cargo test -q -p xkernel --test check_overhead

echo "==> snapshot-smoke: mid-soak save/restore bit-identity + journal replay"
# Saves a warmed chaos scenario at quiescence mid-soak, restores, and
# re-runs the tail: the ChaosReport (including sched_hash) must be
# Eq-equal to the uninterrupted run; a journaled run must replay to the
# identical report after a wire-encoding round trip. The exhaustive
# matrix runs in the chaos suite above; this is the fast named cut.
cargo test -q -p xbench --test snapshot_smoke

echo "==> template-smoke: a pooled, forked scenario is the from-scratch scenario"
# Every run forks its stack's warmed rig (simnet::Template: rewind + reseed).
# 5,375 scenarios pooled == built for that run alone, both orders and twice
# on one rig, folding to the digest the pre-template runner produced;
# populations; one thread == two; 1,000 scenarios build 8 rigs; a boot-time
# PRNG draw without a reseed hook fails the first fork by count. "One restore
# loop" needs no grep: SimNet::{snapshot, restore} are pub(crate) behind
# Template.
cargo test --release -q -p chaos --test template_identity

echo "==> bisect-smoke: minimize a seeded multi-fault failure to one culprit"
# Records the Blackout profile's injected-fault timeline (the one profile
# guaranteed to defeat the retry budget; deliberately not in the soak
# matrix) and binary-searches the suppression cutoff down to the single
# fault event whose removal makes the invariants pass, with a replayable
# repro; also re-verifies both cutoffs named in the repro string.
cargo test -q -p chaos --test snapshot_replay bisect

echo "==> xcheck-smoke: exhaustive toy exploration"
# Enumerates every interleaving of the concurrency toys under the dynamic
# checker. The handshake must cover its full schedule space cleanly; the
# deadlock toy must produce a DeadlockCycle with a repro on every schedule;
# each summary line is schema-validated by the binary itself, and the greps
# re-check the verdicts from the outside.
XCHECK_OUT=$(mktemp /tmp/xcheck_smoke.XXXXXX)
cargo run --release -q --bin xcheck > "$XCHECK_OUT"
grep -q '"scenario":"handshake","mode":"exhaustive","schedules":6,"complete":true,"distinct_hashes":6,"violations":0' "$XCHECK_OUT" || {
    echo "ci: handshake exploration did not cover all 6 schedules cleanly" >&2
    exit 1
}
grep -q 'DeadlockCycle' "$XCHECK_OUT" || {
    echo "ci: deadlock toy produced no DeadlockCycle" >&2
    exit 1
}
grep -q 'repro: xcheck://seed=' "$XCHECK_OUT" || {
    echo "ci: violations reported without repro strings" >&2
    exit 1
}
[ "$(grep -c '"complete":true' "$XCHECK_OUT")" -eq 3 ] || {
    echo "ci: expected all 3 toy explorations to complete" >&2
    exit 1
}
rm -f "$XCHECK_OUT"

echo "==> xkbench-check: the benchmark builds, lints, tests and smokes"
# benchmark/ is its own workspace (path deps on crates/*), so nothing above
# compiles it: a change here that breaks an item on its API pin list
# (benchmark/README.md) would otherwise surface only when the driver runs
# the benchmark. check.sh is run as it stands.
bash benchmark/check.sh

echo "==> hostprof-smoke: the sampler builds and reports on a quick null_inline"
# tools/hostprof is how a flat host-time profile is taken here (no PMU, no
# perf): an LD_PRELOAD SIGPROF sampler and a symboliser. It is what found the
# crate boundary (EXPERIMENTS.md, PR 19); this keeps it building and its
# report non-empty wherever a C compiler and python3 exist.
if command -v gcc >/dev/null && command -v python3 >/dev/null; then
    HOSTPROF_DIR=$(mktemp -d /tmp/hostprof.XXXXXX)
    XKBENCH="${CARGO_TARGET_DIR:-benchmark/target}/release/xkbench"
    gcc -O2 -shared -fPIC -Wall -Wextra -o "$HOSTPROF_DIR/hostprof.so" tools/hostprof/hostprof.c
    HOSTPROF_OUT="$HOSTPROF_DIR/run.prof" LD_PRELOAD="$HOSTPROF_DIR/hostprof.so" \
        "$XKBENCH" --workload null_inline --quick >/dev/null
    python3 tools/hostprof/report.py "$HOSTPROF_DIR/run.prof" "$XKBENCH" --workload-only \
        --split-libc >"$HOSTPROF_DIR/report.txt"
    grep -qE '^ *[0-9.]+% +[0-9]+ +.*(xkernel|xrpc|inet|simnet)::' "$HOSTPROF_DIR/report.txt" || {
        echo "ci: hostprof-smoke: the report names no workload symbol:" >&2
        cat "$HOSTPROF_DIR/report.txt" >&2
        exit 1
    }
    # --split-libc: the allocator line must name malloc or free, or the split
    # has stopped finding libc's exports.
    grep -qE '^ *[0-9.]+% +[0-9]+ +allocator: .*\b(malloc|free)\b' "$HOSTPROF_DIR/report.txt" || {
        echo "ci: hostprof-smoke: --split-libc names no allocator symbol:" >&2
        cat "$HOSTPROF_DIR/report.txt" >&2
        exit 1
    }
    rm -rf "$HOSTPROF_DIR"
else
    echo "hostprof-smoke: skipped (needs gcc and python3)"
fi

echo "==> xk-lint --xcheck: concurrency rules on the deadlock toy"
cargo build --release -q --bin xk-lint
if target/release/xk-lint --xcheck --quiet specs/bad/deadlock-toy.xk; then
    echo "ci: deadlock-toy.xk unexpectedly passes the concurrency rules" >&2
    exit 1
fi

echo "==> xk-lint: built-in paper stacks"
XK_LINT=target/release/xk-lint
"$XK_LINT" --builtin --warn-as-error

echo "==> xk-lint: specs/good must pass"
"$XK_LINT" --warn-as-error specs/good/*.xk

echo "==> xk-lint: specs/bad must fail"
for spec in specs/bad/*.xk; do
    if "$XK_LINT" --quiet "$spec"; then
        echo "ci: $spec unexpectedly lints clean" >&2
        exit 1
    fi
done

echo "ci: all green"
