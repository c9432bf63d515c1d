#!/usr/bin/env bash
# The full local gate: formatting, lints, release build, tests, and xk-lint
# over every checked-in spec. Run from the repo root; exits non-zero on the
# first failure.
set -euo pipefail
cd "$(dirname "$0")"

# loc [REV]: product lines per crate and in total, counted as ROADMAP.md
# counts them — each tracked crates/*/src file up to its first #[cfg(test)] —
# in the work tree, or at REV. `./ci.sh loc [REV]` runs this step alone; a
# change's net is the difference between `./ci.sh loc HEAD~1` and
# `./ci.sh loc`.
loc() {
    local rev=${1:-} f crate n total=0
    local count='/#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }'
    local -A per=()
    while IFS= read -r f; do
        crate=${f#crates/}
        crate=${crate%%/*}
        if [ -n "$rev" ]; then
            n=$(git show "$rev:$f" | awk "$count")
        else
            n=$(awk "$count" "$f")
        fi
        per[$crate]=$((${per[$crate]:-0} + n))
        total=$((total + n))
    done < <(if [ -n "$rev" ]; then git ls-tree -r --name-only "$rev" -- crates; else git ls-files -- crates; fi |
        grep -E '^crates/[^/]+/src/.*\.rs$')
    for crate in $(printf '%s\n' "${!per[@]}" | sort); do
        printf 'loc: %-8s %6d\n' "$crate" "${per[$crate]}"
    done
    printf 'loc: %-8s %6d\n' total "$total"
}
if [ "${1:-}" = loc ]; then
    shift
    loc "$@"
    exit 0
fi

echo "==> loc: product lines per crate (ROADMAP.md's count)"
loc

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

echo "==> count-gate: what a call costs in counts no host can move"
# ROADMAP 5(b): wall-clock stays reported, not gated; these are exact on every
# host and build, so one that rises fails here by name. Per stack: context
# switches and coroutines started per run of warm calls (2n + 4 and 2 — a
# delivered frame starts nothing), events, fuel and live processes per
# scheduled null call, allocations per inline null call and per scheduled
# 16 KiB call on M_RPC-VIP and L_RPC-VIP and 8 KiB call on SUNRPC-UDP — exact,
# in release, as the benchmark builds; a header built on the heap is two more,
# anything taken per frame (a header buffer, a rope list, a boxed delivery)
# eleven or more, and either fails here, as does an 8 KiB call that allocates
# less than a 16 KiB one on M_RPC-VIP (the 1/8/16 KiB rows are printed) — live
# heap bytes per process parked on a semaphore and per sleeping one (a waiter is 16 B, held in the
# semaphore; a waiter queue allocated per semaphore is 192 more; a parked
# machine's start and wake keys name its process slot, so it holds no event
# slot; a timeline key lives in a 32-key block, which a drained bucket hands
# on), and cell entries per inline null call in debug, exact (release builds
# carry no entry counter). The switch table, the bytes and the cell entries
# are printed. Beside the bytes, the timeline's block bound — a resident
# population never holds more blocks than its keys fill plus one a bucket and
# two — and the schedule of slots a crash frees and fresh machines take
# over, pinned exactly: a key that reached a slot's next tenant would show
# there. A refused frame is counted once, at the layer that refused it, and
# allocates nothing once its row exists (tests/rejects.rs on every stack and
# PSYNC; alloc_per_call.rs).
cargo test --release -q --test events_per_call --test alloc_per_call --test rejects \
    --test parked_bytes -- --test-threads=1 --nocapture
cargo test --release -q -p xkernel --lib -- --exact \
    sim::timeline::tests::a_resident_population_holds_the_blocks_its_keys_fill
cargo test --release -q -p xkernel --test engine -- --exact \
    a_crash_frees_slots_that_fresh_processes_take_without_meeting_old_keys
cargo test -q --test cell_entries -- --test-threads=1 --nocapture

echo "==> matrix-gate: every way of running a scenario gives the same report"
# crates/chaos/tests/run_paths.rs runs each chaos scenario (the 5,375-cell
# matrix and its 82 populations) and two load runs down every run path —
# fresh, fork, traced, checked, journaled, replay, snapshot, the observer
# subsets, run_matrix on one worker — and compares whole reports by Eq.
# Run alone so it prints its coverage table: rows x columns, cells run, the
# cells a column does not apply to and why, and the wall time.
cargo test --release -q -p chaos --test run_paths -- --exact \
    every_run_path_reports_what_a_fresh_rig_reports --nocapture

echo "==> lifetime-gate: a dropped rig frees everything"
# Protocols and the sessions they cache hold each other; a dropped kernel
# empties every table a protocol declares as sessions or scratch
# (Protocol::keeps, DESIGN.md §13). A table declared as something else would
# pass every behavioural test and leak a few kB per discarded rig, so the two lifetime
# tests are a named gate at full size, and a 5,000-scenario matrix run alone
# in its process must stay under a fixed peak-RSS ceiling (it stood at
# ≈ 38 MB when FRAGMENT, CHANNEL and SELECT outlived their rigs; ≈ 4 MB now).
cargo test --release -q --test sim_lifetime -- \
    a_dropped_scenario_frees_every_protocol_on_both_kernels \
    a_scenario_cut_off_with_a_parked_client_is_freed_once_it_is_killed \
    live_bytes_plateau_across_thousands_of_scenarios
cargo test --release -q --test sim_lifetime -- --ignored --exact \
    five_thousand_scenarios_stay_under_the_rss_ceiling

echo "==> source-gate: the spellings no type, lint or test can refuse"
# Eight grep gates stood here (vproc-, engine-, crossing-, owner-, txn-,
# codec-, harness-, runner-gate). What they asserted now fails the steps
# above instead — rustc (unsafe_code = "deny"; the RTO constants private to
# xrpc::txn; tests/codec_total.rs takes `encode` as `Fn(&H) -> [u8; N]`),
# crates/clippy.toml's disallowed types and methods (locks, atomics and
# sync::Weak, the host's clock, OS threads, std maps and heaps in the engine,
# backoff_rto outside txn::RtoPolicy), tests/cell_entries.rs (the charging
# path enters no cell), tests/alloc_per_call.rs's exact pins (a header built
# on the heap); DESIGN.md §16 has the table, EXPERIMENTS.md the planted
# violation each refuses. Left here is what would pass all of those.
#
# forbid [--but N] PATTERN WHY PATH...: PATTERN (an ERE) is on no line under
# the PATHs — or on exactly the N lines that legitimately hold it. A PATH that
# is gone, or fewer than N lines, means the code a row anchors on has moved:
# the row is stale and says so rather than passing.
forbid() {
    local allowed=0 stale="" hits n
    if [ "$1" = --but ]; then
        allowed=$2
        shift 2
    fi
    local pat=$1 why=$2
    shift 2
    hits=$(grep -rnE -- "$pat" "$@") || [ $? -eq 1 ] || stale=1
    n=$(grep -c . <<<"$hits" || true)
    if [ -n "$stale" ] || [ "$n" -lt "$allowed" ]; then
        echo "ci: source-gate: /$pat/ is stale: want $allowed line(s) under $*, found $n (re-point the row)" >&2
        exit 1
    fi
    if [ "$n" -gt "$allowed" ]; then
        echo "ci: source-gate: $why:" >&2
        echo "$hits" >&2
        exit 1
    fi
}
PROTO_SRC="crates/core/src crates/inet/src crates/sunrpc/src crates/psync/src crates/simnet/src"
# Every protocol's demux tables are xkernel::map's, and a crossing reaches its
# kernel through the borrowing Ctx::kernel_ref() (DESIGN.md §12).
# shellcheck disable=SC2086
forbid 'OwnerCell<(HashMap|BTreeMap)' 'a hand-rolled demux table is back (use xkernel::map)' \
    $PROTO_SRC crates/xkernel/src/kernel.rs crates/xkernel/src/shim.rs
forbid '\.kernel\(\)\.(demux_to|open|open_enable|control|open_done)\(' \
    'a crossing clones its kernel (use ctx.kernel_ref())' crates/*/src
# CHANNEL, M_RPC and REQUEST_REPLY recover from loss through xrpc::txn alone
# (DESIGN.md §14): its two notes, its one wait, its one incarnation draw.
forbid --but 2 'RobustEvent::(Retransmit|TimeoutFired)' \
    'a retransmission is counted outside txn::transact' crates/core/src crates/sunrpc/src
forbid 'p_timeout\(' 'a transaction layer waits for its reply outside txn::transact' \
    crates/core/src/channel.rs crates/core/src/mrpc.rs crates/sunrpc/src/rr.rs
forbid --but 1 '& 0xffff_ffff\) as u32 \| 1' 'a second boot-id draw (txn::Incarnation has the one)' \
    crates/core/src crates/sunrpc/src
# FRAGMENT and M_RPC split, mask and reassemble through xrpc::frags alone
# (DESIGN.md §14): xrpc::frags refuses a malformed fragment header, and the
# demux seam counts the refusal.
forbid 'trailing_zeros|fn split|fn full_mask' \
    'a private copy of the fragment-mask core (xrpc::frags has the one)' \
    crates/core/src/fragment.rs crates/core/src/mrpc.rs
# One way to run a scenario (run_with; run_matrix fans it out), one per-stack
# dispatch in it, one PRNG step in the workspace (DESIGN.md, "One runner").
forbid --but 2 'pub fn run_' 'a run_* entry point beside run_with and run_matrix (add a RunOpts field)' \
    crates/chaos/src/lib.rs
forbid --but 1 'match self\.stack' "a second per-stack dispatch (the rig's spawn_phase is the only per-stack part)" \
    crates/chaos/src/lib.rs
forbid --but 1 '0xbf58_476d_1ce4_e5b9' 'a private copy of the splitmix64 step (xkernel::rng has the one)' \
    crates/*/src
# A fixed-size header is one xkernel::wire_header! table (DESIGN.md §15). The
# seven hand-written lines are the named exceptions: IP's and ICMP's encode
# and decode and TCP's three (with its pseudo-header), whose constant,
# checksum and packed-bit fields the table does not carry.
# shellcheck disable=SC2046
forbid --but 7 'HdrReader::<|HdrBuf::new\(\)' \
    'a header codec written by hand (declare it with xkernel::wire_header!)' \
    $(find crates/*/src src tests examples -name '*.rs' ! -path crates/xkernel/src/wire.rs)
# What a simulation recycles is its own (DESIGN.md §15): header buffers in its
# core, timeline blocks in its timeline, semaphore ids from its counter. The
# two thread-locals left are the current simulation's pointer (msg.rs) and
# the label cache in front of the process-wide label registry (sim/sema.rs).
forbid --but 2 'thread_local!' 'memory a simulation recycles kept per thread (keep it in SimCore)' \
    crates/xkernel/src/msg.rs crates/xkernel/src/sim
# A lint finding is built in one place, under the id of the RULES row whose
# check made it (xkernel::lint's Findings::report).
forbid --but 1 '(^|[^[:alnum:]_ ]) *Diagnostic \{' \
    'a lint diagnostic built by hand (report it through lint::Findings::report)' \
    crates/*/src crates/*/tests src tests examples
# No contract declares a lock order over the engine's "sched" and "hosts"
# locks: neither has existed since in-simulation state became Rc/Cell
# (DESIGN.md §11), so XK015 would check an order nothing acquires.
forbid 'KERNEL_LOCKS|\.locks\(.*"(sched|hosts)"' \
    'a lock order naming the engine locks that no longer exist (declare only locks the code takes)' \
    crates/*/src
# A protocol kind is stated once, at registration (DESIGN.md §13): its
# contract goes to ProtocolRegistry::add with its constructor and its kernel
# slot keeps it; a protocol's number over its lower is read from the kinds
# there (xrpc::protnum::num_over), not from a name copied at boot.
forbid 'add_contract|lower_name' \
    'a protocol kind stated twice (pass the contract to ProtocolRegistry::add; number through protnum::num_over)' \
    crates/*/src
# Protocol and Session have Any as a supertrait: a downcast upcasts the
# trait object (`let any: &dyn Any = &*p;`).
forbid 'fn as_any' 'an as_any downcast hook (upcast the trait object to &dyn Any)' \
    crates/*/src crates/*/tests src tests examples
# A protocol states what it keeps once, in Protocol::keeps (DESIGN.md §10):
# snapshot, restore, reboot and a dropped kernel walk that one declaration,
# and how a field rewinds is its type's Rewind impl, not a per-protocol copy.
forbid 'fn snap\(|fn restore_snap\(|fn drop_sessions\(|snap_downcast|SnapBlob' \
    'a second list of what a protocol keeps (declare it in Protocol::keeps)' \
    crates/*/src

echo "==> load-smoke: xbench xload --quick"
# Rate sweep over all six stacks (open loop), a closed-loop point, and the
# routed topology. The run itself fails unless goodput is monotone-then-
# saturating per stack and the parallel fan-out reproduces the sequential
# reports bit for bit; the report is written through xkernel::json, so its
# fields and brackets need no re-check, and the greps re-read the verdicts.
SMOKE_DIR=$(mktemp -d /tmp/xbench_smoke.XXXXXX)
cargo run --release -q -p xbench -- xload --quick --out "$SMOKE_DIR/BENCH_xload.json"
grep -q '"reports_bit_identical": true' "$SMOKE_DIR/BENCH_xload.json" || {
    echo "ci: parallel load reports not bit-identical" >&2
    exit 1
}
if grep -q '"monotone": false' "$SMOKE_DIR/BENCH_xload.json"; then
    echo "ci: a stack's goodput curve is not monotone-then-saturating" >&2
    exit 1
fi

echo "==> profile-smoke: xbench xprof --quick"
# Traced rerun of the Table I/II latency experiment. The run itself fails
# unless the ledger conserves (client buckets sum to the window to the
# nanosecond) and tracing leaves the measured latency bit-identical. The
# checks below re-read the artifacts from the outside: the conserved flags
# and the folded-stack grammar ("frame;frame;... <ns>" on every line).
cargo run --release -q -p xbench -- xprof --quick --out-dir "$SMOKE_DIR"
if grep -q '"conserved": false' "$SMOKE_DIR/BENCH_xprof.json"; then
    echo "ci: xprof ledger leaked (conserved: false)" >&2
    exit 1
fi
[ "$(grep -c '"conserved": true' "$SMOKE_DIR/BENCH_xprof.json")" -eq 5 ] || {
    echo "ci: expected 5 conserved stacks in BENCH_xprof.json" >&2
    exit 1
}
[ -s "$SMOKE_DIR/XPROF.folded" ] || {
    echo "ci: XPROF.folded is empty" >&2
    exit 1
}
if grep -qvE '^[^ ;][^ ]*(;[^ ]+)+ [0-9]+$' "$SMOKE_DIR/XPROF.folded"; then
    echo "ci: XPROF.folded has malformed lines" >&2
    exit 1
fi
grep -q '^## ' "$SMOKE_DIR/XPROF.md" || {
    echo "ci: XPROF.md has no per-stack sections" >&2
    exit 1
}
rm -rf "$SMOKE_DIR"

echo "==> xcheck-smoke: exhaustive toy exploration"
# Enumerates every interleaving of the concurrency toys under the dynamic
# checker. The handshake must cover its full schedule space cleanly; the
# deadlock toy must produce a DeadlockCycle with a repro on every schedule;
# each summary line is written through xkernel::json, and the greps re-read
# the verdicts from the outside.
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
# crate boundary and sized the locked instructions (--atomics; both in
# EXPERIMENTS.md); this keeps it building and its report non-empty wherever a
# C compiler and python3 exist.
if command -v gcc >/dev/null && command -v python3 >/dev/null; then
    HOSTPROF_DIR=$(mktemp -d /tmp/hostprof.XXXXXX)
    XKBENCH="${CARGO_TARGET_DIR:-benchmark/target}/release/xkbench"
    gcc -O2 -shared -fPIC -Wall -Wextra -o "$HOSTPROF_DIR/hostprof.so" tools/hostprof/hostprof.c
    HOSTPROF_OUT="$HOSTPROF_DIR/run.prof" LD_PRELOAD="$HOSTPROF_DIR/hostprof.so" \
        "$XKBENCH" --workload null_inline --quick >/dev/null
    python3 tools/hostprof/report.py "$HOSTPROF_DIR/run.prof" "$XKBENCH" --workload-only \
        --split-libc --atomics >"$HOSTPROF_DIR/report.txt"
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
    # --atomics: the objdump pass found the binary's instructions and scored
    # the samples against them.
    grep -qE '^atomics: [0-9.]+% of samples \([0-9]+ of [1-9][0-9]*\)' "$HOSTPROF_DIR/report.txt" || {
        echo "ci: hostprof-smoke: --atomics printed no share:" >&2
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
