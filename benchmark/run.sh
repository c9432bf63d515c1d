#!/usr/bin/env bash
# The one command. Builds xkbench from source and runs it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload; the result line (JSON) is the last line
#   benchmark/run.sh [--seed <n>] [--trace] [--quick]
#       all six workloads, one process each, one after another
#   benchmark/run.sh --manifest
#       prints BENCHMARK.json from the catalogue in src/catalog.rs
#
# Exits non-zero if the build fails or any output fails verification.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
xkbench() {
    cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
}

case " $* " in
*" --workload "* | *" --manifest "*)
    xkbench "$@"
    exit
    ;;
esac

seed=1 trace=0 quick=()
while [ $# -gt 0 ]; do
    case "$1" in
    --seed) seed="$2" && shift ;;
    --trace) trace=1 ;;
    --quick) quick=(--quick) ;;
    *)
        echo "run.sh: unknown argument '$1'" >&2
        exit 2
        ;;
    esac
    shift
done

mkdir -p "$here/out"
kind=$([ "$trace" = 1 ] && echo layer || echo e2e)
status=0
for w in null_inline null_sched bulk_xfer load_contended resident_200k chaos_soak; do
    # The result line goes to out/, the lines for people to the terminal.
    if xkbench --workload "$w" --seed "$seed" --trace "$trace" "${quick[@]}" |
        tee >(tail -n 1 >"$here/out/${kind}_$w.json") | sed '$d'; then
        :
    else
        echo "run.sh: $w failed" >&2
        status=1
    fi
done
exit $status
