#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh [--workload NAME] [--seed N]
#       builds the package, runs every workload (or NAME) once untraced
#       and once traced, checks outputs, prints every metric by name with
#       its unit, and exits non-zero on any failed check.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run, as the benchmark contract's driver makes it: the last
#       line of standard output is the result object.
#
# Builds offline into ../target/benchmark ($CARGO_TARGET_DIR when set),
# touches nothing outside benchmark/ and that directory.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
target=${CARGO_TARGET_DIR:-$here/../target/benchmark}

workload="" seed=1997 seconds=12 trace=""
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || { echo "usage: $0 [--workload NAME] [--seed N] [--seconds S --trace 0|1]" >&2; exit 2; }
    case "$1" in
        --workload) workload=$2 ;;
        --seed) seed=$2 ;;
        --seconds) seconds=$2 ;;
        --trace) trace=$2 ;;
        *) echo "usage: $0 [--workload NAME] [--seed N] [--seconds S --trace 0|1]" >&2; exit 2 ;;
    esac
    shift 2
done

# Build messages go to standard error: standard output is the report.
cargo build --release --offline --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bin=$target/release/cffs-benchmark

if [ -n "$trace" ]; then
    [ -n "$workload" ] || { echo "$0: --trace needs --workload" >&2; exit 2; }
    exec "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" --out "$here/out"
fi

workloads=${workload:-meta_sync cold_read warm_read namei_warm churn_softdep volume_stripe}
failed=""
for w in $workloads; do
    for t in 0 1; do
        "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t" --out "$here/out" --strict 1 \
            || failed="$failed $w(trace=$t)"
    done
done
if [ -n "$failed" ]; then
    echo "CHECK FAILED:$failed" >&2
    exit 1
fi
echo "all checks passed: $workloads (seed $seed)"
