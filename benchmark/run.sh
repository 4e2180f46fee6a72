#!/usr/bin/env bash
# The twobit benchmark's one command.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
#
# Builds this package and the real dist_node binary (release, offline),
# then runs one workload, or every workload when none is named, each in a
# process of its own. Prints every metric by name with its unit, checks
# the program's outputs, and exits nonzero if any operation failed.
# With --trace 1 it builds with the `trace` feature into a target
# directory of its own and reports the per-layer metrics instead.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

trace=0
args=()
while (($#)); do
    case "$1" in
    --trace)
        if [[ "${2-}" == 0 || "${2-}" == 1 ]]; then
            trace="$2"
            shift
        else
            trace=1
        fi
        ;;
    *) args+=("$1") ;;
    esac
    shift
done

if [[ ! -f "$root/crates/dist/src/bin/dist_node.rs" ]]; then
    echo "benchmark/run.sh: the program's sources are not beside benchmark/ (no $root/crates)" >&2
    exit 2
fi

# A relative CARGO_TARGET_DIR is relative to where this was started, and
# cargo is started from there too.
target="${CARGO_TARGET_DIR:-$here/target}"
manifest="$here/Cargo.toml"
cargo build --release --offline --quiet --manifest-path "$manifest" \
    --target-dir "$target" -p twobit-dist --bin dist_node
if ((trace)); then
    bench_target="$target/traced"
    cargo build --release --offline --quiet --manifest-path "$manifest" \
        --target-dir "$bench_target" --features trace
else
    bench_target="$target"
    cargo build --release --offline --quiet --manifest-path "$manifest" \
        --target-dir "$bench_target"
fi
node_bin="$target/release/dist_node"
bench_bin="$bench_target/release/benchmark"
for bin in "$node_bin" "$bench_bin"; do
    if [[ ! -x "$bin" ]]; then
        echo "benchmark/run.sh: $bin is missing after the build" >&2
        exit 2
    fi
done

# The benchmark and the dist_node children it starts carry this mark in
# their environment; whatever way this script ends, the ones still alive
# are killed and waited for.
mark="TWOBIT_BENCH_RUN=$$"
marked() {
    grep -lzx "$mark" /proc/[0-9]*/environ 2>/dev/null | tr -dc '0-9\n' || true
}
cleanup() {
    local pids tries=0
    pids="$(marked)"
    while [[ -n "$pids" && $tries -lt 50 ]]; do
        # shellcheck disable=SC2086
        kill $pids 2>/dev/null || true
        sleep 0.1
        pids="$(marked)"
        tries=$((tries + 1))
    done
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

env "$mark" "$bench_bin" run --trace "$trace" --node-bin "$node_bin" --out-dir "$here/out" \
    ${args[@]+"${args[@]}"} &
wait "$!"
