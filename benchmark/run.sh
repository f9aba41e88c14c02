#!/usr/bin/env bash
# Builds the benchmark and runs it.
#
#   benchmark/run.sh [--seed N] [--seconds S]
#       every workload, each in its own process, untraced and then traced;
#       prints every metric as `name value unit`; exits non-zero if a run
#       fails an output check.
#   benchmark/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
#       one run; its last line is the JSON object BENCHMARK.json describes.
#
# Run it from the root of the checkout. The build goes to $CARGO_TARGET_DIR
# if that is set and to benchmark/target otherwise; a traced run writes
# trace-<workload>.jsonl into <build>/release/traces unless --out says where.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/qpp-benchmark"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@"
    fi
done

status=0
for workload in serve_paced serve_saturated predict_large train_refit; do
    for trace in 0 1; do
        "$bin" --workload "$workload" --trace "$trace" "$@" || status=1
        echo
    done
done
exit "$status"
