#!/usr/bin/env bash
# Runs the whole benchmark twice on the same code and seed and prints, for
# every end-to-end metric of every workload, both values, how much worse the
# worse one is, and the bound from BENCHMARK.json. Fails if any pair is
# further apart than its bound.
#
#   benchmark/repeat.sh [--seed N] [--seconds S]
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/qpp-benchmark"
results="$(dirname "$bin")/repeat"
mkdir -p "$results"

for set in 1 2; do
    for workload in serve_paced serve_saturated predict_large train_refit; do
        echo "set $set: $workload" >&2
        "$bin" --workload "$workload" --trace 0 "$@" | tail -n 1 > "$results/$workload.$set.json"
    done
done

python3 - "$here/../BENCHMARK.json" "$results" <<'PY'
import json, sys

spec = json.load(open(sys.argv[1]))
results = sys.argv[2]
failed = False
print(f"{'workload':16} {'metric':22} {'first':>14} {'second':>14} {'apart':>8} {'bound':>6}")
for workload in [w["name"] for w in spec["workloads"]]:
    runs = [json.load(open(f"{results}/{workload}.{s}.json")) for s in (1, 2)]
    if not all(r["correct"] and r["failed"] == 0 for r in runs):
        print(f"{workload}: a run failed its checks")
        failed = True
    for metric in spec["end_to_end"]:
        a, b = (r["metrics"][metric["name"]]["value"] for r in runs)
        apart = abs(a - b) / min(a, b)
        verdict = ""
        if apart > metric["bound"]:
            verdict = "  APART"
            failed = True
        print(f"{workload:16} {metric['name']:22} {a:14.4f} {b:14.4f} {apart:8.2%} {metric['bound']:6.0%}{verdict}")
sys.exit(1 if failed else 0)
PY
