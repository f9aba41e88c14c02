#!/usr/bin/env bash
# Local CI: formatting, lints, and the full test suite.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
# Owns the invariants a type can see, in every library's lib.rs warn
# list: typed errors instead of panics (unwrap_used / expect_used /
# panic), no hash-order iteration (iter_over_hash_type), and no clock
# read in a model crate (disallowed-types in crates/{core,ml,linalg,
# adapt}/clippy.toml). What an execution sees is the test stages' job
# (DESIGN.md §14): allocation freedom is counted by
# tests/alloc_regression.rs, reduction order by tests/thread_invariance.rs
# at 1 and 8 threads, and the two conventions left — no Vec<Vec<f64>>,
# Relaxed-only commented atomics in three files — by tests/conventions.rs,
# which also checks the clippy lines above still exist, that every
# crate's lib.rs forbids unsafe code, that every example runs below, that
# the qpp-ml oracle suites keep their test counts, that the lines of Rust
# stay under their ceiling, and that every number in README.md and
# DESIGN.md names its source.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings"
# DESIGN.md defers to the crates' own docs, so a broken or private
# intra-doc link fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo test (QPP_THREADS=1)"
QPP_THREADS=1 cargo test -q --workspace

echo "==> cargo test (default threads)"
cargo test -q --workspace

echo "==> examples: each one runs here with an asserted line"
# tests/conventions.rs fails the suite if an examples/*.rs file is not
# run below as ./target/release/examples/<name>.
cargo build -q --release --examples

echo "==> quickstart smoke: train, then predict all six metrics of one query"
QUICKSTART_OUT=$(./target/release/examples/quickstart)
for metric in elapsed_time disk_io message_count message_bytes records_accessed records_used; do
    grep -q "^ *$metric: " <<<"$QUICKSTART_OUT" \
        || { echo "quickstart smoke: no predicted $metric line"; exit 1; }
done
grep -q "^actual elapsed: " <<<"$QUICKSTART_OUT" \
    || { echo "quickstart smoke: no actual elapsed line"; exit 1; }
echo "quickstart OK: six predicted metrics and the actual elapsed time printed"

echo "==> workload_management smoke: the gateway admits and answers every query"
WLM_OUT=$(./target/release/examples/workload_management 2>&1)
grep -q "submitted 24 | completed 24 " <<<"$WLM_OUT" \
    || { echo "workload_management smoke: ledger does not read submitted 24 | completed 24"; exit 1; }
grep -q ": ADMIT " <<<"$WLM_OUT" \
    || { echo "workload_management smoke: no ADMIT line"; exit 1; }
echo "workload_management OK: 24 submitted, 24 completed, admissions printed"

echo "==> obs smoke: serving example under a tight deadline exports a live trace"
# A 1µs deadline forces client-side fallbacks while the workers still
# drain every request, so the exported JSONL must show the full
# queue_wait -> worker -> predict span chain AND tagged fallbacks.
TRACE_OUT=$(mktemp /tmp/qpp_trace.XXXXXX.jsonl)
QPP_DEMO_TRAIN=120 QPP_DEMO_REQUESTS=400 QPP_DEADLINE_US=1 \
    QPP_TRACE_OUT="$TRACE_OUT" ./target/release/examples/serving >/dev/null
for stage in queue_wait worker predict; do
    grep -q "\"stage\":\"$stage\"" "$TRACE_OUT" \
        || { echo "obs smoke: no $stage span in $TRACE_OUT"; exit 1; }
done
FALLBACKS=$(sed -n 's/.*"counter":"fallbacks","value":\([0-9]*\).*/\1/p' "$TRACE_OUT")
if [ -z "$FALLBACKS" ] || [ "$FALLBACKS" -eq 0 ]; then
    echo "obs smoke: expected a nonzero fallbacks counter, got '${FALLBACKS:-missing}'"
    exit 1
fi
echo "obs smoke OK: spans present, $FALLBACKS fallbacks tagged"
rm -f "$TRACE_OUT"

echo "==> adapt smoke: drifted workload triggers retrain + canary swap end to end"
# The adaptive example injects a 3x elapsed-time drift under a live
# service. Its trace dump must show the whole episode — drift mark,
# retrain span, shadow-score span — and a nonzero canary_swaps counter.
ADAPT_OUT=$(mktemp /tmp/qpp_adapt.XXXXXX.jsonl)
QPP_TRACE_OUT="$ADAPT_OUT" ./target/release/examples/adaptive_serving >/dev/null
for stage in drift retrain shadow_score canary_swap; do
    grep -q "\"stage\":\"$stage\"" "$ADAPT_OUT" \
        || { echo "adapt smoke: no $stage event in $ADAPT_OUT"; exit 1; }
done
SWAPS=$(sed -n 's/.*"counter":"canary_swaps","value":\([0-9]*\).*/\1/p' "$ADAPT_OUT")
if [ -z "$SWAPS" ] || [ "$SWAPS" -eq 0 ]; then
    echo "adapt smoke: expected a nonzero canary_swaps counter, got '${SWAPS:-missing}'"
    exit 1
fi
echo "adapt smoke OK: drift -> retrain -> shadow_score -> canary_swap chain traced, $SWAPS swap(s)"
rm -f "$ADAPT_OUT"

echo "==> experiments: the committed EXPERIMENTS.md is what the harness prints"
# A change that moves a number must commit the regenerated file, so the
# move shows in its diff. Only the harness-time line may differ, and the
# output may not depend on the thread count.
experiments_match() {
    diff <(grep -v '^Total harness time:' EXPERIMENTS.md) \
        <(cargo run -q --release -p qpp-bench --bin experiments | grep -v '^Total harness time:')
}
experiments_match \
    || { echo "experiments: output differs from EXPERIMENTS.md; regenerate it"; exit 1; }
QPP_THREADS=1 experiments_match \
    || { echo "experiments: output at QPP_THREADS=1 differs from EXPERIMENTS.md"; exit 1; }
echo "experiments OK: EXPERIMENTS.md regenerates at default threads and at 1"

echo "==> benchmark: the one measurement harness builds, passes its checks, leaves no trace"
# benchmark/ is the repository's only timing harness (BENCHMARK.json).
# Its unit tests and a short run of all four workloads, traced and
# untraced, prove on every CI run that it still compiles against the
# crates' public API and that every output check holds (served ==
# model.predict bit for bit, staged == whole, refits reproduce, the
# shipped model predicts identically, recall and accuracy floors).
# The timing regressions the retired bench gates guarded — eigensolve
# share of training, uncontended serve p99, the throughput floor — are
# what the driver's parent-vs-change comparison of train_refit,
# serve_paced and serve_saturated end-to-end metrics catches on every
# PR; the machine-independent halves live on as cargo tests (IVF
# worst-case evaluations in ann_equivalence, DRR shares through the
# workers' blocking drain in fair_share).
(cd benchmark && cargo test --offline -q)
BENCH_OUT=$(bash benchmark/run.sh --seconds 2)
# The serve_* model sits below ivf_threshold, so it searches exactly:
# every run of both workloads must find every neighbour the brute oracle
# finds.
for workload in serve_paced serve_saturated; do
    RECALL=$(awk -v w="$workload" '/^# workload /{on = ($3 == w)} on && /^neighbor_recall /' <<<"$BENCH_OUT")
    if [ "$(grep -c . <<<"$RECALL")" -ne 2 ] || grep -qv '^neighbor_recall 1\.000000 ' <<<"$RECALL"; then
        echo "benchmark: $workload does not print neighbor_recall 1.000000 on both runs:"
        echo "${RECALL:-no neighbor_recall line}"
        exit 1
    fi
done
if [ -n "$(git status --porcelain benchmark BENCHMARK.json)" ]; then
    echo "benchmark: the run modified tracked files under benchmark/ or BENCHMARK.json"
    git status --porcelain benchmark BENCHMARK.json
    exit 1
fi
echo "benchmark OK: 4 workloads x {untraced, traced} passed their output checks, serve_* recall 1, tree clean"

echo "CI OK"
