#!/bin/bash
# Offline CI gate: formatting, lints, and the tier-1 verify
# (`cargo build --release && cargo test -q`). Sourced by
# run_all_experiments.sh before any harness runs, and runnable standalone.
set -e
cd "$(dirname "${BASH_SOURCE[0]}")"

echo "== ci: cargo fmt --check =="
cargo fmt --all -- --check

echo "== ci: cargo clippy -D warnings (workspace rules: clippy.toml, DESIGN.md §10) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== ci: rustdoc -D warnings (no stale or ambiguous intra-doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== ci: tier-1 verify =="
cargo build --release --offline
cargo test -q --offline --workspace

echo "== ci: e2ebench build + identity tests (the benchmark's view of the public API) =="
# Building e2ebench rewrites its stale Cargo.lock; keep the committed copy.
E2E_LOCK=$(mktemp /tmp/benchtemp-ci-e2e-lock.XXXXXX)
cp e2ebench/Cargo.lock "$E2E_LOCK"
e2e_status=0
cargo test --release --offline --manifest-path e2ebench/Cargo.toml || e2e_status=$?
cp "$E2E_LOCK" e2ebench/Cargo.lock
rm -f "$E2E_LOCK"
[ "$e2e_status" -eq 0 ] || { echo "e2ebench tests failed"; exit 1; }

echo "== ci: overhead smoke bench (tracing + sanitizer; eval AUC/AP bits across 1 thread, 4 threads, 4 threads + sanitize) =="
cargo run --release --offline -p benchtemp-bench --bin bench_kernels -- --smoke

echo "== ci: paged store smoke (paged == resident, bounded cache, evictions) =="
cargo run --release --offline -p benchtemp-bench --bin store_smoke | grep -q STORE_SMOKE_OK \
    || { echo "store smoke failed"; exit 1; }

echo "== ci: ranking smoke (diagnostics zoo + filtered-negative MRR) =="
RANK_OUT=$(mktemp -d /tmp/benchtemp-ci-rank.XXXXXX)
cargo run --release --offline -p benchtemp-bench --bin diagnostics -- \
    --quick --epochs 2 --models TGN,TGAT --rank-negs 10 --out "$RANK_OUT"
test -s "$RANK_OUT/diagnostics.json" || { echo "diagnostics.json missing"; exit 1; }
rm -rf "$RANK_OUT"

echo "== ci: harness smoke (every run_all_experiments.sh harness, default protocol, --seeds 1 --epochs 1) =="
HARNESS_OUT=$(mktemp -d /tmp/benchtemp-ci-harness.XXXXXX)
# bench_kernels runs above as the overhead smoke; the rest keep the extra
# arguments run_all_experiments.sh passes them, minus --seeds.
for harness in anatomy table2_stats table6_splits fig5_temporal_dist table3_lp table5_nc \
    fig2_feature_dims temp_results "table17_new_datasets --scale 0.001" table19_ebay_nc \
    "table22_multilabel --scale 0.001" table23_nodes_ablation table25_density \
    table26_negative_sampling; do
    read -r bin extra <<< "$harness"
    # shellcheck disable=SC2086 # $extra is deliberately word-split
    cargo run -q --release --offline -p benchtemp-bench --bin "$bin" -- $extra \
        --seeds 1 --epochs 1 --out "$HARNESS_OUT" > "$HARNESS_OUT/$bin.txt" 2> "$HARNESS_OUT/$bin.log" \
        || { echo "harness $bin failed:"; tail -20 "$HARNESS_OUT/$bin.log"; exit 1; }
done
rm -rf "$HARNESS_OUT"

echo "== ci: traced smoke run (JSONL schema + span pairing) =="
TRACE_FILE=$(mktemp /tmp/benchtemp-ci-trace.XXXXXX.jsonl)
BENCHTEMP_TRACE="$TRACE_FILE" \
    cargo run --release --offline -p benchtemp-bench --bin trace_check
rm -f "$TRACE_FILE"

echo "CI_OK"
