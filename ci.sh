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

echo "== ci: tier-1 verify =="
cargo build --release --offline
cargo test -q --offline --workspace

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

echo "== ci: traced smoke run (JSONL schema + span pairing) =="
TRACE_FILE=$(mktemp /tmp/benchtemp-ci-trace.XXXXXX.jsonl)
BENCHTEMP_TRACE="$TRACE_FILE" \
    cargo run --release --offline -p benchtemp-bench --bin trace_check
rm -f "$TRACE_FILE"

echo "CI_OK"
