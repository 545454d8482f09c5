#!/bin/bash
# Offline CI gate: formatting, lints, and the tier-1 verify
# (`cargo build --release && cargo test -q`). Sourced by
# run_all_experiments.sh before any harness runs, and runnable standalone.
set -e
cd "$(dirname "${BASH_SOURCE[0]}")"

echo "== ci: cargo fmt --check =="
cargo fmt --all -- --check

echo "== ci: cargo clippy -D warnings =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== ci: workspace audit (lint rules + call graph + protocol model) =="
cargo run --release --offline -p benchtemp-audit

echo "== ci: audit report schema (benchtemp-audit/v2, zero unwaivered, zero unused waivers) =="
python3 - <<'EOF'
import json
r = json.load(open('AUDIT_report.json'))
assert r.get('schema') == 'benchtemp-audit/v2', f"bad schema: {r.get('schema')!r}"
assert r.get('ok') is True, "AUDIT_report.json not ok"
unwaivered = [v for v in r['violations'] if not v.get('waived')]
assert not unwaivered, f"{len(unwaivered)} unwaivered finding(s) in AUDIT_report.json"
unused = [f"{w['file']}:{w['line']} [{w['rule']}]" for w in r['waivers'] if not w['used']]
assert not unused, f"{len(unused)} unused waiver(s) in AUDIT_report.json: {unused}"
g = r['call_graph']
assert g['functions'] > 0 and g['edges'] > 0 and 0.0 < g['resolved_call_ratio'] <= 1.0
print(f"schema ok: {len(r['violations'])} finding(s) all waived by "
      f"{len(r['waivers'])} used waiver(s); "
      f"{g['functions']} fns, {g['edges']} edges, "
      f"resolved ratio {g['resolved_call_ratio']:.2f}")
EOF

echo "== ci: audit negative self-test (seeded fixture + seeded race) =="
cargo run --release --offline -p benchtemp-bench --bin audit_check

echo "== ci: tier-1 verify =="
cargo build --release --offline
cargo test -q --offline --workspace

echo "== ci: kernel smoke bench =="
cargo run --release --offline -p benchtemp-bench --bin bench_kernels -- --smoke

echo "== ci: paged store smoke (paged == resident, bounded cache, evictions) =="
cargo run --release --offline -p benchtemp-bench --bin store_smoke | grep -q STORE_SMOKE_OK \
    || { echo "store smoke failed"; exit 1; }

echo "== ci: sanitize-mode smoke (slot claims + tape checks armed) =="
BENCHTEMP_SANITIZE=1 \
    cargo run --release --offline -p benchtemp-bench --bin bench_kernels -- --smoke

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
