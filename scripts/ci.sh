#!/usr/bin/env bash
# Tier-1 gate: build, test, lint, then every repro mode. Run from the repo root.
#
# Matches the robustness contract in DESIGN.md §6: clippy runs with
# -D warnings, and ten crates (p1500, core, obs, sim, fault, netlist, bist,
# atpg, ldpc and tech) deny unwrap/expect/panic in non-test code at the
# crate root, so a regression there fails this script.
#
# Every contract has one home: an assert inside the process a step runs (a
# violation panics, so the step exits non-zero) or a tier-1 test at the same
# configuration. This script reads exit statuses. Its only text checks compare
# two runs, which no single process can: the quick-output drift diff and the
# report-vs-tables coverage cells.
set -euo pipefail
cd "$(dirname "$0")/.."

tier1_start=$SECONDS

echo "== build (release) =="
cargo build --release --workspace

echo "== build (examples) =="
cargo build --release --examples

echo "== tests =="
cargo test --release --workspace -q

echo "== tier-1 wall time: $((SECONDS - tier1_start))s =="

echo "== benchmark: unit tests + tiny smoke pass of every workload =="
# The benchmark is a package of its own (see benchmark/README.md), so
# `cargo test --workspace` above does not reach it.
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "== fmt check =="
cargo fmt --all -- --check

echo "== clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== example smoke: ldpc_bist =="
cargo run --release --example ldpc_bist

echo "== conformance: fixed-seed differential sweep + case-study leg vs the reference =="
cargo run --release -p soctest-conformance --bin difftest -- \
    --seeds 25 --max-gates 80 --out target/difftest_ci.json

echo "== conformance: mutation self-test (sim + fault harnesses) =="
cargo run --release -p soctest-conformance --bin difftest -- \
    --seeds 25 --self-test --out target/difftest_selftest_ci.json

echo "== fault-sim bench: serial == parallel, overhead gates, drift latency, >=1000 dies/s =="
cargo run --release -p soctest-bench --bin repro -- --quick --bench-faultsim

echo "== bench gate: history-median regression check + self-test =="
# Fails too when BENCH_current.json, just written above, lacks a column
# the committed history carries.
./scripts/bench_gate.sh

echo "== observability: traced session; trace, metrics and VCD validated =="
cargo run --release -p soctest-bench --bin repro -- --quick \
    --trace=target/obs_trace.jsonl \
    --metrics=target/obs_metrics.prom \
    --vcd=target/obs_session.vcd

echo "== repro output drift check (quick budget, wall-clock scrubbed) =="
cargo run --release -p soctest-bench --bin repro -- --quick > target/repro_quick.txt
scrub() { sed -E 's/wall +[0-9.]+m?s/wall X/g; s/total wall time: [0-9.]+m?s/total wall time: X/g' "$1"; }
if ! diff <(scrub repro_output_quick.txt) <(scrub target/repro_quick.txt); then
    echo "repro_output_quick.txt drifted from the current code; regenerate with:"
    echo "  cargo run --release -p soctest-bench --bin repro -- --quick > repro_output_quick.txt"
    exit 1
fi

echo "== campaign cockpit: self-contained HTML report =="
cargo run --release -p soctest-bench --bin repro -- --quick --report=target/report_quick.html
# The report's final-coverage cells byte-match the BIST rows of the text
# tables rendered by the same run budget (target/repro_quick.txt above).
for m in BIT_NODE CHECK_NODE CONTROL_UNIT; do
    for model in SAF TDF; do
        pct=$(awk -v mod="$m" -v model="$model" \
            '$0==mod{f=1;next} f && /^  BIST/{for(i=1;i<NF;i++) if($i==model){print $(i+1); exit}}' \
            target/repro_quick.txt)
        test -n "$pct"
        grep -qF "data-module=\"$m\" data-model=\"$model\">$pct" target/report_quick.html \
            || { echo "report cell for $m $model does not match text output ($pct)"; exit 1; }
    done
done

echo "== autopilot: closed-loop coverage controller =="
cargo run --release -p soctest-bench --bin repro -- --quick --autopilot \
    --target=35 --max-patterns=192 --seed=42 \
    --trail=target/autopilot_trail.jsonl \
    --report=target/report_autopilot.html

echo "== fleet: conformance leg (replay vs standalone verdicts) =="
cargo run --release -p soctest-conformance --bin difftest -- \
    --fleet --fleet-dies 64 --start-seed 42

echo "== fleet: monitored quick flight, profiler, sampled traces, cockpit sections =="
# In control with an empty ledger: tests/health.rs flies this exact flight.
# Worker-count invariance: tests/fleet.rs and tests/health.rs.
cargo run --release -p soctest-bench --bin repro -- --quick --fleet \
    --dies=2000 --seed=42 --batch=100 --monitor \
    --excursions=target/health_clean.jsonl \
    --sample-dies=100 --traces=target/fleet_traces.jsonl \
    --profile=target/fleet_profile.json \
    --report=target/report_fleet.html

echo "== fleet health: injected drift flagged with the right attribution =="
cargo run --release -p soctest-bench --bin repro -- --quick --fleet \
    --dies=4000 --seed=42 --batch=100 --inject-drift=20:0.15 \
    --excursions=target/health_drift.jsonl

echo "ci: all green"
