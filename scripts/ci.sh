#!/usr/bin/env bash
# Tier-1 gate: build, test, lint. Run from the repo root.
#
# Matches the robustness contract in DESIGN.md §6: clippy runs with
# -D warnings, and crates/p1500, core, obs and sim deny unwrap/expect/panic
# in non-test code at the crate root, so a regression there fails this script.
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

echo "== fault-sim bench (serial vs parallel + trace-overhead gate) =="
cargo run --release -p soctest-bench --bin repro -- --quick --bench-faultsim \
    | tee target/bench_faultsim.txt
# Policy-equivalence gate: every case-study module must report bit-identical
# results across serial/parallel policies.
for m in BIT_NODE CHECK_NODE CONTROL_UNIT; do
    grep -q "^$m: identical: true" target/bench_faultsim.txt \
        || { echo "$m: serial/parallel results diverged"; exit 1; }
done

echo "== bench gate: history-median regression check + self-test =="
# BENCH_current.json was just written by the --bench-faultsim step above;
# the gate compares it against the committed BENCH_history.jsonl median
# and then proves it can fail on a synthetic 2x slowdown.
./scripts/bench_gate.sh

echo "== profiler-overhead gate (off vs on, <=2% or 20ms floor) =="
cargo run --release -p soctest-bench --bin repro -- --profile-overhead \
    --dies=20000 --seed=42 | tee target/profile_overhead.txt
grep -q 'within budget' target/profile_overhead.txt

echo "== observability: traced repro smoke + artifact validation =="
cargo run --release -p soctest-bench --bin repro -- --quick \
    --trace=target/obs_trace.jsonl \
    --metrics=target/obs_metrics.prom \
    --vcd=target/obs_session.vcd
test -s target/obs_trace.jsonl
test -s target/obs_session.vcd
grep -q '^# TYPE session_quarantines_total counter' target/obs_metrics.prom
grep -q '^session_quarantines_total 1$' target/obs_metrics.prom

echo "== repro output drift check (quick budget, wall-clock scrubbed) =="
cargo run --release -p soctest-bench --bin repro -- --quick > target/repro_quick.txt
scrub() { sed -E 's/wall +[0-9.]+m?s/wall X/g; s/total wall time: [0-9.]+m?s/total wall time: X/g' "$1"; }
if ! diff <(scrub repro_output_quick.txt) <(scrub target/repro_quick.txt); then
    echo "repro_output_quick.txt drifted from the current code; regenerate with:"
    echo "  cargo run --release -p soctest-bench --bin repro -- --quick > repro_output_quick.txt"
    exit 1
fi

echo "== campaign cockpit: HTML report generation + validation =="
cargo run --release -p soctest-bench --bin repro -- --quick --report=target/report_quick.html
test -s target/report_quick.html
# Self-contained: a single file with no external reference and no script.
! grep -q 'http://' target/report_quick.html
! grep -q 'https://' target/report_quick.html
! grep -q 'file://' target/report_quick.html
! grep -q '<script' target/report_quick.html
grep -q '</html>' target/report_quick.html
# Every module scope of the case study is covered.
for m in BIT_NODE CHECK_NODE CONTROL_UNIT; do
    grep -q "$m" target/report_quick.html
done
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
    --report=target/report_autopilot.html | tee target/autopilot.txt
# Every module must land on a terminal verdict — the loop guarantee.
for m in BIT_NODE CHECK_NODE CONTROL_UNIT; do
    grep -Eq "autopilot: $m +verdict=(Converged|Stalled|BudgetExhausted|Quarantined)" \
        target/autopilot.txt \
        || { echo "no terminal verdict for $m"; exit 1; }
done
# The decision trail is valid JSONL on disk...
test -s target/autopilot_trail.jsonl
grep -q '"event":"AutopilotStart"' target/autopilot_trail.jsonl
grep -q '"event":"AutopilotDecision"' target/autopilot_trail.jsonl
grep -q '"event":"AutopilotVerdict"' target/autopilot_trail.jsonl
# ...and greppable straight out of the self-contained HTML report.
test -s target/report_autopilot.html
grep -q 'AutopilotDecision' target/report_autopilot.html
grep -q 'AutopilotVerdict' target/report_autopilot.html
grep -q 'Autopilot' target/report_autopilot.html

echo "== fleet: conformance leg (replay vs standalone verdicts) =="
cargo run --release -p soctest-conformance --bin difftest -- \
    --fleet --fleet-dies 64 --start-seed 42

echo "== fleet: quick flight + cockpit fleet/observatory sections =="
cargo run --release -p soctest-bench --bin repro -- --quick --fleet \
    --dies=2000 --seed=42 \
    --sample-dies=100 --traces=target/fleet_traces.jsonl \
    --profile=target/fleet_profile.json \
    --report=target/report_fleet.html | tee target/fleet.txt
# The profiler attributed >=95% of the measured wall (asserted in-process,
# greppable here) and wrote both artifacts.
grep -q '^profile: top-level phases cover' target/fleet.txt
test -s target/fleet_profile.json
test -s target/fleet_profile.collapsed
# The greppable population summary must be present and well-formed.
grep -Eq '^fleet: yield [0-9.]+% \([0-9]+ passed / 2000 dies\)' target/fleet.txt
grep -Eq '^fleet: escapes [0-9]+ \([0-9.]+% of stuck-at dies\)' target/fleet.txt
grep -Eq '^fleet: overkill [0-9]+ \([0-9.]+% of clean dies\)' target/fleet.txt
grep -Eq '^fleet: tck p50=[0-9]+ p95=[0-9]+ p99=[0-9]+' target/fleet.txt
grep -Eq '^fleet: throughput [0-9]+ dies/s' target/fleet.txt
# Determinism gate: the same flight twice prints identical fleet: lines
# (throughput and cache-build wall time are the only nondeterministic rows),
# and the sampled-die JSONL traces are byte-identical even across a
# different worker count.
cargo run --release -p soctest-bench --bin repro -- --quick --fleet \
    --dies=2000 --seed=42 \
    --sample-dies=100 --traces=target/fleet_traces2.jsonl \
    --workers=2 > target/fleet2.txt
scrub_fleet() { grep '^fleet:' "$1" | grep -Ev 'throughput|cache built'; }
diff <(scrub_fleet target/fleet.txt) <(scrub_fleet target/fleet2.txt) \
    || { echo "fleet flight is not seed-deterministic"; exit 1; }
cmp target/fleet_traces.jsonl target/fleet_traces2.jsonl \
    || { echo "sampled-die traces are not byte-deterministic"; exit 1; }
test -s target/fleet_traces.jsonl
# The cockpit report gained self-contained fleet + observatory sections.
test -s target/report_fleet.html
! grep -q 'http://' target/report_fleet.html
! grep -q '<script' target/report_fleet.html
grep -q '>Fleet<' target/report_fleet.html
grep -q 'Yield per batch' target/report_fleet.html
grep -q '>Observatory<' target/report_fleet.html
grep -q 'Phase attribution' target/report_fleet.html
grep -q 'Sampled die' target/report_fleet.html
grep -q 'Die throughput per batch' target/report_fleet.html
# The bench file (written by the --bench-faultsim step above) carries the
# fleet throughput block with its ≥1000 dies/s contract already asserted.
grep -q '"fleet": {"dies": 100000' BENCH_faultsim.json
grep -q '"session_tck_p50"' BENCH_faultsim.json

echo "== fleet health: clean monitored flight stays in control =="
cargo run --release -p soctest-bench --bin repro -- --quick --fleet \
    --dies=2000 --seed=42 --monitor --batch=100 \
    --excursions=target/health_clean.jsonl \
    --report=target/report_health.html | tee target/health_clean.txt
grep -Eq '^health: batches=[0-9]+ .* excursions=0 in_control=true' target/health_clean.txt
grep -q '^health: tck sketch p50=' target/health_clean.txt
# The empty ledger file is still written (and is genuinely empty).
test -f target/health_clean.jsonl
test ! -s target/health_clean.jsonl
# The cockpit report gains a Health section and stays self-contained.
test -s target/report_health.html
! grep -q 'http://' target/report_health.html
! grep -q 'https://' target/report_health.html
! grep -q '<script' target/report_health.html
grep -q '>Health<' target/report_health.html
grep -q 'control chart' target/report_health.html

echo "== fleet health: injected drift flagged with the right attribution =="
# A 3x defect-rate step at batch 20: detection within 8 batches and the
# quiet clean prefix are asserted in-process; the attribution is greppable.
cargo run --release -p soctest-bench --bin repro -- --quick --fleet \
    --dies=4000 --seed=42 --batch=100 --inject-drift=20:0.15 \
    --excursions=target/health_drift.jsonl | tee target/health_drift.txt
grep -q '^health: detect_latency_batches=' target/health_drift.txt
grep -Eq '^health: excursion batch=[0-9]+ metric=yield .*attributed_class=stuck_at' \
    target/health_drift.txt
test -s target/health_drift.jsonl
# The excursion ledger is byte-identical across worker counts.
cargo run --release -p soctest-bench --bin repro -- --quick --fleet \
    --dies=4000 --seed=42 --batch=100 --inject-drift=20:0.15 \
    --workers=2 --excursions=target/health_drift2.jsonl > /dev/null
cmp target/health_drift.jsonl target/health_drift2.jsonl \
    || { echo "excursion ledger is not byte-deterministic across workers"; exit 1; }
# The slim bench record carries the monitor columns the gate compares.
grep -q '"monitor_overhead_pct"' BENCH_current.json
grep -q '"detect_latency_batches"' BENCH_current.json

echo "ci: all green"
