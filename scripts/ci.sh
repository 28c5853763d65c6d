#!/usr/bin/env bash
# Tier-1 verification gate. Everything runs --offline: the workspace is
# hermetic (no external crates — see mebl-testkit), so a clean checkout
# must build and test with no network and no vendored registry.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== build (release, offline) ==="
cargo build --release --offline --workspace

echo "=== perfbench compiles (its own workspace, outside --workspace) ==="
# The repository benchmark builds against the public APIs by path; a
# broken signature must fail here, not first in a benchmark run.
cargo check --offline --manifest-path perfbench/Cargo.toml

echo "=== perfbench self-test (routed output repeats on every workload) ==="
# Runs a short op list of each workload twice and once traced, and fails
# unless quality, counts and every op's output fingerprint repeat.
cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --self-test

echo "=== test (offline) ==="
cargo test -q --offline --workspace

echo "=== clippy (-D warnings, best effort) ==="
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "clippy not installed; skipping lint step"
fi

echo "=== xtask analyze (static analysis: determinism, layering, taxonomy) ==="
# Hard gate: any error-severity diagnostic fails the build. The JSON
# format keeps the gate output machine-readable; the SARIF artifact in
# results/ feeds code-scanning UIs.
cargo run --release --offline -q -p mebl-xtask -- analyze --format json
mkdir -p results
cargo run --release --offline -q -p mebl-xtask -- analyze --format sarif \
    > results/analyze.sarif

echo "=== audit smoke (independent solution verifier) ==="
for seed in 1 2 3; do
    cargo run --release --offline -q -p mebl-cli -- \
        audit --bench S5378 --seed "$seed" --strict
    cargo run --release --offline -q -p mebl-cli -- \
        audit --bench S5378 --seed "$seed" --baseline
done

echo "=== thread-count matrix (audit smoke must match at --threads 1 and 4) ==="
# The trailing elapsed-seconds field is wall clock, not routing output;
# strip it so scheduler noise at a rounding boundary can't fail the gate.
out_t1=$(cargo run --release --offline -q -p mebl-cli -- \
    audit --bench S5378 --seed 1 --strict --threads 1 | sed 's/, [0-9.]*s$//')
out_t4=$(cargo run --release --offline -q -p mebl-cli -- \
    audit --bench S5378 --seed 1 --strict --threads 4 | sed 's/, [0-9.]*s$//')
if [ "$out_t1" != "$out_t4" ]; then
    echo "audit output diverged between --threads 1 and --threads 4:" >&2
    diff <(echo "$out_t1") <(echo "$out_t4") >&2 || true
    exit 1
fi
echo "$out_t4"

echo "=== differential thread-count harness ==="
cargo test -q --release --offline -p mebl-bench --test parallel

# Runs one bench suite and gates it against its committed baseline
# (results/bench_<suite>.json) with `xtask benchgate --tolerance <pct>`.
# A real regression is slow on every run; host interference is not. Up
# to three bench runs, and the gate passes if any one of them is clean:
# the bench's own inline bars hold and its numbers are within tolerance
# of the baseline. The committed baseline is always restored afterwards
# so the gate never dirties the working tree (the bench overwrites it in
# place). The optional third argument names what regressed in the
# failure message.
#
# Usage: bench_gate <suite> <tolerance> [medians|latencies]
bench_gate() {
    local suite=$1 tolerance=$2 what=${3:-latencies}
    local baseline="results/bench_$suite.json" baseline_tmp gate_ok=0
    baseline_tmp=$(mktemp)
    cp "$baseline" "$baseline_tmp"
    for try in 1 2 3; do
        if cargo bench --offline -q -p mebl-bench --bench "$suite" &&
            cargo run --release --offline -q -p mebl-xtask -- \
                benchgate "$baseline_tmp" "$baseline" --tolerance "$tolerance"; then
            gate_ok=1
            break
        fi
        echo "benchgate ($suite): attempt $try failed an inline bar or the tolerance; retrying" >&2
    done
    mv "$baseline_tmp" "$baseline"
    if [ "$gate_ok" != 1 ]; then
        echo "benchgate ($suite): $what regressed on 3 consecutive runs" >&2
        exit 1
    fi
}

echo "=== bench-regression gate (stages medians vs committed baseline) ==="
bench_gate stages 25 medians

echo "=== bench-regression gate (serve latencies vs committed baseline) ==="
# Service latencies carry scheduler and loopback noise the stage
# microbenches do not; the tolerance is correspondingly loose — the gate
# exists to catch order-of-magnitude regressions (a lost cache, an
# accidental serialization), not microsecond drift.
bench_gate serve 150

echo "=== bench-regression gate (store latencies vs committed baseline) ==="
# Store numbers are dominated by fsync and page-cache behavior, which
# vary across CI disks far more than compute benches do; the loose
# tolerance plus the min-of-samples comparison (set in the committed
# benchgate rules) catches gross regressions only — a lost index, an
# accidental full-scan per get.
bench_gate store 150

echo "=== bench-regression gate (delta routing vs committed baseline) ==="
# The delta bench also asserts the subsystem's acceptance bar inline: a
# single-net ECO at least 12x faster than the from-scratch reference,
# compared on the fastest sample of each. The gate on top catches
# slower erosion of the incremental win.
bench_gate delta 60

echo "=== bench-regression gate (sharded pipeline vs committed baseline) ==="
# The shard bench asserts the one-core acceptance bars inline (widening
# the pool within 2x of width 1, the whole pipeline within 4x of the
# monolithic route); the gate catches slower erosion on top.
bench_gate shard 60

echo "=== delta differential harness (incremental vs from-scratch) ==="
cargo test -q --release --offline -p mebl-bench --test delta

echo "=== shard differential harness (shard-count invariance, coordinator fleet) ==="
cargo test -q --release --offline -p mebl-bench --test shard

echo "=== robustness (fault injection, typed failure model) ==="
cargo test -q --release --offline -p mebl-bench --test robustness

echo "=== store durability (crash matrix, corruption battery) ==="
cargo test -q --release --offline -p mebl-bench --test store

echo "=== degraded-run smoke (budget bites -> exit 2, still audit-clean) ==="
set +e
cargo run --release --offline -q -p mebl-cli -- \
    audit --bench S5378 --seed 1 --max-expansions 2000 --strict
status=$?
set -e
if [ "$status" -ne 2 ]; then
    echo "expected exit 2 (degraded) from the capped audit run, got $status" >&2
    exit 1
fi

echo "=== exit-code taxonomy (0 clean / 1 usage / 2 degraded / 3 invalid input) ==="
expect_exit() {
    local want=$1; shift
    set +e
    "$@" >/dev/null 2>&1
    local got=$?
    set -e
    if [ "$got" -ne "$want" ]; then
        echo "expected exit $want from \`$*\`, got $got" >&2
        exit 1
    fi
}
mebl="target/release/mebl"
expect_exit 0 "$mebl" audit --bench S5378 --seed 1
expect_exit 1 "$mebl" frobnicate
expect_exit 1 "$mebl" audit --bench NOPE
expect_exit 1 "$mebl" serve --workers 0
expect_exit 2 "$mebl" audit --bench S5378 --seed 1 --max-expansions 2000
# Unbudgeted and still degraded: one pin is walled in by blockages, so a
# net stays unrouted, and the strict audit (blockage scan included) is
# clean.
expect_exit 2 "$mebl" audit tests/data/sealed_pin.txt --strict
bad_circuit=$(mktemp)
echo "this is not a netlist" > "$bad_circuit"
expect_exit 3 "$mebl" route "$bad_circuit"
expect_exit 3 "$mebl" audit "$bad_circuit"
rm -f "$bad_circuit"
# Exit 4 (internal error) is the audit-failure/panic path; it has no
# cheap trigger from a healthy tree and is covered by unit tests.

echo "=== --json smoke (CLI emits the service response schema) ==="
json_out=$("$mebl" audit --bench S5378 --seed 1 --strict --json)
case "$json_out" in
    '{"status":'*'"nets_audited"'*) ;;
    *) echo "unexpected --json audit output: $json_out" >&2; exit 1 ;;
esac
json_out=$("$mebl" gen S5378 --scale 0.02 -o /tmp/ci_s5378_small.txt >/dev/null 2>&1 \
    && "$mebl" route /tmp/ci_s5378_small.txt --json)
case "$json_out" in
    '{"status":'*'"report"'*) ;;
    *) echo "unexpected --json route output: $json_out" >&2; exit 1 ;;
esac
rm -f /tmp/ci_s5378_small.txt

echo "=== serve smoke (daemon boots, caches, drains cleanly) ==="
cargo run --release --offline -q -p mebl-xtask -- servesmoke "$mebl"

echo "=== ci.sh: all gates passed ==="
