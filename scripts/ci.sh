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

echo "=== Fig. 3/4 reproduction (fig34_raster must print results/fig34.txt) ==="
# The rasterization output holds no timing, so it repeats byte for byte
# on any host; it pins render, dither and the defect score.
target/release/fig34_raster | diff -u results/fig34.txt -

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
# results/ feeds code-scanning UIs. The SARIF output is deterministic,
# so the tracked artifact must equal a fresh run: a rule added without
# regenerating it fails here instead of dirtying the tree.
cargo run --release --offline -q -p mebl-xtask -- analyze --format json
sarif_tmp=$(mktemp)
cargo run --release --offline -q -p mebl-xtask -- analyze --format sarif > "$sarif_tmp"
if ! cmp -s "$sarif_tmp" results/analyze.sarif; then
    echo "results/analyze.sarif is stale; regenerate it with" >&2
    echo "  cargo run --release --offline -q -p mebl-xtask -- analyze --format sarif > results/analyze.sarif" >&2
    rm -f "$sarif_tmp"
    exit 1
fi
rm -f "$sarif_tmp"

echo "=== audit smoke (independent solution verifier) ==="
for seed in 1 2 3; do
    cargo run --release --offline -q -p mebl-cli -- \
        audit --bench S5378 --seed "$seed" --strict
    cargo run --release --offline -q -p mebl-cli -- \
        audit --bench S5378 --seed "$seed" --baseline
done

echo "=== shard-count matrix (route JSON must match at --shards 1 and 4) ==="
# A route runs on one thread; the shard count, which fans a sharded
# route's panel jobs out, is the one width left. The smoke circuit must
# route to the same JSON at --shards 1 and --shards 4 (the elapsed_ms
# timing field aside), unbudgeted and under an expansion cap that leaves
# nets unrouted. The unbudgeted sharded run must also report its wall
# time: an elapsed_ms of 0.0 means the merge dropped it.
mebl="target/release/mebl"
strip_elapsed() { sed 's/,"elapsed_ms":[^,}]*//'; }
matrix_dir=$(mktemp -d)
"$mebl" gen S5378 --scale 0.02 --seed 1 -o "$matrix_dir/f.txt" >/dev/null 2>&1
# Usage: sharded_json <shards> <expansion cap|none>. A degraded run
# exits 2; the status check below tells it apart from a crash.
sharded_json() {
    if [ "$2" = none ]; then
        set -- --shards "$1"
    else
        set -- --shards "$1" --max-expansions "$2"
    fi
    "$mebl" route "$matrix_dir/f.txt" "$@" --json 2>/dev/null || true
}
for cap in none 300; do
    want='"status":"degraded"'
    if [ "$cap" = none ]; then
        want='"status":"ok"'
    fi
    one=$(sharded_json 1 "$cap" | strip_elapsed)
    four=$(sharded_json 4 "$cap")
    if [ "$cap" = none ]; then
        case "$four" in
            *'"elapsed_ms":0.0,'* | *'"elapsed_ms":0.0}'*)
                echo "route --shards 4 reported zero elapsed time: $four" >&2
                exit 1
                ;;
        esac
    fi
    four=$(echo "$four" | strip_elapsed)
    case "$one" in
        *"$want"*) ;;
        *) echo "route --shards 1 (cap $cap) did not print $want: $one" >&2; exit 1 ;;
    esac
    if [ "$one" != "$four" ]; then
        echo "route JSON diverged between --shards 1 and --shards 4 (cap $cap):" >&2
        diff <(echo "$one") <(echo "$four") >&2 || true
        exit 1
    fi
done
rm -rf "$matrix_dir"

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
capped=$(cargo run --release --offline -q -p mebl-cli -- \
    audit --bench S5378 --seed 1 --max-expansions 2000 --strict)
status=$?
set -e
if [ "$status" -ne 2 ]; then
    echo "expected exit 2 (degraded) from the capped audit run, got $status" >&2
    exit 1
fi
case "$capped" in
    *'0 errors, 0 warnings'*) echo "$capped" ;;
    *) echo "capped audit did not finish clean: $capped" >&2; exit 1 ;;
esac

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
expect_exit 0 "$mebl" audit --bench S5378 --seed 1
expect_exit 1 "$mebl" frobnicate
expect_exit 1 "$mebl" audit --bench NOPE
expect_exit 1 "$mebl" serve --workers 0
# A route runs on one thread; the width knob is gone.
expect_exit 1 "$mebl" route tests/data/sealed_pin.txt --threads 2
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
# A run that produces no result prints the body the daemon answers the
# same failure with, sharded or not, and still exits 2.
expect_exit 2 "$mebl" route /tmp/ci_s5378_small.txt --time-budget 0 --json
expect_exit 2 "$mebl" route /tmp/ci_s5378_small.txt --time-budget 0 --shards 2 --json
plain_body=$("$mebl" route /tmp/ci_s5378_small.txt --time-budget 0 --json 2>/dev/null) || true
sharded_body=$("$mebl" route /tmp/ci_s5378_small.txt --time-budget 0 --shards 2 --json 2>/dev/null) ||
    true
if [ "$plain_body" != "$sharded_body" ]; then
    echo "--json no-result bodies differ: plain $plain_body, --shards 2 $sharded_body" >&2
    exit 1
fi
case "$plain_body" in
    *'budget spent before routing'*) ;;
    *) echo "unexpected --json no-result body: $plain_body" >&2; exit 1 ;;
esac
rm -f /tmp/ci_s5378_small.txt

echo "=== sharded save and delta smoke (--shards, --save-outcome, --from, --edits) ==="
# Each of these paths derives its router configuration from a mode and
# a stitch geometry. A sharded route saves its merged outcome; reloading
# it must print the same JSON (apart from the elapsed_ms timing field),
# and an edit list must re-route from it with exit 0.
smoke_dir=$(mktemp -d)
"$mebl" gen S5378 --scale 0.02 --seed 1 -o "$smoke_dir/f.txt" >/dev/null 2>&1
sharded_json=$("$mebl" route "$smoke_dir/f.txt" --shards 2 \
    --save-outcome "$smoke_dir/f.mebl" --json | strip_elapsed)
reloaded_json=$("$mebl" route --from "$smoke_dir/f.mebl" --json | strip_elapsed)
if [ "$sharded_json" != "$reloaded_json" ]; then
    echo "route --from printed different JSON than the sharded route that saved it:" >&2
    diff <(echo "$sharded_json") <(echo "$reloaded_json") >&2 || true
    exit 1
fi
echo '[{"op":"move_net","name":"s5378_1","dx":1,"dy":0},{"op":"add_blockage","rect":[30,10,32,12]}]' \
    > "$smoke_dir/e.json"
expect_exit 0 "$mebl" route --from "$smoke_dir/f.mebl" --edits "$smoke_dir/e.json"
rm -rf "$smoke_dir"

echo "=== serve smoke (daemon boots, caches, drains cleanly) ==="
cargo run --release --offline -q -p mebl-xtask -- servesmoke "$mebl"

echo "=== ci.sh: all gates passed ==="
