#!/usr/bin/env bash
# Local CI gate: formatting, lints, the determinism/invariant policy
# scanner, and the full test suite. Run from the repository root; any
# failing step fails the script.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings are errors: no dangling intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "==> mosaic-audit self-test (rule corpus, mutation tripwires, closure pins)"
cargo test -q -p mosaic-audit

echo "==> mosaic-audit check (determinism & invariants policy)"
mkdir -p target/audit
cargo run -q -p mosaic-audit -- check
cargo run -q -p mosaic-audit -- check --format json > target/audit/findings.json
cargo run -q -p mosaic-audit -- graph --format json > target/audit/closure.json
echo "    artifacts: target/audit/findings.json, target/audit/closure.json"

echo "==> cargo test"
cargo test -q --workspace

echo "==> cargo build --release"
cargo build -q --release --workspace

echo "==> bench-smoke (wall-time regression gate vs committed BENCH.json)"
cargo run -q --release -p mosaic-bench -- --quick --check BENCH.json

echo "==> campaign-smoke (run cache: cold/warm/no-cache byte-identity, warm speedup, bit-rot is a miss)"
rm -rf target/campaign-cache
t0=$(date +%s%N)
target/release/reproduce --jobs 1 --cache-dir target/campaign-cache \
    campaign run campaigns/smoke.toml > target/campaign-cold.txt 2> target/campaign-cold.err
t1=$(date +%s%N)
target/release/reproduce --jobs 1 --cache-dir target/campaign-cache \
    campaign run campaigns/smoke.toml > target/campaign-warm.txt 2> target/campaign-warm.err
t2=$(date +%s%N)
target/release/reproduce --jobs 1 --no-cache \
    campaign run campaigns/smoke.toml > target/campaign-nocache.txt
diff target/campaign-cold.txt target/campaign-warm.txt
diff target/campaign-cold.txt target/campaign-nocache.txt
grep -Eq '[1-9][0-9]* hits, 0 misses' target/campaign-warm.err
# Rot one digit of one stored entry: that run must miss and be simulated
# again, and the report must not change.
entries=(target/campaign-cache/objects/*.entry)
sed -i '2{s/0/1/;t;s/[1-9]/0/}' "${entries[0]}"
target/release/reproduce --jobs 1 --cache-dir target/campaign-cache \
    campaign run campaigns/smoke.toml > target/campaign-rot.txt 2> target/campaign-rot.err
diff target/campaign-cold.txt target/campaign-rot.txt
grep -Eq '[1-9][0-9]* hits, 1 misses' target/campaign-rot.err
cold_ms=$(( (t1 - t0) / 1000000 ))
warm_ms=$(( (t2 - t1) / 1000000 ))
echo "    cold ${cold_ms}ms, warm ${warm_ms}ms (100% hits), reports byte-identical"
test "$cold_ms" -ge $(( warm_ms * 10 ))

echo "==> conformance fuzz (differential oracles, bounded deterministic run)"
cargo run -q --release -p mosaic-conformance -- fuzz --cases 256 --seed 0xC0FFEE

echo "==> smoke sweep (every report in one process, sharing its memo; --digest fails on a moved golden pin)"
MOSAIC_SCOPE=smoke cargo run -q --release -p mosaic-experiments --bin reproduce -- \
    --digest --jobs 2 --stall-report all

echo "==> multigpu-smoke (fleet scale-out: byte-diff at --jobs 1 and 4)"
MOSAIC_SCOPE=smoke cargo run -q --release -p mosaic-experiments --bin reproduce -- \
    --digest --jobs 1 multigpu > target/multigpu-serial.txt
MOSAIC_SCOPE=smoke cargo run -q --release -p mosaic-experiments --bin reproduce -- \
    --digest --jobs 4 multigpu > target/multigpu-parallel.txt
diff target/multigpu-serial.txt target/multigpu-parallel.txt
echo "    multigpu byte-identical at --jobs 1 and 4"

echo "==> trace-smoke (record a traced sweep at --jobs 1 and 2, cmp, validate, round-trip to Chrome)"
for jobs in 1 2; do
    MOSAIC_SCOPE=smoke cargo run -q --release -p mosaic-experiments --bin reproduce -- \
        --jobs "$jobs" --trace "target/trace-smoke-$jobs.jsonl" --stall-report
done
cmp target/trace-smoke-1.jsonl target/trace-smoke-2.jsonl
cargo run -q --release -p mosaic-telemetry --bin mosaic-trace -- validate target/trace-smoke-1.jsonl
cargo run -q --release -p mosaic-telemetry --bin mosaic-trace -- \
    chrome target/trace-smoke-1.jsonl -o target/trace-smoke.chrome.json

echo "==> simbench-smoke (benchmark tests, and every workload's simulated results unchanged)"
cargo test -q --release --manifest-path simbench/Cargo.toml
for workload in multiapp oversub fleet; do
    cargo run -q --release --manifest-path simbench/Cargo.toml -- \
        --workload "$workload" --seed 0 --seconds 1 > "target/simbench-$workload.txt"
    grep -q 'sim_changed false' "target/simbench-$workload.txt"
done
echo "    multiapp, oversub and fleet digests match simbench/digests.txt"

echo "CI green."
