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
cargo run -q --release -p mosaic-bench -- --quick --no-out --check BENCH.json

echo "==> campaign-smoke (run cache: cold/warm/no-cache byte-identity and warm speedup)"
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
cold_ms=$(( (t1 - t0) / 1000000 ))
warm_ms=$(( (t2 - t1) / 1000000 ))
echo "    cold ${cold_ms}ms, warm ${warm_ms}ms (100% hits), reports byte-identical"
test "$cold_ms" -ge $(( warm_ms * 10 ))

echo "==> conformance fuzz (differential oracles, bounded deterministic run)"
cargo run -q --release -p mosaic-conformance -- fuzz --cases 256 --seed 0xC0FFEE

echo "==> smoke sweep (parallel reproduce run)"
MOSAIC_SCOPE=smoke cargo run -q --release -p mosaic-experiments --bin reproduce -- fig03 fig08

echo "==> multigpu-smoke (fleet scale-out: byte-diff at --jobs 1 and 4 + pinned digest)"
MOSAIC_SCOPE=smoke cargo run -q --release -p mosaic-experiments --bin reproduce -- \
    --digest --jobs 1 multigpu > target/multigpu-serial.txt
MOSAIC_SCOPE=smoke cargo run -q --release -p mosaic-experiments --bin reproduce -- \
    --digest --jobs 4 multigpu > target/multigpu-parallel.txt
diff target/multigpu-serial.txt target/multigpu-parallel.txt
# The multigpu pin from the golden table (crates/experiments/src/goldens.rs):
# the determinism contract for the whole scale-out path (placement,
# interconnect, migration payloads, remote/migrate stall attribution).
pin=$(sed -n 's/^ *("multigpu", "\([0-9a-f]*\)"),.*$/\1/p' crates/experiments/src/goldens.rs)
if [ -z "$pin" ]; then
    echo "no multigpu digest found in crates/experiments/src/goldens.rs" >&2
    exit 1
fi
grep -q "digest multigpu $pin" target/multigpu-serial.txt
echo "    multigpu byte-identical at --jobs 1 and 4, digest matches the golden pin"

echo "==> oversubscription smoke (demand-paging engine: evict, write back, prefetch)"
MOSAIC_SCOPE=smoke cargo run -q --release -p mosaic-experiments --bin reproduce -- oversub

echo "==> trace-smoke (record a traced sweep, validate the JSONL, round-trip to Chrome)"
MOSAIC_SCOPE=smoke cargo run -q --release -p mosaic-experiments --bin reproduce -- \
    --trace target/trace-smoke.jsonl --stall-report
cargo run -q --release -p mosaic-telemetry --bin mosaic-trace -- validate target/trace-smoke.jsonl
cargo run -q --release -p mosaic-telemetry --bin mosaic-trace -- \
    chrome target/trace-smoke.jsonl -o target/trace-smoke.chrome.json

echo "==> simbench-smoke (benchmark tests, and every workload's simulated results unchanged)"
cargo test -q --release --manifest-path simbench/Cargo.toml
for workload in multiapp oversub fleet; do
    cargo run -q --release --manifest-path simbench/Cargo.toml -- \
        --workload "$workload" --seed 0 --seconds 1 > "target/simbench-$workload.txt"
    grep -q 'sim_changed false' "target/simbench-$workload.txt"
done
echo "    multiapp, oversub and fleet digests match simbench/digests.txt"

echo "CI green."
