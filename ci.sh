#!/usr/bin/env bash
# The full offline CI gate for this workspace. Everything is deterministic
# and networkless; release mode matters (debug is 10-50x slower through the
# simulator). Run from the repository root:
#
#   ./ci.sh
#
# The `--workspace` flags are load-bearing: the repo root is itself a
# package (examples + integration tests), so bare cargo commands would
# silently skip the crates. Same gates as .claude/skills/verify/SKILL.md.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> etagraph lint (static invariant gate; nonzero on any non-baselined"
echo "    finding OR any stale lint.allow entry — see DESIGN.md's catalogue)"
cargo run --release -p eta-cli -- lint

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --workspace --all-targets --release"
cargo build --workspace --all-targets --release

echo "==> cargo test --workspace --release -q"
cargo test --workspace --release -q

echo "==> cargo doc --workspace --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> report profile smoke run (quick suite, temp dir)"
PROFILE_OUT="$(mktemp -d)"
trap 'rm -rf "$PROFILE_OUT"' EXIT
cargo run --release -p eta-bench --bin report -- profile --quick --out "$PROFILE_OUT" >/dev/null
test -s "$PROFILE_OUT/profile.txt" && test -s "$PROFILE_OUT/profile.json"
grep -q "transfer/compute overlap" "$PROFILE_OUT/profile.txt"

echo "==> report faults smoke run (quick suite, temp dir)"
cargo run --release -p eta-bench --bin report -- faults --quick --out "$PROFILE_OUT" >/dev/null
test -s "$PROFILE_OUT/faults.txt" && test -s "$PROFILE_OUT/faults.json"
grep -q "availability" "$PROFILE_OUT/faults.txt"
grep -q "quarantine" "$PROFILE_OUT/faults.txt"

echo "==> chaos drill smoke run (quick suite, twice, byte-identical)"
cargo run --release -p eta-bench --bin report -- chaos --quick --out "$PROFILE_OUT" >/dev/null
grep -q "0 lost" "$PROFILE_OUT/chaos.txt"
mv "$PROFILE_OUT/chaos.json" "$PROFILE_OUT/chaos.first.json"
cargo run --release -p eta-bench --bin report -- chaos --quick --out "$PROFILE_OUT" >/dev/null
cmp "$PROFILE_OUT/chaos.first.json" "$PROFILE_OUT/chaos.json"

echo "==> overload drill gate (quick suite: nonzero exit on any lost or"
echo "    double-counted request, or a saturated cell where qos loses; then"
echo "    a second run must be byte-identical)"
cargo run --release -p eta-cli -- overload --out "$PROFILE_OUT" >/dev/null
grep -q "0 lost" "$PROFILE_OUT/overload.txt"
mv "$PROFILE_OUT/overload.json" "$PROFILE_OUT/overload.first.json"
cargo run --release -p eta-bench --bin report -- overload --quick --out "$PROFILE_OUT" >/dev/null
cmp "$PROFILE_OUT/overload.first.json" "$PROFILE_OUT/overload.json"

echo "==> serving artifacts are fresh (full-suite chaos/serve/faults/overload"
echo "    regenerated in the temp dir; every .json and .txt must match reports/)"
mkdir -p "$PROFILE_OUT/fresh"
cargo run --release -p eta-bench --bin report -- chaos serve faults overload \
    --out "$PROFILE_OUT/fresh" >/dev/null
for name in chaos serve faults overload; do
    for ext in json txt; do
        cmp "reports/$name.$ext" "$PROFILE_OUT/fresh/$name.$ext"
    done
done

echo "==> report shard smoke run (quick suite, twice, byte-identical)"
cargo run --release -p eta-bench --bin report -- shard --quick --out "$PROFILE_OUT" >/dev/null
grep -q "0 mismatches" "$PROFILE_OUT/shard.txt"
mv "$PROFILE_OUT/shard.json" "$PROFILE_OUT/shard.first.json"
cargo run --release -p eta-bench --bin report -- shard --quick --out "$PROFILE_OUT" >/dev/null
cmp "$PROFILE_OUT/shard.first.json" "$PROFILE_OUT/shard.json"

echo "==> report transfer smoke run (quick suite, twice, byte-identical)"
cargo run --release -p eta-bench --bin report -- transfer --quick --out "$PROFILE_OUT" >/dev/null
grep -q "0 label mismatches" "$PROFILE_OUT/transfer.txt"
grep -q "zero-copy fastest static on 2/2 sparse cells" "$PROFILE_OUT/transfer.txt"
grep -q "adaptive beats every static mode" "$PROFILE_OUT/transfer.txt"
grep -q '"crossover_observed": true' "$PROFILE_OUT/transfer.json"
grep -q '"adaptive_within_tolerance": true' "$PROFILE_OUT/transfer.json"
grep -q '"adaptive_beats_every_static": true' "$PROFILE_OUT/transfer.json"
mv "$PROFILE_OUT/transfer.json" "$PROFILE_OUT/transfer.first.json"
cargo run --release -p eta-bench --bin report -- transfer --quick --out "$PROFILE_OUT" >/dev/null
cmp "$PROFILE_OUT/transfer.first.json" "$PROFILE_OUT/transfer.json"

echo "==> host-parallelism byte-identity (same run at 1 and 4 host threads)"
cargo run --release -p eta-cli -- generate rmat --scale 10 --edges 30000 \
    --max-weight 64 --seed 11 --out "$PROFILE_OUT/hp.etag" >/dev/null
for alg in bfs sssp; do
    for extra in "" "--sanitize" "--transfer adaptive"; do
        # shellcheck disable=SC2086
        cargo run --release -p eta-cli -- run "$PROFILE_OUT/hp.etag" \
            --alg "$alg" --host-threads 1 $extra --json >"$PROFILE_OUT/hp.1.json"
        # shellcheck disable=SC2086
        cargo run --release -p eta-cli -- run "$PROFILE_OUT/hp.etag" \
            --alg "$alg" --host-threads 4 $extra --json >"$PROFILE_OUT/hp.4.json"
        cmp "$PROFILE_OUT/hp.1.json" "$PROFILE_OUT/hp.4.json"
    done
done
cargo run --release -p eta-cli -- serve --graph rmat10 --requests 20 \
    --devices 2 --host-threads 1 --json >"$PROFILE_OUT/hp.serve.1.json"
cargo run --release -p eta-cli -- serve --graph rmat10 --requests 20 \
    --devices 2 --host-threads 4 --json >"$PROFILE_OUT/hp.serve.4.json"
cmp "$PROFILE_OUT/hp.serve.1.json" "$PROFILE_OUT/hp.serve.4.json"

echo "==> bench_sim smoke run (host-time trajectory, temp file)"
cargo run --release -p eta-bench --bin bench_sim -- --label ci-smoke \
    --threads 4 --out "$PROFILE_OUT/BENCH_sim.json" >/dev/null 2>&1
grep -q '"bench": "sim"' "$PROFILE_OUT/BENCH_sim.json"
grep -q '"sim_cycles_per_host_sec"' "$PROFILE_OUT/BENCH_sim.json"

echo "==> bench_serve smoke run (serving-layer trajectory, temp file)"
cargo run --release -p eta-bench --bin bench_serve -- --label ci-smoke \
    --out "$PROFILE_OUT/BENCH_serve.json" >/dev/null 2>&1
grep -q '"bench": "serve"' "$PROFILE_OUT/BENCH_serve.json"
grep -q '"goodput_qps"' "$PROFILE_OUT/BENCH_serve.json"

echo "==> sharded-vs-single differential (CLI label digests must match)"
cargo run --release -p eta-cli -- generate rmat --scale 10 --edges 30000 \
    --max-weight 64 --seed 7 --out "$PROFILE_OUT/g.etag" >/dev/null
for alg in bfs sssp; do
    single="$(cargo run --release -p eta-cli -- run "$PROFILE_OUT/g.etag" \
        --alg "$alg" | grep 'labels digest')"
    sharded="$(cargo run --release -p eta-cli -- run "$PROFILE_OUT/g.etag" \
        --alg "$alg" --devices 2 | grep 'labels digest')"
    if [ "$single" != "$sharded" ]; then
        echo "ci: $alg digest diverges under sharding: $single vs $sharded" >&2
        exit 1
    fi
done

echo "ci: all gates passed"
