#!/usr/bin/env bash
# CI gate: formatting, lints, docs, then the tier-1 build + test suite.
# This script is the single source of truth — .github/workflows/ci.yml
# just runs it. Every cargo command on the root workspace passes
# --locked, so a Cargo.lock out of step with the manifests fails the
# gate; perfbench keeps its own lockfile and is built without it.
#
#   ./ci.sh               the full gate (tier-1 plus the spill-path and
#                         scalar-fallback test legs, the aarch64
#                         cross-check, and compiling the benches)
#   ./ci.sh bench-smoke   additionally *run* the set benches in their
#                         --test smoke configuration (small sizes, 2
#                         samples) and the bench-regression gates, which
#                         re-measure the setops speedups, the regex
#                         throughput, and the out-of-core explosion
#                         conversion and fail if they regress past the
#                         tolerances in BENCH_setops.json /
#                         BENCH_regex.json / BENCH_explosion.json; then
#                         run perfbench's own tests and a 3 s
#                         cold_compile perfbench run, which fails unless
#                         its result line reports "correct":true and
#                         "failed":0 (every compiled program matched the
#                         benchmark's reference check)
#   ./ci.sh serve-smoke   additionally boot the real `mscc serve` daemon
#                         on an ephemeral port, drive every endpoint over
#                         TCP with `loadgen --smoke` (including /match
#                         hit, miss, and malformed-pattern requests), run
#                         the serve bench-regression gate (claims --
#                         serve --check vs BENCH_serve.json), and check
#                         that SIGINT drains the daemon cleanly
#   ./ci.sh cluster-smoke additionally run the cluster bench-regression
#                         gate (claims -- cluster --check vs
#                         BENCH_cluster.json), which boots real `mscc
#                         serve` daemons, warms one, and asserts the
#                         other serves the workload entirely over
#                         GET /artifact/{key} peer fetches; daemon logs
#                         from cluster-logs/ are dumped on failure
#   ./ci.sh fuzz-smoke    additionally run the differential fuzzer over
#                         the full in-process oracle matrix (including
#                         the regex differential oracle) with a fixed
#                         seed; any mismatch fails the build and leaves
#                         minimized reproducers in fuzz-corpus/
#   ./ci.sh sweep-smoke   additionally run `mscc sweep` over every
#                         bundled machine profile in profiles/ on the
#                         dispatch-heavy example workload, then the
#                         sweep bench-regression gate (claims -- sweep
#                         --check vs BENCH_sweep.json), which re-runs
#                         the sweep against the committed profile files
#                         and fails on any exact-cycle drift or broken
#                         profile-ordering invariant
set -euo pipefail
cd "$(dirname "$0")"

MODE="${1:-default}"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --locked --workspace --all-targets -- -D warnings

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --locked --workspace --no-deps

echo "== tier-1: build --release =="
# --workspace: the root is itself a package, so a bare `cargo build`
# would skip the member crates (and never produce target/release/mscc,
# which the smoke stages below execute).
cargo build --locked --release --workspace

echo "== tier-1: test =="
cargo test --locked -q --workspace

echo "== tier-1: test again under a tiny memory budget (spill path) =="
# 16k is far below any test workload's resident set, so every conversion
# in the suite runs through the out-of-core arena + worklist spill and
# must still produce bit-identical automata.
MSC_MEMORY_BUDGET=16k cargo test --locked -q --workspace

echo "== tier-1: test again with SIMD kernels disabled (scalar path) =="
# MSC_NO_SIMD forces the portable scalar fallbacks everywhere the SIMD
# crate dispatches, so the suite proves the scalar kernels are not just
# dead code behind a feature probe.
MSC_NO_SIMD=1 cargo test --locked -q --workspace

echo "== cross-check: aarch64-unknown-linux-gnu =="
# The reactor's epoll shim carries an arch-conditional epoll_event
# layout (packed on x86_64, natural elsewhere); type-check the whole
# workspace for a 64-bit non-x86 target so that cfg split cannot rot.
# `rustup target add aarch64-unknown-linux-gnu` is the only setup; skip
# with a notice when that target's std is not installed (e.g. offline).
if rustup target list --installed 2>/dev/null | grep -qx 'aarch64-unknown-linux-gnu'; then
    cargo check --locked --workspace --target aarch64-unknown-linux-gnu
else
    echo "   aarch64-unknown-linux-gnu std not installed; skipping cross-check"
fi

echo "== benches compile =="
# One workspace-wide invocation instead of per-crate `cargo bench
# --no-run` calls; the bench profile matches release (no overrides in
# Cargo.toml), so this reuses the tier-1 build artifacts.
cargo build --locked --benches --release --workspace

if [ "$MODE" = "bench-smoke" ]; then
    echo "== bench smoke: set_algebra --test =="
    cargo bench --locked -p msc-bench --bench set_algebra -- --test
    echo "== bench smoke: subsume_scaling --test =="
    cargo bench --locked -p msc-bench --bench subsume_scaling -- --test
    echo "== bench smoke: obs_overhead --test =="
    cargo bench --locked -p msc-bench --bench obs_overhead -- --test
    echo "== bench regression gate: setops --check =="
    cargo run --locked --release -p msc-bench --bin claims -- setops --check
    echo "== bench regression gate: regex --check =="
    cargo run --locked --release -p msc-bench --bin claims -- regex --check
    echo "== bench regression gate: explosion --check =="
    cargo run --locked --release -p msc-bench --bin claims -- explosion --check
    echo "== perfbench: tests =="
    cargo test --manifest-path perfbench/Cargo.toml
    echo "== perfbench smoke: cold_compile, 3 s, reference-checked =="
    # perfbench checks every compiled program against its reference; a
    # code-generation change that breaks that check fails here rather
    # than in a full benchmark run.
    PERF_RESULT="$(cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload cold_compile --seed 1 --seconds 3 --trace 0 | tail -n 1)"
    echo "$PERF_RESULT"
    if ! grep -q '"correct":true' <<<"$PERF_RESULT" || ! grep -q '"failed":0,' <<<"$PERF_RESULT"; then
        echo "perfbench smoke: cold_compile result is not correct with zero failures" >&2
        exit 1
    fi
fi

if [ "$MODE" = "serve-smoke" ]; then
    # Port 0 lets the kernel pick a free port — no RANDOM collisions on
    # busy runners. The daemon announces the bound address on stdout.
    SERVE_LOG="$(mktemp)"
    echo "== serve smoke: mscc serve on an ephemeral port =="
    ./target/release/mscc serve --addr 127.0.0.1:0 --workers 4 > "$SERVE_LOG" &
    SERVE_PID=$!
    trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -f "$SERVE_LOG"' EXIT
    ADDR=""
    for _ in $(seq 1 100); do
        ADDR="$(sed -n 's/^msc-serve listening on //p' "$SERVE_LOG" | head -n 1)"
        [ -n "$ADDR" ] && break
        sleep 0.1
    done
    if [ -z "$ADDR" ]; then
        echo "serve smoke: daemon never announced its address; daemon log follows" >&2
        cat "$SERVE_LOG" >&2
        exit 1
    fi
    echo "   daemon bound to ${ADDR}"
    ./target/release/loadgen --smoke --addr "$ADDR"
    echo "== serve bench-regression gate: claims -- serve --check =="
    cargo run --locked --release -p msc-bench --bin claims -- serve --check
    echo "== serve smoke: SIGINT drains the daemon =="
    kill -INT "$SERVE_PID"
    wait "$SERVE_PID"
    trap - EXIT
    rm -f "$SERVE_LOG"
fi

if [ "$MODE" = "cluster-smoke" ]; then
    # Subprocess daemons (the obs install lock is process-global), found
    # as siblings of the claims binary — tier-1 already built both. Logs
    # land in cluster-logs/<node>.log; dump them on failure so a red run
    # is diagnosable from the CI console alone.
    echo "== cluster smoke: claims -- cluster --check =="
    rm -rf cluster-logs
    if ! cargo run --locked --release -p msc-bench --bin claims -- cluster --check; then
        echo "cluster smoke failed; daemon logs follow" >&2
        for f in cluster-logs/*.log; do
            [ -f "$f" ] || continue
            echo "---- $f ----" >&2
            cat "$f" >&2
        done
        exit 1
    fi
fi

if [ "$MODE" = "sweep-smoke" ]; then
    # The CLI half first (exercises --profiles dir loading, the engine
    # pool, and the sweep.* counters on a real terminal run), then the
    # gate. The gate measures the committed profiles/ files — not the
    # built-in matrix — so a doctored profile file fails here even
    # though it also fails tier-1's bit-equality test.
    echo "== sweep smoke: mscc sweep over every bundled profile =="
    ./target/release/mscc sweep examples/dispatch_heavy.mimdc --profiles profiles --metrics
    echo "== sweep regression gate: claims -- sweep --check =="
    cargo run --locked --release -p msc-bench --bin claims -- sweep --check
fi

if [ "$MODE" = "fuzz-smoke" ]; then
    # Fixed seed: the stage is deterministic, a red build is always
    # reproducible locally with the same command. Mismatches exit
    # nonzero and drop minimized reproducers into fuzz-corpus/ (uploaded
    # as a CI artifact on failure).
    echo "== fuzz smoke: mscc fuzz, full oracle matrix, 200 cases =="
    rm -rf fuzz-corpus
    ./target/release/mscc fuzz --seed 1 --cases 200 --corpus fuzz-corpus
fi

echo "CI OK"
