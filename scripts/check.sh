#!/bin/sh
# One-stop pre-merge gate: configure, build, run the full test suite,
# lint the shipped microprogram, prove the parallel engine's
# determinism contract (golden tables, parallel-labeled tests, and a
# byte-for-byte diff of a 1-worker vs 4-worker composite report),
# prove the snapshot layer's crash-recovery contract (a composite that
# crashes mid-run and restores from checkpoints, serially and with 4
# workers, must reproduce the uninterrupted report byte for byte),
# run the dual-dispatch differential suite (the EBOX has one cycle
# body; threaded dispatch runs each fused form's compile-time
# instantiation of it and must match the all-dynamic Switch
# instantiation byte for byte; each test pins its machines through
# MachineConfig::dispatch, the only dispatch setting),
# emit the perf-trajectory figures (BENCH_simspeed.json,
# BENCH_parallel.json) from a dedicated Release build-bench tree —
# comparing against the committed baseline and refusing debug-build
# figures — then rebuild with AddressSanitizer for the
# fault/lint/snap/dispatch/parallel/devices/obs/components tests, with
# UBSan for the lint/snap/dispatch/devices/obs/components tests, and —
# when the toolchain supports it —
# with ThreadSanitizer for the parallel-labeled tests.
#
#   scripts/check.sh [build-dir]          (default: build-check)
#
# Set UPC780_TIDY=ON in the environment to request the clang-tidy pass
# in the main build (skipped with a warning when clang-tidy is absent).

set -eu

cd "$(dirname "$0")/.."
BUILD="${1:-build-check}"
JOBS="$(nproc 2>/dev/null || echo 2)"
TIDY="${UPC780_TIDY:-OFF}"

echo "== configure ($BUILD) =="
cmake -S . -B "$BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DUPC780_TIDY="$TIDY"

echo "== build =="
cmake --build "$BUILD" -j "$JOBS"

echo "== test =="
ctest --no-tests=error --test-dir "$BUILD" --output-on-failure

echo "== ulint =="
"$BUILD/tools/ulint" --report
"$BUILD/tools/ulint" --no-fpa --quiet
# The machine-readable outputs must stay valid JSON: CI annotation
# (SARIF) and the static attribution matrix the runtime audit mirrors.
if command -v python3 >/dev/null 2>&1
then
    "$BUILD/tools/ulint" --sarif | python3 -m json.tool > /dev/null
    "$BUILD/tools/ulint" --json | python3 -m json.tool > /dev/null
    "$BUILD/tools/ulint" --attribution | python3 -c '
import json, sys
m = json.load(sys.stdin)
assert m["rows"], "empty attribution matrix"
assert m["reachableWords"] > 0
'
    echo "sarif/json/attribution outputs are well-formed"
else
    "$BUILD/tools/ulint" --sarif > /dev/null
    "$BUILD/tools/ulint" --attribution > /dev/null
fi

echo "== parallel + golden labels =="
ctest --no-tests=error --test-dir "$BUILD" -L "parallel|golden" --output-on-failure

echo "== ubench ground-truth suite =="
ctest --no-tests=error --test-dir "$BUILD" -L ubench --output-on-failure
# The latency-table tool's machine-readable output must stay valid
# JSON (the ctest smoke covers schema; this guards the CLI surface).
if command -v python3 >/dev/null 2>&1
then
    "$BUILD/tools/upctable" --json | python3 -m json.tool > /dev/null
    echo "upctable --json output is well-formed"
else
    "$BUILD/tools/upctable" --json > /dev/null
fi

echo "== 4-worker composite is byte-identical to serial =="
UPC780_LOG_LEVEL=quiet "$BUILD/examples/paper_report" 6000 --jobs 1 \
    > "$BUILD/report-serial.txt"
UPC780_LOG_LEVEL=quiet "$BUILD/examples/paper_report" 6000 --jobs 4 \
    > "$BUILD/report-jobs4.txt"
cmp "$BUILD/report-serial.txt" "$BUILD/report-jobs4.txt"
echo "identical"

echo "== crash + restore reproduces the report, serial and parallel =="
# Each workload suffers a scripted harness crash at cycle 30000 and
# must come back from its cycle-30000 checkpoint; both the 1-worker
# and the 4-worker recovery must match the uninterrupted serial
# report byte for byte.
rm -rf "$BUILD/ckpt-serial" "$BUILD/ckpt-jobs4"
UPC780_LOG_LEVEL=quiet "$BUILD/examples/paper_report" 6000 --jobs 1 \
    --checkpoint-dir "$BUILD/ckpt-serial" --checkpoint-every 10000 \
    --crash-at 30000 > "$BUILD/report-ckpt-serial.txt"
UPC780_LOG_LEVEL=quiet "$BUILD/examples/paper_report" 6000 --jobs 4 \
    --checkpoint-dir "$BUILD/ckpt-jobs4" --checkpoint-every 10000 \
    --crash-at 30000 > "$BUILD/report-ckpt-jobs4.txt"
cmp "$BUILD/report-serial.txt" "$BUILD/report-ckpt-serial.txt"
cmp "$BUILD/report-serial.txt" "$BUILD/report-ckpt-jobs4.txt"
echo "identical"

echo "== snap-labeled tests =="
ctest --no-tests=error --test-dir "$BUILD" -L snap --output-on-failure

echo "== dispatch differential suite (switch vs threaded) =="
ctest --no-tests=error --test-dir "$BUILD" -L dispatch --output-on-failure

echo "== svc-labeled tests (daemon + cache + shutdown) =="
ctest --no-tests=error --test-dir "$BUILD" -L svc --output-on-failure

echo "== upcd/upcc end-to-end smoke (cache hit byte-identical) =="
SVC_DIR="$BUILD/svc-smoke"
rm -rf "$SVC_DIR"
mkdir -p "$SVC_DIR"
SOCK="$SVC_DIR/upcd.sock"
"$BUILD/tools/upcd" --socket "$SOCK" --cache-dir "$SVC_DIR/cache" \
    --spool-dir "$SVC_DIR/spool" &
UPCD_PID=$!
# Wait (bounded) until the daemon answers a ping.
i=0
until "$BUILD/tools/upcc" ping --socket "$SOCK" >/dev/null 2>&1
do
    i=$((i + 1))
    if [ "$i" -ge 100 ]
    then
        echo "error: upcd did not come up" >&2
        kill "$UPCD_PID" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done
SVC_REQ='{"workloads":"paper","instructions":3000,"warmup":600}'
"$BUILD/tools/upcc" submit --socket "$SOCK" "$SVC_REQ" \
    > "$SVC_DIR/reply-cold.json" 2>/dev/null
"$BUILD/tools/upcc" submit --socket "$SOCK" "$SVC_REQ" \
    > "$SVC_DIR/reply-hit.json" 2>/dev/null
cmp "$SVC_DIR/reply-cold.json" "$SVC_DIR/reply-hit.json"
# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$UPCD_PID"
wait "$UPCD_PID"
echo "replies identical; upcd drained cleanly on SIGTERM"

echo "== perf trajectory (Release build-bench; BENCH_*.json at root) =="
# The committed figures are the baseline future PRs are judged
# against, so they must come from an optimized build: benchmarks get
# their own Release tree (the main gate build stays RelWithDebInfo
# for debuggable test failures).
cmake -S . -B build-bench -DCMAKE_BUILD_TYPE=Release
cmake --build build-bench -j "$JOBS" --target bench_simspeed \
    bench_parallel
# Compare against the committed baseline first: the median of three
# repetitions of each benchmark, so one noisy run neither flags nor
# hides a change (prints a WARNING and a REGRESSION marker per
# benchmark whose median is >10% down; set UPC780_BENCH_STRICT=1 to
# turn regressions into a hard failure), then re-emit both figure
# files, the simspeed one as the same medians.
REPS="--benchmark_repetitions=3 --benchmark_report_aggregates_only=true"
if [ -f "$PWD/BENCH_simspeed.json" ]
then
    build-bench/bench/bench_simspeed --compare "$PWD/BENCH_simspeed.json" \
        $REPS
fi
UPC780_BENCH_JSON="$PWD/BENCH_parallel.json" \
UPC780_LOG_LEVEL=quiet build-bench/bench/bench_parallel
build-bench/bench/bench_simspeed $REPS \
    --benchmark_out="$PWD/BENCH_simspeed.json" \
    --benchmark_out_format=json
# Refuse to bless debug-build numbers as the committed baseline.
for f in BENCH_simspeed.json BENCH_parallel.json
do
    if ! grep -q '"library_build_type": "release"' "$PWD/$f"
    then
        echo "error: $f was emitted by a non-release build" >&2
        exit 1
    fi
done
echo "benchmark figures emitted from a release build"

if command -v gcov >/dev/null 2>&1 && command -v python3 >/dev/null 2>&1
then
    echo "== coverage build (src/obs, src/ubench >= 90% line coverage) =="
    cmake -S . -B "$BUILD-cov" -DCMAKE_BUILD_TYPE=Debug \
        -DUPC780_COVERAGE=ON
    cmake --build "$BUILD-cov" -j "$JOBS"
    ctest --no-tests=error --test-dir "$BUILD-cov" -L "obs|golden|lint|ubench" \
        --output-on-failure
    python3 scripts/coverage_report.py "$BUILD-cov" --root . \
        --fail-under src/obs=90 --fail-under src/ubench=90
else
    echo "== gcov/python3 unavailable; skipping coverage report =="
fi

echo "== asan build (faults, lint, snap, ubench, dispatch, svc, parallel, devices, obs, components) =="
cmake -S . -B "$BUILD-asan" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DUPC780_SANITIZE=address
cmake --build "$BUILD-asan" -j "$JOBS"
ctest --no-tests=error --test-dir "$BUILD-asan" \
    -L "faults|lint|snap|ubench|dispatch|svc|parallel|devices|obs|components" \
    --output-on-failure

echo "== ubsan build (lint + snap + ubench + dispatch + devices + obs + components tests) =="
cmake -S . -B "$BUILD-ubsan" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DUPC780_SANITIZE=undefined
cmake --build "$BUILD-ubsan" -j "$JOBS"
UBSAN_OPTIONS=halt_on_error=1 \
    ctest --no-tests=error --test-dir "$BUILD-ubsan" \
    -L "lint|snap|ubench|dispatch|devices|obs|components" --output-on-failure

if echo 'int main(){return 0;}' | \
    c++ -fsanitize=thread -x c++ - -o "$BUILD/tsan-probe" 2>/dev/null
then
    echo "== tsan build (parallel tests) =="
    cmake -S . -B "$BUILD-tsan" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DUPC780_SANITIZE=thread
    cmake --build "$BUILD-tsan" -j "$JOBS"
    ctest --no-tests=error --test-dir "$BUILD-tsan" -L parallel --output-on-failure
else
    echo "== tsan unavailable; skipping thread-sanitized parallel run =="
fi

echo "== all checks passed =="
