#!/usr/bin/env bash
# Tiered CI driver.
#
#   tools/ci.sh             tier 1: configure, build, run the full test suite
#   tools/ci.sh sanitize    sanitizer tier: same suite under ASan + UBSan
#   tools/ci.sh tsan        ThreadSanitizer tier: the fleet determinism and
#                           COW isolation tests under -fsanitize=thread
#                           (workers share refcounts, the result sink and
#                           the image's decode memo), plus the block-cache
#                           suite (with a four-thread DecodeMemo case)
#   tools/ci.sh bench-smoke interpreter-throughput + fleet-scaling smoke
#                           runs under ASan (exercises the uncached and
#                           block tiers and the COW fleet end to end; tiny
#                           budgets, no thresholds), then the release bench
#                           with the tier gate enforced (block >= 2.0x over
#                           uncached, recorded in BENCH_interp.json), then
#                           the host-time benchmark's smoke test
#                           (hostbench/smoke_test.py)
#   tools/ci.sh fleet-scale-smoke
#                           determinism gate for the work-stealing fleet
#                           scheduler: bench/fleet_scale --smoke must emit
#                           byte-identical 8-VM report JSON + merged FCFL
#                           traces for jobs 1/4/8, and bench/fleet_http
#                           --smoke the same for the IO-heavy HTTP fleet
#   tools/ci.sh lint        clang-tidy over src/ with the repo .clang-tidy
#                           profile, then the fclint view audit. A missing
#                           clang-tidy fails the tier (CI images must ship
#                           it); set FC_LINT_OPTIONAL=1 to degrade to the
#                           fclint audit alone on dev boxes
#   tools/ci.sh probe-gate  boundary prober + data-view write monitor across
#                           all 12 app views: every UD2 trap must classify
#                           as closure-predicted or profile-gap (zero
#                           unexplained), the benign run must produce zero
#                           un-whitelisted writes, and the data-only rootkit
#                           positive controls must be detected. Publishes
#                           ci-artifacts/probe.json + dataview.json
#   tools/ci.sh trace-determinism
#                           record the 12-app scenario twice in separate
#                           fctrace processes and byte-compare the streams,
#                           then the in-process ctest variant
#   tools/ci.sh obs-disabled
#                           build with -DFC_OBS_DISABLED=ON (tracing/metrics
#                           emit macros compiled out) and run the full test
#                           suite, so the compiled-out path cannot rot
#   tools/ci.sh perf-gate   regression gate: re-run the release benches and
#                           the profiler attribution, then fcperf-check the
#                           fresh JSON against the committed baselines in
#                           bench/baselines/ (exact on deterministic
#                           metrics, tolerance bands on wall-clock ones).
#                           Finishes by injecting a synthetic regression
#                           and requiring the gate to trip on it
#   tools/ci.sh all         all tiers in sequence
#
# Artifacts (bench metrics JSON, trace recordings) land in ci-artifacts/.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc)"

# Byte-exact gate: `same_bytes TOOL A B` passes when A and B are identical;
# otherwise `build/tools/TOOL diff` prints the first difference (fcperf for
# JSON reports: the first differing path; fctrace for recordings: the first
# differing VM and event) and the tier fails.
same_bytes() {
  cmp "$2" "$3" && return 0
  "./build/tools/$1" diff "$2" "$3" || true
  exit 1
}

tier1() {
  cmake -B build -S . -DFC_WERROR=ON
  cmake --build build -j "$jobs"
  ctest --test-dir build --output-on-failure -j "$jobs"
}

lint() {
  # The tidy pass is mandatory: a silently-skipped linter is a linter that
  # never fails. Dev boxes without clang-tidy can opt out explicitly with
  # FC_LINT_OPTIONAL=1.
  if command -v clang-tidy >/dev/null 2>&1; then
    cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
    # Sources only; headers are pulled in via HeaderFilterRegex.
    find src tools -name '*.cpp' -print0 |
      xargs -0 -P "$jobs" -n 4 clang-tidy -p build --quiet
  elif [ "${FC_LINT_OPTIONAL:-0}" = "1" ]; then
    echo "lint: clang-tidy not installed; FC_LINT_OPTIONAL=1 set," \
         "degrading to the fclint audit alone" >&2
  else
    echo "lint: clang-tidy not installed and FC_LINT_OPTIONAL is not set;" \
         "failing the tier (install clang-tidy or export" \
         "FC_LINT_OPTIONAL=1)" >&2
    exit 1
  fi
  cmake -B build -S . -DFC_WERROR=ON
  cmake --build build -j "$jobs" --target fclint
  ./build/tools/fclint lint --baseline tools/fclint.baseline
}

probe_gate() {
  cmake -B build -S . -DFC_WERROR=ON
  cmake --build build -j "$jobs" --target fclint
  mkdir -p ci-artifacts
  # Boundary prober over every Table I view: fclint exits non-zero on any
  # unexplained (non-closure, non-profile-gap) trap or an incomplete probe.
  ./build/tools/fclint probe --json ci-artifacts/probe.json
  # Data-view write monitor: benign run must be violation-free and the
  # data-only rootkit variants must be detected (runtime + static writer).
  ./build/tools/fclint data --json ci-artifacts/dataview.json
  echo "probe-gate: classification counts in ci-artifacts/probe.json," \
       "whitelist + verdicts in ci-artifacts/dataview.json"
}

sanitize() {
  cmake -B build-asan -S . -DFC_SANITIZE=ON -DFC_WERROR=ON
  cmake --build build-asan -j "$jobs"
  # Leak checking is off: the tier exists to catch out-of-bounds accesses
  # and UB in the simulator, and death tests fork in ways LeakSanitizer
  # reports spuriously.
  ASAN_OPTIONS=detect_leaks=0 \
    ctest --test-dir build-asan --output-on-failure -j "$jobs"
}

tsan() {
  cmake -B build-tsan -S . -DFC_SANITIZE=thread -DFC_WERROR=ON
  cmake --build build-tsan -j "$jobs" --target fleet_test
  # The fleet suite is the only multi-threaded surface: run it (determinism
  # at jobs 1/4/8, COW promotion isolation, shared-image rehydration) with
  # TSan watching the shared-store refcounts and the result sink.
  ./build-tsan/tests/fleet_test
  # Block-cache suite under TSan: fleet workers' block caches all build
  # through their image's DecodeMemo, and the suite's concurrency case has
  # four threads building identical and same-prefix blocks through one memo.
  cmake --build build-tsan -j "$jobs" --target blockcache_test
  ./build-tsan/tests/blockcache_test
}

bench_smoke() {
  cmake -B build-asan -S . -DFC_SANITIZE=ON -DFC_WERROR=ON
  cmake --build build-asan -j "$jobs" --target interp_throughput
  # --smoke: small cycle budget and no speedup assertion — sanitized builds
  # are not representative of throughput, only of memory safety on the
  # cached and uncached interpreter paths.
  ASAN_OPTIONS=detect_leaks=0 ./build-asan/bench/interp_throughput --smoke
  cmake --build build-asan -j "$jobs" --target fleet_scale
  ASAN_OPTIONS=detect_leaks=0 ./build-asan/bench/fleet_scale --smoke
  # Throughput gates run on the release build — the sanitized smoke pass
  # above checks memory safety, not speed. The bench enforces its own
  # threshold (block >= 2.0x over uncached) and writes the geomean into
  # BENCH_interp.json; the sed/awk re-check keeps the shipped artifact
  # honest even if the bench's gating changes.
  cmake -B build -S . -DFC_WERROR=ON
  cmake --build build -j "$jobs" --target interp_throughput
  ./build/bench/interp_throughput
  block_geomean="$(sed -n \
    's/.*"geomean_speedup": \([0-9.]*\).*/\1/p' BENCH_interp.json)"
  if ! awk -v g="$block_geomean" 'BEGIN { exit !(g >= 2.0) }'; then
    echo "bench-smoke: block-tier geomean $block_geomean < 2.0x gate" >&2
    exit 1
  fi
  echo "bench-smoke: block tier ${block_geomean}x over uncached" \
       "(gate >= 2.0x)"
  # The host-time benchmark at tiny sizes: every workload untraced and
  # traced must report every BENCHMARK.json metric with no failed
  # operations. It builds hostbench/ into .bench_build/ itself.
  python3 hostbench/smoke_test.py
  # The benches embed their metrics in JSON; keep them as CI artifacts so
  # runs can be compared over time.
  mkdir -p ci-artifacts
  cp BENCH_interp.json ci-artifacts/BENCH_interp.json
  cp BENCH_fleet.json ci-artifacts/BENCH_fleet.json
  echo "bench-smoke: metrics artifacts at ci-artifacts/BENCH_interp.json" \
       "and ci-artifacts/BENCH_fleet.json"
}

fleet_scale_smoke() {
  cmake -B build -S . -DFC_WERROR=ON
  cmake --build build -j "$jobs" --target fleet_scale fleet_http fctrace \
    fcperf
  mkdir -p ci-artifacts
  # The bench re-runs the 8-VM fleet at jobs 1/4/8 with traces on, asserts
  # the merged outputs match internally, and writes them out; the checks
  # here keep the on-disk artifacts honest too. `fctrace diff` names the
  # first VM and event that differ, and a report mismatch prints its first
  # differing JSON path, so a failure says where it diverged.
  ./build/bench/fleet_scale --smoke --determinism-out ci-artifacts
  for j in 4 8; do
    same_bytes fcperf "ci-artifacts/fleet-report-jobs1.json" \
                      "ci-artifacts/fleet-report-jobs$j.json"
    ./build/tools/fctrace diff "ci-artifacts/fleet-trace-jobs1.fcfl" \
                               "ci-artifacts/fleet-trace-jobs$j.fcfl"
  done
  echo "fleet-scale-smoke: report + FCFL trace byte-identical at jobs 1/4/8"
  # Same gate for the IO-heavy fleet: the open-loop HTTP bench replays its
  # ring-transport fleet at jobs 1/4/8 and the merged report + trace must
  # not depend on worker interleaving.
  ./build/bench/fleet_http --smoke --determinism-out ci-artifacts
  for j in 4 8; do
    same_bytes fcperf "ci-artifacts/io-report-jobs1.json" \
                      "ci-artifacts/io-report-jobs$j.json"
    ./build/tools/fctrace diff "ci-artifacts/io-trace-jobs1.fcfl" \
                               "ci-artifacts/io-trace-jobs$j.fcfl"
  done
  echo "fleet-scale-smoke: IO fleet report + FCFL trace byte-identical" \
       "at jobs 1/4/8"
}

trace_determinism() {
  cmake -B build -S . -DFC_WERROR=ON
  cmake --build build -j "$jobs" --target fctrace
  mkdir -p ci-artifacts
  # Cross-process reproducibility: two fctrace invocations of the same
  # scenario must serialize byte-identical streams.
  ./build/tools/fctrace record -o ci-artifacts/trace-a.fctrace \
    --chrome ci-artifacts/trace-a.json \
    --metrics ci-artifacts/metrics-a.json
  ./build/tools/fctrace record -o ci-artifacts/trace-b.fctrace
  same_bytes fctrace ci-artifacts/trace-a.fctrace ci-artifacts/trace-b.fctrace
  echo "trace-determinism: cross-process streams byte-identical"
  # In-process variant (also part of the tier-1 ctest suite).
  ctest --test-dir build --output-on-failure -R '^trace_determinism$'
}

obs_disabled() {
  cmake -B build-noobs -S . -DFC_OBS_DISABLED=ON -DFC_WERROR=ON
  cmake --build build-noobs -j "$jobs"
  # Emit-site-dependent tests skip themselves (SKIP_RETURN_CODE / GTEST_SKIP)
  # — everything else must still pass with the macros compiled out.
  ctest --test-dir build-noobs --output-on-failure -j "$jobs"
  echo "obs-disabled: suite green with tracing/metrics emit compiled out"
}

perf_gate() {
  cmake -B build -S . -DFC_WERROR=ON
  cmake --build build -j "$jobs" \
    --target interp_throughput fleet_scale fleet_http fctrace fcperf
  mkdir -p ci-artifacts
  # Fresh artifacts: the release throughput bench (also enforces its own
  # tier + profiler-overhead thresholds), the fleet smoke bench, the IO
  # saturation-knee bench (enforces its own >= 3x batched-over-per-IRQ
  # gate), and the deterministic cycle attribution of the 12-app scenario.
  ./build/bench/interp_throughput
  ./build/bench/fleet_scale --smoke
  ./build/bench/fleet_http --smoke
  ./build/tools/fctrace flame -o ci-artifacts/flame.collapsed \
    --json ci-artifacts/prof_flame.json
  # Gate against the committed baselines. Deterministic metrics must match
  # exactly; wall-clock metrics only fail on collapse (see the .rules files
  # for per-metric tolerances). Refreshing a baseline is a reviewed change:
  # regenerate the JSON and commit it alongside the change that moved it.
  ./build/tools/fcperf check bench/baselines/BENCH_interp.json \
    BENCH_interp.json --rules bench/baselines/interp.rules --name interp
  ./build/tools/fcperf check bench/baselines/BENCH_fleet.json \
    BENCH_fleet.json --rules bench/baselines/fleet.rules --name fleet
  ./build/tools/fcperf check bench/baselines/BENCH_io.json \
    BENCH_io.json --rules bench/baselines/io.rules --name io
  ./build/tools/fcperf check bench/baselines/prof_flame.json \
    ci-artifacts/prof_flame.json --rules bench/baselines/flame.rules \
    --name flame
  # The gate must also be able to FAIL: inject a synthetic regression into
  # a copy of the fresh artifact and require a non-zero exit.
  sed 's/"geomean_speedup": [0-9.]*/"geomean_speedup": 0.010/' \
    BENCH_interp.json > ci-artifacts/BENCH_interp_regressed.json
  if ./build/tools/fcperf check bench/baselines/BENCH_interp.json \
       ci-artifacts/BENCH_interp_regressed.json \
       --rules bench/baselines/interp.rules --name injected-regression; then
    echo "perf-gate: injected regression was NOT caught" >&2
    exit 1
  fi
  echo "perf-gate: baselines hold; injected regression correctly trips"
}

case "${1:-tier1}" in
  tier1)             tier1 ;;
  lint)              lint ;;
  probe-gate)        probe_gate ;;
  sanitize)          sanitize ;;
  tsan)              tsan ;;
  bench-smoke)       bench_smoke ;;
  fleet-scale-smoke) fleet_scale_smoke ;;
  trace-determinism) trace_determinism ;;
  obs-disabled)      obs_disabled ;;
  perf-gate)         perf_gate ;;
  all)               tier1; lint; probe_gate; sanitize; tsan; bench_smoke
                     fleet_scale_smoke; trace_determinism; obs_disabled
                     perf_gate ;;
  *) echo "usage: tools/ci.sh [tier1|lint|probe-gate|sanitize|tsan|bench-smoke|fleet-scale-smoke|trace-determinism|obs-disabled|perf-gate|all]" >&2
     exit 2 ;;
esac
