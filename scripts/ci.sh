#!/usr/bin/env bash
# Staged CI gate. Run from anywhere:
#
#   scripts/ci.sh [stage ...]
#
# Stages (default: all, in this order):
#   build      configure + compile the tier-1 tree
#   test       tier-1 ctest sweep (ROADMAP.md's check; -LE sanitize keeps
#              the optional sanitizer ctest out of the plain-build run)
#   perfbench  build the serving benchmark package against the current
#              src/ and run its Python unit tests
#   format     clang-format gate (skips when the tool is absent)
#   bench      run the JSON-emitting benches and diff the deterministic
#              table4 rows against bench/baselines/ (±15%); gate the
#              dequant-GEMM kernel speedup floors (--kind kernels)
#   scalar     rebuild with -DLLMPQ_ENABLE_SIMD=OFF and rerun the
#              quant/runtime suites (scalar-reference matrix leg)
#   sanitize   ASan+UBSan and TSan ctest passes (own build trees)
#   coverage   gcc --coverage -O0 build + tier-1 ctest; fails when src/ line
#              coverage drops below COVERAGE_FLOOR (own build tree)
#
# Environment:
#   BUILD_DIR   build directory (default: build)
#   JOBS        parallelism (default: online CPUs; nproc is Linux-only, so
#               fall back to getconf, then 2)
#   CMAKE_ARGS  extra configure arguments, e.g. -DCMAKE_BUILD_TYPE=Debug
set -euo pipefail

# src/ line coverage floor in percent: the figure measured when the stage
# landed, rounded down to 0.1. The figure moves by ~0.2 with host load
# (the health monitor's wall-clock verdicts and the ILP's time budget take
# different lines), so the floor comes from a run on a loaded host. Raise
# it as tests land; never lower it to get a change through.
COVERAGE_FLOOR=94.8

cd "$(dirname "$0")/.."
ROOT="$(pwd)"
BUILD_DIR="${BUILD_DIR:-build}"
if [[ -z "${JOBS:-}" ]]; then
  JOBS="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 2)"
fi

configure() {
  # A build tree copied from another checkout (or a renamed repo root)
  # poisons every later cmake call with "the source directory does not
  # appear to contain CMakeLists.txt"; detect the mismatch and start over.
  local cache="${BUILD_DIR}/CMakeCache.txt"
  if [[ -f "${cache}" ]]; then
    local home
    home="$(sed -n 's/^CMAKE_HOME_DIRECTORY:INTERNAL=//p' "${cache}")"
    if [[ "${home}" != "${ROOT}" ]]; then
      echo "stale build cache (${home:-unset} != ${ROOT}); wiping ${BUILD_DIR}"
      rm -rf "${BUILD_DIR}"
    fi
  fi
  # shellcheck disable=SC2086  # CMAKE_ARGS is intentionally word-split.
  cmake -B "${BUILD_DIR}" -S . ${CMAKE_ARGS:-} > /dev/null
}

stage_build() {
  echo "==== build (${BUILD_DIR}, -j ${JOBS}) ===="
  configure
  cmake --build "${BUILD_DIR}" -j "${JOBS}"
}

stage_test() {
  echo "==== test ===="
  # --timeout is the per-test hang guard: an injected fault (or a real
  # deadlock) that wedges a suite fails it after 300s instead of hanging
  # the whole pipeline. Suites with their own TIMEOUT property keep it.
  (cd "${BUILD_DIR}" && ctest --output-on-failure -j "${JOBS}" -LE sanitize \
    --timeout 300)
}

stage_perfbench() {
  echo "==== perfbench ===="
  # perfbench/ is its own CMake package that compiles src/ in its own
  # tree; building it here catches a src/ API change that breaks the
  # benchmark driver before the benchmark is ever run.
  # shellcheck disable=SC2086
  cmake -S perfbench -B "${BUILD_DIR}/perfbench" ${CMAKE_ARGS:-} > /dev/null
  cmake --build "${BUILD_DIR}/perfbench" -j "${JOBS}" --target perfbench
  python3 -m unittest discover -s perfbench -p 'test_*.py'
}

stage_format() {
  echo "==== format ===="
  scripts/check_format.sh
}

stage_bench() {
  echo "==== bench ===="
  cmake --build "${BUILD_DIR}" -j "${JOBS}" \
    --target bench_table4_hetero_serving bench_table8_optimizer_speed \
             bench_ext_online_serving bench_ext_multi_tenant \
             bench_runtime_engine bench_ext_qgemm_kernels
  "${BUILD_DIR}/bench/bench_table4_hetero_serving" \
    --json "${BUILD_DIR}/BENCH_table4_hetero_serving.json" > /dev/null
  # Table 8's gated artifact keeps the heuristic rows only: they are
  # deterministic regardless of solver budget, while the ILP rows depend on
  # wall-clock truncation (run those interactively, without --methods).
  "${BUILD_DIR}/bench/bench_table8_optimizer_speed" \
    --methods heuristic \
    --json "${BUILD_DIR}/BENCH_table8_optimizer_speed.json" > /dev/null
  # Online serving: static vs iteration-level vs continuous batching per
  # arrival rate, plus the self-healing straggler pair. Sim-backed and
  # deterministic, so every row is diffed.
  "${BUILD_DIR}/bench/bench_ext_online_serving" \
    --json "${BUILD_DIR}/BENCH_ext_online_serving.json" > /dev/null
  # Multi-tenant fair-share serving: the virtual-clock simulator leg only
  # (--live 0 skips the wall-clock OnlineEngine leg, which is never
  # gated). Deterministic, so every per-tenant row is diffed.
  "${BUILD_DIR}/bench/bench_ext_multi_tenant" --live 0 \
    --json "${BUILD_DIR}/BENCH_ext_multi_tenant.json" > /dev/null
  "${BUILD_DIR}/bench/bench_runtime_engine" \
    --json "${BUILD_DIR}/BENCH_runtime_engine.json" > /dev/null
  # Only the simulator-backed benches are gated: their numbers are
  # deterministic (jitter=0 roofline model), so the committed baselines are
  # reproducible; `solve_s` rides along uncompared. The runtime-engine
  # artifact is wall-clock and machine-dependent — it is uploaded for
  # inspection, not diffed.
  python3 scripts/check_bench_regression.py \
    --baseline bench/baselines/table4_hetero_serving.json \
    --current "${BUILD_DIR}/BENCH_table4_hetero_serving.json"
  python3 scripts/check_bench_regression.py \
    --baseline bench/baselines/table8_optimizer_speed.json \
    --current "${BUILD_DIR}/BENCH_table8_optimizer_speed.json"
  # The floor ratios pin the ordering claims directly, independent of
  # baseline drift tolerance: at the highest arrival rate (cluster slot 3)
  # continuous throughput must be >= static batching, and under the
  # injected straggler (slot 4) the self-healing control loop must serve
  # at least as fast as tolerating the drag — a baseline refresh cannot
  # quietly bless a replanner that makes a degraded run worse.
  python3 scripts/check_bench_regression.py \
    --baseline bench/baselines/ext_online_serving.json \
    --current "${BUILD_DIR}/BENCH_ext_online_serving.json" \
    --floor-ratio 3/continuous/static/1.0 \
    --floor-ratio 4/straggler-replan/straggler-tolerate/1.0
  # Multi-tenant fairness floor: the worst tenant's SLO attainment is
  # gated as an absolute value, so weighted fair sharing can never be
  # "tuned" into starving a tenant to make the aggregate look better.
  python3 scripts/check_bench_regression.py \
    --baseline bench/baselines/ext_multi_tenant.json \
    --current "${BUILD_DIR}/BENCH_ext_multi_tenant.json" \
    --floor-value 1/min-tenant/slo_attainment/0.95
  # Dequant-GEMM and attention kernel dispatch: wall-clock, but gated on
  # the speedup-vs-scalar *ratio* (same box runs both kernels back to
  # back), against committed floors far below the measured values. This is
  # what catches a silent dispatch regression to the scalar path.
  "${BUILD_DIR}/bench/bench_ext_qgemm_kernels" \
    --json "${BUILD_DIR}/BENCH_ext_qgemm_kernels.json" > /dev/null
  python3 scripts/check_bench_regression.py --kind kernels \
    --baseline bench/baselines/ext_qgemm_kernels.json \
    --current "${BUILD_DIR}/BENCH_ext_qgemm_kernels.json"
}

stage_scalar() {
  echo "==== scalar (SIMD compiled out) ===="
  # Matrix leg with the vector kernels absent at compile time
  # (-DLLMPQ_ENABLE_SIMD=OFF): proves the scalar reference is
  # self-sufficient and that nothing links against an ISA symbol
  # unconditionally. Quant + runtime suites cover every kernel consumer.
  local dir="${BUILD_DIR}-nosimd"
  # shellcheck disable=SC2086
  cmake -B "${dir}" -S . -DLLMPQ_ENABLE_SIMD=OFF ${CMAKE_ARGS:-} > /dev/null
  cmake --build "${dir}" -j "${JOBS}" \
    --target llmpq_tests_quant llmpq_tests_runtime
  (cd "${dir}" && ctest -R "quant|runtime" --output-on-failure \
    --timeout 300)
}

stage_sanitize() {
  echo "==== sanitize ===="
  scripts/check_sanitizers.sh
}

stage_coverage() {
  echo "==== coverage ===="
  # gcc line coverage of src/ over the tier-1 suites, summed from gcov's
  # JSON output by scripts/coverage_summary.py (no gcovr/lcov needed).
  local dir="${BUILD_DIR}-coverage"
  # shellcheck disable=SC2086  # CMAKE_ARGS first: the coverage flags win.
  cmake -B "${dir}" -S . ${CMAKE_ARGS:-} -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="--coverage -O0" \
    -DCMAKE_EXE_LINKER_FLAGS="--coverage" > /dev/null
  cmake --build "${dir}" -j "${JOBS}"
  # Counters accumulate across runs; start from zero so the figure is one
  # tier-1 pass.
  find "${dir}" -name '*.gcda' -delete
  (cd "${dir}" && ctest --output-on-failure -j "${JOBS}" -LE sanitize \
    --timeout 900)
  python3 scripts/coverage_summary.py --build-dir "${dir}" \
    --floor "${COVERAGE_FLOOR}"
}

run_stage() {
  case "$1" in
    build) stage_build ;;
    test) stage_test ;;
    perfbench) stage_perfbench ;;
    format) stage_format ;;
    bench) stage_bench ;;
    scalar) stage_scalar ;;
    sanitize) stage_sanitize ;;
    coverage) stage_coverage ;;
    all)
      stage_build; stage_test; stage_perfbench; stage_format; stage_bench
      stage_scalar; stage_sanitize; stage_coverage
      ;;
    *)
      echo "unknown stage '$1' (known: build test perfbench format bench scalar sanitize coverage all)" >&2
      exit 2
      ;;
  esac
}

if [[ $# -eq 0 ]]; then
  run_stage all
else
  for s in "$@"; do run_stage "$s"; done
fi

echo "==== ci green ===="
