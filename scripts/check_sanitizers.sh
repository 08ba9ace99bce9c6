#!/usr/bin/env bash
# Sanitizer ctest pass for the threaded runtime: builds the tree twice
# (ASan+UBSan, then TSan) and runs the concurrency-heavy test binaries —
# common (queues, thread pool), core (parallel assigner search incl. the
# shared-incumbent ILP refinements and the CostProvider layer-time cache),
# runtime (pipeline engine, threaded qgemm), serve (online engine admission
# thread), session (step-level decode over the paged KV cache), continuous
# (in-flight batching with KV preemption), fault (chaos suite: injected
# faults through the threaded engine and serving loop), replan (live
# migration: engine swaps under injected stragglers), tenant (fair-share
# scheduling through the serving stack), trace (multi-threaded span
# recording) and the online_serve example's smoke run (matched by the
# "serve" pattern) — under each.
# Run from the repo root:
#
#   scripts/check_sanitizers.sh [extra ctest -R pattern]
#
# CI invokes this via scripts/ci.sh, or register it as a labeled ctest
# with -DLLMPQ_SANITIZE_TESTS=ON and run `ctest -L sanitize`.
set -euo pipefail

cd "$(dirname "$0")/.."
pattern="${1:-common|^core$|quant|runtime|serve|session|continuous|fault|replan|trace}"

for mode in address thread; do
  build="build-${mode}san"
  echo "==== LLMPQ_SANITIZE=${mode} -> ${build} ===="
  cmake -B "${build}" -S . -DLLMPQ_SANITIZE="${mode}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "${build}" -j \
    --target llmpq_tests_common llmpq_tests_core llmpq_tests_quant \
             llmpq_tests_runtime llmpq_tests_serve llmpq_tests_session \
             llmpq_tests_continuous llmpq_tests_fault llmpq_tests_replan \
             llmpq_tests_tenant llmpq_tests_trace online_serve
  (cd "${build}" && ctest -R "${pattern}" --output-on-failure)
  # Sweep the quant suite across every kernel dispatch level: the SIMD
  # dequant-GEMM paths (unaligned word reads over packed rows, per-group
  # metadata indexing) must be clean under each sanitizer too, not just
  # whichever level the host auto-detects.
  for simd in scalar avx2 avx512; do
    echo "---- LLMPQ_SIMD=${simd} quant suite (${mode}san) ----"
    (cd "${build}" && LLMPQ_SIMD="${simd}" ctest -R quant       --output-on-failure)
  done
done

echo "==== sanitizer pass clean (address+undefined, thread) ===="
