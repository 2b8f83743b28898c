#!/usr/bin/env bash
# Forced-scalar kernel-suite check: configures a scratch build with the
# AVX2 backend compiled OUT (-DINF2VEC_ENABLE_AVX2=OFF), so runtime
# dispatch can only ever select the scalar reference, then runs the
# `kernels`-labeled ctest suite. scalar_reference_test pins that build
# to the pre-kernel-layer bits (Inf2vec's SGD step and a serial Node2vec
# model), and parallel_train_test pins serial training to the legacy
# TrainPair loop, and topk_screen_test checks the top-k screen's rounding
# bound against the scalar summation order, so this is the regression
# check that the fallback path stays both alive and bit-identical.
#
# Usage: tools/scalar_kernel_check.sh [build-dir] [sanitizer]
#   build-dir  scratch build directory (default: build-scalar)
#   sanitizer  '', 'address', or 'thread' — forwarded to INF2VEC_SANITIZE
#              to run the suite sanitized as well
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-scalar}"
SANITIZE="${2:-}"

cmake -S . -B "${BUILD_DIR}" -DCMAKE_BUILD_TYPE=Release \
  -DINF2VEC_ENABLE_AVX2=OFF -DINF2VEC_SANITIZE="${SANITIZE}" >/dev/null
cmake --build "${BUILD_DIR}" \
  --target kernels_test scalar_reference_test quantized_store_test \
  parallel_train_test topk_screen_test bench_kernels \
  -j "$(nproc)"
ctest --test-dir "${BUILD_DIR}" -L kernels --output-on-failure
