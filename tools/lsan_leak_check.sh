#!/usr/bin/env bash
# LeakSanitizer check over the suites that own the big allocations: the
# serving stack (embedding tables, seed cache, hot-swap double residency),
# the shard fleet (wire codecs, scatter-gather fan-out threads, query
# parsing on the coordinator), the checkpoint subsystem (writer buffers),
# and the memory-plane tests themselves (gauges, heap-profiler sample
# maps). A leak in any of these
# is exactly the bug the byte-accounting plane exists to surface, so the
# accounting code must itself be leak-clean under the reference tool.
#
# Uses the repo's existing -DINF2VEC_SANITIZE=address mechanism; LSan
# rides along with ASan and is forced on explicitly below.
#
# Usage: tools/lsan_leak_check.sh [build-dir]
#        tools/lsan_leak_check.sh --use-build <configured-asan-build-dir>
#
#   build-dir    scratch directory to configure with ASan (default:
#                build-lsan); the slow-but-standalone mode.
#   --use-build  run against an ALREADY configured ASan build tree — the
#                mode the `lsan_leak_check` ctest entry uses so an
#                -DINF2VEC_SANITIZE=address build checks itself without a
#                nested configure.
set -euo pipefail
cd "$(dirname "$0")/.."

SUITE_LABELS="serve|shard|ckpt|mem"
TARGETS=(serve_test model_swapper_test memory_obs_test heap_profiler_test
         checkpoint_test incremental_test obs_http_test quantized_store_test
         shard_test shard_merge_test)

if [[ "${1:-}" == "--use-build" ]]; then
  BUILD_DIR="${2:?--use-build needs a directory}"
else
  BUILD_DIR="${1:-build-lsan}"
  cmake -S . -B "${BUILD_DIR}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DINF2VEC_SANITIZE=address >/dev/null
  cmake --build "${BUILD_DIR}" --target "${TARGETS[@]}" -j "$(nproc)"
fi

# detect_leaks is on by default on linux/x86-64 but forced here so the
# check cannot silently degrade; exitcode=23 keeps leak reports fatal.
export ASAN_OPTIONS="detect_leaks=1:exitcode=23:${ASAN_OPTIONS:-}"

status=0
for target in "${TARGETS[@]}"; do
  binary="${BUILD_DIR}/tests/${target}"
  if [[ ! -x "${binary}" ]]; then
    echo "lsan_leak_check: FAIL: ${binary} not built" >&2
    exit 1
  fi
  echo "lsan_leak_check: ${target}"
  if ! "${binary}" --gtest_brief=1; then
    echo "lsan_leak_check: FAIL: ${target} (test failure or leak)" >&2
    status=1
  fi
done

if [[ "${status}" -ne 0 ]]; then
  echo "lsan_leak_check: FAIL (suites: ${SUITE_LABELS})" >&2
  exit 1
fi
echo "lsan_leak_check: OK (${#TARGETS[@]} suites leak-clean)"
