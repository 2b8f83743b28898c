#ifndef INF2VEC_UTIL_PREFETCH_H_
#define INF2VEC_UTIL_PREFETCH_H_

#include <cstddef>
#include <cstdint>

namespace inf2vec {

/// Bytes per cache line on every target this library builds for.
inline constexpr size_t kCacheLineBytes = 64;

/// Starts loading the cache line that holds `address` into every cache
/// level and returns at once. A hint only: it never faults, changes no
/// value, and the hardware may drop it.
///
/// On x86-64 this is an explicit `prefetcht0` in a volatile asm
/// statement, which the optimizer must keep. Check that a hot loop built
/// on it still holds the instruction with `objdump -d`.
inline void PrefetchLine(const void* address) {
#if defined(__x86_64__)
  asm volatile("prefetcht0 %0" : : "m"(*static_cast<const char*>(address)));
#else
  __builtin_prefetch(address, /*rw=*/0, /*locality=*/3);
#endif
}

/// PrefetchLine over every cache line that [address, address + bytes)
/// touches.
inline void PrefetchBytes(const void* address, size_t bytes) {
  const uintptr_t begin = reinterpret_cast<uintptr_t>(address);
  for (uintptr_t line = begin - begin % kCacheLineBytes; line < begin + bytes;
       line += kCacheLineBytes) {
    PrefetchLine(reinterpret_cast<const void*>(line));
  }
}

}  // namespace inf2vec

#endif  // INF2VEC_UTIL_PREFETCH_H_
