#ifndef INF2VEC_UTIL_RNG_H_
#define INF2VEC_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/prefetch.h"

namespace inf2vec {

/// The complete serializable state of an Rng: the four xoshiro256** lanes
/// plus the Box-Muller spare deviate. Capturing it with Rng::state() and
/// restoring with Rng::set_state() resumes the stream exactly where it
/// left off — the checkpoint subsystem persists these so an interrupted
/// training run replays bit-for-bit.
struct RngState {
  uint64_t lanes[4] = {0, 0, 0, 0};
  double spare_gaussian = 0.0;
  bool has_spare_gaussian = false;

  friend bool operator==(const RngState&, const RngState&) = default;
};

/// Deterministic pseudo-random generator built on xoshiro256** with a
/// splitmix64-seeded state. Every randomized component of the library takes
/// an explicit Rng (or seed) so experiments are reproducible bit-for-bit.
///
/// Not thread-safe; give each thread its own instance.
class Rng {
 public:
  /// Seeds the four 64-bit lanes from `seed` via splitmix64.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Snapshot of the full generator state (lanes + Gaussian spare).
  RngState state() const;

  /// Restores a snapshot taken with state(); the next draw continues the
  /// captured stream exactly.
  void set_state(const RngState& state);

  /// An Rng resumed from a snapshot; convenience for deserialization.
  static Rng FromState(const RngState& state) {
    Rng rng(0);
    rng.set_state(state);
    return rng;
  }

  /// Next raw 64 random bits.
  uint64_t NextU64();

  /// Uniform integer in [0, bound). `bound` must be positive. Uses Lemire's
  /// multiply-shift rejection method (unbiased).
  uint64_t UniformU64(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// True with probability `p` (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Standard normal via Box-Muller (caches the spare deviate).
  double Gaussian();

  /// Swaps by which Shuffle draws its swap indices ahead of use.
  static constexpr size_t kShuffleLookahead = 4;

  /// Fisher-Yates shuffle of `items` in place. Swap k exchanges
  /// items[n-1-k] with items[j], j drawn from [0, n-k). Each j is drawn
  /// kShuffleLookahead swaps before it is used and its slot prefetched,
  /// so a vector larger than the caches does not stall on every random
  /// slot. The draws still happen one per swap in swap order, so the
  /// permutation and the final state() equal the plain loop's.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    const size_t n = items.size();
    if (n < 2) return;
    const size_t swaps = n - 1;
    size_t ahead[kShuffleLookahead] = {};  // ahead[k % depth]: swap k's index.
    for (size_t k = 0; k < swaps && k < kShuffleLookahead; ++k) {
      ahead[k] = static_cast<size_t>(UniformU64(n - k));
      PrefetchLine(&items[ahead[k]]);
    }
    for (size_t k = 0; k < swaps; ++k) {
      size_t& slot = ahead[k % kShuffleLookahead];
      const size_t j = slot;
      if (k + kShuffleLookahead < swaps) {
        slot = static_cast<size_t>(UniformU64(n - k - kShuffleLookahead));
        PrefetchLine(&items[slot]);
      }
      using std::swap;
      swap(items[n - 1 - k], items[j]);
    }
  }

  /// Reservoir-samples `k` items (without replacement) from `items`.
  /// Returns fewer if items.size() < k. Result order is unspecified.
  template <typename T>
  std::vector<T> SampleWithoutReplacement(const std::vector<T>& items,
                                          size_t k) {
    std::vector<T> out;
    out.reserve(k < items.size() ? k : items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      if (out.size() < k) {
        out.push_back(items[i]);
      } else {
        size_t j = static_cast<size_t>(UniformU64(i + 1));
        if (j < k) out[j] = items[i];
      }
    }
    return out;
  }

  /// Derives an independent child generator; useful for giving parallel
  /// runs decorrelated streams from one master seed.
  Rng Fork();

 private:
  uint64_t state_[4];
  double spare_gaussian_ = 0.0;
  bool has_spare_gaussian_ = false;
};

}  // namespace inf2vec

#endif  // INF2VEC_UTIL_RNG_H_
