#ifndef INF2VEC_SERVE_SERVING_TABLE_H_
#define INF2VEC_SERVE_SERVING_TABLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/aggregation.h"
#include "embedding/embedding_store.h"
#include "embedding/model_io.h"
#include "embedding/quantized_store.h"
#include "graph/social_graph.h"
#include "kernels/aligned.h"
#include "util/status.h"

namespace inf2vec {
namespace serve {

/// Numeric mode of the serving table. kInt8 serves from a
/// QuantizedEmbeddingStore — loaded from the artifact's quantized section
/// when present, else quantized from the fp64 table at load time — for
/// 8x smaller scan footprint at a small recall cost (see docs/SERVING.md).
enum class QuantMode {
  kNone = 0,  // fp64, bit-identical to EmbeddingPredictor.
  kInt8 = 1,
};

/// "none" / "int8".
const char* QuantModeName(QuantMode mode);

/// Parses "none" or "int8" (the CLI spelling). Returns false otherwise.
bool ParseQuantModeName(const std::string& name, QuantMode* mode);

/// The per-query reusable part of Eq. 7 for one activated seed set: the
/// seed users' source rows gathered into one contiguous block (so the
/// top-k scan streams seed rows from L1/L2 instead of hopping across the
/// full S matrix) plus their per-row scales and influence-ability
/// biases. Gathering copies rows, it does not reassociate any sum, so
/// arithmetic over the block is bit-identical to scoring from the table.
///
/// Rows hold the element type of the table that gathered them (fp64
/// doubles or int8 codes; the variant's alternative is the block's mode)
/// at that table's 64-byte-aligned padded pitch, so the seed-scan kernels
/// stream cache-line-aligned rows. An fp64 row's scale is 1; an int8
/// row's is its fp32 quantization scale, widened to double exactly.
struct SeedBlock {
  using Fp64Rows = kernels::AlignedVector<double>;
  using Int8Rows = kernels::AlignedVector<int8_t>;

  uint32_t dim = 0;
  uint32_t stride = 0;  // Row pitch in elements (the table's row_stride()).
  std::variant<Fp64Rows, Int8Rows> rows;  // num_seeds x stride.
  std::vector<double> scales;             // num_seeds.
  std::vector<double> biases;             // num_seeds (b_u).
  std::vector<UserId> seeds;              // The gathered ids, query order.

  /// A zeroed block for `seeds` at `mode`'s element type and kernel
  /// pitch: what a gather fills and the wire decoder refills.
  static SeedBlock Shaped(QuantMode mode, uint32_t dim,
                          std::vector<UserId> seeds);

  QuantMode mode() const;
  size_t num_seeds() const { return seeds.size(); }

  /// Element `d` of row `i`, widened to double (exact for both types).
  double Element(size_t i, uint32_t d) const;
  /// Stores `value` as element `d` of row `i`; an int8 row accepts only
  /// integers in [-128, 127].
  Status SetElement(size_t i, uint32_t d, double value);
  /// Copies seed `from_i` of `from` (row, scale, bias) into seed `i`;
  /// both blocks must share mode and dim.
  void CopySeed(size_t i, const SeedBlock& from, size_t from_i);

  /// Heap bytes this block holds (capacity-based): an fp64 row costs 8x
  /// its int8 counterpart, and the gap is visible in cache accounting.
  uint64_t ApproxBytes() const;
};

/// The exact screen of a linear aggregator (Ave, Sum) for one seed block
/// on an fp64 table. Eq. 7 under Ave or Sum is linear in the seeds'
/// source rows, so one dot against their centroid gives every candidate
/// the screen score s'(v) = c·T_v + b̄ + w·b~_v, within `epsilon` of the
/// exact score (docs/ALGORITHMS.md, "Exact centroid screen", derives the
/// bound). A candidate whose s'(v) + epsilon lies strictly below the
/// current k-th exact score cannot enter the top k.
struct CentroidScreen {
  kernels::AlignedVector<double> centroid;  // c: mean (Ave) or sum (Sum).
  double bias = 0.0;           // b̄: mean (Ave) or sum (Sum) of b_u.
  double target_weight = 1.0;  // w: 1 (Ave) or the seed count (Sum).
  /// Certified bound on |exact - s'|; always finite (MakeScreen gives no
  /// screen when an input or intermediate could overflow).
  double epsilon = 0.0;

  /// s' + epsilon < kth, false when either side is NaN.
  bool Prunes(double screen_score, double kth) const {
    return screen_score + epsilon < kth;
  }
};

/// The one embedding table a service scores from, in the numeric mode
/// chosen at load. It owns exactly one table — the fp64 EmbeddingStore or
/// the int8 QuantizedEmbeddingStore — and is the only code that knows
/// their row formats: it gathers seed blocks, scores candidates against
/// a block, screens them against a block's centroid, checks a
/// transported block's shape, warms its pages and reports its bytes. Each scoring call dispatches on the mode once, then
/// runs that format's candidate loop. Immutable after construction, so
/// concurrent readers need no locks.
class ServingTable {
 public:
  /// Builds the table `mode` selects from a loaded artifact. fp64 moves
  /// the artifact's store in. int8 takes the artifact's quantized section
  /// (or quantizes the fp64 store when there is none — identical codes
  /// either way) and then frees the fp64 store, so only the int8 table
  /// stays resident.
  static ServingTable FromArtifact(ModelArtifact* artifact, QuantMode mode);

  explicit ServingTable(EmbeddingStore store);
  explicit ServingTable(QuantizedEmbeddingStore store);

  QuantMode mode() const;
  uint32_t num_users() const;
  uint32_t dim() const;

  /// Eq. 7 for every candidate in [begin, end) against `block`:
  /// out[v - begin] = F({x(u, v) : u in block}). fp64 keeps the
  /// association (dot + b_u) + b~_v of EmbeddingStore::Score, so on the
  /// scalar backend it is bit-identical to EmbeddingPredictor; int8
  /// combines exact integer dots through
  /// QuantizedEmbeddingStore::DequantScore, bit-identical to
  /// QuantizedEmbeddingStore::Score. Latest computes only the last
  /// seed's term, the one it keeps. `block` must pass CheckBlock.
  void ScoreRange(const SeedBlock& block, Aggregation aggregation,
                  UserId begin, UserId end, double* out) const;

  /// ScoreRange for one candidate.
  double Score(const SeedBlock& block, UserId candidate,
               Aggregation aggregation) const;

  /// The centroid screen for `block` (which must pass CheckBlock) under
  /// `aggregation`; nullopt for Max and Latest, on an int8 table, and
  /// when the bound is not finite.
  std::optional<CentroidScreen> MakeScreen(const SeedBlock& block,
                                           Aggregation aggregation) const;

  /// Screen scores s'(v) for every candidate in [begin, end); one dot
  /// per candidate. `screen` must come from this table's MakeScreen.
  void ScreenRange(const CentroidScreen& screen, UserId begin, UserId end,
                   double* out) const;

  /// A block from outside (the shard wire) must look exactly like one
  /// this table gathers: FailedPrecondition on a mode mismatch,
  /// InvalidArgument on a dim or array-shape mismatch.
  Status CheckBlock(const SeedBlock& block) const;

  /// Touches every row, scale and bias once so first queries do not pay
  /// cold page faults; returns the checksum it computed.
  double Warm() const;

  /// Bytes of the resident table.
  uint64_t bytes() const;
  /// Bytes resident while this table was built: the fp64 table every
  /// artifact load reads, plus the int8 table in int8 mode. What a
  /// second load of the same model must budget for.
  uint64_t load_peak_bytes() const { return load_peak_bytes_; }
  /// "embedding_table" (fp64) or "quantized_table" (int8): names the
  /// memory gauge ("serve.<name>") and the /modelz byte field
  /// ("<name>_bytes").
  const char* name() const;

 private:
  friend SeedBlock GatherSeedBlock(const ServingTable& table,
                                   const std::vector<UserId>& seeds);

  std::variant<EmbeddingStore, QuantizedEmbeddingStore> store_;
  uint64_t load_peak_bytes_ = 0;
  // Table-wide inputs of the screen bound (fp64 only): max ‖T_v‖ rounded
  // up and max |b~_v|, each +inf when some entry is not finite.
  double max_target_norm_ = 0.0;
  double max_target_bias_ = 0.0;
};

/// Gathers the rows of `seeds` (in query order, duplicates kept) from
/// `table` at its element type. Callers validate ids.
SeedBlock GatherSeedBlock(const ServingTable& table,
                          const std::vector<UserId>& seeds);

}  // namespace serve
}  // namespace inf2vec

#endif  // INF2VEC_SERVE_SERVING_TABLE_H_
