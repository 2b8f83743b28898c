#include "serve/serving_table.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>

#include "kernels/kernels.h"

namespace inf2vec {
namespace serve {
namespace {

/// What the serving code needs to know about each table type: its
/// mode and the row vector a gathered block holds.
template <typename Store>
struct Format;
template <>
struct Format<EmbeddingStore> {
  static constexpr QuantMode kMode = QuantMode::kNone;
  using Rows = SeedBlock::Fp64Rows;
};
template <>
struct Format<QuantizedEmbeddingStore> {
  static constexpr QuantMode kMode = QuantMode::kInt8;
  using Rows = SeedBlock::Int8Rows;
};

template <typename Store>
using FormatOf = Format<std::decay_t<Store>>;

// Per-seed scratch reused across candidates and calls on this thread, so
// no candidate allocates.
thread_local std::vector<double> t_terms;   // Eq. 7 terms x(u, v).
thread_local std::vector<int32_t> t_idots;  // Integer dots (int8 rows).

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The first seed whose term `aggregation` reads: Latest keeps only the
/// last one. Each term is computed on its own, so skipping the others
/// changes no bit of the result.
size_t FirstScoredSeed(const SeedBlock& block, Aggregation aggregation) {
  return aggregation == Aggregation::kLatest ? block.num_seeds() - 1 : 0;
}

/// fp64 rows. kernels::SeedScan produces each per-seed dot bit-identical
/// to kernels::Dot on the active backend, and the bias adds keep the
/// historical association (dot + b_u) + b~_v.
void ScoreRows(const EmbeddingStore& store, const SeedBlock& block,
               Aggregation aggregation, UserId begin, UserId end,
               double* out) {
  const size_t first = FirstScoredSeed(block, aggregation);
  const size_t num_terms = block.num_seeds() - first;
  t_terms.resize(num_terms);
  const double* rows =
      std::get<SeedBlock::Fp64Rows>(block.rows).data() + first * block.stride;
  const double* biases = block.biases.data() + first;
  for (UserId v = begin; v < end; ++v) {
    kernels::SeedScan(rows, num_terms, block.stride, store.Target(v).data(),
                      block.dim, t_terms.data());
    const double target_bias = store.target_bias(v);
    for (size_t i = 0; i < num_terms; ++i) {
      t_terms[i] = t_terms[i] + biases[i] + target_bias;
    }
    out[v - begin] = Aggregate(aggregation, t_terms);
  }
}

/// int8 rows: exact integer per-seed dots, dequantized through
/// QuantizedEmbeddingStore::DequantScore. A block's scales and biases are
/// fp32 values widened to double, so narrowing them back is exact.
void ScoreRows(const QuantizedEmbeddingStore& store, const SeedBlock& block,
               Aggregation aggregation, UserId begin, UserId end,
               double* out) {
  const size_t first = FirstScoredSeed(block, aggregation);
  const size_t num_terms = block.num_seeds() - first;
  t_terms.resize(num_terms);
  t_idots.resize(num_terms);
  const int8_t* rows =
      std::get<SeedBlock::Int8Rows>(block.rows).data() + first * block.stride;
  const double* scales = block.scales.data() + first;
  const double* biases = block.biases.data() + first;
  for (UserId v = begin; v < end; ++v) {
    kernels::SeedScanI8(rows, num_terms, block.stride,
                        store.Target(v).data(), block.dim, t_idots.data());
    for (size_t i = 0; i < num_terms; ++i) {
      t_terms[i] = QuantizedEmbeddingStore::DequantScore(
          static_cast<float>(scales[i]), store.target_scale(v), t_idots[i],
          static_cast<float>(biases[i]), store.target_bias(v));
    }
    out[v - begin] = Aggregate(aggregation, t_terms);
  }
}

/// |x|, or +inf when x is not finite.
double AbsOrInf(double x) {
  const double a = std::fabs(x);
  return a <= std::numeric_limits<double>::max() ? a : kInf;
}

/// ‖x‖₂ rounded up; +inf when an element is not finite.
double NormUpperBound(const double* x, uint32_t n) {
  // A finite sum of squares had no square overflow, and squares that
  // underflowed move a sum this large by far less than one rounding.
  const double squares = kernels::Dot(x, x, n);
  if (squares >= 0x1p-900 && squares <= std::numeric_limits<double>::max()) {
    return std::nextafter(std::sqrt(squares), kInf);
  }
  // Otherwise rescale: with m = max|x_k|, ‖x‖₂ = m·‖x/m‖₂ and each
  // (x_k/m)² lies in [0, 1], so no square overflows or matters when it
  // underflows.
  double m = 0.0;
  for (uint32_t k = 0; k < n; ++k) m = std::max(m, AbsOrInf(x[k]));
  if (m == 0.0 || m == kInf) return m;
  double sum = 0.0;
  for (uint32_t k = 0; k < n; ++k) {
    const double r = x[k] / m;
    sum += r * r;
  }
  return std::nextafter(m * std::sqrt(sum), kInf);
}

/// The screen's certified bound; docs/ALGORITHMS.md ("Exact centroid
/// screen") derives it. `seed_norms` is the sum of ‖S_u‖ and
/// `seed_biases` the sum of |b_u| over the n seeds; `max_norm` and
/// `max_bias` are the table's max ‖T_v‖ and max |b~_v|. +inf when an
/// intermediate of the exact path or the screen could overflow.
double ScreenEpsilon(bool average, size_t n, uint32_t dim, double seed_norms,
                     double seed_biases, double max_norm, double max_bias) {
  const double count = static_cast<double>(n);
  // Sum-form magnitude: bounds every partial sum of both paths (and is
  // NaN or +inf when an input is not finite).
  const double total = seed_norms * max_norm + seed_biases + count * max_bias;
  if (!(4.0 * (total + seed_norms) <= std::numeric_limits<double>::max())) {
    return kInf;
  }
  // gamma_m = m·u / (1 - m·u): m = K + n + 12 roundings, u = 2^-53.
  const double mu = (static_cast<double>(dim) + count + 12.0) * 0x1p-53;
  const double gamma = mu / (1.0 - mu);
  const double magnitude = average ? total / count : total;
  // Far above the (n + 2 + max‖T_v‖)(K + 3) underflow errors of at most
  // 2^-1075 each that the two paths can make.
  const double underflow =
      (count + 2.0 + max_norm) * (static_cast<double>(dim) + 3.0) * 0x1p-1022;
  // 2·gamma·magnitude, doubled again for the rounding of this bound.
  return 4.0 * gamma * magnitude + underflow;
}

}  // namespace

const char* QuantModeName(QuantMode mode) {
  return mode == QuantMode::kInt8 ? "int8" : "none";
}

bool ParseQuantModeName(const std::string& name, QuantMode* mode) {
  if (name == "none") {
    *mode = QuantMode::kNone;
    return true;
  }
  if (name == "int8") {
    *mode = QuantMode::kInt8;
    return true;
  }
  return false;
}

SeedBlock SeedBlock::Shaped(QuantMode mode, uint32_t dim,
                            std::vector<UserId> seeds) {
  SeedBlock block;
  block.dim = dim;
  block.seeds = std::move(seeds);
  if (mode == QuantMode::kInt8) block.rows = Int8Rows();
  std::visit(
      [&block](auto& rows) {
        using T = typename std::decay_t<decltype(rows)>::value_type;
        block.stride =
            static_cast<uint32_t>(kernels::PaddedStride(block.dim, sizeof(T)));
        rows.resize(block.num_seeds() * block.stride, T{0});
      },
      block.rows);
  block.scales.resize(block.num_seeds(), 1.0);
  block.biases.resize(block.num_seeds(), 0.0);
  return block;
}

QuantMode SeedBlock::mode() const {
  return std::holds_alternative<Int8Rows>(rows) ? QuantMode::kInt8
                                                : QuantMode::kNone;
}

double SeedBlock::Element(size_t i, uint32_t d) const {
  return std::visit(
      [&](const auto& r) { return static_cast<double>(r[i * stride + d]); },
      rows);
}

Status SeedBlock::SetElement(size_t i, uint32_t d, double value) {
  Int8Rows* codes = std::get_if<Int8Rows>(&rows);
  if (codes == nullptr) {
    std::get<Fp64Rows>(rows)[i * stride + d] = value;
    return Status::OK();
  }
  // NaN fails the first test, fractions the second.
  if (!(value >= -128.0 && value <= 127.0) || value != std::trunc(value)) {
    return Status::InvalidArgument("int8 code out of range");
  }
  (*codes)[i * stride + d] = static_cast<int8_t>(value);
  return Status::OK();
}

void SeedBlock::CopySeed(size_t i, const SeedBlock& from, size_t from_i) {
  std::visit(
      [&](auto& to_rows) {
        const auto& from_rows =
            std::get<std::decay_t<decltype(to_rows)>>(from.rows);
        std::copy_n(from_rows.begin() + from_i * from.stride, stride,
                    to_rows.begin() + i * stride);
      },
      rows);
  scales[i] = from.scales[from_i];
  biases[i] = from.biases[from_i];
}

uint64_t SeedBlock::ApproxBytes() const {
  const uint64_t row_bytes = std::visit(
      [](const auto& r) { return r.capacity() * sizeof(r[0]); }, rows);
  return row_bytes + scales.capacity() * sizeof(double) +
         biases.capacity() * sizeof(double) +
         seeds.capacity() * sizeof(UserId);
}

ServingTable::ServingTable(EmbeddingStore store)
    : store_(std::move(store)), load_peak_bytes_(bytes()) {
  const EmbeddingStore& table = std::get<EmbeddingStore>(store_);
  for (UserId v = 0; v < table.num_users(); ++v) {
    max_target_norm_ = std::max(
        max_target_norm_, NormUpperBound(table.Target(v).data(), table.dim()));
    max_target_bias_ =
        std::max(max_target_bias_, AbsOrInf(table.target_bias(v)));
  }
}

ServingTable::ServingTable(QuantizedEmbeddingStore store)
    : store_(std::move(store)), load_peak_bytes_(bytes()) {}

ServingTable ServingTable::FromArtifact(ModelArtifact* artifact,
                                        QuantMode mode) {
  if (mode == QuantMode::kNone) {
    return ServingTable(std::move(artifact->store));
  }
  // Prefer the artifact's persisted int8 section (one quantization, done
  // offline by `quantize`); fall back to quantizing the fp64 table at
  // load. Both were resident next to the fp64 table until here.
  const uint64_t fp64_bytes = artifact->store.ApproxBytes();
  ServingTable table(artifact->quantized.has_value()
                         ? std::move(*artifact->quantized)
                         : QuantizedEmbeddingStore::FromStore(artifact->store));
  artifact->quantized.reset();
  artifact->store = EmbeddingStore();
  table.load_peak_bytes_ = fp64_bytes + table.bytes();
  return table;
}

QuantMode ServingTable::mode() const {
  return std::visit(
      [](const auto& store) { return FormatOf<decltype(store)>::kMode; },
      store_);
}

uint32_t ServingTable::num_users() const {
  return std::visit([](const auto& store) { return store.num_users(); },
                    store_);
}

uint32_t ServingTable::dim() const {
  return std::visit([](const auto& store) { return store.dim(); }, store_);
}

void ServingTable::ScoreRange(const SeedBlock& block, Aggregation aggregation,
                              UserId begin, UserId end, double* out) const {
  std::visit(
      [&](const auto& store) {
        ScoreRows(store, block, aggregation, begin, end, out);
      },
      store_);
}

double ServingTable::Score(const SeedBlock& block, UserId candidate,
                           Aggregation aggregation) const {
  double score = 0.0;
  ScoreRange(block, aggregation, candidate, candidate + 1, &score);
  return score;
}

std::optional<CentroidScreen> ServingTable::MakeScreen(
    const SeedBlock& block, Aggregation aggregation) const {
  const bool average = aggregation == Aggregation::kAve;
  if ((!average && aggregation != Aggregation::kSum) ||
      mode() != QuantMode::kNone) {
    return std::nullopt;
  }
  const size_t n = block.num_seeds();
  const double* rows = std::get<SeedBlock::Fp64Rows>(block.rows).data();
  CentroidScreen screen;
  screen.centroid.assign(block.stride, 0.0);
  double seed_norms = 0.0;
  double seed_biases = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double* row = rows + i * block.stride;
    for (uint32_t d = 0; d < block.dim; ++d) screen.centroid[d] += row[d];
    screen.bias += block.biases[i];
    seed_norms += NormUpperBound(row, block.dim);
    seed_biases += AbsOrInf(block.biases[i]);
  }
  const double count = static_cast<double>(n);
  if (average) {
    for (uint32_t d = 0; d < block.dim; ++d) screen.centroid[d] /= count;
    screen.bias /= count;
  } else {
    screen.target_weight = count;
  }
  screen.epsilon = ScreenEpsilon(average, n, block.dim, seed_norms,
                                 seed_biases, max_target_norm_,
                                 max_target_bias_);
  // A bound that is not finite would prune nothing: the plain scan is
  // cheaper.
  if (!std::isfinite(screen.epsilon)) return std::nullopt;
  return screen;
}

void ServingTable::ScreenRange(const CentroidScreen& screen, UserId begin,
                               UserId end, double* out) const {
  const EmbeddingStore& table = std::get<EmbeddingStore>(store_);
  for (UserId v = begin; v < end; ++v) {
    out[v - begin] = kernels::Dot(screen.centroid.data(),
                                  table.Target(v).data(), table.dim()) +
                     screen.bias +
                     screen.target_weight * table.target_bias(v);
  }
}

Status ServingTable::CheckBlock(const SeedBlock& block) const {
  if (block.dim != dim()) {
    return Status::InvalidArgument(
        "seed block dim " + std::to_string(block.dim) +
        " disagrees with model dim " + std::to_string(dim()));
  }
  if (block.mode() != mode()) {
    return Status::FailedPrecondition(
        std::string("seed block quantization mode mismatch: block is ") +
        QuantModeName(block.mode()) + ", service serves " +
        QuantModeName(mode()));
  }
  const size_t n = block.num_seeds();
  const size_t row_elements =
      std::visit([](const auto& rows) { return rows.size(); }, block.rows);
  const uint32_t stride = std::visit(
      [](const auto& store) { return store.row_stride(); }, store_);
  if (block.stride != stride || row_elements != n * stride ||
      block.scales.size() != n || block.biases.size() != n) {
    return Status::InvalidArgument(
        "seed block arrays disagree with its seed count and dim");
  }
  return Status::OK();
}

double ServingTable::Warm() const {
  return std::visit(
      [](const auto& store) {
        double checksum = 0.0;
        for (UserId u = 0; u < store.num_users(); ++u) {
          for (auto x : store.Source(u)) checksum += x;
          for (auto x : store.Target(u)) checksum += x;
          checksum += store.source_bias(u) + store.target_bias(u);
          if constexpr (FormatOf<decltype(store)>::kMode ==
                        QuantMode::kInt8) {
            checksum += store.source_scale(u) + store.target_scale(u);
          }
        }
        return checksum;
      },
      store_);
}

uint64_t ServingTable::bytes() const {
  if (const auto* q = std::get_if<QuantizedEmbeddingStore>(&store_)) {
    return q->TableBytes();
  }
  return std::get<EmbeddingStore>(store_).ApproxBytes();
}

const char* ServingTable::name() const {
  return mode() == QuantMode::kInt8 ? "quantized_table" : "embedding_table";
}

SeedBlock GatherSeedBlock(const ServingTable& table,
                          const std::vector<UserId>& seeds) {
  return std::visit(
      [&seeds](const auto& store) {
        using F = FormatOf<decltype(store)>;
        SeedBlock block = SeedBlock::Shaped(F::kMode, store.dim(), seeds);
        auto& rows = std::get<typename F::Rows>(block.rows);
        for (size_t i = 0; i < seeds.size(); ++i) {
          const auto row = store.Source(seeds[i]);
          std::copy(row.begin(), row.end(), rows.begin() + i * block.stride);
          block.biases[i] = store.source_bias(seeds[i]);
          if constexpr (F::kMode == QuantMode::kInt8) {
            block.scales[i] = store.source_scale(seeds[i]);
          }
        }
        return block;
      },
      table.store_);
}

}  // namespace serve
}  // namespace inf2vec
