// Small helpers shared by the benchmark's subcommands: clocks, the
// benchmark's own span log, quantiles, file IO and host provenance.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.h"
#include "util/status.h"

namespace perfbench {

/// CLOCK_MONOTONIC in nanoseconds (std::chrono::steady_clock on Linux), the
/// one clock every benchmark process and run.py (time.monotonic_ns) share.
inline uint64_t MonoNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double SecondsBetween(uint64_t start_ns, uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// CPU seconds consumed by every thread of this process so far.
double ProcessCpuSeconds();

/// The benchmark's own trace: spans it records around each public call it
/// makes into a layer. Spans live in memory and are written once, when the
/// run ends. Not thread-safe; each process records from one thread.
class SpanLog {
 public:
  struct Span {
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = root.
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };

  /// Opens a span under `parent` (0 for a root) and returns its id.
  uint64_t Begin(const std::string& name, uint64_t parent = 0);
  /// Closes span `id`; returns its duration in seconds.
  double End(uint64_t id);

  const std::vector<Span>& spans() const { return spans_; }
  inf2vec::obs::JsonValue ToJson() const;

 private:
  std::vector<Span> spans_;
};

/// Closes its span on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, uint64_t parent = 0)
      : log_(log), id_(log->Begin(name, parent)) {}
  ~ScopedSpan() {
    if (!closed_) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }
  /// Closes the span early and returns its duration in seconds.
  double Close() {
    closed_ = true;
    return log_->End(id_);
  }

 private:
  SpanLog* log_;
  uint64_t id_;
  bool closed_ = false;
};

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Host and build facts every result carries: nproc, CPU model, L2/L3
/// sizes, the active kernel ISA, compiler, build type and git sha.
inf2vec::obs::JsonValue ProvenanceJson();

/// Pins the kernel backend by name ("scalar", "avx2", "auto"); empty keeps
/// the CPUID default. The same switch as the CLI's --kernel.
inf2vec::Status PinKernel(const std::string& name);

/// "1,5,9" <-> {1, 5, 9}.
std::string JoinIds(const std::vector<uint32_t>& ids);
inf2vec::Result<std::vector<uint32_t>> ParseIds(const std::string& csv);

/// Prints one JSON document as the last line of stdout.
void PrintResult(const inf2vec::obs::JsonValue& result);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
