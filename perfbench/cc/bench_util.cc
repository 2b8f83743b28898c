#include "bench_util.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "kernels/kernels.h"
#include "obs/build_info.h"
#include "util/string_util.h"

namespace perfbench {

using inf2vec::Result;
using inf2vec::Status;
using inf2vec::obs::JsonValue;

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

uint64_t SpanLog::Begin(const std::string& name, uint64_t parent) {
  Span span;
  span.name = name;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.start_ns = MonoNs();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

double SpanLog::End(uint64_t id) {
  Span& span = spans_.at(id - 1);
  span.end_ns = MonoNs();
  return SecondsBetween(span.start_ns, span.end_ns);
}

JsonValue SpanLog::ToJson() const {
  JsonValue out = JsonValue::Array();
  for (const Span& span : spans_) {
    JsonValue row = JsonValue::Object();
    row.Set("name", span.name);
    row.Set("id", span.id);
    row.Set("parent", span.parent);
    row.Set("start_ns", span.start_ns);
    row.Set("end_ns", span.end_ns);
    out.Append(std::move(row));
  }
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

namespace {

std::string FirstLineOf(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return std::string(inf2vec::TrimString(line.substr(colon + 1)));
      }
    }
  }
  return "unknown";
}

/// Size string ("2048K") of cpu0's unified or data cache at `level`.
std::string CacheSize(int level) {
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    if (FirstLineOf(dir + "/level") != std::to_string(level)) continue;
    if (FirstLineOf(dir + "/type") == "Instruction") continue;
    return FirstLineOf(dir + "/size");
  }
  return "unknown";
}

}  // namespace

JsonValue ProvenanceJson() {
  const inf2vec::obs::BuildInfo& build = inf2vec::obs::GetBuildInfo();
  JsonValue out = JsonValue::Object();
  out.Set("nproc", static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  out.Set("cpu_model", CpuModel());
  out.Set("l2", CacheSize(2));
  out.Set("l3", CacheSize(3));
  out.Set("isa", inf2vec::kernels::IsaName(inf2vec::kernels::ActiveIsa()));
  out.Set("compiler", build.compiler);
  out.Set("build_type", build.build_type);
  out.Set("git_sha", build.git_sha);
  return out;
}

Status PinKernel(const std::string& name) {
  if (name.empty()) return Status::OK();
  inf2vec::kernels::Isa isa;
  if (!inf2vec::kernels::ParseIsaName(name, &isa)) {
    return Status::InvalidArgument("--kernel must be scalar, avx2 or auto");
  }
  if (!inf2vec::kernels::SetActiveIsa(isa)) {
    return Status::InvalidArgument("kernel backend " + name +
                                   " is not available here");
  }
  return Status::OK();
}

std::string JoinIds(const std::vector<uint32_t>& ids) {
  std::string out;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(ids[i]);
  }
  return out;
}

Result<std::vector<uint32_t>> ParseIds(const std::string& csv) {
  std::vector<uint32_t> ids;
  for (std::string_view field : inf2vec::SplitString(csv, ',')) {
    uint32_t id = 0;
    INF2VEC_RETURN_IF_ERROR(inf2vec::ParseUint32(field, &id));
    ids.push_back(id);
  }
  return ids;
}

void PrintResult(const JsonValue& result) {
  std::printf("%s\n", result.Dump(0).c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
