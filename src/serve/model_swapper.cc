#include "serve/model_swapper.h"

#include <chrono>
#include <utility>

#include "obs/memory.h"
#include "obs/trace.h"

namespace inf2vec {
namespace serve {

ModelSwapper::ModelSwapper(std::string model_path, ServiceOptions options,
                           obs::MetricsRegistry* registry)
    : model_path_(std::move(model_path)),
      options_(std::move(options)),
      registry_(registry),
      generation_gauge_(registry->GetGauge("serve.model_generation")),
      reloads_(registry->GetCounter("serve.reloads")),
      reload_errors_(registry->GetCounter("serve.reload_errors")),
      reload_seconds_(registry->GetGauge("serve.reload_seconds")),
      swap_transient_gauge_(
          registry->GetGauge("serve.swap_transient_bytes")) {}

ModelSwapper::~ModelSwapper() { StopWatching(); }

Status ModelSwapper::Reload() {
  std::lock_guard<std::mutex> lock(reload_mu_);
  obs::TraceSpan span("model_reload", "serve");
  const auto start = std::chrono::steady_clock::now();

  // Stat before reading: if the file is replaced between the stat and the
  // read we remember the older mtime and the watcher simply reloads once
  // more — erring toward an extra reload, never a missed one.
  std::error_code ec;
  const auto mtime = std::filesystem::last_write_time(model_path_, ec);

  // Budget preflight: while the new model loads and warms, BOTH
  // generations are resident. Refuse the swap when that double-resident
  // peak would blow the serving budget — keeping the old model serving
  // beats OOM-killing the process mid-swap. The current model's load
  // peak approximates the incoming one (same artifact family); in int8
  // mode it counts the fp64 table every load reads before freeing it. A
  // first load has nothing resident and nothing to preflight.
  if (const auto current = Acquire(); current != nullptr) {
    const uint64_t incoming = current->service.LoadPeakBytes();
    if (obs::OverMemoryBudget(incoming)) {
      reload_errors_->Increment();
      return Status::FailedPrecondition(
          "hot-swap preflight: loading a second ~" +
          std::to_string(incoming) +
          " byte model would exceed the memory budget; old model keeps "
          "serving");
    }
  }

  Result<InfluenceService> loaded =
      InfluenceService::Load(model_path_, options_, registry_);
  if (!loaded.ok()) {
    reload_errors_->Increment();
    return loaded.status();
  }
  // Fault in every page of the new table BEFORE it takes traffic; the
  // swap must not trade a working hot model for a cold one.
  loaded.value().Warm();

  // Double-resident peak: the new model is fully built and the old one
  // has not been released yet — this is the swap's true memory cost.
  {
    const bool had_previous = Acquire() != nullptr;
    const uint64_t transient =
        had_previous ? obs::MemoryRegistry::Default().AccountedBytes() : 0;
    last_transient_bytes_.store(transient, std::memory_order_relaxed);
    uint64_t peak = peak_transient_bytes_.load(std::memory_order_relaxed);
    while (transient > peak && !peak_transient_bytes_.compare_exchange_weak(
                                   peak, transient,
                                   std::memory_order_relaxed)) {
    }
    swap_transient_gauge_->Set(static_cast<double>(
        peak_transient_bytes_.load(std::memory_order_relaxed)));
  }

  const uint64_t generation =
      next_generation_.fetch_add(1, std::memory_order_relaxed);
  span.SetAttr("generation", generation);
  auto versioned = std::make_shared<const VersionedService>(
      generation, std::move(loaded).value());
  {
    std::lock_guard<std::mutex> current_lock(current_mu_);
    current_ = std::move(versioned);
  }
  if (!ec) loaded_mtime_ = mtime;

  generation_gauge_->Set(static_cast<double>(generation));
  reloads_->Increment();
  reload_seconds_->Set(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  return Status::OK();
}

void ModelSwapper::StartWatching(uint64_t poll_interval_ms) {
  if (watcher_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(watch_mu_);
    stop_watching_ = false;
  }
  watcher_ = std::thread(
      [this, poll_interval_ms]() { WatchLoop(poll_interval_ms); });
}

void ModelSwapper::StopWatching() {
  if (!watcher_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(watch_mu_);
    stop_watching_ = true;
  }
  watch_cv_.notify_all();
  watcher_.join();
}

void ModelSwapper::WatchLoop(uint64_t poll_interval_ms) {
  const auto interval = std::chrono::milliseconds(
      poll_interval_ms == 0 ? 1 : poll_interval_ms);
  std::unique_lock<std::mutex> lock(watch_mu_);
  while (!watch_cv_.wait_for(lock, interval,
                             [this]() { return stop_watching_; })) {
    lock.unlock();
    std::error_code ec;
    const auto mtime = std::filesystem::last_write_time(model_path_, ec);
    bool changed = false;
    if (!ec) {
      std::lock_guard<std::mutex> reload_lock(reload_mu_);
      changed = mtime != loaded_mtime_;
    }
    // A vanished file (ec set) is NOT a reload trigger: mid-push renames
    // briefly unlink the path; keep serving the loaded model.
    // Reload errors are already counted + the old model keeps serving;
    // nothing useful to do with the status on the poll thread.
    if (changed) (void)Reload();
    lock.lock();
  }
}

}  // namespace serve
}  // namespace inf2vec
