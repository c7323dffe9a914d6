#include "src/obs/metrics.h"

#include <cstdio>
#include <vector>

namespace cdmpp {
namespace obs {

namespace detail {

std::atomic<bool> g_metrics_enabled{true};

thread_local int tls_counter_slot = kSlotUnassigned;

namespace {

std::mutex& SlotMutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}
// Guarded by SlotMutex(). Leaked (never destructed) so slot release during
// late thread exit cannot race static destruction of the list.
std::vector<int>& FreeSlots() {
  static std::vector<int>* slots = new std::vector<int>();
  return *slots;
}
int g_next_slot = 0;

// ODR-used from AllocateCounterSlot so each slot-owning thread registers a
// thread-exit hook. The hook retires (never reassigns) tls_counter_slot:
// other TLS destructors on this thread may still Add() afterwards, and they
// must take the overflow path rather than write a recycled cell some live
// thread now owns.
struct SlotReleaser {
  ~SlotReleaser() {
    std::lock_guard<std::mutex> lock(SlotMutex());
    if (tls_counter_slot >= 0) {
      FreeSlots().push_back(tls_counter_slot);
    }
    tls_counter_slot = kSlotRetired;
  }
};
thread_local SlotReleaser tls_slot_releaser;

}  // namespace

int AllocateCounterSlot() {
  std::lock_guard<std::mutex> lock(SlotMutex());
  (void)tls_slot_releaser;  // force construction: registers the exit hook
  int slot = kSlotRetired;  // out of slots -> permanent overflow for this thread
  if (!FreeSlots().empty()) {
    slot = FreeSlots().back();
    FreeSlots().pop_back();
  } else if (g_next_slot < kCounterSlots) {
    slot = g_next_slot++;
  }
  tls_counter_slot = slot;
  return slot;
}

}  // namespace detail

void SetMetricsEnabled(bool enabled) {
  detail::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked on purpose: call sites hold references in function-local statics
  // and instrumented code may run during static destruction.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_[name];  // node-based map: the reference is stable
}

std::map<std::string, uint64_t> MetricsRegistry::CounterValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, uint64_t> values;
  for (const auto& [name, counter] : counters_) {
    values[name] = counter.Value();
  }
  return values;
}

std::string MetricsRegistry::DumpJson() const {
  const std::map<std::string, uint64_t> counters = CounterValues();
  std::string out = "{\"counters\": {";
  char buf[64];
  bool first = true;
  for (const auto& [name, value] : counters) {
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(value));
    out += first ? "" : ", ";
    out += "\"" + name + "\": " + buf;
    first = false;
  }
  out += "}}";
  return out;
}

void MetricsRegistry::ResetCounters() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) {
    (void)name;
    counter.Reset();
  }
}

}  // namespace obs
}  // namespace cdmpp
