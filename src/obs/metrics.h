// Process-wide metrics registry: named counters with lock-free recording on
// the hot path.
//
// Counters accumulate into writer-exclusive cache-line-padded cells indexed
// by a per-thread slot: because exactly one thread writes a given cell, the
// increment is a plain relaxed load/add/store — no atomic RMW, no contention,
// a few ns even on the per-GEMM-call path (the ≤1% overhead gate in
// bench_serve_throughput is the budget this buys). Slots are recycled through
// a free list when threads exit, so the fixed cell array bounds *concurrent*
// threads, not process-lifetime thread count; threads beyond the slot supply
// (and thread-exit stragglers) fall back to a shared atomic overflow cell —
// slower but still exact. Value() sums the cells at read time. Call sites
// cache the Counter& returned by MetricsRegistry::Global().GetCounter(...) in
// a function-local static — the registry hands out stable references for the
// life of the process.
//
// SetMetricsEnabled(false) is the kill switch the overhead gate in
// bench_serve_throughput uses to compare instrumented vs. suppressed QPS in
// one process; suppressed Add() is a single relaxed load + branch.
//
// This header depends only on the C++ standard library so that src/support/
// may include obs/ without inverting the layering.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace cdmpp {
namespace obs {

namespace detail {
// Defined in metrics.cc; default true.
extern std::atomic<bool> g_metrics_enabled;

// Writer-exclusive counter slots, shared by every Counter in the process.
constexpr int kCounterSlots = 64;
// tls_counter_slot states: >= 0 an owned slot index; kSlotUnassigned before
// first use; kSlotRetired after this thread's slot was returned to the free
// list at thread exit (later Adds from other TLS destructors must not touch
// the recycled cell — they take the overflow path instead).
constexpr int kSlotUnassigned = -1;
constexpr int kSlotRetired = -2;
// Constant-initialized, so the hot-path access is a raw TLS load with no
// initialization guard.
extern thread_local int tls_counter_slot;
// Slow path: pulls a slot from the free list (or mints a new one), registers
// its return at thread exit, and may return kSlotRetired when more than
// kCounterSlots threads are live at once.
int AllocateCounterSlot();

inline int CounterSlot() {
  const int slot = tls_counter_slot;
  return slot != kSlotUnassigned ? slot : AllocateCounterSlot();
}
}  // namespace detail

inline bool MetricsEnabled() {
  // Relaxed: a standalone kill-switch flag. No data is published through it
  // (instruments are self-contained atomics), so readers need no ordering —
  // a stale read only means one more/fewer sample near the toggle instant.
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}
void SetMetricsEnabled(bool enabled);

// Monotonic counter. Thread-safe, lock-free, allocation-free.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) {
    if (!MetricsEnabled()) {
      return;
    }
    const int slot = detail::CounterSlot();
    if (slot >= 0) {
      // This thread owns the cell exclusively (free-list handoff at thread
      // exit synchronizes through a mutex), so a plain relaxed load/add/store
      // is exact — no lock-prefixed RMW on the per-GEMM hot path.
      std::atomic<uint64_t>& cell = cells_[slot].v;
      cell.store(cell.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
    } else {
      // Shared overflow cell (slot exhaustion / retired threads): a real RMW,
      // still relaxed — the count is the only payload, nothing is ordered
      // against it.
      overflow_.fetch_add(n, std::memory_order_relaxed);
    }
  }
  // Statistical snapshot. Relaxed reads: each cell is individually exact
  // (single writer), but the sweep is not a cross-cell atomic snapshot —
  // concurrent Adds may or may not be included. Callers use the total as a
  // measurement, never as a synchronization signal, so no acquire is needed.
  uint64_t Value() const {
    uint64_t total = overflow_.load(std::memory_order_relaxed);
    for (int i = 0; i < detail::kCounterSlots; ++i) {
      total += cells_[i].v.load(std::memory_order_relaxed);
    }
    return total;
  }
  // Relaxed stores mirror Value(): concurrent Adds land either in the old or
  // the new measurement window, both of which are valid readings.
  void Reset() {
    for (int i = 0; i < detail::kCounterSlots; ++i) {
      cells_[i].v.store(0, std::memory_order_relaxed);
    }
    overflow_.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  Cell cells_[detail::kCounterSlots];
  std::atomic<uint64_t> overflow_{0};
};

class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  // Returns the counter registered under `name`, creating it on first use.
  // References stay valid for the life of the process; hot call sites should
  // cache them (function-local static).
  Counter& GetCounter(const std::string& name);

  // Point-in-time values of every registered counter, sorted by name.
  std::map<std::string, uint64_t> CounterValues() const;

  // {"counters": {...}} with sorted keys.
  std::string DumpJson() const;

  // Zeroes every counter. Bench/test hook for measuring per-run deltas;
  // racing Add() calls land in the new window.
  void ResetCounters();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  // std::map: stable node addresses AND sorted iteration for DumpJson.
  std::map<std::string, Counter> counters_;
};

}  // namespace obs
}  // namespace cdmpp

#endif  // SRC_OBS_METRICS_H_
