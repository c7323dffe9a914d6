#include "src/support/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"

namespace cdmpp {

namespace {

// Fork-vs-serial decision counters (obs/ depends only on std, so support/
// including it keeps the layering acyclic). One sharded relaxed add per
// ParallelFor call; registry lookups resolve once per process.
obs::Counter& ForkDecisionCounter(const char* which) {
  return obs::MetricsRegistry::Global().GetCounter(std::string("parallel_for.") + which);
}
void CountForked() {
  static obs::Counter& c = ForkDecisionCounter("forked");
  c.Add();
}
void CountSerialSmall() {
  static obs::Counter& c = ForkDecisionCounter("serial_small");
  c.Add();
}
void CountSerialNested() {
  static obs::Counter& c = ForkDecisionCounter("serial_nested");
  c.Add();
}
void CountSerialContended() {
  static obs::Counter& c = ForkDecisionCounter("serial_contended");
  c.Add();
}
// One add per chunk executed by a thread other than the region's caller.
void CountSteal() {
  static obs::Counter& c = ForkDecisionCounter("steals");
  c.Add();
}
// Monotonic high-water mark of concurrently registered regions, reported as a
// counter so it shows up in counter-delta blocks: the publish path adds the
// increase whenever a new peak is observed, so Value() == the peak itself.
void CountRegionsPeak(uint64_t delta) {
  static obs::Counter& c = ForkDecisionCounter("regions_concurrent_peak");
  c.Add(delta);
}

// True while the current thread is executing chunks of some region (either as
// a pool worker or as the calling thread of an active ParallelFor). Nested
// ParallelFor calls from such a thread run serially inline: every worker is
// by definition already busy with an outer chunk, so a nested region could
// only ever be drained by its own caller plus workers that happen to be idle
// — and the convoy this scheduler exists to fix is precisely the situation
// where none are. Forking the nested range would pay the publish/wake
// handshake to end up serial anyway (and would complicate the
// ParallelForWithScratch single-lease optimization), so nested stays inline.
thread_local bool tls_in_parallel_region = false;

// Non-null while a test/bench has routed Global() elsewhere.
std::atomic<ThreadPool*> g_global_override{nullptr};

}  // namespace

// Multi-region scheduler. Each top-level ParallelFor publishes a Region — a
// stack-allocated chunk-of-work descriptor — into a registry shared by the
// pool; idle workers steal chunks from any registered region, and the caller
// drains only its own region before waiting for stragglers. Regions no longer
// queue or serialize against each other: the old single-region design made a
// contended ParallelFor collapse to inline serial execution exactly when the
// serve workers had the pool busiest.
//
// Determinism: a region's chunk partition is fixed at publish time — chunk j
// is [begin + j*grain, min(end, begin + (j+1)*grain)) and executors claim
// chunks with a single fetch_add cursor — so WHICH thread runs a chunk varies
// run to run but WHAT each chunk computes never does. That is the whole
// bitwise thread-count-invariance argument, and it is also what lets
// ParallelForWithScratch map chunk j to pre-checked-out lease j.
//
// Chase-Lev-style per-worker deques were considered and rejected: with a
// deterministic fixed partition there is no owner-ordered task list to
// protect, so the only shared state per region is one atomic cursor — a
// registry of such cursors under one pool mutex (taken only on publish /
// join / leave / sleep, never per chunk) gives the same steal behavior with
// far less machinery.
struct ThreadPool::Impl {
  struct Region {
    // Immutable after publish; published under `mu` and acquired by each
    // executor's own `mu` critical section when it joins.
    void (*fn)(void*, int64_t, int64_t) = nullptr;
    void* ctx = nullptr;
    int64_t end = 0;
    int64_t grain = 1;
    // Chunk-claim cursor. Relaxed RMW: the ticket value itself is the entire
    // communication — each executor gets a disjoint [i, e) range regardless
    // of ordering, and visibility of fn/ctx/end/grain came from `mu` on join.
    std::atomic<int64_t> next{0};
    // Advisory skip-remaining-bodies flag; the exception itself travels
    // through `error` under `mu`, and the caller only reads it after the
    // executors == 0 barrier.
    std::atomic<bool> failed{false};
    std::exception_ptr error;  // first failure; guarded by `mu`
    int executors = 0;         // threads draining chunks (incl. caller); under `mu`
    // Signaled (while holding `mu` — see DrainRegion's caller in WorkerLoop)
    // when the last executor leaves. Lives on the caller's stack, so workers
    // must never touch it after releasing `mu` post-notify: the caller can
    // only destroy the Region after reacquiring `mu`.
    std::condition_variable done_cv;
  };

  // Every field below is guarded by `mu` unless noted. The mutex is taken on
  // region publish/remove, worker join/leave, and the idle transition — never
  // inside the per-chunk claim loop.
  std::mutex mu;
  std::condition_variable work_cv;  // workers: a region may have chunks
  bool shutdown = false;
  int num_idle = 0;  // workers currently blocked on work_cv

  // Registered regions, dense in [0, num_regions). 256 concurrent top-level
  // regions is far beyond any real fan-in (serve workers x tuning clients is
  // single digits); if the registry ever fills, the caller falls back to
  // inline serial execution and serial_contended counts it — the only
  // remaining way that counter can move.
  static constexpr int kMaxConcurrentRegions = 256;
  Region* regions[kMaxConcurrentRegions] = {};
  int num_regions = 0;
  int scan_start = 0;   // rotates so one long region cannot starve the others
  int peak_regions = 0; // high-water mark feeding regions_concurrent_peak

  std::vector<std::thread> threads;

  // Under `mu`. Returns a region that still has unclaimed chunks, scanning
  // from a rotating start for fairness; nullptr if none.
  Region* FindWork() {
    for (int i = 0; i < num_regions; ++i) {
      const int slot = (scan_start + i) % num_regions;
      Region* r = regions[slot];
      if (r->next.load(std::memory_order_relaxed) < r->end) {
        scan_start = slot + 1;
        return r;
      }
    }
    return nullptr;
  }

  // Under `mu`. Swap-with-last removal; order within the registry carries no
  // meaning (FindWork rotates anyway).
  void Remove(Region* r) {
    for (int i = 0; i < num_regions; ++i) {
      if (regions[i] == r) {
        regions[i] = regions[--num_regions];
        regions[num_regions] = nullptr;
        return;
      }
    }
  }

  // Claims chunks of `r` until its range is exhausted. Lock-free per chunk;
  // called without `mu` held. Once a chunk body throws, remaining chunks are
  // still claimed (so the cursor exhausts and accounting completes) but their
  // bodies are skipped. `stealing` is true for executors other than the
  // region's caller and only feeds the steals counter.
  void DrainRegion(Region* r, bool stealing) {
    for (;;) {
      const int64_t i = r->next.fetch_add(r->grain, std::memory_order_relaxed);
      if (i >= r->end) {
        return;
      }
      if (stealing) {
        CountSteal();
      }
      DrainChunk(r, i);
    }
  }

  // Runs the claimed chunk starting at `i`, unless the region has failed.
  void DrainChunk(Region* r, int64_t i) {
    if (r->failed.load(std::memory_order_relaxed)) {
      return;
    }
    try {
      r->fn(r->ctx, i, std::min(r->end, i + r->grain));
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      r->failed.store(true, std::memory_order_relaxed);
      if (!r->error) {
        r->error = std::current_exception();
      }
    }
  }

  void WorkerLoop() {
    tls_in_parallel_region = true;  // workers only ever run region chunks
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      if (Region* r = FindWork()) {
        ++r->executors;
        lock.unlock();
        DrainRegion(r, /*stealing=*/true);
        lock.lock();
        if (--r->executors == 0) {
          // Still holding `mu`: the Region lives on its caller's stack and
          // the caller frees it only after winning `mu` back from us.
          r->done_cv.notify_one();
        }
        continue;  // another region may have arrived while we drained
      }
      if (shutdown) {
        return;
      }
      // No lost wakeup: publishers insert into the registry under `mu`
      // before notifying, and we re-ran FindWork under `mu` just now — any
      // region published after that scan finds us counted in num_idle and
      // targets us with a notify_one.
      ++num_idle;
      work_cv.wait(lock);
      --num_idle;
    }
  }
};

ThreadPool::ThreadPool(int num_threads) : num_threads_(std::max(1, num_threads)) {
  impl_ = new Impl();
  impl_->threads.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 0; i < num_threads_ - 1; ++i) {
    impl_->threads.emplace_back([this] { impl_->WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->shutdown = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& t : impl_->threads) {
    t.join();
  }
  delete impl_;
}

int ThreadPool::ResolveNumThreads(const char* env_value, int hardware_threads) {
  const int fallback =
      std::min(std::max(1, hardware_threads), kMaxThreads);  // hardware may report 0
  if (env_value == nullptr || env_value[0] == '\0') {
    return fallback;
  }
  char* endp = nullptr;
  const long v = std::strtol(env_value, &endp, 10);
  // Reject partial parses ("8abc"), non-numeric values, and anything below
  // 1 — a pool must always have at least the calling thread. Positive
  // overflow saturates to LONG_MAX and lands in the clamp below.
  if (endp == env_value || *endp != '\0' || v < 1) {
    return fallback;
  }
  return static_cast<int>(std::min<long>(v, kMaxThreads));
}

ThreadPool& ThreadPool::Global() {
  if (ThreadPool* override_pool = g_global_override.load(std::memory_order_acquire)) {
    return *override_pool;
  }
  // Leaked on purpose: worker threads must never outlive their pool, and
  // static destruction order at process exit cannot guarantee that.
  static ThreadPool* pool =
      new ThreadPool(ResolveNumThreads(std::getenv("CDMPP_NUM_THREADS"),
                                       static_cast<int>(std::thread::hardware_concurrency())));
  return *pool;
}

void ThreadPool::SetGlobalForTesting(ThreadPool* pool) {
  g_global_override.store(pool, std::memory_order_release);
}

bool ThreadPool::InParallelRegion() { return tls_in_parallel_region; }

void ThreadPool::RunImpl(int64_t begin, int64_t end, int64_t grain,
                         void (*fn)(void*, int64_t, int64_t), void* ctx) {
  if (begin >= end) {
    return;
  }
  grain = std::max<int64_t>(1, grain);
  if (num_threads_ == 1 || end - begin <= grain) {
    CountSerialSmall();
    fn(ctx, begin, end);
    return;
  }
  if (tls_in_parallel_region) {
    CountSerialNested();
    fn(ctx, begin, end);
    return;
  }

  Impl::Region region;
  region.fn = fn;
  region.ctx = ctx;
  region.end = end;
  region.grain = grain;
  // Chunk 0 is the caller's (below): it always runs a share of its own
  // region, on its own thread, however fast the pool claims the rest.
  region.next.store(begin + grain, std::memory_order_relaxed);
  const int64_t num_chunks = (end - begin + grain - 1) / grain;

  int wake = -1;  // stays -1 on the registry-full fallback
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->num_regions < Impl::kMaxConcurrentRegions) {
      impl_->regions[impl_->num_regions++] = &region;
      region.executors = 1;  // the caller participates
      if (impl_->num_regions > impl_->peak_regions) {
        CountRegionsPeak(static_cast<uint64_t>(impl_->num_regions - impl_->peak_regions));
        impl_->peak_regions = impl_->num_regions;
      }
      // Targeted wake: rousing more workers than there are chunks for other
      // executors (the caller takes chunks too) just stampedes them through
      // FindWork for nothing. Workers that finish another region's chunks
      // re-scan the registry before sleeping, so busy-but-soon-free workers
      // need no notification at all.
      wake = static_cast<int>(
          std::min<int64_t>(impl_->num_idle, num_chunks - 1));
    }
  }
  if (wake < 0) {
    CountSerialContended();
    fn(ctx, begin, end);
    return;
  }
  CountForked();
  for (int i = 0; i < wake; ++i) {
    impl_->work_cv.notify_one();
  }

  tls_in_parallel_region = true;
  impl_->DrainChunk(&region, begin);
  impl_->DrainRegion(&region, /*stealing=*/false);
  tls_in_parallel_region = false;

  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lock(impl_->mu);
    impl_->Remove(&region);  // no new executors can join past this point
    --region.executors;
    region.done_cv.wait(lock, [&] { return region.executors == 0; });
    err = region.error;
  }
  // `region` (and its done_cv) dies here — safe because the last worker's
  // notify happened under `mu`, which we have since reacquired.
  if (err) {
    std::rethrow_exception(err);
  }
}

}  // namespace cdmpp
