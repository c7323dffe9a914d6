// A persistent worker pool with a single primitive: ParallelFor over an
// integer range. This is the only threading construct the compute data plane
// (the predictor's shard regions, src/nn/kernels.cc's GEMM row panels and the
// optimizer) uses, so the whole library shares one pool instead of spawning
// threads per call.
//
// Multiple top-level regions may be in flight at once: each ParallelFor
// publishes its chunk descriptor into a registry, drains its own region, and
// idle pool workers steal chunks from whichever registered region still has
// some. Concurrent callers therefore compose instead of convoying — a serve
// worker's GEMM no longer collapses to serial because another worker's
// forward got to the pool first. See parallel_for.cc for the scheduler and
// the README "Threading model" section for the determinism argument.
//
// Sizing: the global pool honors the CDMPP_NUM_THREADS environment variable
// (a complete decimal integer in [1, 1024]); malformed or out-of-range values
// fall back to std::thread::hardware_concurrency(), itself clamped to >= 1.
// Tests can construct private pools of any size.
#ifndef SRC_SUPPORT_PARALLEL_FOR_H_
#define SRC_SUPPORT_PARALLEL_FOR_H_

#include <cstdint>
#include <type_traits>
#include <utility>

namespace cdmpp {

// ---- Shared serial-vs-fork policy for the data-plane loops. -----------------
//
// Forking a region costs a fixed wake/join handshake, so small loops run
// faster inline. Every data-plane fork (GEMM row panels in kernels.cc, the
// predictor's serving waves, the optimizer's element range) shares this one
// threshold instead of inventing its own: call sites pass their estimated
// work in flop-equivalents (memory-bound loops weight each element by its
// rough op count), and the constant is tuned in exactly one place. 2*m*n*k
// for the d_model=64 predictor GEMM shapes crosses this around batch 16.
constexpr double kParallelMinWork = 256.0 * 1024.0;

inline bool WorthForkingWork(double work) { return work >= kParallelMinWork; }

class ThreadPool {
 public:
  // Spawns num_threads - 1 workers; the calling thread participates in every
  // region, so num_threads == 1 means "no extra threads, run inline".
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Process-wide pool (created on first use, never destroyed).
  static ThreadPool& Global();

  // Routes Global() to `pool` until called again (nullptr restores the real
  // global). Test/bench hook: the real global reads CDMPP_NUM_THREADS once
  // per process, so measuring the data plane under several pool sizes in one
  // process needs this seam (tests/threading_test.cc, the
  // bench_serve_throughput threads series). Switch only while no ParallelFor
  // region is in flight, and clear the override before destroying `pool`.
  static void SetGlobalForTesting(ThreadPool* pool);

  // True on a thread currently executing chunks of some ParallelFor region
  // (a pool worker, or the caller driving a region). Nested ParallelFor
  // calls from such a thread always run inline and serial;
  // ParallelForWithScratch uses this to lease a single scratch arena in
  // that case instead of one per would-be chunk.
  static bool InParallelRegion();

  // Resolves the pool size Global() uses from a CDMPP_NUM_THREADS value
  // (may be null) and the detected hardware concurrency. A value that is not
  // a complete decimal integer, or is < 1, falls back to `hardware_threads`;
  // every result is clamped to [1, kMaxThreads], including the fallback
  // (hardware_concurrency() may legitimately return 0). Exposed for the
  // regression tests; Global() is a singleton so the env var itself is only
  // read once per process.
  static constexpr int kMaxThreads = 1024;
  static int ResolveNumThreads(const char* env_value, int hardware_threads);

  int num_threads() const { return num_threads_; }

  // Splits [begin, end) into chunks of at most `grain` iterations and invokes
  // fn(chunk_begin, chunk_end) across the pool; the calling thread
  // participates, and always runs the first chunk itself. Blocks until every
  // chunk has completed.
  //
  // - Concurrent top-level callers compose: each call registers its own
  //   region and idle workers steal chunks from any live region, so a busy
  //   pool never demotes a top-level call to serial (the pre-stealing
  //   scheduler did exactly that, counted as serial_contended; that counter
  //   now only moves on registry overflow at 256 concurrent regions).
  // - Runs serially inline (one fn(begin, end) call) when the range fits a
  //   single chunk, the pool has one thread, or the caller is already inside
  //   a ParallelFor (nested submits never deadlock; see parallel_for.cc for
  //   why nested stays inline-serial).
  // - Exceptions thrown by fn are caught; the first one is rethrown on the
  //   calling thread after all remaining chunks have been drained (their
  //   bodies are skipped once a failure is recorded). Failures never leak
  //   across regions: a stealing worker reports into the region that owns
  //   the chunk it was running.
  // - fn must be safe to run concurrently on disjoint chunks. Callers that
  //   need run-to-run determinism (the GEMM kernels guarantee bitwise
  //   batch-size-invariant results) must make per-element output independent
  //   of the chunk partition; the partition itself is fixed at begin + j*grain
  //   no matter which threads claim the chunks.
  template <typename Fn>
  void ParallelFor(int64_t begin, int64_t end, int64_t grain, Fn&& fn) {
    using F = typename std::remove_reference<Fn>::type;
    RunImpl(begin, end, grain,
            [](void* ctx, int64_t b, int64_t e) { (*static_cast<F*>(ctx))(b, e); },
            const_cast<void*>(static_cast<const void*>(&fn)));
  }

  // Hard cap on the number of chunks ParallelForWithScratch will create; the
  // grain is raised as needed so the lease table fits on the stack. 4 chunks
  // per thread up to 64 threads — far past the point where more chunks stop
  // helping load balance.
  static constexpr int kMaxScratchChunks = 256;

  // Like ParallelFor, but hands each chunk a private scratch object leased
  // from `pool`: fn(scratch, chunk_begin, chunk_end). Pool is any type with
  // `T* Checkout()` / `void Return(T*)` — in practice WorkspacePool
  // (src/nn/workspace.h); keeping it a template parameter keeps support/
  // layered below nn/.
  //
  // Every lease is checked out by the CALLING thread before the region forks
  // and chunk j always receives lease j, so which arena serves which chunk
  // does not depend on thread scheduling: a single-threaded caller repeats
  // the same checkout sequence every pass, which is what lets a warm pool
  // serve the whole region without touching the heap (the dataplane
  // zero-allocation tests rely on this determinism). All leases are returned
  // even when a chunk body throws. The scratch contents are chunk-private;
  // callers needing bitwise run-to-run determinism must still keep
  // per-element output independent of the chunk partition, exactly as with
  // plain ParallelFor.
  template <typename Pool, typename Fn>
  void ParallelForWithScratch(Pool& pool, int64_t begin, int64_t end, int64_t grain,
                              Fn&& fn) {
    if (begin >= end) {
      return;
    }
    grain = grain < 1 ? 1 : grain;
    int64_t num_chunks = (end - begin + grain - 1) / grain;
    if (num_chunks > kMaxScratchChunks) {
      grain = (end - begin + kMaxScratchChunks - 1) / kMaxScratchChunks;
      num_chunks = (end - begin + grain - 1) / grain;
    }
    // A single-thread pool or a nested call is guaranteed to run inline as
    // one chunk (same conditions RunImpl checks): don't lease scratch that
    // cannot be used. (The only other inline fallback left is registry
    // overflow at 256 concurrent regions, discovered inside RunImpl; that
    // vanishingly rare case pays for its unused leases.)
    if (num_threads_ == 1 || InParallelRegion()) {
      grain = end - begin;
      num_chunks = 1;
    }
    using Scratch = typename std::remove_pointer<decltype(pool.Checkout())>::type;
    Scratch* scratch[kMaxScratchChunks];
    struct Returner {
      Pool& pool;
      Scratch** scratch;
      int64_t n = 0;
      // Returned last-to-first, so a LIFO pool hands lease j back to chunk
      // j on the caller's next region of the same size.
      ~Returner() {
        for (int64_t i = n; i-- > 0;) {
          pool.Return(scratch[i]);
        }
      }
    } returner{pool, scratch};
    for (int64_t i = 0; i < num_chunks; ++i) {
      scratch[i] = pool.Checkout();
      returner.n = i + 1;
    }
    // Chunks are claimed at begin + j*grain exactly (RunImpl advances a
    // shared cursor by `grain`), so the chunk index below is total.
    ParallelFor(begin, end, grain, [&](int64_t b, int64_t e) {
      fn(scratch[(b - begin) / grain], b, e);
    });
  }

 private:
  struct Impl;

  void RunImpl(int64_t begin, int64_t end, int64_t grain,
               void (*fn)(void*, int64_t, int64_t), void* ctx);

  int num_threads_ = 1;
  Impl* impl_ = nullptr;
};

// Convenience wrapper over the global pool.
template <typename Fn>
void ParallelFor(int64_t begin, int64_t end, int64_t grain, Fn&& fn) {
  ThreadPool::Global().ParallelFor(begin, end, grain, std::forward<Fn>(fn));
}

// The full fork decision every data-plane call site shares: forking pays off
// only when the pool actually has extra threads, the range splits into more
// than one item, and the estimated work (flop-equivalents, see
// kParallelMinWork) amortizes the publish/wake handshake. Call sites that
// skip the fork run their body inline without even touching the pool.
// Centralizing this beats each TU re-deriving the pool/items checks — with
// regions now composing, the policy is purely about overhead, not about
// dodging a busy pool.
inline bool WorthForking(const ThreadPool& pool, int64_t items, double work) {
  return pool.num_threads() > 1 && items > 1 && WorthForkingWork(work);
}

// Load-balance grain over `n` items: ~4 chunks per global-pool thread
// (clamped to >= 1). The kernel row panels further align this to their
// register tile; everyone else uses it as-is.
inline int64_t ParallelGrain(int64_t n) {
  const int64_t chunks = static_cast<int64_t>(ThreadPool::Global().num_threads()) * 4;
  return n <= chunks ? 1 : (n + chunks - 1) / chunks;
}

}  // namespace cdmpp

#endif  // SRC_SUPPORT_PARALLEL_FOR_H_
