// In-process batched inference serving in front of CdmppPredictor.
//
// The offline library answers one latency query per forward pass; an
// autotuner or schedule searcher issues millions of small queries, so the
// serving layer turns request concurrency into batch parallelism using the
// same leaf-count bucketing that makes CDMPP training cheap (paper §5.1):
//
//   Submit(ast, device) ──▶ prediction cache ──hit──▶ resolved future
//                                │ miss
//                                ▼
//                          request queue ──▶ worker pool drains pending
//                          requests, coalesces duplicates, groups by leaf
//                          count (AstBatchView adapter, src/dataset/
//                          batching.h), and runs ONE cache-free const
//                          forward pass per bucket (PredictBatched).
//
//   SubmitBorrowedBatch(population) ──▶ prediction cache ──hit──▶ resolved
//                                │ misses
//                                ▼
//                          the same coalescing and bucketed forward, run on
//                          the CALLING thread: no queue, no worker wake-up,
//                          and every returned future is already resolved.
//
// Threading model: workers never take an exclusive lock on the hot path. The
// model is shared read-only through CdmppPredictor::PredictBatched (const,
// cache-free — see src/core/predictor.h); an exclusive lock is taken only on
// the rare first sighting of a new leaf count, to create its head. Two
// parallelism levels compose: worker-level batching (one arena per worker,
// leased from WorkspacePool::Global() for the worker's lifetime; a borrowed
// batch's calling thread leases one for the call) and intra-request
// parallelism inside each forward (each wave of a drain runs as one region
// of row shards on ThreadPool::Global(); the first shard uses the worker's
// or caller's arena, the others lease arenas from the same pool — checkout
// grows on demand and never blocks, so nested leases cannot deadlock).
// Results are bitwise identical for every CDMPP_NUM_THREADS value; see
// README "Threading model" for when intra-request threads help (batches
// with spare cores) vs hurt (QPS-bound many-worker serving).
#ifndef SRC_SERVE_PREDICTION_SERVICE_H_
#define SRC_SERVE_PREDICTION_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "src/core/predictor.h"
#include "src/obs/trace.h"
#include "src/serve/prediction_cache.h"
#include "src/serve/server_stats.h"
#include "src/support/cpu_features.h"

namespace cdmpp {

struct ServeOptions {
  // Threads that drain the Submit queue. 0 makes a borrowed-only service:
  // SubmitBorrowedBatch runs on its caller as always, and a Submit that
  // misses the cache fails with std::logic_error, as after Shutdown.
  int num_workers = 2;
  // Numeric tier the workers' forward passes run in. kInt8 serves through the
  // int8 symmetric-quantized kernel path (PredictBatchedQuantized, <= 1%
  // relative deviation from fp32, ~2x GEMM throughput/core) covering the
  // encoder weight GEMMs plus heads/device-MLP/decoder. The default is taken
  // from the CDMPP_PRECISION environment override (fp32 when unset or
  // unrecognized).
  Precision precision = DefaultPrecision();
  // Upper bound on the Submit requests one worker drains per wake-up. A
  // borrowed batch (SubmitBorrowedBatch) is not queued and not bounded by
  // it: its calling thread runs the whole population as one batch. Either
  // way the forward drains its buckets in waves of the predictor's config
  // batch size.
  int max_batch_size = 64;
  // 0 (the default) dispatches on arrival: a woken worker drains whatever has
  // queued and runs it at once, so under load batches fill from the requests
  // that queued while every worker was busy. > 0 holds a partial batch (fewer
  // than max_batch_size queued) this long before draining it.
  double batch_window_ms = 0.0;
  bool enable_cache = true;
  size_t cache_capacity = 1 << 16;
  int cache_shards = 16;
};

class PredictionService {
 public:
  // `predictor` must be fitted (Pretrain has run) and must outlive the
  // service. The service serializes its own head creation against its
  // forward passes; the caller must not train or mutate the predictor while
  // the service is running. With options.precision != kFp32 the constructor
  // packs the predictor's int8 weights (PrepareQuantizedInference) — a
  // mutation, so don't construct concurrently with other predictor use.
  PredictionService(CdmppPredictor* predictor, const ServeOptions& options);
  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  // Asynchronous prediction. The future resolves to the predicted latency in
  // seconds — immediately on a cache hit, after a batched forward pass
  // otherwise. Thread-safe; callable from any number of client threads.
  //
  // Errors split by who made them. A bad request fails its own future, and
  // the service keeps serving: get() throws std::invalid_argument for an AST
  // with num_leaves <= 0 or a device_id outside [0, DeviceRegistry().size()),
  // and std::logic_error for a request that needs a worker after Shutdown
  // or on a service with no workers (a cache hit needs none and still
  // resolves). Programmer errors in wiring
  // the service up abort through CDMPP_CHECK: the constructor's checks, and
  // SubmitBorrowedBatch's size mismatch and null AST pointers. Features are
  // not scanned per request; a non-finite feature is not detected.
  std::future<double> Submit(const CompactAst& ast, int device_id);

  // Bulk zero-copy variant of Submit for population-scoring clients
  // (src/search/cost_model_client.h). It differs from a Submit loop in three
  // ways, all load-bearing for tuning throughput:
  //   * borrowed ASTs — the service keeps pointers instead of copying node
  //     arrays, so submitting a whole candidate population costs no copies.
  //     The caller must keep every AST alive and unmodified until the call
  //     returns.
  //   * caller-runs — the population never enters the request queue. The
  //     calling thread leases an arena from WorkspacePool::Global() and runs
  //     the cache misses as ONE batch (coalescing, leaf-count buckets, the
  //     forward sharded over ThreadPool::Global() as usual) before it
  //     returns, so every returned future is already resolved: no worker
  //     wake-up, no thread hop, and a traced request records zero queue
  //     wait (the time spent forming the population counts as batch
  //     formation). Callable from inside a ParallelFor chunk; the forward
  //     then runs inline, with the same bits.
  //   * precomputed hashes — `ast_hashes`, when not empty, must have one
  //     entry per AST with ast_hashes[i] == asts[i]->Hash(). The hash is the
  //     AST half of the prediction-cache key shared with Submit, so a wrong
  //     hash serves or caches another program's latency; only debug builds
  //     re-check it (an assert). Empty (the default) hashes each AST here.
  // Same semantics per request otherwise: cache fast path, coalescing,
  // stats and traces, and Submit's error split (an invalid request fails
  // only its own future; after Shutdown a request that misses the cache
  // fails with std::logic_error). futures[i] corresponds to (asts[i],
  // device_ids[i]). Shutdown waits for borrowed batches already running.
  std::vector<std::future<double>> SubmitBorrowedBatch(
      const std::vector<const CompactAst*>& asts, const std::vector<int>& device_ids,
      const std::vector<uint64_t>& ast_hashes = {});

  // Blocking convenience wrapper around Submit. Must not be called from a
  // worker thread (it waits on the worker pool).
  double Predict(const CompactAst& ast, int device_id);

  // Drains outstanding requests and waits out running borrowed batches,
  // then stops the workers. Idempotent; also run by the destructor. Requests
  // submitted afterwards that miss the cache fail with std::logic_error.
  void Shutdown();

  // Re-derives the predictor's int8 weight packs (every packed Linear,
  // including each head created so far) from its CURRENT fp32 parameters,
  // under the exclusive model lock: in-flight batched forwards finish on the
  // old packs first (they hold the shared lock), requests served afterwards
  // read the new ones, and no traffic is dropped. This is the only safe way
  // to re-calibrate a live service — calling
  // predictor->PrepareQuantizedInference() directly while workers run races
  // the repacking against the lock-free forwards reading the packs
  // (tests/tsan_stress_test.cc exercises this path under ThreadSanitizer).
  // No-op in fp32 mode, where there are no packs to refresh. Because the
  // packs are a deterministic function of the fp32 parameters,
  // recalibrating without an intervening parameter change is bitwise
  // invisible to clients. Thread-safe; callable from any non-worker thread.
  void Recalibrate();

  ServerStatsSnapshot Stats() const {
    ServerStatsSnapshot s = stats_.Snapshot();
    s.precision = PrecisionName(options_.precision);
    return s;
  }
  // Reopens the stats measurement window (counters, latency histogram, wall
  // clock). Benchmarks call this after warm-up so headline QPS/percentiles
  // measure steady state only; in-flight requests land in the new window.
  void ResetStats() { stats_.Reset(); }
  const PredictionCache& cache() const { return cache_; }
  const ServeOptions& options() const { return options_; }

 private:
  struct Request {
    // Submit stores an owned copy (the request may outlive the caller's
    // object); SubmitBorrowedBatch stores only the pointer under the
    // caller's keep-alive contract. ast() picks whichever this request
    // carries.
    CompactAst owned_ast;
    const CompactAst* borrowed_ast = nullptr;
    const CompactAst& ast() const { return borrowed_ast ? *borrowed_ast : owned_ast; }
    int device_id = -1;
    CacheKey key;
    std::promise<double> promise;
    std::chrono::steady_clock::time_point submit_time;
    // True for the 1-in-N requests the trace sampler selected at Submit; the
    // worker that fulfills the request emits a per-stage RequestTrace for it.
    bool traced = false;
  };

  // Builds one request (or resolves it straight from the cache, or fails it as
  // invalid, returning an already-satisfied future in *ready). Shared by
  // Submit and SubmitBorrowedBatch; `ast_hash` is ast.Hash(), `copy_ast`
  // selects owned vs borrowed AST storage. Returns true if the request must
  // be computed (written to *req).
  bool BuildRequest(const CompactAst& ast, uint64_t ast_hash, int device_id, bool copy_ast,
                    Request* req, std::future<double>* ready);
  void WorkerLoop();
  // Coalesces duplicates, re-checks the cache, runs the batched forward for
  // the remaining unique rows, and fulfills every promise. Runs on a worker
  // (Submit traffic) or on a SubmitBorrowedBatch caller. `ws` and
  // `predictions` are that thread's arena and output buffer: after warm-up
  // the forward pass itself (PredictBatched) allocates nothing. Request
  // bookkeeping — queue entries, promises, and this method's coalescing
  // map/index vectors — still heap-allocates per batch; pooling those is a
  // ROADMAP follow-on.
  // `ready_at` is the instant the batch was complete: drained off the queue
  // by a worker (`queued`), or built by a borrowed batch's caller. It ends
  // each request's queue-wait trace stage, or, for an unqueued request, the
  // batch-formation time spent building the rest of the population.
  void ProcessBatch(std::vector<Request> requests, std::chrono::steady_clock::time_point ready_at,
                    bool queued, Workspace* ws, std::vector<double>* predictions);

  CdmppPredictor* predictor_;
  ServeOptions options_;
  PredictionCache cache_;
  ServerStats stats_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Request> queue_;
  bool stop_ = false;

  // Shared: batched forward passes. Exclusive: head creation for a leaf
  // count the model has never seen.
  std::shared_mutex model_mu_;

  std::vector<std::thread> workers_;

  // Borrowed batches running on their callers' threads; Shutdown waits on
  // borrowed_done_cv_ until none is left. Guarded by queue_mu_, but declared
  // last so the members the Submit and worker hot paths touch keep their
  // cache-line layout: declared after stop_, they shifted model_mu_, and
  // serve-zipf's p99 read 3-7% above the old layout's in three 10-pair
  // sessions on a 4-vCPU AVX2 host (level with it once moved here).
  int borrowed_running_ = 0;
  std::condition_variable borrowed_done_cv_;
};

}  // namespace cdmpp

#endif  // SRC_SERVE_PREDICTION_SERVICE_H_
