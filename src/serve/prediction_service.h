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
// Threading model: workers never take an exclusive lock on the hot path. The
// model is shared read-only through CdmppPredictor::PredictBatched (const,
// cache-free — see src/core/predictor.h); an exclusive lock is taken only on
// the rare first sighting of a new leaf count, to create its head. Two
// parallelism levels compose: worker-level batching (one arena per worker,
// leased from WorkspacePool::Global() for the worker's lifetime) and
// intra-request parallelism inside each forward (each wave of a drain runs
// as one region of row shards on ThreadPool::Global(); the first shard uses
// the worker's arena, the others lease arenas from the same pool — checkout
// grows on demand and never blocks, so nested leases cannot deadlock).
// Results are bitwise identical for every CDMPP_NUM_THREADS value; see
// README "Threading model" for when intra-request threads help (batches
// with spare cores) vs hurt (QPS-bound many-worker serving).
#ifndef SRC_SERVE_PREDICTION_SERVICE_H_
#define SRC_SERVE_PREDICTION_SERVICE_H_

#include <chrono>
#include <condition_variable>
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
  int num_workers = 2;
  // Numeric tier the workers' forward passes run in. kInt8 serves through the
  // int8 symmetric-quantized kernel path (PredictBatchedQuantized, <= 1%
  // relative deviation from fp32, ~2x GEMM throughput/core) covering the
  // encoder weight GEMMs plus heads/device-MLP/decoder; kInt8Heads is the
  // pre-encoder subset kept for A/B comparison. The default is taken from the
  // CDMPP_PRECISION environment override (fp32 when unset or unrecognized).
  Precision precision = DefaultPrecision();
  // Upper bound on requests drained per worker wake-up; buckets inside a
  // drain are additionally chunked to the predictor's config batch size.
  int max_batch_size = 64;
  // After the first pending request, a worker waits up to this long for more
  // requests to accumulate before running the forward pass. 0 disables the
  // window (every request is served as soon as a worker is free).
  double batch_window_ms = 0.2;
  bool enable_cache = true;
  size_t cache_capacity = 1 << 16;
  int cache_shards = 16;
  // > 0 starts a background thread that logs an interval-delta
  // ServerStatsSnapshot (QPS, hit rate, latency percentiles + histogram) to
  // stderr every this-many seconds. 0 (default) disables the logger.
  double stats_log_interval_s = 0.0;
};

class PredictionService {
 public:
  // `predictor` must be fitted (Pretrain has run) and must outlive the
  // service. The service serializes its own head creation against its
  // forward passes; the caller must not train or mutate the predictor while
  // the service is running. With options.precision != kFp32 the constructor
  // calibrates the predictor's int8 snapshots (PrepareQuantizedInference) —
  // a mutation, so don't construct concurrently with other predictor use.
  PredictionService(CdmppPredictor* predictor, const ServeOptions& options);
  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  // Asynchronous prediction. The future resolves to the predicted latency in
  // seconds — immediately on a cache hit, after a batched forward pass
  // otherwise. Thread-safe; callable from any number of client threads.
  std::future<double> Submit(const CompactAst& ast, int device_id);

  // Bulk zero-copy variant of Submit for population-scoring clients
  // (src/search/cost_model_client.h). Two differences from a Submit loop,
  // both load-bearing for tuning throughput:
  //   * borrowed ASTs — the service keeps pointers instead of copying node
  //     arrays, so submitting a whole candidate population costs no copies.
  //     Lifetime contract: the caller must keep every AST alive and
  //     unmodified until its future resolves (a client that waits out all
  //     futures before touching its population — as
  //     CostModelClient::ScoreBatch does — satisfies this by construction).
  //   * one queue lock and ONE worker wake-up for the whole population, after
  //     every request is enqueued — the draining worker sees the full batch
  //     immediately, so population-sized forwards form with no batch-window
  //     wait and no per-request notify/wake churn.
  // Same semantics per request otherwise: cache fast path, coalescing,
  // leaf-count-bucketed batching. futures[i] corresponds to (asts[i],
  // device_ids[i]).
  std::vector<std::future<double>> SubmitBorrowedBatch(
      const std::vector<const CompactAst*>& asts, const std::vector<int>& device_ids);

  // Blocking convenience wrapper around Submit. Must not be called from a
  // worker thread (it waits on the worker pool).
  double Predict(const CompactAst& ast, int device_id);

  // Drains outstanding requests, then stops the workers. Idempotent; also
  // run by the destructor. Submit must not be called afterwards.
  void Shutdown();

  // Re-derives the predictor's int8 calibration snapshots (encoder, device
  // MLP, decoder, and every quantized head seen so far) from its CURRENT fp32
  // parameters, under the exclusive model lock: in-flight batched forwards
  // finish on the old snapshots first (they hold the shared lock), requests
  // served afterwards read the new ones, and no traffic is dropped. This is
  // the only safe way to re-calibrate a live service — calling
  // predictor->PrepareQuantizedInference() directly while workers run races
  // the snapshot swap against the lock-free forwards reading it
  // (tests/tsan_stress_test.cc exercises this path under ThreadSanitizer).
  // No-op in fp32 mode, where there are no snapshots to refresh. Because the
  // snapshots are a deterministic function of the fp32 parameters,
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
    // object); SubmitBorrowed stores only the pointer under the caller's
    // keep-alive contract. ast() picks whichever this request carries.
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

  // Builds one request (or resolves it straight from the cache, returning an
  // already-satisfied future in *ready). Shared by Submit and
  // SubmitBorrowedBatch; `copy_ast` selects owned vs borrowed AST storage.
  // Returns true if the request must be enqueued (written to *req).
  bool BuildRequest(const CompactAst& ast, int device_id, bool copy_ast, Request* req,
                    std::future<double>* ready);
  void WorkerLoop();
  // Coalesces duplicates, re-checks the cache, runs the batched forward for
  // the remaining unique rows, and fulfills every promise. `ws` and
  // `predictions` are the calling worker's private arena and reusable output
  // buffer: after warm-up the forward pass itself (PredictBatched) allocates
  // nothing. Request bookkeeping — queue entries, promises, and this
  // method's coalescing map/index vectors — still heap-allocates per batch;
  // pooling those per worker is a ROADMAP follow-on.
  // `drained_at` is the instant the worker popped the batch off the queue —
  // the boundary between each request's queue-wait and batch-formation trace
  // stages.
  void ProcessBatch(std::vector<Request> requests,
                    std::chrono::steady_clock::time_point drained_at, Workspace* ws,
                    std::vector<double>* predictions);
  void StatsLoggerLoop();

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

  // Periodic stats logger (options_.stats_log_interval_s > 0 only).
  std::mutex logger_mu_;
  std::condition_variable logger_cv_;
  bool logger_stop_ = false;
  std::thread logger_;
};

}  // namespace cdmpp

#endif  // SRC_SERVE_PREDICTION_SERVICE_H_
