// Serving-subsystem tests: sharded LRU cache semantics, concurrency safety,
// bitwise equivalence of batched serving with single-threaded prediction, and
// the throughput advantage of cross-request batching.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/device/device.h"
#include "src/search/cost_model_client.h"
#include "src/serve/prediction_service.h"
#include "src/support/cpu_features.h"
#include "src/support/parallel_for.h"
#include "src/tir/schedule.h"

namespace cdmpp {
namespace {

// Wall-clock comparisons measure batching, not scheduler thrash: when the
// global pool is oversubscribed (CDMPP_NUM_THREADS above the core count —
// e.g. the thread-count invariance configurations, which care about values,
// not speed), forked regions add context-switch noise that can randomly
// flip ~ms margins. The timing tests pin themselves to a pool no larger
// than the hardware for the duration of the measurement.
struct ScopedTimingPool {
  explicit ScopedTimingPool(int threads = ThreadPool::Global().num_threads())
      : pool(std::min(threads,
                      std::max(1, static_cast<int>(std::thread::hardware_concurrency())))) {
    ThreadPool::SetGlobalForTesting(&pool);
  }
  ~ScopedTimingPool() { ThreadPool::SetGlobalForTesting(nullptr); }
  ThreadPool pool;
};

// ---- Cache unit tests ------------------------------------------------------

CacheKey Key(uint64_t a, uint64_t d) { return CacheKey{a, d}; }

TEST(PredictionCacheTest, HitMissAndValueRoundTrip) {
  PredictionCache cache(8, 1);
  double out = 0.0;
  EXPECT_FALSE(cache.Lookup(Key(1, 1), &out));
  cache.Insert(Key(1, 1), 0.25);
  ASSERT_TRUE(cache.Lookup(Key(1, 1), &out));
  EXPECT_EQ(out, 0.25);
  // Same AST on a different device is a different entry.
  EXPECT_FALSE(cache.Lookup(Key(1, 2), &out));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(PredictionCacheTest, LruEvictsLeastRecentlyUsed) {
  PredictionCache cache(4, 1);
  for (uint64_t i = 1; i <= 4; ++i) {
    cache.Insert(Key(i, 0), static_cast<double>(i));
  }
  double out = 0.0;
  // Touch key 1 so key 2 becomes the eviction victim.
  ASSERT_TRUE(cache.Lookup(Key(1, 0), &out));
  cache.Insert(Key(5, 0), 5.0);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.Lookup(Key(1, 0), &out));
  EXPECT_FALSE(cache.Lookup(Key(2, 0), &out));
  EXPECT_TRUE(cache.Lookup(Key(3, 0), &out));
  EXPECT_TRUE(cache.Lookup(Key(5, 0), &out));
}

TEST(PredictionCacheTest, InsertRefreshesExistingEntry) {
  PredictionCache cache(2, 1);
  cache.Insert(Key(1, 0), 1.0);
  cache.Insert(Key(2, 0), 2.0);
  cache.Insert(Key(1, 0), 10.0);  // refresh, not a new entry
  EXPECT_EQ(cache.size(), 2u);
  cache.Insert(Key(3, 0), 3.0);  // evicts key 2 (LRU after the refresh)
  double out = 0.0;
  ASSERT_TRUE(cache.Lookup(Key(1, 0), &out));
  EXPECT_EQ(out, 10.0);
  EXPECT_FALSE(cache.Lookup(Key(2, 0), &out));
}

TEST(PredictionCacheTest, ConcurrentAccessIsConsistent) {
  PredictionCache cache(256, 8);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 5000;
  std::vector<std::thread> threads;
  std::atomic<int> value_mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &value_mismatches, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        uint64_t k = static_cast<uint64_t>((t * 37 + i) % 512);
        if (i % 3 == 0) {
          cache.Insert(Key(k, 0), static_cast<double>(k));
        } else {
          double out = -1.0;
          if (cache.Lookup(Key(k, 0), &out) && out != static_cast<double>(k)) {
            value_mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  EXPECT_EQ(value_mismatches.load(), 0);
  EXPECT_LE(cache.size(), 256u);
  EXPECT_GT(cache.hits(), 0u);
}

// ---- Service tests against a trained predictor -----------------------------

// One tiny trained world shared by all service tests (training dominates the
// suite's runtime, so it runs once).
struct ServeWorld {
  Dataset ds;
  std::unique_ptr<CdmppPredictor> predictor;
  std::vector<CompactAst> workload;  // distinct free-standing ASTs
};

ServeWorld& World() {
  static ServeWorld* world = [] {
    auto* w = new ServeWorld();
    DatasetOptions opts;
    opts.device_ids = {0};
    opts.schedules_per_task = 2;
    opts.max_networks = 6;
    opts.seed = 11;
    w->ds = BuildDataset(opts);

    PredictorConfig cfg;
    // Big enough that a forward pass has real GEMM work to amortize — with a
    // toy d_model the (identical) per-request queue/promise overhead drowns
    // the batching-vs-single comparison below in noise.
    cfg.d_model = 32;
    cfg.num_heads = 2;
    cfg.d_ff = 64;
    cfg.num_layers = 1;
    cfg.z_dim = 16;
    cfg.device_embed_dim = 8;
    cfg.device_hidden_dim = 16;
    cfg.decoder_hidden = {16};
    cfg.epochs = 2;
    cfg.seed = 3;
    w->predictor = std::make_unique<CdmppPredictor>(cfg);
    Rng rng(4);
    SplitIndices split = SplitDataset(w->ds, {0}, {}, &rng);
    w->predictor->Pretrain(w->ds, split.train, split.valid);

    // Fresh schedules the model never trained on, spread over many tasks so
    // several leaf-count buckets occur.
    Rng srng(9);
    for (const TaskInfo& info : w->ds.tasks) {
      for (int k = 0; k < 3; ++k) {
        w->workload.push_back(
            ExtractCompactAst(GenerateProgram(info.task, SampleSchedule(info.task, &srng))));
      }
    }
    // Materialize every head now so later const serving paths never mutate.
    for (const CompactAst& ast : w->workload) {
      w->predictor->EnsureHead(ast.num_leaves);
    }
    return w;
  }();
  return *world;
}

TEST(PredictBatchedTest, MatchesPredictAstBitwise) {
  ServeWorld& w = World();
  AstBatchView view;
  for (const CompactAst& ast : w.workload) {
    view.asts.push_back(&ast);
    view.device_ids.push_back(0);
  }
  std::vector<double> batched = w.predictor->PredictBatched(view);
  ASSERT_EQ(batched.size(), w.workload.size());
  for (size_t i = 0; i < w.workload.size(); ++i) {
    double single = w.predictor->PredictAst(w.workload[i], 0);
    EXPECT_EQ(batched[i], single) << "request " << i;  // bitwise-identical
  }
}

TEST(ServeTest, ConcurrentSubmitMatchesSingleThreadedPredictor) {
  ServeWorld& w = World();
  // The bitwise serving contract is per precision: the service must serve
  // exactly what the active precision's direct single-request forward
  // computes. Under CDMPP_PRECISION=int8 (the int8 CI leg) that is the
  // quantized path — which is batch-size-invariant bitwise thanks to its
  // per-row activation scales, so the same equality holds.
  // Expectations must come from the same data plane the service will use:
  // the active CDMPP_PRECISION (either tier on the CI matrix).
  const Precision mode = DefaultPrecision();
  if (mode != Precision::kFp32) {
    w.predictor->PrepareQuantizedInference();
    for (const CompactAst& ast : w.workload) {
      w.predictor->EnsureHead(ast.num_leaves);
    }
  }
  std::vector<double> expected;
  expected.reserve(w.workload.size());
  for (const CompactAst& ast : w.workload) {
    if (mode != Precision::kFp32) {
      AstBatchView single;
      single.asts.push_back(&ast);
      single.device_ids.push_back(0);
      expected.push_back(
          w.predictor->PredictBatchedQuantized(single, /*num_forward_passes=*/nullptr, mode)[0]);
    } else {
      expected.push_back(w.predictor->PredictAst(ast, 0));
    }
  }

  ServeOptions opts;
  opts.num_workers = 4;
  opts.max_batch_size = 32;
  opts.batch_window_ms = 0.5;
  opts.enable_cache = false;  // force every request through a forward pass
  PredictionService service(w.predictor.get(), opts);

  constexpr int kClientThreads = 4;
  std::vector<std::vector<std::future<double>>> futures(kClientThreads);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClientThreads; ++c) {
    clients.emplace_back([&w, &service, &futures, c] {
      for (size_t i = static_cast<size_t>(c); i < w.workload.size(); i += kClientThreads) {
        futures[static_cast<size_t>(c)].push_back(service.Submit(w.workload[i], 0));
      }
    });
  }
  for (std::thread& th : clients) {
    th.join();
  }
  for (int c = 0; c < kClientThreads; ++c) {
    size_t slot = 0;
    for (size_t i = static_cast<size_t>(c); i < w.workload.size(); i += kClientThreads) {
      EXPECT_EQ(futures[static_cast<size_t>(c)][slot++].get(), expected[i])
          << "request " << i;  // bitwise-identical to the single-threaded result
    }
  }
  ServerStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.requests, w.workload.size());
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_GT(stats.forward_passes, 0u);
}

TEST(ServeTest, CacheHitSkipsForwardPass) {
  ServeWorld& w = World();
  ServeOptions opts;
  opts.num_workers = 1;
  opts.batch_window_ms = 0.0;
  opts.enable_cache = true;
  PredictionService service(w.predictor.get(), opts);

  const CompactAst& ast = w.workload.front();
  double first = service.Predict(ast, 0);
  ServerStatsSnapshot after_first = service.Stats();
  ASSERT_GE(after_first.forward_passes, 1u);
  EXPECT_EQ(after_first.cache_hits, 0u);

  double second = service.Predict(ast, 0);
  ServerStatsSnapshot after_second = service.Stats();
  EXPECT_EQ(second, first);
  EXPECT_EQ(after_second.cache_hits, 1u);
  // The hit was answered without touching the model.
  EXPECT_EQ(after_second.forward_passes, after_first.forward_passes);
  EXPECT_EQ(service.cache().hits(), 1u);

  // A different device misses: the device fingerprint is part of the key.
  service.Predict(ast, 3);
  EXPECT_EQ(service.Stats().cache_hits, 1u);
}

TEST(ServeTest, DuplicateInFlightRequestsCoalesce) {
  ServeWorld& w = World();
  ServeOptions opts;
  opts.num_workers = 1;
  opts.max_batch_size = 64;
  opts.batch_window_ms = 50.0;  // generous window so all duplicates queue up
  opts.enable_cache = false;
  PredictionService service(w.predictor.get(), opts);

  constexpr int kDuplicates = 16;
  std::vector<std::future<double>> futures;
  for (int i = 0; i < kDuplicates; ++i) {
    futures.push_back(service.Submit(w.workload.front(), 0));
  }
  std::vector<double> results;
  for (auto& f : futures) {
    results.push_back(f.get());
  }
  for (double r : results) {
    EXPECT_EQ(r, results.front());
  }
  ServerStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(kDuplicates));
  // At least one merge happened (timing decides exactly how many duplicates
  // land in one drain, but a 50ms window makes near-total coalescing typical).
  EXPECT_GT(stats.coalesced, 0u);
  EXPECT_LT(stats.batched_rows, static_cast<uint64_t>(kDuplicates));

  // Without a window, batches form from backlog: SubmitBorrowedBatch enqueues
  // the whole population under one lock before its single wake-up, so the
  // one worker drains all of it at once and the counts are exact.
  ServeOptions dispatch_opts;
  dispatch_opts.num_workers = 1;
  dispatch_opts.enable_cache = false;
  PredictionService dispatch(w.predictor.get(), dispatch_opts);
  std::vector<const CompactAst*> asts(kDuplicates, &w.workload.front());
  std::set<uint64_t> seen = {w.workload.front().Hash()};
  for (const CompactAst& ast : w.workload) {
    if (asts.size() < 2 * kDuplicates && seen.insert(ast.Hash()).second) {
      asts.push_back(&ast);
    }
  }
  ASSERT_EQ(asts.size(), 2u * kDuplicates);
  std::vector<std::future<double>> batch_futures =
      dispatch.SubmitBorrowedBatch(asts, std::vector<int>(asts.size(), 0));
  for (auto& f : batch_futures) {
    f.get();
  }
  ServerStatsSnapshot dispatch_stats = dispatch.Stats();
  EXPECT_EQ(dispatch_stats.coalesced, static_cast<uint64_t>(kDuplicates - 1));
  EXPECT_EQ(dispatch_stats.batched_rows, static_cast<uint64_t>(kDuplicates + 1));
}

// Boundary errors fail the offending request's future and leave the service
// serving; they never abort the process.
TEST(ServeTest, InvalidRequestsFailTheirFutures) {
  ServeWorld& w = World();
  const CompactAst& valid = w.workload.front();
  const int num_devices = static_cast<int>(DeviceRegistry().size());
  CompactAst leafless = valid;
  leafless.num_leaves = 0;
  // A population of eight with one out-of-range device in the middle.
  std::vector<const CompactAst*> asts;
  std::vector<int> devices;
  std::vector<double> expected;
  for (size_t i = 0; i < 8; ++i) {
    asts.push_back(&w.workload[i]);
    devices.push_back(static_cast<int>(i) % num_devices);
    expected.push_back(w.predictor->PredictAst(w.workload[i], devices.back()));
  }
  devices[3] = num_devices + 5;
  const double expected_valid = w.predictor->PredictAst(valid, 0);
  const double expected_after = w.predictor->PredictAst(w.workload[8], 0);

  ServeOptions opts;
  opts.num_workers = 1;
  opts.precision = Precision::kFp32;  // expectations come from PredictAst
  opts.enable_cache = false;          // every valid request needs a worker
  PredictionService service(w.predictor.get(), opts);

  EXPECT_THROW(service.Submit(leafless, 0).get(), std::invalid_argument);
  EXPECT_THROW(service.Submit(valid, -1).get(), std::invalid_argument);
  EXPECT_THROW(service.Submit(valid, num_devices).get(), std::invalid_argument);
  EXPECT_THROW(service.Predict(valid, num_devices), std::invalid_argument);
  EXPECT_EQ(service.Predict(valid, 0), expected_valid);

  // One invalid request in a population fails alone; the others are served
  // bitwise as PredictAst computes them.
  std::vector<std::future<double>> futures = service.SubmitBorrowedBatch(asts, devices);
  for (size_t i = 0; i < futures.size(); ++i) {
    if (i == 3) {
      EXPECT_THROW(futures[i].get(), std::invalid_argument);
    } else {
      EXPECT_EQ(futures[i].get(), expected[i]) << "request " << i;
    }
  }
  EXPECT_EQ(service.Predict(w.workload[8], 0), expected_after);

  // After Shutdown, requests that need a worker fail instead of aborting.
  service.Shutdown();
  EXPECT_THROW(service.Submit(w.workload[9], 0).get(), std::logic_error);
  std::vector<std::future<double>> late =
      service.SubmitBorrowedBatch({&w.workload[10], &w.workload[11]}, {0, 0});
  for (auto& f : late) {
    EXPECT_THROW(f.get(), std::logic_error);
  }
}

// Distinct workload ASTs (by Hash, the cache key's AST half), in order.
std::vector<const CompactAst*> DistinctAsts(const ServeWorld& w, size_t count) {
  std::vector<const CompactAst*> asts;
  std::set<uint64_t> seen;
  for (const CompactAst& ast : w.workload) {
    if (asts.size() < count && seen.insert(ast.Hash()).second) {
      asts.push_back(&ast);
    }
  }
  return asts;
}

// A borrowed batch runs on the calling thread: every future it returns is
// already resolved, whether the request was computed, coalesced, answered by
// the cache or rejected. Precomputed hashes key the same cache entries that
// Submit's own hashing finds.
TEST(ServeTest, BorrowedBatchReturnsResolvedFutures) {
  ServeWorld& w = World();
  const int num_devices = static_cast<int>(DeviceRegistry().size());
  std::vector<const CompactAst*> asts = DistinctAsts(w, 12);
  ASSERT_EQ(asts.size(), 12u);
  asts.push_back(asts[0]);  // a duplicate, coalesced
  std::vector<int> devices(asts.size(), 0);
  devices[5] = num_devices;  // invalid, fails alone
  std::vector<uint64_t> hashes;
  for (const CompactAst* ast : asts) {
    hashes.push_back(ast->Hash());
  }

  ServeOptions opts;
  opts.num_workers = 1;
  opts.precision = Precision::kFp32;  // expectations come from PredictAst
  PredictionService service(w.predictor.get(), opts);
  auto all_ready = [](const std::vector<std::future<double>>& futures) {
    for (const std::future<double>& f : futures) {
      if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        return false;
      }
    }
    return true;
  };

  std::vector<std::future<double>> first = service.SubmitBorrowedBatch(asts, devices, hashes);
  ASSERT_EQ(first.size(), asts.size());
  EXPECT_TRUE(all_ready(first));
  // The same population again: every valid request is now a cache hit.
  std::vector<std::future<double>> second = service.SubmitBorrowedBatch(asts, devices);
  EXPECT_TRUE(all_ready(second));
  for (size_t i = 0; i < asts.size(); ++i) {
    if (i == 5) {
      EXPECT_THROW(first[i].get(), std::invalid_argument);
      EXPECT_THROW(second[i].get(), std::invalid_argument);
      continue;
    }
    const double expected = w.predictor->PredictAst(*asts[i], 0);
    EXPECT_EQ(first[i].get(), expected) << "request " << i;
    EXPECT_EQ(second[i].get(), expected) << "request " << i;
  }
  ServerStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.requests, 2u * (asts.size() - 1));
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(stats.batched_rows, asts.size() - 2);
  EXPECT_EQ(stats.cache_hits, asts.size() - 1);
  // Submit hashes the AST itself and finds the entry the precomputed hash
  // keyed.
  EXPECT_EQ(service.Predict(*asts[1], 0), w.predictor->PredictAst(*asts[1], 0));
  EXPECT_EQ(service.Stats().cache_hits, asts.size());
}

// max_batch_size bounds worker drains only: a borrowed population three
// times that size is one batch on the caller, so every duplicate coalesces
// into its key's row and the counts are exact.
TEST(ServeTest, BorrowedPopulationLargerThanMaxBatchSizeIsOneBatch) {
  ServeWorld& w = World();
  ServeOptions opts;
  opts.num_workers = 2;
  opts.max_batch_size = 16;
  opts.precision = Precision::kFp32;  // expectations come from PredictAst
  const size_t population = 3 * static_cast<size_t>(opts.max_batch_size);
  const size_t distinct = population - 12;
  std::vector<const CompactAst*> asts = DistinctAsts(w, distinct);
  ASSERT_EQ(asts.size(), distinct);
  for (size_t d = 0; d < 12; ++d) {
    asts.push_back(asts[(d * 7) % 4]);  // 12 duplicates of the first four keys
  }
  PredictionService service(w.predictor.get(), opts);
  std::vector<std::future<double>> futures =
      service.SubmitBorrowedBatch(asts, std::vector<int>(asts.size(), 0));
  ASSERT_EQ(futures.size(), population);
  for (size_t i = 0; i < population; ++i) {
    EXPECT_EQ(futures[i].get(), w.predictor->PredictAst(*asts[i], 0)) << "request " << i;
  }
  ServerStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.requests, population);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.coalesced, population - distinct);
  EXPECT_EQ(stats.batched_rows, distinct);
}

// A borrowed batch called from inside ParallelFor chunks (several at once
// on a multi-thread pool) runs its forward inline there, with the same bits.
TEST(ServeTest, BorrowedBatchInsideParallelForChunkMatches) {
  ServeWorld& w = World();
  const std::vector<const CompactAst*> asts = DistinctAsts(w, 24);
  ASSERT_EQ(asts.size(), 24u);
  std::vector<double> expected;
  for (const CompactAst* ast : asts) {
    expected.push_back(w.predictor->PredictAst(*ast, 0));
  }
  ServeOptions opts;
  opts.num_workers = 1;
  opts.precision = Precision::kFp32;  // expectations come from PredictAst
  opts.enable_cache = false;          // every chunk runs its own forward
  PredictionService service(w.predictor.get(), opts);

  constexpr int64_t kChunks = 4;
  std::vector<std::vector<double>> served(kChunks, std::vector<double>(asts.size(), 0.0));
  ParallelFor(0, kChunks, 1, [&](int64_t begin, int64_t end) {
    for (int64_t c = begin; c < end; ++c) {
      std::vector<std::future<double>> futures =
          service.SubmitBorrowedBatch(asts, std::vector<int>(asts.size(), 0));
      for (size_t i = 0; i < futures.size(); ++i) {
        served[static_cast<size_t>(c)][i] = futures[i].get();
      }
    }
  });
  for (int64_t c = 0; c < kChunks; ++c) {
    EXPECT_EQ(served[static_cast<size_t>(c)], expected) << "chunk " << c;
  }
  EXPECT_EQ(service.Stats().batched_rows, static_cast<uint64_t>(kChunks) * asts.size());
}

// A service with no workers serves borrowed batches alone: the same bits as
// a service with workers, while a Submit that misses the cache fails (no
// worker would ever drain it) and a Submit cache hit still resolves.
TEST(ServeTest, ZeroWorkerServiceServesBorrowedBatchesOnly) {
  ServeWorld& w = World();
  const std::vector<const CompactAst*> asts = DistinctAsts(w, 16);
  ASSERT_EQ(asts.size(), 16u);
  const std::vector<int> devices(asts.size(), 0);
  ServeOptions opts;
  opts.num_workers = 2;
  PredictionService with_workers(w.predictor.get(), opts);
  opts.num_workers = 0;
  PredictionService borrowed_only(w.predictor.get(), opts);

  std::vector<std::future<double>> expected = with_workers.SubmitBorrowedBatch(asts, devices);
  std::vector<std::future<double>> served = borrowed_only.SubmitBorrowedBatch(asts, devices);
  for (size_t i = 0; i < asts.size(); ++i) {
    EXPECT_EQ(served[i].get(), expected[i].get()) << "request " << i;
  }
  const CompactAst& unseen = *DistinctAsts(w, asts.size() + 1).back();
  std::future<double> miss = borrowed_only.Submit(unseen, 0);
  ASSERT_EQ(miss.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_THROW(miss.get(), std::logic_error);
  EXPECT_EQ(borrowed_only.Submit(*asts[3], 0).get(), with_workers.Predict(*asts[3], 0));
}

TEST(ServeTest, BatchingDeliversHigherQpsThanBatchSizeOne) {
  ScopedTimingPool timing_pool;
  ServeWorld& w = World();
  // Same workload, replayed against a batching service and a batch-size-1
  // service. Repeats give the batched path coalescing-free volume (distinct
  // keys only: each AST appears once per pass, cache disabled).
  std::vector<const CompactAst*> requests;
  for (int pass = 0; pass < 4; ++pass) {
    for (const CompactAst& ast : w.workload) {
      requests.push_back(&ast);
    }
  }

  auto run_once = [&w, &requests](int max_batch, double window_ms) {
    ServeOptions opts;
    opts.num_workers = 2;
    opts.max_batch_size = max_batch;
    opts.batch_window_ms = window_ms;
    opts.enable_cache = false;
    PredictionService service(w.predictor.get(), opts);
    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::future<double>> futures;
    futures.reserve(requests.size());
    for (const CompactAst* ast : requests) {
      futures.push_back(service.Submit(*ast, 0));
    }
    for (auto& f : futures) {
      f.get();
    }
    double seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    ServerStatsSnapshot stats = service.Stats();
    return std::make_pair(static_cast<double>(requests.size()) / seconds, stats);
  };

  // Best-of-N per mode: a throughput-capability comparison, insulated from
  // one-sided scheduler noise on loaded CI machines.
  constexpr int kRuns = 3;
  double qps_single = 0.0;
  double qps_batched = 0.0;
  ServerStatsSnapshot stats_single;
  ServerStatsSnapshot stats_batched;
  for (int r = 0; r < kRuns; ++r) {
    auto [qps_s, st_s] = run_once(/*max_batch=*/1, /*window_ms=*/0.0);
    if (qps_s > qps_single) {
      qps_single = qps_s;
      stats_single = st_s;
    }
    auto [qps_b, st_b] = run_once(/*max_batch=*/64, /*window_ms=*/0.2);
    if (qps_b > qps_batched) {
      qps_batched = qps_b;
      stats_batched = st_b;
    }
  }

  EXPECT_GT(stats_batched.mean_batch_occupancy, 1.5);
  EXPECT_NEAR(stats_single.mean_batch_occupancy, 1.0, 1e-9);
  // The acceptance bar: batching must beat one-forward-per-request. A shared
  // CI core can starve one side of a best-of-3 comparison; escalate to one
  // larger re-measurement before declaring a real regression.
  if (qps_batched <= qps_single) {
    qps_single = 0.0;
    qps_batched = 0.0;
    for (int r = 0; r < 2 * kRuns; ++r) {
      qps_single = std::max(qps_single, run_once(/*max_batch=*/1, /*window_ms=*/0.0).first);
      qps_batched = std::max(qps_batched, run_once(/*max_batch=*/64, /*window_ms=*/0.2).first);
    }
  }
  EXPECT_GT(qps_batched, qps_single);
}

TEST(PredictBatchedTest, BatchedForwardFasterThanPerRequestForward) {
  // The worker-side view of the same claim, free of queueing and scheduling
  // noise: one batched forward over the workload vs one forward per request.
  // It measures batching, not threading: on a multi-thread pool the batched
  // forward forks its large ops and pays a region handshake per op that
  // size-1 forwards never do, which flipped this comparison on 4-core hosts.
  // Both sides therefore run on a 1-thread pool.
  ScopedTimingPool timing_pool(/*threads=*/1);
  ServeWorld& w = World();
  AstBatchView view;
  for (const CompactAst& ast : w.workload) {
    view.asts.push_back(&ast);
    view.device_ids.push_back(0);
  }
  w.predictor->PredictBatched(view);  // warm-up
  // Timing discipline for shared runners: each sample spans many scheduler
  // quanta (tens of ms), so a concurrent process slows both modes
  // proportionally instead of flipping a ~1 ms comparison, and the two modes'
  // samples interleave so that host drift falls on both alike. Best-of-N
  // then discards whole-sample outliers.
  constexpr int kRepsPerSample = 20;
  constexpr int kSamples = 5;
  auto time_reps = [](const std::function<void()>& fn) {
    auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < kRepsPerSample; ++r) {
      fn();
    }
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
  };
  double batched = std::numeric_limits<double>::infinity();
  double single = std::numeric_limits<double>::infinity();
  for (int s = 0; s < kSamples; ++s) {
    batched = std::min(batched, time_reps([&] { w.predictor->PredictBatched(view); }));
    single = std::min(single, time_reps([&] {
                        for (const CompactAst& ast : w.workload) {
                          w.predictor->PredictAst(ast, 0);
                        }
                      }));
  }
  EXPECT_LT(batched, single) << "batched " << batched << " s vs per-request " << single << " s";
}

// ---- Int8 quantized serving ------------------------------------------------

// The int8 accuracy contract (quantize.h): served predictions through the
// quantized path agree with fp32 to <= 1% relative on the serving fixtures.
TEST(QuantizedServingTest, Int8PredictorAgreesWithFp32WithinOnePercent) {
  ServeWorld& w = World();
  w.predictor->PrepareQuantizedInference();
  for (const CompactAst& ast : w.workload) {
    w.predictor->EnsureHead(ast.num_leaves);
  }
  AstBatchView view;
  for (const CompactAst& ast : w.workload) {
    view.asts.push_back(&ast);
    view.device_ids.push_back(0);
  }
  std::vector<double> fp32 = w.predictor->PredictBatched(view);
  std::vector<double> int8 = w.predictor->PredictBatchedQuantized(view);
  ASSERT_EQ(int8.size(), fp32.size());
  for (size_t i = 0; i < fp32.size(); ++i) {
    ASSERT_GT(fp32[i], 0.0);
    EXPECT_GT(int8[i], 0.0);
    EXPECT_LE(std::abs(int8[i] - fp32[i]) / fp32[i], 0.01)
        << "request " << i << ": int8 " << int8[i] << " vs fp32 " << fp32[i];
  }
}

// Per-row activation scales keep the quantized path batch-size-invariant:
// a request served inside any batch is bitwise what it is served alone.
TEST(QuantizedServingTest, QuantizedBatchedMatchesQuantizedSingleBitwise) {
  ServeWorld& w = World();
  w.predictor->PrepareQuantizedInference();
  for (const CompactAst& ast : w.workload) {
    w.predictor->EnsureHead(ast.num_leaves);
  }
  AstBatchView view;
  for (const CompactAst& ast : w.workload) {
    view.asts.push_back(&ast);
    view.device_ids.push_back(0);
  }
  std::vector<double> batched = w.predictor->PredictBatchedQuantized(view);
  for (size_t i = 0; i < w.workload.size(); ++i) {
    AstBatchView single;
    single.asts.push_back(&w.workload[i]);
    single.device_ids.push_back(0);
    std::vector<double> alone = w.predictor->PredictBatchedQuantized(single);
    EXPECT_EQ(batched[i], alone[0]) << "request " << i;  // bitwise-identical
  }
}

TEST(QuantizedServingTest, Int8ServiceMatchesDirectQuantizedForward) {
  ServeWorld& w = World();
  ServeOptions opts;
  opts.num_workers = 2;
  opts.max_batch_size = 32;
  opts.batch_window_ms = 0.2;
  opts.enable_cache = false;
  opts.precision = Precision::kInt8;
  // The constructor runs PrepareQuantizedInference; missing quantized heads
  // are created by the workers under the write lock.
  PredictionService service(w.predictor.get(), opts);
  std::vector<std::future<double>> futures;
  for (const CompactAst& ast : w.workload) {
    futures.push_back(service.Submit(ast, 0));
  }
  for (size_t i = 0; i < w.workload.size(); ++i) {
    AstBatchView single;
    single.asts.push_back(&w.workload[i]);
    single.device_ids.push_back(0);
    const double expected = w.predictor->PredictBatchedQuantized(single)[0];
    EXPECT_EQ(futures[i].get(), expected) << "request " << i;  // bitwise (per-row scales)
  }
  ServerStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.precision, "int8");
  EXPECT_GT(stats.forward_passes, 0u);
  EXPECT_NE(stats.ToString().find("precision int8"), std::string::npos);
}

// Int8 packs snapshot the fp32 weights, so whatever changes the weights
// drops them: after ImportParams or training, quantized_ready() is false and
// an int8 forward fails its check until the model is prepared again. A
// DirectCostModel or PredictionService built on such a model re-prepares it.
TEST(QuantizedServingTest, WeightChangesDropInt8PacksUntilReprepared) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  ServeWorld& w = World();
  PredictorConfig cfg = w.predictor->config();
  cfg.num_layers = 2;
  cfg.epochs = 1;
  CdmppPredictor predictor(cfg);
  Rng rng(4);
  const SplitIndices split = SplitDataset(w.ds, {0}, {}, &rng);
  predictor.Pretrain(w.ds, split.train, /*valid=*/{});
  EXPECT_FALSE(predictor.quantized_ready());
  predictor.PrepareQuantizedInference();
  EXPECT_TRUE(predictor.quantized_ready());
  AstBatchView view;
  std::vector<CostQuery> queries;
  for (const CompactAst& ast : w.workload) {
    predictor.EnsureHead(ast.num_leaves);  // packed: the predictor is prepared
    view.asts.push_back(&ast);
    view.device_ids.push_back(0);
    queries.emplace_back(&ast, 0, ast.Hash());
  }
  const std::vector<double> prepared = predictor.PredictBatchedQuantized(view);

  // ImportParams drops the packs, even when it restores the same weights;
  // preparing again rebuilds the same packs.
  predictor.ImportParams(predictor.ExportParams());
  EXPECT_FALSE(predictor.quantized_ready());
  EXPECT_DEATH(predictor.PredictBatchedQuantized(view), "PrepareQuantizedInference");
  predictor.PrepareQuantizedInference();
  EXPECT_EQ(predictor.PredictBatchedQuantized(view), prepared);

  // Training drops them too; a DirectCostModel built afterwards re-prepares.
  predictor.Pretrain(w.ds, split.train, /*valid=*/{});
  EXPECT_FALSE(predictor.quantized_ready());
  {
    DirectCostModel direct(&predictor, Precision::kInt8);
    EXPECT_TRUE(predictor.quantized_ready());
    std::vector<double> scores;
    direct.ScoreBatch(queries, &scores);
    EXPECT_EQ(scores, predictor.PredictBatchedQuantized(view));
    EXPECT_NE(scores, prepared);  // the retrained weights were packed
  }

  // And so does a PredictionService.
  predictor.Pretrain(w.ds, split.train, /*valid=*/{});
  EXPECT_FALSE(predictor.quantized_ready());
  ServeOptions opts;
  opts.num_workers = 2;
  opts.enable_cache = false;
  opts.precision = Precision::kInt8;
  PredictionService service(&predictor, opts);
  EXPECT_TRUE(predictor.quantized_ready());
  std::vector<std::future<double>> futures;
  for (const CompactAst& ast : w.workload) {
    futures.push_back(service.Submit(ast, 0));
  }
  std::vector<double> served;
  for (std::future<double>& f : futures) {
    served.push_back(f.get());
  }
  EXPECT_EQ(served, predictor.PredictBatchedQuantized(view));
}

// ---- ServerStats unit tests ------------------------------------------------

TEST(ServerStatsTest, EmptyLatencyBufferSnapshotsToZeroPercentiles) {
  // Regression: snapshotting before any request completes must be
  // well-defined, not UB in the percentile reduction.
  ServerStats stats;
  ServerStatsSnapshot s = stats.Snapshot();
  EXPECT_EQ(s.requests, 0u);
  EXPECT_DOUBLE_EQ(s.p50_latency_ms, 0.0);
  EXPECT_DOUBLE_EQ(s.p99_latency_ms, 0.0);
  EXPECT_DOUBLE_EQ(s.qps, 0.0);
  // ToString on the empty snapshot must not crash either.
  EXPECT_FALSE(s.ToString().empty());
}

TEST(ServerStatsTest, SingleSampleIsItsOwnPercentiles) {
  ServerStats stats;
  stats.RecordLatencyMs(3.25);
  ServerStatsSnapshot s = stats.Snapshot();
  // The streaming histogram reports bucket midpoints: within the documented
  // ~0.8% relative error, not exact.
  EXPECT_NEAR(s.p50_latency_ms, 3.25, 3.25 * 0.02);
  EXPECT_NEAR(s.p99_latency_ms, 3.25, 3.25 * 0.02);
  EXPECT_DOUBLE_EQ(s.p50_latency_ms, s.p99_latency_ms);  // same bucket exactly
}

TEST(ServerStatsTest, PercentilesAreOrderedAndSnapshotIsRepeatable) {
  ServerStats stats;
  for (int i = 100; i >= 1; --i) {
    stats.RecordLatencyMs(static_cast<double>(i));
  }
  ServerStatsSnapshot s1 = stats.Snapshot();
  EXPECT_LE(s1.p50_latency_ms, s1.p99_latency_ms);
  EXPECT_LE(s1.p99_latency_ms, s1.p999_latency_ms);
  EXPECT_NEAR(s1.p50_latency_ms, 50.5, 50.5 * 0.02);
  // A second snapshot must see the same histogram (the reduction may not
  // consume or corrupt it).
  ServerStatsSnapshot s2 = stats.Snapshot();
  EXPECT_DOUBLE_EQ(s2.p50_latency_ms, s1.p50_latency_ms);
  EXPECT_DOUBLE_EQ(s2.p99_latency_ms, s1.p99_latency_ms);
}

TEST(ServerStatsTest, LateRunLatencySpikesMoveP99) {
  // Regression for the old bounded reservoir, which froze percentiles on the
  // first max_latency_samples requests: a latency regression arriving late in
  // a long run was invisible. The streaming histogram counts every request,
  // so late spikes move the tail percentiles.
  ServerStats stats;
  for (int i = 0; i < (1 << 15); ++i) {
    stats.RecordLatencyMs(1.0);
  }
  ServerStatsSnapshot before = stats.Snapshot();
  EXPECT_NEAR(before.p99_latency_ms, 1.0, 1.0 * 0.02);
  // A late 3% spike band at 500ms: with the old first-N freeze this never
  // registered; now p99 must land in it.
  for (int i = 0; i < 1200; ++i) {
    stats.RecordLatencyMs(500.0);
  }
  ServerStatsSnapshot after = stats.Snapshot();
  EXPECT_EQ(after.latency_hist.count, (1u << 15) + 1200u);
  EXPECT_NEAR(after.p99_latency_ms, 500.0, 500.0 * 0.02);
  EXPECT_NEAR(after.p50_latency_ms, 1.0, 1.0 * 0.02);
}

TEST(ServerStatsTest, ResetReopensTheMeasurementWindow) {
  ServerStats stats;
  stats.RecordRequest();
  stats.RecordLatencyMs(10.0);
  stats.RecordForwardPasses(1, 1);
  stats.Reset();
  ServerStatsSnapshot s = stats.Snapshot();
  EXPECT_EQ(s.requests, 0u);
  EXPECT_EQ(s.forward_passes, 0u);
  EXPECT_EQ(s.latency_hist.count, 0u);
  EXPECT_DOUBLE_EQ(s.p50_latency_ms, 0.0);
  stats.RecordRequest();
  stats.RecordLatencyMs(2.0);
  ServerStatsSnapshot s2 = stats.Snapshot();
  EXPECT_EQ(s2.requests, 1u);
  EXPECT_NEAR(s2.p50_latency_ms, 2.0, 2.0 * 0.02);
}

TEST(ServerStatsTest, SnapshotDeltaMeasuresTheInterval) {
  ServerStats stats;
  for (int i = 0; i < 100; ++i) {
    stats.RecordRequest();
    stats.RecordLatencyMs(1.0);
  }
  ServerStatsSnapshot first = stats.Snapshot();
  for (int i = 0; i < 50; ++i) {
    stats.RecordRequest();
    stats.RecordCacheHits();
    stats.RecordLatencyMs(100.0);
  }
  ServerStatsSnapshot second = stats.Snapshot();
  ServerStatsSnapshot delta = second.Delta(first);
  EXPECT_EQ(delta.requests, 50u);
  EXPECT_EQ(delta.cache_hits, 50u);
  EXPECT_EQ(delta.latency_hist.count, 50u);
  // Cumulative percentiles still see the early 1ms mass; the interval delta
  // must see only the 100ms window.
  EXPECT_NEAR(second.p50_latency_ms, 1.0, 1.0 * 0.02);
  EXPECT_NEAR(delta.p50_latency_ms, 100.0, 100.0 * 0.02);
  EXPECT_DOUBLE_EQ(delta.cache_hit_rate, 1.0);
  EXPECT_GT(delta.wall_seconds, 0.0);
  EXPECT_LE(delta.wall_seconds, second.wall_seconds);
}

TEST(ServerStatsTest, ToStringRendersTheLatencyHistogram) {
  ServerStats stats;
  stats.RecordLatencyMs(0.8);
  stats.RecordLatencyMs(1.6);
  const std::string text = stats.Snapshot().ToString();
  // Headline line plus per-octave histogram rows with counts and bars.
  EXPECT_NE(text.find("p99.9"), std::string::npos);
  EXPECT_NE(text.find('\n'), std::string::npos);
  EXPECT_NE(text.find('#'), std::string::npos);
  EXPECT_NE(text.find(")ms"), std::string::npos);
}

TEST(ServerStatsTest, SnapshotReportsDispatchedKernelIsa) {
  ServerStats stats;
  ServerStatsSnapshot s = stats.Snapshot();
  EXPECT_EQ(s.kernel_isa, KernelIsaName(ActiveKernelIsa()));
  EXPECT_NE(s.ToString().find("isa " + s.kernel_isa), std::string::npos);
}

}  // namespace
}  // namespace cdmpp
