// Adversarial concurrency stress for the serving data plane. Built for the
// ThreadSanitizer CI tier but registered in EVERY leg: without TSan it is a
// plain race-prone stress test whose value assertions (bitwise-stable served
// predictions under maximal interference) catch corruption the sanitizer
// tier proves impossible.
//
// One test drives, concurrently:
//   * several client threads hammering PredictionService::Submit (duplicate
//     keys included, so coalescing and the cache-hit fast path both fire),
//   * a recalibration thread re-preparing the int8 weight packs through
//     PredictionService::Recalibrate() — the exclusive-model-lock API;
//     calling predictor->PrepareQuantizedInference() directly here would be
//     a data race on the Linears' pack pointers against the workers'
//     lock-free forwards, which is exactly why the API exists,
//   * a stats thread cycling ServerStats::Snapshot / ResetStats / ToString
//     plus MetricsRegistry and TraceCollector dumps,
//   * a WorkspacePool churn thread leasing/returning global-pool arenas
//     (nested leases included), and
//   * 1-in-2 trace sampling, so ScopedTraceBinding/ScopedSpan/Emit run hot,
// all under a deliberately small 3-thread global ThreadPool so intra-request
// ParallelFor forking, lease traffic, and worker-level batching fight over
// the same workers instead of spreading out. It runs twice: with the default
// dispatch on arrival and with a short batch window.
//
// The pinned contract: every future resolves to the bitwise-exact value the
// active precision's direct forward computes, no matter how the interleaving
// falls — recalibration from unchanged parameters is bitwise invisible.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/predictor.h"
#include "src/nn/workspace.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/prediction_service.h"
#include "src/support/cpu_features.h"
#include "src/support/parallel_for.h"
#include "src/support/rng.h"
#include "src/tir/schedule.h"

namespace cdmpp {
namespace {

// Routes ThreadPool::Global() to a private pool for the enclosing scope.
struct ScopedGlobalPool {
  explicit ScopedGlobalPool(int threads) : pool(threads) {
    ThreadPool::SetGlobalForTesting(&pool);
  }
  ~ScopedGlobalPool() { ThreadPool::SetGlobalForTesting(nullptr); }
  ThreadPool pool;
};

// Forces 1-in-N trace sampling for the enclosing scope.
struct ScopedTraceSampling {
  explicit ScopedTraceSampling(int n) : prev(obs::TraceCollector::Global().sample_every()) {
    obs::TraceCollector::Global().SetSampleEvery(n);
  }
  ~ScopedTraceSampling() { obs::TraceCollector::Global().SetSampleEvery(prev); }
  int prev;
};

struct StressWorld {
  Dataset ds;
  std::unique_ptr<CdmppPredictor> predictor;
  std::vector<CompactAst> workload;
  std::vector<double> expected;  // per workload item, active-precision forward
};

// One tiny trained world shared by both tests (training dominates runtime).
StressWorld& World() {
  static StressWorld* world = [] {
    auto* w = new StressWorld();
    DatasetOptions opts;
    opts.device_ids = {0};
    opts.schedules_per_task = 2;
    opts.max_networks = 4;
    opts.seed = 23;
    w->ds = BuildDataset(opts);

    PredictorConfig cfg;
    cfg.d_model = 16;
    cfg.num_heads = 2;
    cfg.d_ff = 32;
    cfg.num_layers = 1;
    cfg.z_dim = 16;
    cfg.device_embed_dim = 8;
    cfg.device_hidden_dim = 16;
    cfg.decoder_hidden = {16};
    cfg.epochs = 1;
    cfg.seed = 7;
    w->predictor = std::make_unique<CdmppPredictor>(cfg);
    Rng rng(29);
    SplitIndices split = SplitDataset(w->ds, {0}, {}, &rng);
    w->predictor->Pretrain(w->ds, split.train, split.valid);

    Rng srng(31);
    for (const TaskInfo& info : w->ds.tasks) {
      for (int k = 0; k < 2; ++k) {
        w->workload.push_back(
            ExtractCompactAst(GenerateProgram(info.task, SampleSchedule(info.task, &srng))));
      }
    }
    // Expectations come from the data plane the service will actually use
    // (the active CDMPP_PRECISION, so this test is meaningful on every CI
    // matrix leg). Int8 packs are a deterministic function of the fp32
    // parameters: the service constructor's own PrepareQuantizedInference
    // and every later Recalibrate() rebuild bitwise-identical ones.
    const Precision mode = DefaultPrecision();
    if (mode != Precision::kFp32) {
      w->predictor->PrepareQuantizedInference();
    }
    for (const CompactAst& ast : w->workload) {
      w->predictor->EnsureHead(ast.num_leaves);
    }
    for (const CompactAst& ast : w->workload) {
      AstBatchView one;
      one.asts.push_back(&ast);
      one.device_ids.push_back(0);
      w->expected.push_back(mode != Precision::kFp32
                                ? w->predictor->PredictBatchedQuantized(one, nullptr, mode)[0]
                                : w->predictor->PredictBatched(one)[0]);
    }
    return w;
  }();
  return *world;
}

// Serial regression pin for the concurrent contract below: recalibrating
// from unchanged parameters must be bitwise invisible to served values.
// (If this drifts, the stress test's equality assertions become meaningless
// noise instead of a corruption detector.)
TEST(TsanStressTest, RecalibrateFromUnchangedParamsIsBitwiseInvisible) {
  StressWorld& w = World();
  ServeOptions opts;
  opts.num_workers = 1;
  opts.enable_cache = false;  // every Predict runs a real forward
  PredictionService service(w.predictor.get(), opts);
  std::vector<double> before;
  before.reserve(w.workload.size());
  for (const CompactAst& ast : w.workload) {
    before.push_back(service.Predict(ast, 0));
  }
  service.Recalibrate();
  for (size_t i = 0; i < w.workload.size(); ++i) {
    EXPECT_EQ(service.Predict(w.workload[i], 0), before[i]) << "request " << i;
    EXPECT_EQ(before[i], w.expected[i]) << "request " << i;
  }
}

// One stress run with the given batch window.
void StressServe(double batch_window_ms) {
  StressWorld& w = World();
  ScopedGlobalPool pool(3);      // small: forking + leases contend for real
  ScopedTraceSampling trace(2);  // every other request runs the trace plumbing

  ServeOptions opts;
  opts.num_workers = 3;
  opts.batch_window_ms = batch_window_ms;
  opts.cache_capacity = 64;  // small enough that churn forces LRU evictions
  opts.cache_shards = 4;
  PredictionService service(w.predictor.get(), opts);

  constexpr int kSubmitters = 3;
  constexpr int kSubmitsPerThread = 400;
  std::atomic<bool> done{false};
  std::atomic<int> value_mismatches{0};

  std::vector<std::thread> clients;
  clients.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(100 + t);
      std::vector<std::pair<size_t, std::future<double>>> pending;
      pending.reserve(kSubmitsPerThread);
      for (int i = 0; i < kSubmitsPerThread; ++i) {
        // Skewed index: low indices repeat often (coalescing + cache hits),
        // the tail keeps evicting entries from the small cache.
        const size_t idx = static_cast<size_t>(rng.Uniform(0.0, 1.0) * rng.Uniform(0.0, 1.0) *
                                               static_cast<double>(w.workload.size())) %
                           w.workload.size();
        pending.emplace_back(idx, service.Submit(w.workload[idx], 0));
        if (pending.size() >= 64) {
          for (auto& [j, fut] : pending) {
            if (fut.get() != w.expected[j]) {
              value_mismatches.fetch_add(1);
            }
          }
          pending.clear();
        }
      }
      for (auto& [j, fut] : pending) {
        if (fut.get() != w.expected[j]) {
          value_mismatches.fetch_add(1);
        }
      }
    });
  }

  std::thread recalibrator([&] {
    while (!done.load(std::memory_order_relaxed)) {
      service.Recalibrate();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::thread stats_reader([&] {
    int iter = 0;
    while (!done.load(std::memory_order_relaxed)) {
      ServerStatsSnapshot snap = service.Stats();
      (void)snap.ToString();
      if (++iter % 8 == 0) {
        service.ResetStats();  // racing Record* calls land in the new window
      }
      (void)obs::TraceCollector::Global().GetStats();
      (void)obs::MetricsRegistry::Global().DumpJson();
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  std::thread pool_churn([&] {
    while (!done.load(std::memory_order_relaxed)) {
      WorkspacePool::Lease outer = WorkspacePool::Global().Acquire();
      outer->NewMatrix(8, 8);
      {
        WorkspacePool::Lease nested = WorkspacePool::Global().Acquire();
        nested->NewMatrix(4, 4);
        nested->NewI16(32);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  for (std::thread& c : clients) {
    c.join();
  }
  done.store(true, std::memory_order_relaxed);
  recalibrator.join();
  stats_reader.join();
  pool_churn.join();

  EXPECT_EQ(value_mismatches.load(), 0)
      << "a served prediction deviated bitwise from the direct forward";
  // Stats were concurrently Reset, so only structural sanity is asserted.
  EXPECT_LE(service.cache().size(), opts.cache_capacity);
  service.Shutdown();
  ServerStatsSnapshot final_snap = service.Stats();
  EXPECT_LE(final_snap.cache_hits, final_snap.requests);
}

TEST(TsanStressTest, ConcurrentSubmitRecalibrateStatsTraceAndPoolChurn) {
  // Dispatch on arrival (the default) and a short batch window take different
  // paths through the worker loop; both run under the same interference.
  for (const double window_ms : {ServeOptions().batch_window_ms, 0.05}) {
    SCOPED_TRACE("batch_window_ms = " + std::to_string(window_ms));
    StressServe(window_ms);
  }
}

// Borrowed batches run their forwards on the calling client threads, not on
// the service's workers, so the shared model lock, head lookups, arena
// leases and cache inserts also race between clients. Two borrowed-batch
// clients (duplicate-heavy populations), two Submit clients and a
// recalibration thread run at once against an int8 service; every served
// value must equal the direct int8 forward bitwise, and every borrowed
// future must be resolved when its call returns.
TEST(TsanStressTest, ConcurrentBorrowedBatchesSubmitAndInt8Recalibrate) {
  StressWorld& w = World();
  ScopedGlobalPool pool(3);
  ScopedTraceSampling trace(2);

  // Int8 expectations whatever CDMPP_PRECISION says: the packs are a
  // deterministic function of the fp32 parameters, so the service's own
  // packing and every Recalibrate() reproduce these bits.
  w.predictor->PrepareQuantizedInference();
  std::vector<double> expected;
  for (const CompactAst& ast : w.workload) {
    AstBatchView one;
    one.asts.push_back(&ast);
    one.device_ids.push_back(0);
    expected.push_back(w.predictor->PredictBatchedQuantized(one, nullptr, Precision::kInt8)[0]);
  }

  ServeOptions opts;
  opts.num_workers = 2;
  opts.precision = Precision::kInt8;
  opts.cache_capacity = 64;  // small enough that churn forces LRU evictions
  opts.cache_shards = 4;
  PredictionService service(w.predictor.get(), opts);

  constexpr int kBorrowers = 2;
  constexpr int kSubmitters = 2;
  constexpr int kRounds = 40;
  constexpr size_t kPopulation = 24;
  std::atomic<bool> done{false};
  std::atomic<int> value_mismatches{0};
  std::atomic<int> unresolved{0};
  // Skewed index: low indices repeat often (coalescing + cache hits), the
  // tail keeps evicting entries from the small cache.
  auto pick = [&w](Rng* rng) {
    return static_cast<size_t>(rng->Uniform(0.0, 1.0) * rng->Uniform(0.0, 1.0) *
                               static_cast<double>(w.workload.size())) %
           w.workload.size();
  };

  std::vector<std::thread> clients;
  for (int t = 0; t < kBorrowers; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(200 + t);
      for (int round = 0; round < kRounds; ++round) {
        std::vector<size_t> idx;
        std::vector<const CompactAst*> asts;
        for (size_t i = 0; i < kPopulation; ++i) {
          idx.push_back(pick(&rng));
          asts.push_back(&w.workload[idx.back()]);
        }
        std::vector<std::future<double>> futures =
            service.SubmitBorrowedBatch(asts, std::vector<int>(asts.size(), 0));
        for (size_t i = 0; i < futures.size(); ++i) {
          if (futures[i].wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
            unresolved.fetch_add(1);
          }
          if (futures[i].get() != expected[idx[i]]) {
            value_mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (int t = 0; t < kSubmitters; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(300 + t);
      std::vector<std::pair<size_t, std::future<double>>> pending;
      for (int i = 0; i < kRounds * 8; ++i) {
        const size_t j = pick(&rng);
        pending.emplace_back(j, service.Submit(w.workload[j], 0));
      }
      for (auto& [j, fut] : pending) {
        if (fut.get() != expected[j]) {
          value_mismatches.fetch_add(1);
        }
      }
    });
  }
  std::thread recalibrator([&] {
    while (!done.load(std::memory_order_relaxed)) {
      service.Recalibrate();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (std::thread& c : clients) {
    c.join();
  }
  done.store(true, std::memory_order_relaxed);
  recalibrator.join();

  EXPECT_EQ(value_mismatches.load(), 0)
      << "a served prediction deviated bitwise from the direct int8 forward";
  EXPECT_EQ(unresolved.load(), 0) << "a borrowed future was unresolved on return";
  EXPECT_LE(service.cache().size(), opts.cache_capacity);
}

// The stealing scheduler under maximal interference: several concurrent
// top-level ParallelFor callers (mixed grains, one of them repeatedly
// throwing, every one running a nested ParallelForWithScratch inside its
// chunks) against one small shared pool. The pinned contracts:
//   * every caller's output is bitwise-identical to a plain serial loop —
//     the chunk partition is fixed at publish time, so neither stealing nor
//     the interleaving may change any value,
//   * every scratch lease returns (num_free == num_arenas afterwards), even
//     on the throwing caller's unwinding path,
//   * serial_contended does not move: contended top-level regions now fork
//     and compose instead of collapsing to inline serial.
TEST(TsanStressTest, ConcurrentTopLevelParallelForCallersComposeBitwise) {
  ScopedGlobalPool pool(4);
  WorkspacePool scratch_pool;  // private: lease accounting is exact

  constexpr int kCallers = 4;
  constexpr int kIters = 60;
  constexpr int64_t kN = 2048;
  const int64_t grains[kCallers] = {16, 48, 129, 512};  // mixed, non-dividing

  // Per-element functions with no partition-sensitive state: f writes out[],
  // g writes out2[] from inside the nested region.
  auto f = [](int caller, int64_t i) {
    const float x = 0.5f + static_cast<float>((i * 37 + caller * 11) % 101);
    return x * x + 3.0f * x + static_cast<float>(caller);
  };
  auto g = [](int caller, int64_t i) {
    return static_cast<float>((i * 13 + caller) % 257) * 0.25f;
  };

  // Serial references, computed before any concurrency starts.
  std::vector<std::vector<float>> want(kCallers), want2(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    want[c].resize(kN);
    want2[c].resize(kN);
    for (int64_t i = 0; i < kN; ++i) {
      want[c][static_cast<size_t>(i)] = f(c, i);
      want2[c][static_cast<size_t>(i)] = g(c, i);
    }
  }

  const uint64_t contended_before =
      obs::MetricsRegistry::Global().CounterValues()["parallel_for.serial_contended"];

  std::atomic<int> mismatches{0};
  std::atomic<int> thrower_caught{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers + 1);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      std::vector<float> out(kN), out2(kN);
      for (int iter = 0; iter < kIters; ++iter) {
        std::fill(out.begin(), out.end(), 0.0f);
        std::fill(out2.begin(), out2.end(), 0.0f);
        pool.pool.ParallelFor(0, kN, grains[c], [&](int64_t b, int64_t e) {
          for (int64_t i = b; i < e; ++i) {
            out[static_cast<size_t>(i)] = f(c, i);
          }
          // Nested region with scratch: runs inline on this executor (maybe
          // a stealing worker), leasing one arena per call. Writes stay in
          // this chunk's [b, e) slice, so concurrent chunks never overlap.
          pool.pool.ParallelForWithScratch(
              scratch_pool, b, e, 7, [&](Workspace* ws, int64_t nb, int64_t ne) {
                Matrix* tmp = ws->NewMatrix(4, 4);
                tmp->data()[0] = static_cast<float>(nb);  // arena really bumps
                for (int64_t i = nb; i < ne; ++i) {
                  out2[static_cast<size_t>(i)] = g(c, i);
                }
              });
        });
        if (out != want[c] || out2 != want2[c]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  // The thrower: top-level regions that fail mid-drain while everyone else
  // is stealing; the exception must come back to THIS caller every time and
  // scratch leased by its nested regions must return on unwind.
  callers.emplace_back([&] {
    for (int iter = 0; iter < kIters; ++iter) {
      try {
        pool.pool.ParallelFor(0, kN, 64, [&](int64_t b, int64_t e) {
          pool.pool.ParallelForWithScratch(scratch_pool, b, e, 33,
                                           [&](Workspace* ws, int64_t nb, int64_t) {
                                             ws->NewI16(16);
                                             if (nb >= kN / 2) {
                                               throw std::runtime_error("stress boom");
                                             }
                                           });
        });
      } catch (const std::runtime_error&) {
        thrower_caught.fetch_add(1);
      }
    }
  });
  for (std::thread& t : callers) {
    t.join();
  }

  EXPECT_EQ(mismatches.load(), 0)
      << "a concurrent ParallelFor caller deviated bitwise from the serial loop";
  EXPECT_EQ(thrower_caught.load(), kIters);
  EXPECT_EQ(scratch_pool.num_free(), scratch_pool.num_arenas())
      << "a scratch lease leaked across the concurrent/unwinding paths";
  const uint64_t contended_after =
      obs::MetricsRegistry::Global().CounterValues()["parallel_for.serial_contended"];
  EXPECT_EQ(contended_after, contended_before)
      << "a contended top-level region fell back to serial";
}

}  // namespace
}  // namespace cdmpp
