// Thread-parallel data-plane contract tests:
//
//   * WorkspacePool checkout/return semantics — exclusivity under concurrent
//     checkout, LIFO warm reuse, reset-on-checkout, exception-safe lease
//     return, nested leases under ParallelFor (the serving composition).
//   * ParallelForWithScratch — coverage, per-chunk private scratch,
//     deterministic chunk->lease assignment.
//   * Thread-count invariance — the serving contract that ForwardInference /
//     PredictBatched results are BITWISE identical for every
//     CDMPP_NUM_THREADS value (pools of 1, 2, 3, 4 and 8 threads), for fp32
//     and int8, under both kernel ISAs, and across batch splits and the
//     sharded forward's row shards (one parallel region per wave).
#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/predictor.h"
#include "src/nn/transformer.h"
#include "src/nn/workspace.h"
#include "src/obs/metrics.h"
#include "src/serve/prediction_service.h"
#include "src/support/cpu_features.h"
#include "src/support/parallel_for.h"
#include "src/tir/schedule.h"

namespace cdmpp {
namespace {

// Routes ThreadPool::Global() to a private pool of `threads` threads for the
// enclosing scope. The override is cleared before the pool is destroyed.
struct ScopedGlobalPool {
  explicit ScopedGlobalPool(int threads) : pool(threads) {
    ThreadPool::SetGlobalForTesting(&pool);
  }
  ~ScopedGlobalPool() { ThreadPool::SetGlobalForTesting(nullptr); }
  ThreadPool pool;
};

struct ScopedIsa {
  explicit ScopedIsa(KernelIsa isa) : prev(ActiveKernelIsa()), ok(SetKernelIsa(isa)) {}
  ~ScopedIsa() { SetKernelIsa(prev); }
  KernelIsa prev;
  bool ok;
};

// Runs `body` once per available ISA with that ISA dispatched.
template <typename Body>
void ForEachIsa(Body&& body) {
  for (KernelIsa isa : {KernelIsa::kScalar, KernelIsa::kAvx2}) {
    ScopedIsa scoped(isa);
    if (!scoped.ok) {
      continue;  // AVX2 not available on this host/build
    }
    SCOPED_TRACE(std::string("isa=") + KernelIsaName(isa));
    body();
  }
}

// ---- WorkspacePool ---------------------------------------------------------

TEST(WorkspacePoolTest, CheckoutHandsOutDistinctResetArenas) {
  WorkspacePool pool;
  Workspace* a = pool.Checkout();
  Workspace* b = pool.Checkout();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.num_arenas(), 2u);
  EXPECT_EQ(pool.num_free(), 0u);
  a->NewMatrix(4, 4);
  pool.Return(a);
  pool.Return(b);
  EXPECT_EQ(pool.num_free(), 2u);
  // LIFO: the most recently returned arena (b) is lent next; the arena that
  // had live slots comes back Reset() but with its capacity intact.
  EXPECT_EQ(pool.Checkout(), b);
  Workspace* a2 = pool.Checkout();
  EXPECT_EQ(a2, a);
  EXPECT_EQ(a2->live_slots(), 0u);
  EXPECT_EQ(a2->num_slots(), 1u);  // slot pooled across the lease boundary
  EXPECT_GE(a2->pooled_floats(), 16u);
  EXPECT_EQ(pool.num_arenas(), 2u);  // no growth on warm re-checkout
}

TEST(WorkspacePoolTest, ConcurrentCheckoutReturnNeverSharesAnArena) {
  WorkspacePool pool;
  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  std::mutex mu;
  std::set<Workspace*> held;
  std::atomic<bool> overlap{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        WorkspacePool::Lease lease = pool.Acquire();
        {
          std::lock_guard<std::mutex> lock(mu);
          if (!held.insert(lease.get()).second) {
            overlap.store(true);
          }
        }
        // Exercise the arena while held: shapes vary per thread so reuse
        // across threads would be visible as a torn write.
        Matrix* m = lease->NewMatrix(2 + t, 3 + (i % 5));
        m->Fill(static_cast<float>(t));
        EXPECT_EQ(m->At(0, 0), static_cast<float>(t));
        {
          std::lock_guard<std::mutex> lock(mu);
          held.erase(lease.get());
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_FALSE(overlap.load()) << "two threads held the same arena at once";
  EXPECT_LE(pool.num_arenas(), static_cast<size_t>(kThreads));
  EXPECT_EQ(pool.num_free(), pool.num_arenas());  // every lease returned
}

TEST(WorkspacePoolTest, ExceptionInChunkBodyReturnsEveryLease) {
  WorkspacePool pool;
  ThreadPool threads(4);
  EXPECT_THROW(
      threads.ParallelForWithScratch(pool, 0, 64, 4,
                                     [&](Workspace* scratch, int64_t b, int64_t) {
                                       scratch->NewMatrix(2, 2);
                                       if (b >= 32) {
                                         throw std::runtime_error("boom");
                                       }
                                     }),
      std::runtime_error);
  EXPECT_GT(pool.num_arenas(), 0u);
  EXPECT_EQ(pool.num_free(), pool.num_arenas())
      << "a lease leaked through the exception unwind";
}

TEST(WorkspacePoolTest, NestedLeasesUnderParallelForDoNotDeadlock) {
  // The serving composition: an outer region (worker-level) whose chunks hold
  // a lease while running a nested ParallelForWithScratch (intra-request).
  // The nested region runs inline and leases more arenas from the same pool;
  // grow-on-demand checkout means this can never block.
  WorkspacePool pool;
  ThreadPool threads(4);
  std::atomic<int64_t> sum{0};
  threads.ParallelFor(0, 16, 1, [&](int64_t ob, int64_t oe) {
    for (int64_t o = ob; o < oe; ++o) {
      WorkspacePool::Lease outer = pool.Acquire();
      outer->NewMatrix(4, 4);
      threads.ParallelForWithScratch(pool, 0, 8, 2,
                                     [&](Workspace* scratch, int64_t b, int64_t e) {
                                       scratch->NewMatrix(2, 2);
                                       sum.fetch_add(e - b);
                                     });
    }
  });
  EXPECT_EQ(sum.load(), 16 * 8);
  EXPECT_EQ(pool.num_free(), pool.num_arenas());
}

// ---- ParallelForWithScratch ------------------------------------------------

TEST(ParallelForWithScratchTest, CoversRangeOnceWithPrivatePerChunkScratch) {
  WorkspacePool pool;
  ThreadPool threads(4);
  constexpr int kN = 1000;
  constexpr int64_t kGrain = 37;
  std::vector<std::atomic<int>> touched(kN);
  for (auto& t : touched) {
    t.store(0);
  }
  std::mutex mu;
  std::set<Workspace*> scratch_by_chunk;
  int chunks = 0;
  threads.ParallelForWithScratch(pool, 0, kN, kGrain,
                                 [&](Workspace* scratch, int64_t b, int64_t e) {
                                   ASSERT_NE(scratch, nullptr);
                                   for (int64_t i = b; i < e; ++i) {
                                     touched[static_cast<size_t>(i)].fetch_add(1);
                                   }
                                   std::lock_guard<std::mutex> lock(mu);
                                   scratch_by_chunk.insert(scratch);
                                   ++chunks;
                                 });
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(touched[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
  // Chunk j always gets lease j: as many distinct arenas as chunks ran.
  EXPECT_EQ(scratch_by_chunk.size(), static_cast<size_t>(chunks));
  EXPECT_EQ(pool.num_free(), pool.num_arenas());
}

TEST(ParallelForWithScratchTest, InlineRegionsLeaseSingleScratch) {
  // A single-thread pool (and any nested call) is guaranteed to run inline
  // as one chunk — it must not check out leases that can never be used.
  WorkspacePool pool;
  ThreadPool serial(1);
  std::atomic<int64_t> covered{0};
  serial.ParallelForWithScratch(pool, 0, 1000, 10,
                                [&](Workspace* scratch, int64_t b, int64_t e) {
                                  ASSERT_NE(scratch, nullptr);
                                  covered.fetch_add(e - b);
                                });
  EXPECT_EQ(covered.load(), 1000);
  EXPECT_EQ(pool.num_arenas(), 1u);

  // Nested under an outer region: each inner call leases exactly one arena,
  // so the pool tops out at the number of concurrently running outer chunks.
  WorkspacePool nested_pool;
  ThreadPool threads(4);
  threads.ParallelFor(0, 16, 1, [&](int64_t ob, int64_t oe) {
    for (int64_t o = ob; o < oe; ++o) {
      threads.ParallelForWithScratch(nested_pool, 0, 100, 5,
                                     [&](Workspace*, int64_t, int64_t) {});
    }
  });
  EXPECT_LE(nested_pool.num_arenas(), 4u);
}

TEST(ParallelForWithScratchTest, RaisesGrainToCapTheLeaseTable) {
  WorkspacePool pool;
  ThreadPool threads(2);
  std::atomic<int64_t> covered{0};
  // A grain of 1 over a huge range must not check out one lease per element.
  threads.ParallelForWithScratch(pool, 0, 100000, 1,
                                 [&](Workspace*, int64_t b, int64_t e) {
                                   covered.fetch_add(e - b);
                                 });
  EXPECT_EQ(covered.load(), 100000);
  EXPECT_LE(pool.num_arenas(), static_cast<size_t>(ThreadPool::kMaxScratchChunks));
}

// ---- Thread-count invariance ----------------------------------------------

Matrix RandomMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->Normal(0.0, 1.0));
  }
  return m;
}

void ExpectBitwiseEqual(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what << ": outputs differ across thread counts";
}

TEST(ThreadInvarianceTest, EncoderForwardInferenceBitwiseAcrossThreadCounts) {
  Rng rng(71);
  // Big enough that the GEMM row panels actually fork (the flops
  // threshold), with a seq_len that exercises ragged kernel tails.
  TransformerEncoder enc(/*d_model=*/32, /*num_heads=*/4, /*d_ff=*/64, /*num_layers=*/2,
                         &rng);
  const int seq_len = 7;
  const int batch = 48;
  Matrix x = RandomMatrix(batch * seq_len, 32, &rng);
  ForEachIsa([&] {
    Matrix baseline;
    {
      ScopedGlobalPool serial(1);
      baseline = enc.ForwardInference(x, seq_len);
    }
    for (int threads : {2, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ScopedGlobalPool scoped(threads);
      for (int rep = 0; rep < 3; ++rep) {  // chunk->thread mapping varies; results must not
        Matrix y = enc.ForwardInference(x, seq_len);
        ExpectBitwiseEqual(baseline, y, "encoder forward");
      }
    }
  });
}

// One tiny trained predictor shared by the serving-contract tests.
struct TestWorld {
  Dataset ds;
  std::unique_ptr<CdmppPredictor> predictor;
  std::vector<CompactAst> workload;
};

TestWorld& World() {
  static TestWorld* world = [] {
    auto* w = new TestWorld();
    DatasetOptions opts;
    opts.device_ids = {0};
    opts.schedules_per_task = 2;
    opts.max_networks = 4;
    opts.seed = 41;
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
    cfg.seed = 9;
    w->predictor = std::make_unique<CdmppPredictor>(cfg);
    Rng rng(10);
    SplitIndices split = SplitDataset(w->ds, {0}, {}, &rng);
    w->predictor->Pretrain(w->ds, split.train, split.valid);

    Rng srng(11);
    for (const TaskInfo& info : w->ds.tasks) {
      for (int k = 0; k < 2; ++k) {
        w->workload.push_back(
            ExtractCompactAst(GenerateProgram(info.task, SampleSchedule(info.task, &srng))));
      }
    }
    w->predictor->PrepareQuantizedInference();
    for (const CompactAst& ast : w->workload) {
      w->predictor->EnsureQuantizedHead(ast.num_leaves);  // also ensures the fp32 head
    }
    return w;
  }();
  return *world;
}

AstBatchView ViewOf(const TestWorld& w) {
  AstBatchView view;
  for (const CompactAst& ast : w.workload) {
    view.asts.push_back(&ast);
    view.device_ids.push_back(0);
  }
  return view;
}

// The serving contract, acceptance-gated: PredictBatched output is bitwise
// identical across CDMPP_NUM_THREADS in {1, 2, 8} and across batch splits,
// for every precision mode (fp32, the pre-encoder int8-heads subset, and the
// full int8 encoder tier), under both ISAs.
TEST(ThreadInvarianceTest, PredictBatchedBitwiseAcrossThreadCountsFp32AndInt8) {
  TestWorld& w = World();
  AstBatchView view = ViewOf(w);
  for (Precision mode : {Precision::kFp32, Precision::kInt8Heads, Precision::kInt8}) {
    const bool quantized = mode != Precision::kFp32;
    SCOPED_TRACE(PrecisionName(mode));
    ForEachIsa([&] {
      auto predict_batched = [&](std::vector<double>* out) {
        Workspace ws;
        out->assign(view.size(), -1.0);
        if (quantized) {
          w.predictor->PredictBatchedQuantized(view, &ws, out->data(),
                                               /*num_forward_passes=*/nullptr, mode);
        } else {
          w.predictor->PredictBatched(view, &ws, out->data());
        }
      };
      std::vector<double> baseline;
      {
        ScopedGlobalPool serial(1);
        predict_batched(&baseline);
      }
      for (int threads : {2, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ScopedGlobalPool scoped(threads);
        std::vector<double> batched;
        for (int rep = 0; rep < 3; ++rep) {
          predict_batched(&batched);
          ASSERT_EQ(batched, baseline) << "thread count changed served predictions";
        }
        // Batch-split invariance under the same multi-thread pool: every AST
        // predicted through its own singleton view must match its row in the
        // full batched view bitwise.
        Workspace single_ws;
        for (size_t i = 0; i < w.workload.size(); ++i) {
          AstBatchView one;
          one.asts = {&w.workload[i]};
          one.device_ids = {0};
          double pred = -1.0;
          if (quantized) {
            w.predictor->PredictBatchedQuantized(one, &single_ws, &pred,
                                                 /*num_forward_passes=*/nullptr, mode);
          } else {
            w.predictor->PredictBatched(one, &single_ws, &pred);
          }
          EXPECT_EQ(baseline[i], pred) << "request " << i;  // bitwise
        }
      }
    });
  }
}

// A view whose leaf-count buckets hold `sizes[i]` rows each (bucket i uses
// the i-th distinct leaf count of the workload), cycling through that
// count's ASTs and three devices. Position order interleaves the buckets so
// that each shard's writes land on scattered `out` positions.
AstBatchView MixedView(const TestWorld& w, const std::vector<int>& sizes) {
  std::map<int, std::vector<const CompactAst*>> by_leaves;
  for (const CompactAst& ast : w.workload) {
    by_leaves[ast.num_leaves].push_back(&ast);
  }
  std::vector<const std::vector<const CompactAst*>*> buckets;
  for (const auto& [leaves, asts] : by_leaves) {
    buckets.push_back(&asts);
  }
  EXPECT_GE(buckets.size(), sizes.size()) << "workload has too few leaf counts";
  std::vector<int> left = sizes;
  AstBatchView view;
  for (bool any = true; any;) {
    any = false;
    for (size_t i = 0; i < sizes.size() && i < buckets.size(); ++i) {
      if (left[i] > 0) {
        const std::vector<const CompactAst*>& asts = *buckets[i];
        const int k = sizes[i] - left[i]--;
        view.asts.push_back(asts[static_cast<size_t>(k) % asts.size()]);
        view.device_ids.push_back(static_cast<int>(view.size()) % 3);
        any = true;
      }
    }
  }
  return view;
}

// Waves of a view whose buckets hold `sizes` rows, given in ascending leaf
// count: the forward packs consecutive plan batches (buckets chunked to
// batch_size), largest leaf count first, into waves of at most batch_size
// rows.
int64_t NumWaves(const std::vector<int>& sizes, int batch_size) {
  std::vector<int> batches;
  for (int n : sizes) {
    for (int r = n; r > 0; r -= batch_size) {
      batches.push_back(std::min(r, batch_size));
    }
  }
  int64_t waves = 0;
  int rows = batch_size;
  for (auto it = batches.rbegin(); it != batches.rend(); ++it) {
    if (rows + *it > batch_size) {
      ++waves;
      rows = 0;
    }
    rows += *it;
  }
  return waves;
}

AstBatchView RowOf(const AstBatchView& view, size_t i) {
  AstBatchView one;
  one.asts.push_back(view.asts[i]);
  one.device_ids.push_back(view.device_ids[i]);
  return one;
}

void PredictMode(const CdmppPredictor& p, const AstBatchView& view, Precision mode,
                 Workspace* ws, double* out) {
  if (mode == Precision::kFp32) {
    p.PredictBatched(view, ws, out);
  } else {
    p.PredictBatchedQuantized(view, ws, out, /*num_forward_passes=*/nullptr, mode);
  }
}

// The sharded forward's contract: for every pool size, every precision, and
// ragged buckets around the shard count g (1, g-1, g, g+1 and batch_size+1
// rows over five leaf counts, so waves mix buckets and buckets span waves),
// PredictBatched equals size-1 forwards bitwise, forks at most once per
// wave, and a 1-row view never forks.
TEST(ShardedForwardTest, BitwiseEqualToSingleRowForwardsForEveryPoolSize) {
  TestWorld& w = World();
  const int batch_size = w.predictor->config().batch_size;
  const obs::Counter& forked =
      obs::MetricsRegistry::Global().GetCounter("parallel_for.forked");
  ForEachIsa([&] {
    for (Precision mode : {Precision::kFp32, Precision::kInt8Heads, Precision::kInt8}) {
      SCOPED_TRACE(PrecisionName(mode));
      for (int g : {1, 2, 3, 4, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(g));
        const std::vector<int> sizes = {1, g - 1, g, g + 1, batch_size + 1};
        const AstBatchView view = MixedView(w, sizes);
        std::vector<double> expected(view.size(), -1.0);
        {
          ScopedGlobalPool serial(1);
          Workspace ws;
          for (size_t i = 0; i < view.size(); ++i) {
            PredictMode(*w.predictor, RowOf(view, i), mode, &ws, &expected[i]);
          }
        }
        ScopedGlobalPool scoped(g);
        Workspace ws;
        std::vector<double> batched;
        for (int rep = 0; rep < 2; ++rep) {
          batched.assign(view.size(), -1.0);
          const uint64_t before = forked.Value();
          PredictMode(*w.predictor, view, mode, &ws, batched.data());
          const uint64_t forks = forked.Value() - before;
          EXPECT_LE(forks, static_cast<uint64_t>(NumWaves(sizes, batch_size)));
          if (g > 1) {
            EXPECT_GT(forks, 0u) << "no wave ran as a parallel region";
          }
          ASSERT_EQ(batched, expected) << "sharding changed a prediction";
        }
        const AstBatchView one = RowOf(view, view.size() - 1);
        double single = -1.0;
        const uint64_t before = forked.Value();
        PredictMode(*w.predictor, one, mode, &ws, &single);
        EXPECT_EQ(forked.Value() - before, 0u) << "a 1-row view forked";
        EXPECT_EQ(single, expected.back());
      }
    }
  });
}

// Two callers sharing the predictor and the pool: their waves' regions
// compose, and neither result moves by a bit.
TEST(ShardedForwardTest, ConcurrentCallersStayBitwiseEqual) {
  TestWorld& w = World();
  const AstBatchView view =
      MixedView(w, {3, 7, 1, 12, w.predictor->config().batch_size + 5});
  std::vector<double> expected(view.size(), -1.0);
  {
    ScopedGlobalPool serial(1);
    Workspace ws;
    w.predictor->PredictBatched(view, &ws, expected.data());
  }
  ScopedGlobalPool scoped(4);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 2; ++c) {
    callers.emplace_back([&] {
      Workspace ws;
      std::vector<double> out(view.size());
      for (int rep = 0; rep < 20; ++rep) {
        w.predictor->PredictBatched(view, &ws, out.data());
        if (out != expected) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : callers) {
    t.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ThreadInvarianceTest, ServiceUnderIntraRequestThreadsMatchesDirectForward) {
  // Worker-level batching and intra-request parallelism composed end to end:
  // a 2-worker service on a multi-thread pool must neither deadlock (nested
  // pool leases inside the workers' forwards) nor change a single bit of the
  // served predictions.
  TestWorld& w = World();
  AstBatchView view = ViewOf(w);
  std::vector<double> expected(view.size(), -1.0);
  {
    ScopedGlobalPool serial(1);
    Workspace ws;
    w.predictor->PredictBatched(view, &ws, expected.data());
  }
  ScopedGlobalPool scoped(4);
  ServeOptions opts;
  opts.num_workers = 2;
  opts.enable_cache = false;
  opts.precision = Precision::kFp32;
  PredictionService service(w.predictor.get(), opts);
  std::vector<std::future<double>> futures;
  futures.reserve(w.workload.size());
  for (const CompactAst& ast : w.workload) {
    futures.push_back(service.Submit(ast, 0));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(), expected[i]) << "request " << i;  // bitwise
  }
}

}  // namespace
}  // namespace cdmpp
