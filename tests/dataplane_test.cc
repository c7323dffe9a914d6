// Data-plane allocation tests: a counting global allocator asserts that the
// steady-state inference hot path — layer ForwardInference over a Workspace
// arena, and the full CdmppPredictor::PredictBatched — performs ZERO heap
// allocations once warm. Plus bitwise equivalence of the arena path with the
// allocating convenience path.
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/predictor.h"
#include "src/nn/workspace.h"
#include "src/obs/metrics.h"
#include "src/support/parallel_for.h"
#include "src/tir/schedule.h"

// ---- Counting allocator ----------------------------------------------------
//
// Thread-local counter of operator-new calls on this thread. Trivially
// initialized (static zero-init), so it is safe to touch before thread-local
// dynamic initialization runs. Worker-pool threads count into their own
// counters; the assertions below only examine the calling thread, which is
// the thread the Workspace/BatchPlan reuse contract applies to.
static thread_local long g_thread_allocs = 0;
// Every thread's operator-new calls, for the sharded forward whose shards
// run on pool workers.
static std::atomic<long> g_all_allocs{0};

static void* CountedAlloc(std::size_t size) {
  ++g_thread_allocs;
  g_all_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

// These replacements pair consistently: operator new hands out malloc-backed
// memory, so operator delete must free() it. GCC's -Wmismatched-new-delete
// heuristic inlines CountedAlloc, sees new/free at call sites, and cannot
// tell that these definitions ARE the matching pair — suppress it here only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace cdmpp {
namespace {

// One tiny trained predictor shared by the tests (training dominates).
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
    opts.seed = 31;
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
    cfg.seed = 5;
    w->predictor = std::make_unique<CdmppPredictor>(cfg);
    Rng rng(6);
    SplitIndices split = SplitDataset(w->ds, {0}, {}, &rng);
    w->predictor->Pretrain(w->ds, split.train, split.valid);

    Rng srng(7);
    for (const TaskInfo& info : w->ds.tasks) {
      for (int k = 0; k < 2; ++k) {
        w->workload.push_back(
            ExtractCompactAst(GenerateProgram(info.task, SampleSchedule(info.task, &srng))));
      }
    }
    for (const CompactAst& ast : w->workload) {
      w->predictor->EnsureHead(ast.num_leaves);
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

TEST(WorkspaceTest, SlotsAndAddressesAreStableAcrossReset) {
  Workspace ws;
  Matrix* a = ws.NewMatrix(8, 16);
  Matrix* b = ws.NewMatrix(3, 5);
  EXPECT_EQ(ws.num_slots(), 2u);
  EXPECT_EQ(ws.live_slots(), 2u);
  ws.Reset();
  EXPECT_EQ(ws.live_slots(), 0u);
  // Same slots handed back, capacity retained, shapes rewritable.
  Matrix* a2 = ws.NewMatrix(4, 4);
  Matrix* b2 = ws.NewMatrix(3, 7);
  EXPECT_EQ(a2, a);
  EXPECT_EQ(b2, b);
  EXPECT_EQ(ws.num_slots(), 2u);
  EXPECT_EQ(a2->rows(), 4);
  EXPECT_EQ(a2->cols(), 4);
  EXPECT_GE(ws.pooled_floats(), 8u * 16u);
}

TEST(WorkspaceTest, WarmNewMatrixDoesNotAllocate) {
  Workspace ws;
  ws.NewMatrix(32, 64);
  ws.NewMatrix(16, 16);
  ws.Reset();
  const long before = g_thread_allocs;
  Matrix* a = ws.NewMatrix(32, 64);
  Matrix* b = ws.NewMatrix(16, 16);
  const long delta = g_thread_allocs - before;
  EXPECT_EQ(delta, 0);
  EXPECT_NE(a, nullptr);
  EXPECT_NE(b, nullptr);
}

TEST(DataPlaneAllocTest, LayerArenaOverloadsMatchAllocatingOverloads) {
  Rng rng(12);
  Relu relu;
  LayerNorm ln(16);
  Matrix x(9, 16);
  for (size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(rng.Normal(0.0, 2.0));
  }
  Workspace ws;
  const Matrix* relu_ws = relu.ForwardInference(x, &ws);
  Matrix relu_alloc = relu.ForwardInference(x);
  const Matrix* ln_ws = ln.ForwardInference(x, &ws);
  Matrix ln_alloc = ln.ForwardInference(x);
  ASSERT_EQ(relu_ws->size(), relu_alloc.size());
  ASSERT_EQ(ln_ws->size(), ln_alloc.size());
  for (size_t i = 0; i < relu_alloc.size(); ++i) {
    EXPECT_EQ(relu_ws->data()[i], relu_alloc.data()[i]);  // bitwise
    EXPECT_EQ(ln_ws->data()[i], ln_alloc.data()[i]);
  }
}

TEST(DataPlaneAllocTest, EncoderForwardInferenceIsAllocationFreeWhenWarm) {
  Rng rng(11);
  TransformerEncoder enc(/*d_model=*/16, /*num_heads=*/2, /*d_ff=*/32, /*num_layers=*/2,
                         &rng);
  Matrix x(6 * 4, 16);  // 4 samples x seq_len 6
  for (size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(rng.Normal(0.0, 1.0));
  }
  Workspace ws;
  ws.Reset();
  enc.ForwardInference(x, 6, &ws);  // warm the arena
  ws.Reset();
  const long before = g_thread_allocs;
  Matrix* y = enc.ForwardInference(x, 6, &ws);
  const long delta = g_thread_allocs - before;
  EXPECT_EQ(delta, 0) << "encoder inference must not touch the heap when warm";
  ASSERT_NE(y, nullptr);
  EXPECT_EQ(y->rows(), 24);
  EXPECT_EQ(y->cols(), 16);
}

TEST(DataPlaneAllocTest, PredictBatchedSteadyStateIsAllocationFree) {
  TestWorld& w = World();
  AstBatchView view = ViewOf(w);
  Workspace ws;
  std::vector<double> out(view.size(), 0.0);
  // Two warm-up passes: the first grows every arena/plan buffer, the second
  // proves the shapes stabilized.
  w.predictor->PredictBatched(view, &ws, out.data());
  w.predictor->PredictBatched(view, &ws, out.data());
  const long before = g_thread_allocs;
  uint64_t passes = 0;
  w.predictor->PredictBatched(view, &ws, out.data(), &passes);
  const long delta = g_thread_allocs - before;
  EXPECT_EQ(delta, 0) << "steady-state PredictBatched must be allocation-free per request";
  EXPECT_GE(passes, 1u);
}

TEST(DataPlaneAllocTest, ShardedPredictBatchedIsAllocationFreeOnEveryThreadWhenWarm) {
  // The same contract when waves run as parallel regions: the caller's plan
  // and shard table, the leased shard arenas and the pool's region
  // bookkeeping are all warm after two passes, so no thread allocates.
  TestWorld& w = World();
  AstBatchView view = ViewOf(w);
  for (int threads : {2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    ThreadPool::SetGlobalForTesting(&pool);
    Workspace ws;
    std::vector<double> out(view.size(), 0.0);
    w.predictor->PredictBatched(view, &ws, out.data());
    w.predictor->PredictBatched(view, &ws, out.data());
    const obs::Counter& forked =
        obs::MetricsRegistry::Global().GetCounter("parallel_for.forked");
    const uint64_t forks_before = forked.Value();
    const long before = g_all_allocs.load();
    w.predictor->PredictBatched(view, &ws, out.data());
    const long delta = g_all_allocs.load() - before;
    const uint64_t forks = forked.Value() - forks_before;
    ThreadPool::SetGlobalForTesting(nullptr);
    EXPECT_EQ(delta, 0) << "a warm sharded PredictBatched touched the heap";
    EXPECT_GT(forks, 0u) << "no wave ran as a parallel region";
  }
}

TEST(DataPlaneEquivalenceTest, EmptyViewPredictsNothing) {
  // Regression: an empty view's vector overload passes data() == nullptr;
  // this must return an empty result, not trip the null-output check.
  TestWorld& w = World();
  AstBatchView empty;
  uint64_t passes = 123;
  std::vector<double> out = w.predictor->PredictBatched(empty, &passes);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(passes, 0u);
}

TEST(DataPlaneEquivalenceTest, BatchedViewMatchesSingletonViewsBitwise) {
  // The kernels' batch-size-invariance contract surfaced at the predictor
  // level: predicting a full multi-bucket view in one call must be bitwise
  // identical to predicting each AST through its own single-element view
  // with a different arena. (The vector PredictBatched overload delegates to
  // the arena overload, so comparing those two would be a tautology — this
  // compares different batch compositions instead.)
  TestWorld& w = World();
  AstBatchView view = ViewOf(w);
  Workspace batch_ws;
  std::vector<double> batched(view.size(), -1.0);
  w.predictor->PredictBatched(view, &batch_ws, batched.data());

  Workspace single_ws;
  for (size_t i = 0; i < w.workload.size(); ++i) {
    AstBatchView one;
    one.asts = {&w.workload[i]};
    one.device_ids = {0};
    double pred = -1.0;
    w.predictor->PredictBatched(one, &single_ws, &pred);
    EXPECT_EQ(batched[i], pred) << "request " << i;  // bitwise
    EXPECT_GT(pred, 0.0);
    EXPECT_TRUE(std::isfinite(pred));
  }
}

}  // namespace
}  // namespace cdmpp
