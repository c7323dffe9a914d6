#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/autotuner.h"
#include "src/dataset/dataset.h"
#include "src/dataset/model_zoo.h"
#include "src/search/cost_model_client.h"
#include "src/search/sa_search.h"
#include "src/search/schedule_search.h"
#include "src/serve/prediction_service.h"
#include "src/support/fnv_hash.h"
#include "src/support/parallel_for.h"

namespace cdmpp {
namespace {

Task SearchTask() {
  Task t;
  t.kind = OpKind::kDense;
  t.dims = {256, 512, 1024};
  t.name = "search_mm";
  return t;
}

TEST(SearchTest, BestLatencyNonIncreasing) {
  SearchOptions opts;
  opts.rounds = 10;
  opts.population = 12;
  opts.measured_per_round = 3;
  // Oracle cost model = the simulator itself.
  auto oracle = [](const CompactAst&, int) { return 0.0; };
  (void)oracle;
  const DeviceSpec& dev = DeviceByName("T4");
  SearchCurve curve = EvolutionarySearch(
      SearchTask(), dev,
      [&](const CompactAst& ast, int) {
        // A weak heuristic cost model: prefer vectorized/parallel programs.
        double score = 1.0;
        for (const ComputationVector& cv : ast.leaves) {
          score -= 0.1 * cv[19] + 0.1 * cv[22];
        }
        return score;
      },
      opts);
  ASSERT_EQ(curve.best_after_round.size(), 10u);
  for (size_t i = 1; i < curve.best_after_round.size(); ++i) {
    EXPECT_LE(curve.best_after_round[i], curve.best_after_round[i - 1] + 1e-12);
  }
  EXPECT_EQ(curve.total_measurements, 30);
  EXPECT_GT(curve.final_best, 0.0);
}

TEST(SearchTest, OracleCostModelBeatsAntiOracle) {
  // With the simulator as the cost model, search must find schedules at
  // least as good as an adversarial (inverted) cost model, measuring the
  // same number of candidates.
  SearchOptions opts;
  opts.rounds = 15;
  opts.population = 16;
  opts.measured_per_round = 2;
  const DeviceSpec& dev = DeviceByName("T4");
  Task task = SearchTask();

  auto oracle = [&](const CompactAst&, int) { return 0.0; };
  (void)oracle;
  SearchCurve good = EvolutionarySearch(
      task, dev,
      [&](const CompactAst& ast, int) {
        (void)ast;
        return 0.0;  // replaced below
      },
      opts);
  // Proper oracle: regenerate the latency via structural features is not
  // possible from the AST alone in this lambda, so approximate the oracle by
  // a monotone proxy of the simulator: fewer expected seconds ~ more
  // parallel/vectorized and cache-friendly tiles. Instead, compare the
  // simulator-guided random search against anti-guided search:
  SearchCurve anti = EvolutionarySearch(
      task, dev,
      [&](const CompactAst& ast, int) {
        double score = 0.0;
        for (const ComputationVector& cv : ast.leaves) {
          score += cv[19] + cv[22];  // prefers NOT annotated (higher = worse rank)
        }
        return score;
      },
      opts);
  SearchCurve pro = EvolutionarySearch(
      task, dev,
      [&](const CompactAst& ast, int) {
        double score = 0.0;
        for (const ComputationVector& cv : ast.leaves) {
          score -= cv[19] + cv[22];
        }
        return score;
      },
      opts);
  (void)good;
  EXPECT_LE(pro.final_best, anti.final_best * 1.05);
}

TEST(SearchTest, RandomSearchAlsoImproves) {
  SearchOptions opts;
  opts.rounds = 12;
  opts.measured_per_round = 4;
  SearchCurve curve = RandomSearch(SearchTask(), DeviceByName("V100"), opts);
  EXPECT_EQ(curve.total_measurements, 48);
  EXPECT_LE(curve.best_after_round.back(), curve.best_after_round.front());
}

// Three zoo tasks of different kinds, picked at fixed positions of the zoo's
// op list: a ResNet conv2d, a BERT elementwise op and a BERT dense.
std::vector<Task> GoldenTasks() {
  std::vector<Task> all;
  for (const NetworkDef& net : BuildModelZoo()) {
    for (const NetworkOp& op : net.ops) {
      all.push_back(op.task);
    }
  }
  return {all[0], all[all.size() / 3], all[2 * all.size() / 3]};
}

// Routes ThreadPool::Global() to a private pool for one scope.
struct ScopedPool {
  explicit ScopedPool(int threads) : pool(threads) { ThreadPool::SetGlobalForTesting(&pool); }
  ~ScopedPool() { ThreadPool::SetGlobalForTesting(nullptr); }
  ThreadPool pool;
};

uint64_t MixCurve(uint64_t h, const SearchCurve& c) {
  h = FnvMix(h, c.best_after_round.size());
  for (double best : c.best_after_round) {
    h = FnvMixDouble(h, best);
  }
  h = FnvMixDouble(h, c.final_best);
  h = FnvMix(h, c.best_ast_hash);
  h = FnvMix(h, c.best_schedule.primitives.size());
  for (const SchedulePrimitive& p : c.best_schedule.primitives) {
    h = FnvMix(h, static_cast<uint64_t>(p.kind));
    h = FnvMix(h, static_cast<uint64_t>(static_cast<int64_t>(p.loop_index)));
    h = FnvMix(h, static_cast<uint64_t>(static_cast<int64_t>(p.factor)));
  }
  h = FnvMix(h, static_cast<uint64_t>(c.total_candidates));
  h = FnvMix(h, static_cast<uint64_t>(c.total_measurements));
  return h;
}

// One FNV-1a over an evolutionary and an annealing search on each golden
// task: every AST the cost model was asked to score, in query order, and
// every deterministic field of each curve. The cost model is a heuristic on
// the AST, so no kernel code runs and one value holds under every kernel ISA.
uint64_t SearchFingerprint() {
  uint64_t h = kFnvOffset;
  FnCostModel recorder([&h](const CompactAst& ast, int device_id) {
    h = FnvMix(h, ast.Hash());
    h = FnvMix(h, static_cast<uint64_t>(device_id));
    double score = 1.0 + 1e-3 * ast.num_nodes;
    for (const ComputationVector& cv : ast.leaves) {
      score -= 0.1 * cv[19] + 0.1 * cv[22];
    }
    return score;
  });
  const DeviceSpec& dev = DeviceByName("T4");
  SearchOptions evo;
  evo.rounds = 6;
  evo.population = 16;
  evo.measured_per_round = 3;
  SaOptions sa;
  sa.sweeps = 8;
  sa.chains = 8;
  sa.measured_per_sweep = 2;
  uint64_t seed = 41;
  for (const Task& task : GoldenTasks()) {
    evo.seed = seed++;
    h = MixCurve(h, EvolutionarySearch(task, dev, &recorder, evo));
    sa.seed = seed++;
    h = MixCurve(h, SimulatedAnnealingSearch(task, dev, &recorder, sa));
  }
  return h;
}

TEST(SearchTest, CurvesMatchGoldenFingerprint) {
  EXPECT_EQ(SearchFingerprint(), 0x60937d627bc4bcb6ull);
  for (int threads : {1, 2, 4}) {
    ScopedPool pool(threads);
    EXPECT_EQ(SearchFingerprint(), 0x60937d627bc4bcb6ull) << threads << " pool threads";
  }
}

// Scores with the golden fingerprint's heuristic and counts the queries whose
// ast_hash is not their AST's Hash() (the CostQuery contract).
class HashCheckingClient : public CostModelClient {
 public:
  size_t checked = 0;
  size_t stale = 0;

 protected:
  void ScoreBatchImpl(const std::vector<CostQuery>& queries,
                      std::vector<double>* scores) override {
    for (size_t i = 0; i < queries.size(); ++i) {
      const CompactAst& ast = *queries[i].ast;
      ++checked;
      stale += queries[i].ast_hash != ast.Hash() ? 1 : 0;
      double score = 1.0 + 1e-3 * ast.num_nodes;
      for (const ComputationVector& cv : ast.leaves) {
        score -= 0.1 * cv[19] + 0.1 * cv[22];
      }
      (*scores)[i] = score;
    }
    stats_.submitted += queries.size();
  }
};

// Both drivers hash each candidate inside the extraction fork: every query
// they issue carries its AST's hash, and each curve's best_ast_hash (read
// from the fork's hashes; SA keeps its chain hashes in step with accepted
// proposals) is the hash of its best schedule's AST, at every pool size.
TEST(SearchTest, QueriesCarryTheirAstHash) {
  const DeviceSpec& dev = DeviceByName("T4");
  SearchOptions evo;
  evo.rounds = 6;
  evo.population = 16;
  evo.measured_per_round = 3;
  SaOptions sa;
  sa.sweeps = 8;
  sa.chains = 8;
  sa.measured_per_sweep = 2;
  auto best_hash = [](const Task& task, const SearchCurve& curve) {
    return ExtractCompactAst(GenerateProgram(task, curve.best_schedule)).Hash();
  };
  for (int threads : {1, 2, 4}) {
    ScopedPool pool(threads);
    HashCheckingClient client;
    uint64_t seed = 41;
    for (const Task& task : GoldenTasks()) {
      evo.seed = seed++;
      const SearchCurve evo_curve = EvolutionarySearch(task, dev, &client, evo);
      EXPECT_EQ(evo_curve.best_ast_hash, best_hash(task, evo_curve)) << threads;
      sa.seed = seed++;
      const SearchCurve sa_curve = SimulatedAnnealingSearch(task, dev, &client, sa);
      EXPECT_EQ(sa_curve.best_ast_hash, best_hash(task, sa_curve)) << threads;
    }
    EXPECT_EQ(client.checked, 3u * (6 * 16 + 8 + 8 * 8)) << threads;
    EXPECT_EQ(client.stale, 0u) << threads << " pool threads";
  }
}

// ---- Client-seam tests against a trained predictor -------------------------

// One tiny trained world shared by the client/parity tests (training dominates
// the suite's runtime, so it runs once).
struct SearchWorld {
  Dataset ds;
  std::unique_ptr<CdmppPredictor> predictor;
  std::vector<CompactAst> workload;  // distinct free-standing ASTs
  Task search_task;
};

SearchWorld& World() {
  static SearchWorld* world = [] {
    auto* w = new SearchWorld();
    DatasetOptions opts;
    opts.device_ids = {0};
    opts.schedules_per_task = 2;
    opts.max_networks = 5;
    opts.seed = 11;
    w->ds = BuildDataset(opts);

    PredictorConfig cfg;
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

    // Fresh schedules the model never trained on, spread over several tasks.
    Rng srng(9);
    for (const TaskInfo& info : w->ds.tasks) {
      for (int k = 0; k < 2; ++k) {
        w->workload.push_back(
            ExtractCompactAst(GenerateProgram(info.task, SampleSchedule(info.task, &srng))));
      }
    }
    // Materialize every head (int8-packed in int8 mode) now so neither
    // client's lazy head creation can depend on which side runs first.
    if (DefaultPrecision() != Precision::kFp32) {
      w->predictor->PrepareQuantizedInference();
    }
    for (const CompactAst& ast : w->workload) {
      w->predictor->EnsureHead(ast.num_leaves);
    }
    w->search_task = w->ds.tasks.front().task;
    return w;
  }();
  return *world;
}

ServeOptions TuningServeOptions() {
  ServeOptions opts;
  opts.num_workers = 2;
  opts.max_batch_size = 64;
  opts.enable_cache = true;
  return opts;
}

// The seam's core contract: for identical queries, the serve-backed client
// returns bitwise what the direct-serial baseline computes — and in fp32 mode
// both equal the predictor's own single-AST entry point.
TEST(CostClientTest, ServeScoresBitwiseEqualDirect) {
  SearchWorld& w = World();
  std::vector<CostQuery> queries;
  for (const CompactAst& ast : w.workload) {
    queries.emplace_back(&ast, 0, ast.Hash());
  }

  DirectCostModel direct(w.predictor.get());
  std::vector<double> direct_scores;
  direct.ScoreBatch(queries, &direct_scores);

  PredictionService service(w.predictor.get(), TuningServeOptions());
  ServeCostModel serve(&service);
  std::vector<double> serve_scores;
  serve.ScoreBatch(queries, &serve_scores);

  ASSERT_EQ(direct_scores.size(), w.workload.size());
  ASSERT_EQ(serve_scores.size(), w.workload.size());
  for (size_t i = 0; i < w.workload.size(); ++i) {
    EXPECT_EQ(serve_scores[i], direct_scores[i]) << "query " << i;  // bitwise
    if (DefaultPrecision() == Precision::kFp32) {
      EXPECT_EQ(direct_scores[i], w.predictor->PredictAst(w.workload[i], 0))
          << "query " << i;
    }
  }
  EXPECT_EQ(direct.stats().queries, w.workload.size());
  EXPECT_EQ(serve.stats().queries, w.workload.size());
}

// Batch-local duplicates are answered from one submission, and re-visited
// candidates across batches are answered by the service's cache, not the
// forward pass — with bitwise-identical values either way.
TEST(CostClientTest, DedupDrivesCacheHits) {
  SearchWorld& w = World();
  // Every workload AST three times: two of each are batch-local duplicates.
  std::vector<CostQuery> queries;
  for (int rep = 0; rep < 3; ++rep) {
    for (const CompactAst& ast : w.workload) {
      queries.emplace_back(&ast, 0, ast.Hash());
    }
  }
  // Distinct workload entries can still collide by content (two tasks can
  // sample structurally identical schedules) — the dedup identity is the AST
  // hash, so count unique hashes, not vector slots.
  std::set<uint64_t> unique_hashes;
  for (const CompactAst& ast : w.workload) {
    unique_hashes.insert(ast.Hash());
  }
  const size_t uniq = unique_hashes.size();

  PredictionService service(w.predictor.get(), TuningServeOptions());
  ServeCostModel serve(&service);
  std::vector<double> first;
  serve.ScoreBatch(queries, &first);
  EXPECT_EQ(serve.stats().queries, queries.size());
  EXPECT_EQ(serve.stats().submitted, uniq);
  EXPECT_EQ(serve.stats().deduped, queries.size() - uniq);
  EXPECT_GT(serve.stats().deduped, 2 * uniq - 1);
  for (size_t i = 0; i < w.workload.size(); ++i) {
    EXPECT_EQ(first[i], first[i + w.workload.size()]);
    EXPECT_EQ(first[i], first[i + 2 * w.workload.size()]);
  }

  // The same population again: every unique submission is now a cache hit.
  const uint64_t hits_before = service.Stats().cache_hits;
  const uint64_t forwards_before = service.Stats().forward_passes;
  std::vector<double> second;
  serve.ScoreBatch(queries, &second);
  EXPECT_EQ(service.Stats().cache_hits, hits_before + uniq);
  EXPECT_EQ(service.Stats().forward_passes, forwards_before);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(second[i], first[i]);  // cached values are bitwise the computed ones
  }
}

// The cross-client quality-parity gate, in unit-test form: the same seed must
// walk the same candidate sequence and find the exact same schedule whether
// scores come from the direct baseline or the serving tier.
TEST(SearchTest, ServeClientCurveMatchesDirectBitwise) {
  SearchWorld& w = World();
  const DeviceSpec& dev = DeviceByName("T4");
  SearchOptions opts;
  opts.rounds = 6;
  opts.population = 10;
  opts.measured_per_round = 2;
  opts.seed = 77;

  // Warm-up direct run: same seed visits exactly the candidate set the
  // measured runs will, materializing every lazily-created head up front so
  // head-creation order cannot differ between the two sides.
  {
    DirectCostModel warm(w.predictor.get());
    (void)EvolutionarySearch(w.search_task, dev, &warm, opts);
  }

  DirectCostModel direct(w.predictor.get());
  SearchCurve d = EvolutionarySearch(w.search_task, dev, &direct, opts);

  PredictionService service(w.predictor.get(), TuningServeOptions());
  ServeCostModel serve(&service);
  SearchCurve s = EvolutionarySearch(w.search_task, dev, &serve, opts);

  ASSERT_EQ(d.best_after_round.size(), s.best_after_round.size());
  for (size_t i = 0; i < d.best_after_round.size(); ++i) {
    EXPECT_EQ(d.best_after_round[i], s.best_after_round[i]) << "round " << i;
  }
  EXPECT_EQ(d.final_best, s.final_best);
  EXPECT_EQ(d.best_ast_hash, s.best_ast_hash);
  EXPECT_NE(d.best_ast_hash, 0u);
  EXPECT_EQ(d.total_measurements, s.total_measurements);
  EXPECT_EQ(d.total_candidates, s.total_candidates);
}

// Same contract across worker/thread-pool widths: the serve-backed curve is a
// pure function of the seed, never of how many threads computed the scores.
TEST(SearchTest, ServeCurveInvariantToThreadCount) {
  SearchWorld& w = World();
  const DeviceSpec& dev = DeviceByName("T4");
  SearchOptions opts;
  opts.rounds = 5;
  opts.population = 8;
  opts.measured_per_round = 2;
  opts.seed = 123;
  {
    DirectCostModel warm(w.predictor.get());
    (void)EvolutionarySearch(w.search_task, dev, &warm, opts);
  }

  auto run_with_pool = [&](int pool_threads, int serve_workers) {
    ThreadPool pool(pool_threads);
    ThreadPool::SetGlobalForTesting(&pool);
    ServeOptions sopts = TuningServeOptions();
    sopts.num_workers = serve_workers;
    SearchCurve curve;
    {
      PredictionService service(w.predictor.get(), sopts);
      ServeCostModel serve(&service);
      curve = EvolutionarySearch(w.search_task, dev, &serve, opts);
    }
    ThreadPool::SetGlobalForTesting(nullptr);
    return curve;
  };

  SearchCurve one = run_with_pool(/*pool_threads=*/1, /*serve_workers=*/1);
  SearchCurve three = run_with_pool(/*pool_threads=*/3, /*serve_workers=*/3);
  ASSERT_EQ(one.best_after_round.size(), three.best_after_round.size());
  for (size_t i = 0; i < one.best_after_round.size(); ++i) {
    EXPECT_EQ(one.best_after_round[i], three.best_after_round[i]) << "round " << i;
  }
  EXPECT_EQ(one.final_best, three.final_best);
  EXPECT_EQ(one.best_ast_hash, three.best_ast_hash);
}

// ---- Simulated annealing ----------------------------------------------------

TEST(SaSearchTest, CurveNonIncreasingAndSeedReproducible) {
  // A heuristic cost model keeps this test free of training time.
  FnCostModel heuristic([](const CompactAst& ast, int) {
    double score = 1.0;
    for (const ComputationVector& cv : ast.leaves) {
      score -= 0.1 * cv[19] + 0.1 * cv[22];
    }
    return score;
  });
  const DeviceSpec& dev = DeviceByName("T4");
  SaOptions opts;
  opts.sweeps = 12;
  opts.chains = 8;
  opts.measured_per_sweep = 2;
  opts.seed = 5;
  SearchCurve a = SimulatedAnnealingSearch(SearchTask(), dev, &heuristic, opts);
  ASSERT_EQ(a.best_after_round.size(), 12u);
  for (size_t i = 1; i < a.best_after_round.size(); ++i) {
    EXPECT_LE(a.best_after_round[i], a.best_after_round[i - 1] + 1e-12);
  }
  EXPECT_EQ(a.total_measurements, 24);
  // Seeds + 12 sweeps of proposals through the client seam.
  EXPECT_EQ(a.total_candidates, 8 + 12 * 8);
  EXPECT_GT(a.final_best, 0.0);
  EXPECT_NE(a.best_ast_hash, 0u);

  FnCostModel heuristic2([](const CompactAst& ast, int) {
    double score = 1.0;
    for (const ComputationVector& cv : ast.leaves) {
      score -= 0.1 * cv[19] + 0.1 * cv[22];
    }
    return score;
  });
  SearchCurve b = SimulatedAnnealingSearch(SearchTask(), dev, &heuristic2, opts);
  ASSERT_EQ(b.best_after_round.size(), a.best_after_round.size());
  for (size_t i = 0; i < a.best_after_round.size(); ++i) {
    EXPECT_EQ(a.best_after_round[i], b.best_after_round[i]) << "sweep " << i;
  }
  EXPECT_EQ(a.best_ast_hash, b.best_ast_hash);
}

TEST(SaSearchTest, ServeClientCurveMatchesDirectBitwise) {
  SearchWorld& w = World();
  const DeviceSpec& dev = DeviceByName("T4");
  SaOptions opts;
  opts.sweeps = 5;
  opts.chains = 8;
  opts.measured_per_sweep = 2;
  opts.seed = 99;
  {
    DirectCostModel warm(w.predictor.get());
    (void)SimulatedAnnealingSearch(w.search_task, dev, &warm, opts);
  }
  DirectCostModel direct(w.predictor.get());
  SearchCurve d = SimulatedAnnealingSearch(w.search_task, dev, &direct, opts);
  PredictionService service(w.predictor.get(), TuningServeOptions());
  ServeCostModel serve(&service);
  SearchCurve s = SimulatedAnnealingSearch(w.search_task, dev, &serve, opts);
  ASSERT_EQ(d.best_after_round.size(), s.best_after_round.size());
  for (size_t i = 0; i < d.best_after_round.size(); ++i) {
    EXPECT_EQ(d.best_after_round[i], s.best_after_round[i]) << "sweep " << i;
  }
  EXPECT_EQ(d.final_best, s.final_best);
  EXPECT_EQ(d.best_ast_hash, s.best_ast_hash);
}

// ---- Autotuner through the seam ---------------------------------------------

TEST(AutotunerSeamTest, ServeAndDirectScoringAgreeBitwise) {
  SearchWorld& w = World();
  Rng rng(17);
  SplitIndices split = SplitDataset(w.ds, {0}, {}, &rng);
  std::vector<int> train(split.train.begin(),
                         split.train.begin() + std::min<size_t>(split.train.size(), 120));
  std::vector<int> valid(split.valid.begin(),
                         split.valid.begin() + std::min<size_t>(split.valid.size(), 40));
  ASSERT_FALSE(valid.empty());

  AutotuneOptions opts;
  opts.num_trials = 2;
  opts.epochs_per_trial = 1;
  opts.seed = 2024;
  AutotuneResult served = Autotune(w.ds, train, valid, opts);
  ASSERT_EQ(served.trials.size(), 2u);
  EXPECT_EQ(served.scored_candidates, 2u * valid.size());
  EXPECT_LT(served.best.valid_mape, 1e30);

  // Trial 0 rebuilt as Autotune builds it, its validation set scored by
  // serial size-1 forwards and the MAPE summed in the same order: bitwise
  // the served trial's (scoring is a throughput choice, not a quality one).
  Rng trial_rng(opts.seed);
  PredictorConfig cfg = SampleConfig(&trial_rng);
  cfg.epochs = opts.epochs_per_trial;
  CdmppPredictor predictor(cfg);
  predictor.Pretrain(w.ds, train, valid);
  std::vector<CostQuery> queries;
  for (int s : valid) {
    const Sample& sample = w.ds.samples[static_cast<size_t>(s)];
    const CompactAst& ast = w.ds.programs[static_cast<size_t>(sample.program_index)].ast;
    queries.emplace_back(&ast, sample.device_id, ast.Hash());
  }
  DirectCostModel direct(&predictor);
  std::vector<double> predictions;
  direct.ScoreBatch(queries, &predictions);
  EXPECT_EQ(direct.stats().queries, valid.size());
  double sum = 0.0;
  size_t counted = 0;
  for (size_t i = 0; i < valid.size(); ++i) {
    const double truth = w.ds.samples[static_cast<size_t>(valid[i])].latency_seconds;
    if (truth > 0.0) {
      sum += std::abs(predictions[i] - truth) / truth;
      ++counted;
    }
  }
  ASSERT_GT(counted, 0u);
  EXPECT_EQ(served.trials[0].valid_mape, sum / static_cast<double>(counted));
}

}  // namespace
}  // namespace cdmpp
