#include <cstring>
#include <set>

#include <gtest/gtest.h>

#include "src/dataset/batching.h"
#include "src/dataset/dataset.h"
#include "src/dataset/model_zoo.h"
#include "src/device/simulator.h"
#include "src/support/fnv_hash.h"
#include "src/support/parallel_for.h"

namespace cdmpp {
namespace {

DatasetOptions SmallOptions() {
  DatasetOptions opts;
  opts.device_ids = {0, 3};  // T4, V100
  opts.schedules_per_task = 3;
  opts.max_networks = 12;
  opts.seed = 101;
  return opts;
}

// Every device with noise on: the build whose output the golden pins.
DatasetOptions GoldenOptions() {
  DatasetOptions opts;  // all nine devices, noise_sigma 0.03
  opts.schedules_per_task = 3;
  opts.max_networks = 6;
  opts.seed = 23;
  return opts;
}

// Routes ThreadPool::Global() to a private pool for one scope.
struct ScopedPool {
  explicit ScopedPool(int threads) : pool(threads) { ThreadPool::SetGlobalForTesting(&pool); }
  ~ScopedPool() { ThreadPool::SetGlobalForTesting(nullptr); }
  ThreadPool pool;
};

// One FNV-1a over every sample's (program, device, latency bits), every
// program's AST hash and one split of the whole dataset.
uint64_t DatasetFingerprint(const Dataset& ds) {
  uint64_t h = kFnvOffset;
  for (const Sample& s : ds.samples) {
    h = FnvMix(h, static_cast<uint64_t>(s.program_index));
    h = FnvMix(h, static_cast<uint64_t>(s.device_id));
    h = FnvMixDouble(h, s.latency_seconds);
  }
  for (const ProgramRecord& rec : ds.programs) {
    h = FnvMix(h, rec.ast.Hash());
  }
  Rng rng(5);
  const SplitIndices split =
      SplitDataset(ds, /*device_ids=*/{}, {ds.ModelIdByName("resnet50_bs1_r224")}, &rng);
  for (const std::vector<int>* part : {&split.train, &split.valid, &split.test, &split.holdout}) {
    h = FnvMix(h, part->size());
    for (int idx : *part) {
      h = FnvMix(h, static_cast<uint64_t>(idx));
    }
  }
  return h;
}

TEST(ModelZooTest, Has120Networks) {
  auto zoo = BuildModelZoo();
  EXPECT_EQ(zoo.size(), 120u);
  std::set<std::string> names;
  for (const NetworkDef& net : zoo) {
    EXPECT_FALSE(net.ops.empty()) << net.name;
    names.insert(net.name);
  }
  EXPECT_EQ(names.size(), zoo.size()) << "duplicate network names";
}

TEST(ModelZooTest, AllTasksValidAndDepsAcyclicByConstruction) {
  for (const NetworkDef& net : BuildModelZoo()) {
    for (size_t i = 0; i < net.ops.size(); ++i) {
      ValidateTask(net.ops[i].task);
      for (int d : net.ops[i].deps) {
        EXPECT_GE(d, 0);
        EXPECT_LT(d, static_cast<int>(i)) << net.name;  // deps precede the op
      }
    }
  }
}

TEST(ModelZooTest, HoldoutNetworksExist) {
  auto zoo = BuildModelZoo();
  for (const std::string& name : HoldoutNetworkNames()) {
    bool found = false;
    for (const NetworkDef& net : zoo) {
      found |= net.name == name;
    }
    EXPECT_TRUE(found) << name;
  }
}

TEST(ModelZooTest, FamiliesHaveDistinctOpMixes) {
  // Cross-model distribution shift: conv fraction differs strongly between a
  // CNN and a transformer.
  NetworkDef resnet = BuildNetworkByName("resnet50_bs1_r224");
  NetworkDef bert = BuildNetworkByName("bert_base_bs1_s128");
  auto conv_fraction = [](const NetworkDef& net) {
    int convs = 0;
    for (const NetworkOp& op : net.ops) {
      convs += op.task.kind == OpKind::kConv2d ? 1 : 0;
    }
    return static_cast<double>(convs) / static_cast<double>(net.ops.size());
  };
  EXPECT_GT(conv_fraction(resnet), 0.4);
  EXPECT_LT(conv_fraction(bert), 0.05);
}

TEST(DatasetTest, BuildProducesConsistentCounts) {
  Dataset ds = BuildDataset(SmallOptions());
  EXPECT_FALSE(ds.tasks.empty());
  EXPECT_EQ(ds.programs.size(), ds.tasks.size() * 3);
  EXPECT_EQ(ds.samples.size(), ds.programs.size() * 2);  // two devices
  for (const Sample& s : ds.samples) {
    EXPECT_GT(s.latency_seconds, 0.0);
    EXPECT_TRUE(s.device_id == 0 || s.device_id == 3);
  }
}

TEST(DatasetTest, TasksAreDeduplicatedAcrossNetworks) {
  Dataset ds = BuildDataset(SmallOptions());
  size_t total_ops = 0;
  for (const NetworkDef& net : ds.networks) {
    total_ops += net.ops.size();
  }
  EXPECT_LT(ds.tasks.size(), total_ops);  // sharing must occur
  // Each op's task id resolves into the task table.
  for (const NetworkDef& net : ds.networks) {
    for (const NetworkOp& op : net.ops) {
      ASSERT_GE(op.task.id, 0);
      ASSERT_LT(op.task.id, static_cast<int>(ds.tasks.size()));
      EXPECT_EQ(ds.tasks[static_cast<size_t>(op.task.id)].task.kind, op.task.kind);
    }
  }
}

// The same seed gives the same bits, measurement noise included.
TEST(DatasetTest, DeterministicAcrossBuilds) {
  Dataset a = BuildDataset(SmallOptions());
  Dataset b = BuildDataset(SmallOptions());
  ASSERT_EQ(a.samples.size(), b.samples.size());
  EXPECT_EQ(std::memcmp(a.samples.data(), b.samples.data(), a.samples.size() * sizeof(Sample)),
            0);
}

// The build runs no kernel code, so one golden holds under every kernel ISA.
TEST(DatasetTest, BuildMatchesGoldenFingerprint) {
  const Dataset ds = BuildDataset(GoldenOptions());
  EXPECT_EQ(ds.samples.size(), ds.programs.size() * DeviceRegistry().size());
  EXPECT_EQ(DatasetFingerprint(ds), 0x63da01be31c32fa0ull);
}

TEST(DatasetTest, BuildIsBitwiseInvariantAcrossPoolSizes) {
  std::vector<Dataset> builds;
  for (int threads : {1, 2, 4}) {
    ScopedPool pool(threads);
    builds.push_back(BuildDataset(GoldenOptions()));
  }
  const Dataset& ref = builds.front();
  for (size_t b = 1; b < builds.size(); ++b) {
    const Dataset& ds = builds[b];
    ASSERT_EQ(ds.samples.size(), ref.samples.size());
    EXPECT_EQ(std::memcmp(ds.samples.data(), ref.samples.data(),
                          ref.samples.size() * sizeof(Sample)),
              0);
    ASSERT_EQ(ds.programs.size(), ref.programs.size());
    for (size_t p = 0; p < ref.programs.size(); ++p) {
      const CompactAst& a = ds.programs[p].ast;
      const CompactAst& r = ref.programs[p].ast;
      EXPECT_EQ(ds.programs[p].task_id, ref.programs[p].task_id);
      EXPECT_EQ(a.num_nodes, r.num_nodes);
      EXPECT_EQ(a.max_depth, r.max_depth);
      EXPECT_EQ(a.ordering, r.ordering);
      ASSERT_EQ(a.leaves.size(), r.leaves.size());
      EXPECT_EQ(std::memcmp(a.leaves.data(), r.leaves.data(),
                            r.leaves.size() * sizeof(ComputationVector)),
                0)
          << "program " << p;
    }
  }
}

// Measurement noise is BuildDataset's: without it every sample is the
// deterministic simulation bit for bit, and with it each sample is that
// value times a small log-normal factor.
TEST(DatasetTest, NoiselessSamplesEqualDeterministicSimulation) {
  DatasetOptions opts = SmallOptions();
  opts.noise_sigma = 0.0;
  const Dataset ds = BuildDataset(opts);
  ASSERT_FALSE(ds.samples.empty());
  for (const Sample& s : ds.samples) {
    const ProgramRecord& rec = ds.programs[static_cast<size_t>(s.program_index)];
    const TensorProgram prog = GenerateProgram(ds.TaskOfProgram(s.program_index), rec.schedule);
    const double expected = SimulateLatencyDeterministic(prog, DeviceById(s.device_id));
    EXPECT_EQ(std::memcmp(&s.latency_seconds, &expected, sizeof(double)), 0);
  }
}

TEST(DatasetTest, NoiseIsSmallMultiplicative) {
  DatasetOptions opts = SmallOptions();
  opts.noise_sigma = 0.0;
  const Dataset clean = BuildDataset(opts);
  opts.noise_sigma = 0.03;
  const Dataset noisy = BuildDataset(opts);
  ASSERT_EQ(noisy.samples.size(), clean.samples.size());
  int changed = 0;
  for (size_t i = 0; i < clean.samples.size(); ++i) {
    const double base = clean.samples[i].latency_seconds;
    const double value = noisy.samples[i].latency_seconds;
    EXPECT_GT(value, base * 0.8);
    EXPECT_LT(value, base * 1.25);
    changed += value != base ? 1 : 0;
  }
  EXPECT_GT(changed, 0);
}

TEST(DatasetTest, SplitRespectsRatiosAndHoldout) {
  Dataset ds = BuildDataset(SmallOptions());
  int holdout_model = ds.ModelIdByName("resnet50_bs1_r224");
  ASSERT_GE(holdout_model, 0);
  Rng rng(5);
  SplitIndices split = SplitDataset(ds, {0}, {holdout_model}, &rng);
  size_t total = split.train.size() + split.valid.size() + split.test.size();
  EXPECT_GT(split.holdout.size(), 0u);

  // Ratios approximately 8:1:1.
  EXPECT_NEAR(static_cast<double>(split.train.size()) / total, 0.8, 0.02);

  // No overlap between sets.
  std::set<int> seen;
  for (const auto* part : {&split.train, &split.valid, &split.test, &split.holdout}) {
    for (int idx : *part) {
      EXPECT_TRUE(seen.insert(idx).second);
      EXPECT_EQ(ds.samples[static_cast<size_t>(idx)].device_id, 0);
    }
  }
  // Nothing in train/valid/test touches a holdout-model task.
  for (const auto* part : {&split.train, &split.valid, &split.test}) {
    for (int idx : *part) {
      EXPECT_FALSE(
          ds.ProgramInModels(ds.samples[static_cast<size_t>(idx)].program_index,
                             {holdout_model}));
    }
  }
}

TEST(DatasetTest, SamplesOfModelOnDevice) {
  Dataset ds = BuildDataset(SmallOptions());
  int model = ds.networks.front().id;
  std::vector<int> idxs = SamplesOfModelOnDevice(ds, model, 3);
  EXPECT_FALSE(idxs.empty());
  for (int idx : idxs) {
    EXPECT_EQ(ds.samples[static_cast<size_t>(idx)].device_id, 3);
    EXPECT_TRUE(ds.ProgramInModels(ds.samples[static_cast<size_t>(idx)].program_index, {model}));
  }
}

TEST(BatchingTest, BucketsPartitionSamples) {
  Dataset ds = BuildDataset(SmallOptions());
  std::vector<int> all = SamplesOnDevice(ds, 0);
  auto buckets = GroupByLeafCount(ds, all);
  size_t total = 0;
  for (const auto& [leaves, idxs] : buckets) {
    EXPECT_GT(leaves, 0);
    total += idxs.size();
    for (int idx : idxs) {
      const Sample& s = ds.samples[static_cast<size_t>(idx)];
      EXPECT_EQ(ds.programs[static_cast<size_t>(s.program_index)].ast.num_leaves, leaves);
    }
  }
  EXPECT_EQ(total, all.size());
}

TEST(BatchingTest, BatchesCoverEveryIndexOnce) {
  Dataset ds = BuildDataset(SmallOptions());
  std::vector<int> all = SamplesOnDevice(ds, 0);
  Rng rng(6);
  auto batches = MakeBatches(GroupByLeafCount(ds, all), 32, &rng);
  std::set<int> seen;
  for (const Batch& b : batches) {
    EXPECT_LE(b.sample_indices.size(), 32u);
    for (int idx : b.sample_indices) {
      EXPECT_TRUE(seen.insert(idx).second);
    }
  }
  EXPECT_EQ(seen.size(), all.size());
}

TEST(BatchingTest, BatchesAreLeafCountUniform) {
  Dataset ds = BuildDataset(SmallOptions());
  std::vector<int> all = SamplesOnDevice(ds, 0);
  Rng rng(8);
  auto batches = MakeBatches(GroupByLeafCount(ds, all), 24, &rng);
  ASSERT_FALSE(batches.empty());
  for (const Batch& b : batches) {
    ASSERT_FALSE(b.sample_indices.empty());
    for (int idx : b.sample_indices) {
      const Sample& s = ds.samples[static_cast<size_t>(idx)];
      EXPECT_EQ(ds.programs[static_cast<size_t>(s.program_index)].ast.num_leaves, b.seq_len);
    }
  }
}

TEST(BatchingTest, MakeBatchesDeterministicForFixedSeed) {
  Dataset ds = BuildDataset(SmallOptions());
  std::vector<int> all = SamplesOnDevice(ds, 0);
  auto buckets = GroupByLeafCount(ds, all);
  Rng rng_a(99);
  Rng rng_b(99);
  auto batches_a = MakeBatches(buckets, 24, &rng_a);
  auto batches_b = MakeBatches(buckets, 24, &rng_b);
  ASSERT_EQ(batches_a.size(), batches_b.size());
  for (size_t i = 0; i < batches_a.size(); ++i) {
    EXPECT_EQ(batches_a[i].seq_len, batches_b[i].seq_len);
    EXPECT_EQ(batches_a[i].sample_indices, batches_b[i].sample_indices);
  }
  // A different seed shuffles differently (overwhelmingly likely with this
  // many samples); guards against the Rng being ignored.
  Rng rng_c(100);
  auto batches_c = MakeBatches(buckets, 24, &rng_c);
  bool any_difference = batches_a.size() != batches_c.size();
  for (size_t i = 0; !any_difference && i < batches_a.size(); ++i) {
    any_difference = batches_a[i].sample_indices != batches_c[i].sample_indices;
  }
  EXPECT_TRUE(any_difference);
}

TEST(BatchingTest, FeatureMatrixShapes) {
  Dataset ds = BuildDataset(SmallOptions());
  AstBatchView view;
  for (int idx : SamplesOnDevice(ds, 0)) {
    const Sample& s = ds.samples[static_cast<size_t>(idx)];
    view.asts.push_back(&ds.programs[static_cast<size_t>(s.program_index)].ast);
    view.device_ids.push_back(s.device_id);
  }
  Rng rng(7);
  auto batches = MakeBatches(GroupByLeafCount(view), 16, &rng);
  ASSERT_FALSE(batches.empty());
  const Batch& b = batches.front();
  const PositionalEncodingTable pe(10000.0);
  Matrix x = BuildFeatureMatrix(view, b, nullptr, &pe);
  EXPECT_EQ(x.rows(), static_cast<int>(b.sample_indices.size()) * b.seq_len);
  EXPECT_EQ(x.cols(), kFeatDim);
  Matrix dev = BuildDeviceFeatureMatrix(view, b);
  EXPECT_EQ(dev.rows(), static_cast<int>(b.sample_indices.size()));
  EXPECT_EQ(dev.cols(), kDeviceFeatDim);
}

// The positional-encoding table changes no feature bit: without a scaler,
// BuildFeatureMatrix equals EncodeFeatures(ast, /*use_pe=*/true) bitwise, for
// zoo ASTs (every ordering inside the table) and for a hand-edited AST whose
// orderings straddle the table's end (the rows past it take the computed
// fallback).
TEST(BatchingTest, PositionalEncodingTableMatchesEncodeFeaturesBitwise) {
  Dataset ds = BuildDataset(SmallOptions());
  std::vector<CompactAst> asts;
  for (const ProgramRecord& rec : ds.programs) {
    asts.push_back(rec.ast);
  }
  for (const CompactAst& ast : asts) {
    if (ast.num_leaves >= 3) {
      CompactAst edited = ast;
      for (int t = 0; t < edited.num_leaves; ++t) {
        edited.ordering[static_cast<size_t>(t)] = PositionalEncodingTable::kRows - 2 + t;
      }
      edited.num_nodes = PositionalEncodingTable::kRows - 1 + edited.num_leaves;
      asts.push_back(edited);
      break;
    }
  }
  ASSERT_GT(asts.back().ordering.back(), PositionalEncodingTable::kRows);
  for (double theta : {10000.0, 500.0}) {
    const PositionalEncodingTable pe(theta);
    for (const CompactAst& ast : asts) {
      AstBatchView view;
      view.asts.push_back(&ast);
      view.device_ids.push_back(0);
      Batch b;
      b.seq_len = ast.num_leaves;
      b.sample_indices = {0};
      const Matrix x = BuildFeatureMatrix(view, b, nullptr, &pe);
      const std::vector<float> expected = EncodeFeatures(ast, /*use_pe=*/true, theta);
      ASSERT_EQ(x.size(), expected.size());
      EXPECT_EQ(std::memcmp(x.data(), expected.data(), expected.size() * sizeof(float)), 0)
          << "theta " << theta << ", orderings up to " << ast.ordering.back();
    }
  }
}

TEST(BatchingTest, StackLeafRowsMatchesTotalLeaves) {
  Dataset ds = BuildDataset(SmallOptions());
  std::vector<int> some = {0, 1, 2, 3, 4};
  Matrix rows = StackLeafRows(ds, some);
  int expected = 0;
  for (int idx : some) {
    expected +=
        ds.programs[static_cast<size_t>(ds.samples[static_cast<size_t>(idx)].program_index)]
            .ast.num_leaves;
  }
  EXPECT_EQ(rows.rows(), expected);
}

}  // namespace
}  // namespace cdmpp
