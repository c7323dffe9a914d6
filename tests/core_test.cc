#include <set>

#include <gtest/gtest.h>

#include "src/core/autotuner.h"
#include "src/core/predictor.h"
#include "src/core/sampler.h"
#include "src/ml/cmd.h"

namespace cdmpp {
namespace {

// A small shared dataset so the suite stays fast; built once.
const Dataset& SmallDataset() {
  static const Dataset* ds = [] {
    DatasetOptions opts;
    opts.device_ids = {0, 3};  // T4, V100
    opts.schedules_per_task = 3;
    opts.max_networks = 10;
    opts.seed = 202;
    return new Dataset(BuildDataset(opts));
  }();
  return *ds;
}

PredictorConfig FastConfig() {
  PredictorConfig cfg;
  cfg.d_model = 32;
  cfg.num_heads = 2;
  cfg.d_ff = 64;
  cfg.num_layers = 1;
  cfg.z_dim = 32;
  cfg.epochs = 16;
  cfg.batch_size = 64;
  cfg.seed = 3;
  return cfg;
}

TEST(PredictorTest, PretrainReachesReasonableError) {
  const Dataset& ds = SmallDataset();
  Rng rng(8);
  SplitIndices split = SplitDataset(ds, {0}, {}, &rng);
  CdmppPredictor predictor(FastConfig());
  TrainStats stats = predictor.Pretrain(ds, split.train, split.valid);
  EXPECT_GT(stats.throughput_samples_per_sec, 0.0);
  ASSERT_FALSE(stats.epoch_train_loss.empty());
  // Training loss decreases substantially.
  EXPECT_LT(stats.epoch_train_loss.back(), stats.epoch_train_loss.front() * 0.7);
  // A small model on a small dataset: just require it beats wild guessing.
  EvalStats eval = predictor.Evaluate(ds, split.test);
  EXPECT_LT(eval.mape, 1.0);
  EXPECT_GT(eval.acc20, 0.08);
}

TEST(PredictorTest, PredictionsPositiveAndFinite) {
  const Dataset& ds = SmallDataset();
  Rng rng(9);
  SplitIndices split = SplitDataset(ds, {0}, {}, &rng);
  CdmppPredictor predictor(FastConfig());
  predictor.Pretrain(ds, split.train, {});
  std::vector<double> preds = predictor.Predict(ds, split.test);
  ASSERT_EQ(preds.size(), split.test.size());
  for (double p : preds) {
    EXPECT_GT(p, 0.0);
    EXPECT_TRUE(std::isfinite(p));
  }
}

TEST(PredictorTest, LatentShapeAndDeterminism) {
  const Dataset& ds = SmallDataset();
  Rng rng(10);
  SplitIndices split = SplitDataset(ds, {0}, {}, &rng);
  CdmppPredictor predictor(FastConfig());
  predictor.Pretrain(ds, split.train, {});
  std::vector<int> subset(split.test.begin(),
                          split.test.begin() + std::min<size_t>(20, split.test.size()));
  Matrix z1 = predictor.EncodeLatent(ds, subset);
  Matrix z2 = predictor.EncodeLatent(ds, subset);
  ASSERT_EQ(z1.rows(), static_cast<int>(subset.size()));
  EXPECT_EQ(z1.cols(), FastConfig().z_dim + FastConfig().device_embed_dim);
  for (size_t i = 0; i < z1.size(); ++i) {
    EXPECT_FLOAT_EQ(z1.data()[i], z2.data()[i]);
  }
}

TEST(PredictorTest, PredictAstMatchesPredictOnSameProgram) {
  const Dataset& ds = SmallDataset();
  Rng rng(11);
  SplitIndices split = SplitDataset(ds, {0}, {}, &rng);
  CdmppPredictor predictor(FastConfig());
  predictor.Pretrain(ds, split.train, {});
  int idx = split.test.front();
  const Sample& s = ds.samples[static_cast<size_t>(idx)];
  double via_sample = predictor.Predict(ds, {idx})[0];
  double via_ast =
      predictor.PredictAst(ds.programs[static_cast<size_t>(s.program_index)].ast, s.device_id);
  EXPECT_EQ(via_sample, via_ast);
}

TEST(PredictorTest, CmdFinetuneReducesLatentDiscrepancy) {
  const Dataset& ds = SmallDataset();
  Rng rng(12);
  // Source: T4 samples; target: V100 samples (labels used only for source).
  SplitIndices src = SplitDataset(ds, {0}, {}, &rng);
  std::vector<int> tgt = SamplesOnDevice(ds, 3);
  tgt.resize(std::min<size_t>(tgt.size(), 300));

  PredictorConfig cfg = FastConfig();
  cfg.epochs = 5;
  cfg.alpha_cmd = 1.0;
  CdmppPredictor predictor(cfg);
  predictor.Pretrain(ds, src.train, {});

  std::vector<int> src_sub(src.train.begin(),
                           src.train.begin() + std::min<size_t>(300, src.train.size()));
  double before = CmdDistance(predictor.EncodeLatent(ds, src_sub),
                              predictor.EncodeLatent(ds, tgt));
  predictor.Finetune(ds, src.train, src_sub, tgt, 4);
  double after = CmdDistance(predictor.EncodeLatent(ds, src_sub),
                             predictor.EncodeLatent(ds, tgt));
  EXPECT_LT(after, before);
}

TEST(PredictorTest, NumParamsPositiveAndGrowsWithHeads) {
  CdmppPredictor predictor(FastConfig());
  size_t base = predictor.NumParams();
  EXPECT_GT(base, 1000u);
  const Dataset& ds = SmallDataset();
  std::vector<int> all = SamplesOnDevice(ds, 0);
  predictor.Pretrain(ds, all, {});
  EXPECT_GT(predictor.NumParams(), base);  // leaf heads were added
}

TEST(SamplerTest, KMeansSelectionInvariants) {
  const Dataset& ds = SmallDataset();
  Rng rng(13);
  const int kappa = 8;
  std::vector<int> tasks = SelectTasksKMeans(ds, kappa, &rng);
  ASSERT_EQ(tasks.size(), static_cast<size_t>(kappa));
  std::set<int> unique(tasks.begin(), tasks.end());
  EXPECT_EQ(unique.size(), tasks.size());
  for (int t : tasks) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, static_cast<int>(ds.tasks.size()));
  }
}

TEST(SamplerTest, KMeansCoversFeatureSpaceBetterThanWorstCase) {
  // The selected tasks should cover the program-feature space: the mean
  // distance from each program to its nearest selected task's programs must
  // be finite and the selection deterministic given the seed.
  const Dataset& ds = SmallDataset();
  Rng r1(14);
  Rng r2(14);
  EXPECT_EQ(SelectTasksKMeans(ds, 6, &r1), SelectTasksKMeans(ds, 6, &r2));
}

TEST(SamplerTest, RandomSelectionDistinct) {
  const Dataset& ds = SmallDataset();
  Rng rng(15);
  std::vector<int> tasks = SelectTasksRandom(ds, 10, &rng);
  std::set<int> unique(tasks.begin(), tasks.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(SamplerTest, SamplesForTasksFilterCorrectly) {
  const Dataset& ds = SmallDataset();
  Rng rng(16);
  std::vector<int> tasks = SelectTasksKMeans(ds, 5, &rng);
  std::vector<int> samples = SamplesForTasksOnDevice(ds, tasks, 3);
  EXPECT_FALSE(samples.empty());
  std::set<int> task_set(tasks.begin(), tasks.end());
  for (int idx : samples) {
    const Sample& s = ds.samples[static_cast<size_t>(idx)];
    EXPECT_EQ(s.device_id, 3);
    EXPECT_TRUE(task_set.count(ds.programs[static_cast<size_t>(s.program_index)].task_id));
  }
}

TEST(AutotunerTest, FindsConfigAndReportsTrials) {
  const Dataset& ds = SmallDataset();
  Rng rng(17);
  SplitIndices split = SplitDataset(ds, {0}, {}, &rng);
  // Shrink for test speed.
  std::vector<int> train(split.train.begin(),
                         split.train.begin() + std::min<size_t>(400, split.train.size()));
  std::vector<int> valid(split.valid.begin(),
                         split.valid.begin() + std::min<size_t>(100, split.valid.size()));
  AutotuneOptions opts;
  opts.num_trials = 3;
  opts.epochs_per_trial = 2;
  AutotuneResult result = Autotune(ds, train, valid, opts);
  EXPECT_EQ(result.trials.size(), 3u);
  EXPECT_LT(result.best.valid_mape, 1e29);
  for (const AutotuneTrial& t : result.trials) {
    EXPECT_GE(t.valid_mape, result.best.valid_mape);
  }
}

TEST(AutotunerTest, SampledConfigsAreWithinSearchSpace) {
  Rng rng(18);
  for (int i = 0; i < 50; ++i) {
    PredictorConfig cfg = SampleConfig(&rng);
    EXPECT_GE(cfg.d_model, 32);
    EXPECT_LE(cfg.d_model, 96);
    EXPECT_EQ(cfg.d_model % cfg.num_heads, 0);
    EXPECT_GT(cfg.lr, 0.0);
    EXPECT_GE(cfg.max_lr, cfg.lr);
    EXPECT_FALSE(cfg.decoder_hidden.empty());
  }
}

}  // namespace
}  // namespace cdmpp
