#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "src/baselines/gbt.h"
#include "src/baselines/habitat.h"
#include "src/baselines/tiramisu.h"
#include "src/baselines/tlp.h"
#include "src/baselines/xgb_model.h"
#include "src/support/cpu_features.h"
#include "src/support/fnv_hash.h"
#include "src/support/stats.h"

namespace cdmpp {
namespace {

const Dataset& SmallDataset() {
  static const Dataset* ds = [] {
    DatasetOptions opts;
    opts.device_ids = {0, 3};
    opts.schedules_per_task = 3;
    opts.max_networks = 10;
    opts.seed = 303;
    return new Dataset(BuildDataset(opts));
  }();
  return *ds;
}

TEST(GbtTest, FitsNoisyLinearFunction) {
  Rng rng(81);
  const int n = 600;
  Matrix x(n, 3);
  std::vector<double> y(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < 3; ++j) {
      x.At(i, j) = static_cast<float>(rng.Uniform(-2, 2));
    }
    y[static_cast<size_t>(i)] =
        3.0 * x.At(i, 0) - 2.0 * x.At(i, 1) + 0.5 * x.At(i, 2) + rng.Normal(0, 0.05);
  }
  GbtConfig cfg;
  cfg.num_rounds = 60;
  GradientBoostedTrees gbt(cfg);
  gbt.Fit(x, y, &rng);
  std::vector<double> pred = gbt.Predict(x);
  EXPECT_LT(Rmse(pred, y), 0.6);
}

TEST(GbtTest, TrainingRmseMonotonicallyImproves) {
  Rng rng(82);
  const int n = 300;
  Matrix x(n, 2);
  std::vector<double> y(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    x.At(i, 0) = static_cast<float>(rng.Uniform(0, 1));
    x.At(i, 1) = static_cast<float>(rng.Uniform(0, 1));
    y[static_cast<size_t>(i)] = std::sin(6.0 * x.At(i, 0)) + x.At(i, 1);
  }
  GbtConfig cfg;
  cfg.num_rounds = 40;
  cfg.subsample = 1.0;
  GradientBoostedTrees gbt(cfg);
  gbt.Fit(x, y, nullptr);
  const auto& curve = gbt.round_rmse();
  ASSERT_EQ(curve.size(), 40u);
  EXPECT_LT(curve.back(), curve.front() * 0.5);
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i], curve[i - 1] + 1e-9);  // squared loss never worsens
  }
}

TEST(GbtTest, FitsNonlinearInteraction) {
  Rng rng(83);
  const int n = 800;
  Matrix x(n, 2);
  std::vector<double> y(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    x.At(i, 0) = static_cast<float>(rng.Uniform(-1, 1));
    x.At(i, 1) = static_cast<float>(rng.Uniform(-1, 1));
    y[static_cast<size_t>(i)] = x.At(i, 0) * x.At(i, 1);  // pure interaction
  }
  GbtConfig cfg;
  cfg.num_rounds = 120;
  GradientBoostedTrees gbt(cfg);
  gbt.Fit(x, y, &rng);
  EXPECT_LT(Rmse(gbt.Predict(x), y), 0.12);
}

TEST(XgbModelTest, BeatsMeanPredictorOnDataset) {
  const Dataset& ds = SmallDataset();
  Rng rng(84);
  SplitIndices split = SplitDataset(ds, {0}, {}, &rng);
  XgbCostModel model;
  double throughput = model.Fit(ds, split.train, &rng);
  EXPECT_GT(throughput, 0.0);
  std::vector<double> pred = model.Predict(ds, split.test);
  std::vector<double> truth = GatherLabels(ds, split.test);
  EXPECT_LT(Mape(pred, truth), 0.7);
}

TEST(XgbModelTest, PredictAstConsistentWithPredict) {
  const Dataset& ds = SmallDataset();
  Rng rng(85);
  SplitIndices split = SplitDataset(ds, {0}, {}, &rng);
  XgbCostModel model;
  model.Fit(ds, split.train, &rng);
  int idx = split.test.front();
  const Sample& s = ds.samples[static_cast<size_t>(idx)];
  double a = model.Predict(ds, {idx})[0];
  double b = model.PredictAst(ds.programs[static_cast<size_t>(s.program_index)].ast,
                              s.device_id);
  EXPECT_NEAR(a, b, 1e-12);
}

TEST(TiramisuTest, TrainsAndPredictsFinite) {
  const Dataset& ds = SmallDataset();
  Rng rng(86);
  SplitIndices split = SplitDataset(ds, {0}, {}, &rng);
  std::vector<int> train(split.train.begin(),
                         split.train.begin() + std::min<size_t>(300, split.train.size()));
  TiramisuConfig cfg;
  cfg.epochs = 2;
  TiramisuModel model(cfg);
  double throughput = model.Fit(ds, train);
  EXPECT_GT(throughput, 0.0);
  std::vector<int> test(split.test.begin(),
                        split.test.begin() + std::min<size_t>(50, split.test.size()));
  std::vector<double> pred = model.Predict(ds, test);
  for (double p : pred) {
    EXPECT_TRUE(std::isfinite(p));
    EXPECT_GT(p, 0.0);
  }
}

TEST(TiramisuTest, LearningReducesError) {
  const Dataset& ds = SmallDataset();
  Rng rng(87);
  SplitIndices split = SplitDataset(ds, {0}, {}, &rng);
  std::vector<int> train(split.train.begin(),
                         split.train.begin() + std::min<size_t>(400, split.train.size()));
  std::vector<int> test(split.test.begin(),
                        split.test.begin() + std::min<size_t>(80, split.test.size()));
  std::vector<double> truth = GatherLabels(ds, test);

  TiramisuConfig cfg0;
  cfg0.epochs = 0;  // untrained
  TiramisuModel untrained(cfg0);
  // Fit with 0 epochs still fits the label transform.
  untrained.Fit(ds, train);
  double before = Mape(untrained.Predict(ds, test), truth);

  TiramisuConfig cfg;
  cfg.epochs = 8;
  TiramisuModel model(cfg);
  model.Fit(ds, train);
  double after = Mape(model.Predict(ds, test), truth);
  EXPECT_LT(after, before * 1.02);
}

TEST(HabitatTest, FitsSourceDeviceAndScalesAcross) {
  const Dataset& ds = SmallDataset();
  Rng rng(88);
  SplitIndices split = SplitDataset(ds, {0, 3}, {}, &rng);
  HabitatConfig cfg;
  cfg.epochs = 30;
  HabitatModel model(cfg);
  model.Fit(ds, split.train, /*source_device=*/0);
  // On the source device it should be sane (well under 100% error on average
  // is hard for op-level features; just require finite positive predictions
  // and better-than-10x error).
  std::vector<int> src_test;
  std::vector<int> tgt_test;
  for (int idx : split.test) {
    (ds.samples[static_cast<size_t>(idx)].device_id == 0 ? src_test : tgt_test).push_back(idx);
  }
  std::vector<double> pred = model.Predict(ds, src_test);
  std::vector<double> truth = GatherLabels(ds, src_test);
  for (double p : pred) {
    EXPECT_GT(p, 0.0);
  }
  EXPECT_LT(Mape(pred, truth), 10.0);
  // Cross-device predictions exist and are finite.
  std::vector<double> tgt_pred = model.Predict(ds, tgt_test);
  for (double p : tgt_pred) {
    EXPECT_TRUE(std::isfinite(p));
  }
}

TEST(TlpTest, RelativePredictionRecoversAbsoluteOnSourceDevice) {
  const Dataset& ds = SmallDataset();
  Rng rng(89);
  SplitIndices split = SplitDataset(ds, {0}, {}, &rng);
  TlpConfig cfg;
  cfg.epochs = 20;
  TlpModel model(cfg);
  model.Fit(ds, split.train);
  std::vector<double> pred = model.Predict(ds, split.test);
  std::vector<double> truth = GatherLabels(ds, split.test);
  EXPECT_LT(Mape(pred, truth), 1.5);
}

TEST(TlpTest, UnseenTaskFallsBackToGlobalMean) {
  const Dataset& ds = SmallDataset();
  Rng rng(90);
  // Train only on a subset of tasks.
  std::vector<int> train;
  std::vector<int> unseen;
  for (int idx : SamplesOnDevice(ds, 0)) {
    const Sample& s = ds.samples[static_cast<size_t>(idx)];
    int task = ds.programs[static_cast<size_t>(s.program_index)].task_id;
    (task % 3 == 0 ? unseen : train).push_back(idx);
  }
  TlpConfig cfg;
  cfg.epochs = 5;
  TlpModel model(cfg);
  model.Fit(ds, train);
  std::vector<double> pred = model.Predict(ds, unseen);
  for (double p : pred) {
    EXPECT_GT(p, 0.0);
    EXPECT_TRUE(std::isfinite(p));
  }
}

// FNV-1a over the bit patterns of every prediction, in order.
uint64_t PredictionHash(const std::vector<double>& pred) {
  uint64_t h = kFnvOffset;
  for (double p : pred) {
    h = FnvMixDouble(h, p);
  }
  return h;
}

// Bit patterns of the MLP baselines' predictions on the fixtures above (the
// same splits, configs and seeds), per kernel ISA: the AVX2 kernels round
// each multiply-add once, the scalar ones twice, so the two differ from each
// other but each must be reproduced exactly. Pins both baselines' training
// step and their inference forward.
struct BaselineGolden {
  uint64_t habitat;     // split.test of HabitatTest, both devices
  uint64_t tlp;         // split.test of the source-device TlpTest
  uint64_t tlp_unseen;  // the unseen tasks of UnseenTaskFallsBackToGlobalMean
};

constexpr BaselineGolden kAvx2BaselineGolden = {0x68e4b4d7efff9bc3ull, 0x3cdb6092d8ab7cceull,
                                                0x1f581c4a1b5bdaebull};
constexpr BaselineGolden kScalarBaselineGolden = {0xbe82ed3e85100d18ull, 0x00fb9629702045d4ull,
                                                  0xe72051cc6e7b4a9eull};

TEST(BaselineGoldenTest, MlpBaselinePredictionsMatchGoldenBits) {
  const BaselineGolden& golden =
      ActiveKernelIsa() == KernelIsa::kAvx2 ? kAvx2BaselineGolden : kScalarBaselineGolden;
  SCOPED_TRACE(KernelIsaName(ActiveKernelIsa()));
  const Dataset& ds = SmallDataset();
  {
    Rng rng(88);
    SplitIndices split = SplitDataset(ds, {0, 3}, {}, &rng);
    HabitatConfig cfg;
    cfg.epochs = 30;
    HabitatModel model(cfg);
    model.Fit(ds, split.train, /*source_device=*/0);
    EXPECT_EQ(PredictionHash(model.Predict(ds, split.test)), golden.habitat);
  }
  {
    Rng rng(89);
    SplitIndices split = SplitDataset(ds, {0}, {}, &rng);
    TlpConfig cfg;
    cfg.epochs = 20;
    TlpModel model(cfg);
    model.Fit(ds, split.train);
    EXPECT_EQ(PredictionHash(model.Predict(ds, split.test)), golden.tlp);
  }
  {
    std::vector<int> train;
    std::vector<int> unseen;
    for (int idx : SamplesOnDevice(ds, 0)) {
      const Sample& s = ds.samples[static_cast<size_t>(idx)];
      int task = ds.programs[static_cast<size_t>(s.program_index)].task_id;
      (task % 3 == 0 ? unseen : train).push_back(idx);
    }
    TlpConfig cfg;
    cfg.epochs = 5;
    TlpModel model(cfg);
    model.Fit(ds, train);
    EXPECT_EQ(PredictionHash(model.Predict(ds, unseen)), golden.tlp_unseen);
  }
}

}  // namespace
}  // namespace cdmpp
