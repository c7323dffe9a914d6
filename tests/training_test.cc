// Training-step contracts (README "Training step"): the sample-sharded step
// gives bit-for-bit the same model for every thread-pool size and the same
// bits as the per-op step it replaced (golden patterns below), and it runs in
// a bounded number of parallel regions per step.
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/predictor.h"
#include "src/obs/metrics.h"
#include "src/support/cpu_features.h"
#include "src/support/parallel_for.h"

namespace cdmpp {
namespace {

const Dataset& SmallZoo() {
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

PredictorConfig SmallConfig() {
  PredictorConfig cfg;
  cfg.d_model = 32;
  cfg.num_heads = 2;
  cfg.d_ff = 64;
  cfg.num_layers = 2;
  cfg.z_dim = 32;
  cfg.epochs = 2;
  cfg.batch_size = 64;
  cfg.seed = 3;
  return cfg;
}

// Routes ThreadPool::Global() to a private pool for one scope.
struct ScopedPool {
  explicit ScopedPool(int threads) : pool(threads) { ThreadPool::SetGlobalForTesting(&pool); }
  ~ScopedPool() { ThreadPool::SetGlobalForTesting(nullptr); }
  ThreadPool pool;
};

struct TrainingRun {
  TrainStats pretrain;
  std::vector<Matrix> pretrained_params;
  TrainStats finetune;  // CMD-regularized (alpha_cmd > 0)
  std::vector<Matrix> finetuned_params;
};

// 2-epoch Pretrain on device 0, then a 2-epoch CMD Finetune towards device 3
// from 40 labeled target samples.
TrainingRun Train() {
  const Dataset& ds = SmallZoo();
  Rng rng(8);
  const SplitIndices split = SplitDataset(ds, {0}, {}, &rng);
  const std::vector<int> target = SamplesOnDevice(ds, 3);
  const std::vector<int> labeled(target.begin(), target.begin() + 40);
  const std::vector<int> source(split.train.begin(), split.train.begin() + 150);
  PredictorConfig cfg = SmallConfig();
  EXPECT_GT(cfg.alpha_cmd, 0.0);
  CdmppPredictor predictor(cfg);
  TrainingRun run;
  run.pretrain = predictor.Pretrain(ds, split.train, split.valid);
  run.pretrained_params = predictor.ExportParams();
  run.finetune = predictor.Finetune(ds, labeled, source, target, /*epochs=*/2);
  run.finetuned_params = predictor.ExportParams();
  return run;
}

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// FNV-1a over the bit patterns of every parameter element.
uint64_t ParamHash(const std::vector<Matrix>& params) {
  uint64_t h = 1469598103934665603ull;
  for (const Matrix& m : params) {
    for (size_t i = 0; i < m.size(); ++i) {
      uint32_t b = 0;
      std::memcpy(&b, m.data() + i, sizeof(b));
      h = (h ^ b) * 1099511628211ull;
    }
  }
  return h;
}

void ExpectSameBits(const std::vector<double>& a, const std::vector<double>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(Bits(a[i]), Bits(b[i])) << what << "[" << i << "]";
  }
}

void ExpectSameParams(const std::vector<Matrix>& a, const std::vector<Matrix>& b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t t = 0; t < a.size(); ++t) {
    ASSERT_EQ(a[t].size(), b[t].size()) << what << " tensor " << t;
    EXPECT_EQ(std::memcmp(a[t].data(), b[t].data(), a[t].size() * sizeof(float)), 0)
        << what << " tensor " << t;
  }
}

TEST(TrainingStepTest, BitwiseEqualAcrossPoolSizes) {
  TrainingRun serial;
  {
    ScopedPool pool(1);
    serial = Train();
  }
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE(testing::Message() << "pool threads " << threads);
    ScopedPool pool(threads);
    const TrainingRun run = Train();
    ExpectSameBits(run.pretrain.epoch_train_loss, serial.pretrain.epoch_train_loss,
                   "pretrain loss");
    ExpectSameBits(run.pretrain.epoch_valid_mape, serial.pretrain.epoch_valid_mape,
                   "pretrain valid mape");
    EXPECT_EQ(Bits(run.pretrain.final_valid.mape), Bits(serial.pretrain.final_valid.mape));
    ExpectSameParams(run.pretrained_params, serial.pretrained_params, "pretrained");
    ExpectSameBits(run.finetune.epoch_train_loss, serial.finetune.epoch_train_loss,
                   "finetune loss");
    ExpectSameBits(run.finetune.epoch_valid_mape, serial.finetune.epoch_valid_mape,
                   "finetune valid mape");
    EXPECT_EQ(Bits(run.finetune.final_valid.mape), Bits(serial.finetune.final_valid.mape));
    ExpectSameParams(run.finetuned_params, serial.finetuned_params, "finetuned");
  }
}

// Bit patterns of Train() produced by the per-op training step this one
// replaced (one region per layer op, serial Adam), per kernel ISA: the
// AVX2 kernels round each multiply-add once, the scalar ones twice, so the
// two differ from each other but each must be reproduced exactly.
struct Golden {
  uint64_t pretrain_loss[2];
  uint64_t pretrain_mape;
  uint64_t finetune_loss[2];
  uint64_t finetune_mape;
  uint64_t params;  // ParamHash after Finetune
};

constexpr Golden kAvx2Golden = {{0x402dea4b40f07fa0ull, 0x401a06a0406cb0e6ull},
                                0x3fedeaa663c74f6aull,
                                {0x40026b5defc8b889ull, 0x3ffcb2ea04458675ull},
                                0x3fe6dd0b155646d0ull,
                                0x7bc17e007fd0c575ull};
constexpr Golden kScalarGolden = {{0x402dea4b3f410d3bull, 0x401a06a04889ee7full},
                                  0x3fedeaa66e19d609ull,
                                  {0x40026b5dd4dfad95ull, 0x3ffcb2ea6dbef13cull},
                                  0x3fe6dd0c11332834ull,
                                  0x1c9367a9f074ab5eull};

TEST(TrainingStepTest, MatchesPerOpStepGoldenBits) {
  const Golden& golden =
      ActiveKernelIsa() == KernelIsa::kAvx2 ? kAvx2Golden : kScalarGolden;
  SCOPED_TRACE(KernelIsaName(ActiveKernelIsa()));
  ScopedPool pool(4);
  const TrainingRun run = Train();
  ASSERT_EQ(run.pretrain.epoch_train_loss.size(), 2u);
  ASSERT_EQ(run.finetune.epoch_train_loss.size(), 2u);
  for (int e = 0; e < 2; ++e) {
    EXPECT_EQ(Bits(run.pretrain.epoch_train_loss[static_cast<size_t>(e)]),
              golden.pretrain_loss[e]);
    EXPECT_EQ(Bits(run.finetune.epoch_train_loss[static_cast<size_t>(e)]),
              golden.finetune_loss[e]);
  }
  EXPECT_EQ(Bits(run.pretrain.final_valid.mape), golden.pretrain_mape);
  EXPECT_EQ(Bits(run.finetune.final_valid.mape), golden.finetune_mape);
  EXPECT_EQ(ParamHash(run.finetuned_params), golden.params);
}

// A step is forward, backward, parameter gradients, the two clip passes and
// Adam: at most six forked regions, however many layers and ops it runs
// (the per-op step forked ~50 times).
TEST(TrainingStepTest, ForksAFewRegionsPerStep) {
  constexpr uint64_t kMaxForksPerStep = 6;
  const Dataset& ds = SmallZoo();
  Rng rng(8);
  const SplitIndices split = SplitDataset(ds, {0}, {}, &rng);
  const PredictorConfig cfg = SmallConfig();
  const uint64_t steps =
      MakeBatches(GroupByLeafCount(ds, split.train), cfg.batch_size, /*rng=*/nullptr).size() *
      static_cast<uint64_t>(cfg.epochs);
  ScopedPool pool(4);
  CdmppPredictor predictor(cfg);
  const obs::Counter& forked =
      obs::MetricsRegistry::Global().GetCounter("parallel_for.forked");
  const uint64_t before = forked.Value();
  predictor.Pretrain(ds, split.train, /*valid=*/{});  // no validation forward
  const uint64_t forks = forked.Value() - before;
  EXPECT_GT(forks, 0u);
  EXPECT_LE(forks, kMaxForksPerStep * steps) << forks << " forks over " << steps << " steps";
}

}  // namespace
}  // namespace cdmpp
