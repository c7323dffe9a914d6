#include <cmath>
#include <cstring>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "src/nn/attention.h"
#include "src/nn/loss.h"
#include "src/nn/matrix.h"
#include "src/nn/optimizer.h"
#include "src/nn/transformer.h"
#include "tests/grad_check.h"

namespace cdmpp {
namespace {

Matrix RandomMatrix(int rows, int cols, Rng* rng, double scale = 1.0) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->Normal(0.0, scale));
  }
  return m;
}

// Scalar loss = sum(output * weights) for gradient checking: d(loss)/d(out)
// is just the weight matrix.
double WeightedSum(const Matrix& out, const Matrix& weights) {
  double s = 0.0;
  for (size_t i = 0; i < out.size(); ++i) {
    s += static_cast<double>(out.data()[i]) * weights.data()[i];
  }
  return s;
}

// Whole-batch training through a layer's row primitives: the pass the
// gradient checks differentiate and the smoke test trains with. Forward
// sizes the caches for x's rows and runs the forward over all of them;
// Backward seeds output_grad() with dy, returns dLoss/dx and accumulates
// every parameter gradient through the layer's GradTasks. Attention and the
// encoder take the step's `seq_len`.
template <typename Layer>
class RowTrainer {
 public:
  explicit RowTrainer(Layer* layer, int seq_len = 0) : layer_(layer), seq_len_(seq_len) {}

  Matrix Forward(const Matrix& x) {
    x_ = x;
    const int rows = x.rows();
    if constexpr (kSequence) {
      layer_->BeginStep(rows, seq_len_);
      scratch_.Reset();
      return layer_->ForwardRows(x_, 0, rows, &scratch_);
    } else {
      layer_->BeginStep(rows);
      return layer_->ForwardRows(x_, 0, rows);
    }
  }

  Matrix Backward(const Matrix& dy) {
    const int rows = x_.rows();
    layer_->output_grad() = dy;
    Matrix dx(rows, x_.cols());
    std::vector<GradTask> tasks;
    if constexpr (kSequence) {
      scratch_.Reset();
      layer_->InputGradRows(0, rows, &scratch_, &dx);
      layer_->AppendGradTasks(x_, &tasks);
    } else if constexpr (std::is_same_v<Layer, LayerNorm>) {
      layer_->InputGradRows(0, rows, &dx);
      layer_->AppendGradTasks(&tasks);
    } else {
      if constexpr (std::is_same_v<Layer, Mlp>) {
        layer_->BackpropRows(0, rows);
      }
      layer_->InputGradRows(0, rows, dx.data(), dx.cols());
      layer_->AppendGradTasks(x_, &tasks);
    }
    for (const GradTask& task : tasks) {
      RunGradTask(task);
    }
    return dx;
  }

 private:
  static constexpr bool kSequence = !std::is_same_v<Layer, Linear> &&
                                    !std::is_same_v<Layer, LayerNorm> &&
                                    !std::is_same_v<Layer, Mlp>;
  Layer* layer_;
  int seq_len_;
  Matrix x_;  // the forward's input, which the weight-gradient tasks read
  Workspace scratch_;
};

TEST(MatrixTest, MatMulMatchesManual) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  float av[] = {1, 2, 3, 4, 5, 6};
  float bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.data());
  std::copy(bv, bv + 6, b.data());
  Matrix c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.At(0, 0), 58);
  EXPECT_FLOAT_EQ(c.At(0, 1), 64);
  EXPECT_FLOAT_EQ(c.At(1, 0), 139);
  EXPECT_FLOAT_EQ(c.At(1, 1), 154);
}

TEST(MatrixTest, TransposedVariantsAgree) {
  Rng rng(41);
  Matrix a = RandomMatrix(4, 5, &rng);
  Matrix b = RandomMatrix(5, 3, &rng);
  Matrix ref = MatMul(a, b);

  // a^T stored transposed: at [5,4]; MatMulTransA(at, b) == a x b.
  Matrix at(5, 4);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 5; ++j) {
      at.At(j, i) = a.At(i, j);
    }
  }
  Matrix r1 = MatMulTransA(at, b);
  // b^T stored transposed: bt [3,5]; MatMulTransB(a, bt) == a x b.
  Matrix bt(3, 5);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 3; ++j) {
      bt.At(j, i) = b.At(i, j);
    }
  }
  Matrix r2 = MatMulTransB(a, bt);
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(r1.data()[i], ref.data()[i], 1e-5);
    EXPECT_NEAR(r2.data()[i], ref.data()[i], 1e-5);
  }
}

TEST(MatrixTest, SoftmaxRowsSumToOne) {
  Rng rng(42);
  Matrix m = RandomMatrix(6, 9, &rng, 3.0);
  SoftmaxRows(&m);
  for (int i = 0; i < m.rows(); ++i) {
    float sum = 0.0f;
    for (int j = 0; j < m.cols(); ++j) {
      EXPECT_GE(m.At(i, j), 0.0f);
      sum += m.At(i, j);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST(LinearTest, GradientCheck) {
  Rng rng(43);
  Linear layer(5, 4, &rng);
  RowTrainer<Linear> train(&layer);
  Matrix x = RandomMatrix(3, 5, &rng);
  Matrix w = RandomMatrix(3, 4, &rng);

  auto loss = [&]() { return WeightedSum(train.Forward(x), w); };
  layer.ZeroGrad();
  loss();
  train.Backward(w);
  std::vector<Param*> params;
  layer.CollectParams(&params);
  CheckParamGradients(params, loss);
}

TEST(LinearTest, InputGradientCheck) {
  Rng rng(44);
  Linear layer(4, 3, &rng);
  RowTrainer<Linear> train(&layer);
  Matrix x = RandomMatrix(2, 4, &rng);
  Matrix w = RandomMatrix(2, 3, &rng);
  layer.ZeroGrad();
  train.Forward(x);
  Matrix dx = train.Backward(w);
  const double eps = 1e-3;
  for (int i = 0; i < x.rows(); ++i) {
    for (int j = 0; j < x.cols(); ++j) {
      float orig = x.At(i, j);
      x.At(i, j) = orig + static_cast<float>(eps);
      double up = WeightedSum(train.Forward(x), w);
      x.At(i, j) = orig - static_cast<float>(eps);
      double down = WeightedSum(train.Forward(x), w);
      x.At(i, j) = orig;
      EXPECT_NEAR(dx.At(i, j), (up - down) / (2 * eps), 1e-2);
    }
  }
}

TEST(LayerNormTest, NormalizesRows) {
  Rng rng(45);
  LayerNorm ln(8);
  Matrix x = RandomMatrix(4, 8, &rng, 5.0);
  Workspace ws;
  const Matrix& y = *ln.ForwardInference(x, &ws);
  for (int i = 0; i < y.rows(); ++i) {
    double mean = 0.0;
    for (int j = 0; j < 8; ++j) {
      mean += y.At(i, j);
    }
    mean /= 8.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
  }
}

TEST(LayerNormTest, GradientCheck) {
  Rng rng(46);
  LayerNorm ln(6);
  RowTrainer<LayerNorm> train(&ln);
  Matrix x = RandomMatrix(3, 6, &rng);
  Matrix w = RandomMatrix(3, 6, &rng);
  auto loss = [&]() { return WeightedSum(train.Forward(x), w); };
  ln.ZeroGrad();
  loss();
  train.Backward(w);
  std::vector<Param*> params;
  ln.CollectParams(&params);
  CheckParamGradients(params, loss);
}

TEST(MlpTest, GradientCheck) {
  Rng rng(47);
  Mlp mlp({4, 6, 1}, &rng);
  RowTrainer<Mlp> train(&mlp);
  Matrix x = RandomMatrix(5, 4, &rng);
  Matrix w = RandomMatrix(5, 1, &rng);
  auto loss = [&]() { return WeightedSum(train.Forward(x), w); };
  mlp.ZeroGrad();
  loss();
  train.Backward(w);
  std::vector<Param*> params;
  mlp.CollectParams(&params);
  CheckParamGradients(params, loss);
}

TEST(AttentionTest, OutputShapeMatchesInput) {
  Rng rng(48);
  MultiHeadSelfAttention attn(8, 2, &rng);
  Matrix x = RandomMatrix(6, 8, &rng);  // 2 samples x seq_len 3
  Workspace ws;
  const Matrix& y = *attn.ForwardInference(x, 3, &ws);
  EXPECT_EQ(y.rows(), 6);
  EXPECT_EQ(y.cols(), 8);
}

TEST(AttentionTest, SamplesAreIndependent) {
  // Changing sample 1's input must not change sample 0's output.
  Rng rng(49);
  MultiHeadSelfAttention attn(8, 2, &rng);
  Matrix x = RandomMatrix(6, 8, &rng);
  Workspace ws;
  const Matrix& y1 = *attn.ForwardInference(x, 3, &ws);
  x.At(4, 2) += 1.0f;  // perturb a row in the second sample
  const Matrix& y2 = *attn.ForwardInference(x, 3, &ws);
  for (int t = 0; t < 3; ++t) {
    for (int j = 0; j < 8; ++j) {
      EXPECT_FLOAT_EQ(y1.At(t, j), y2.At(t, j));
    }
  }
}

TEST(AttentionTest, GradientCheck) {
  Rng rng(50);
  MultiHeadSelfAttention attn(4, 2, &rng);
  RowTrainer<MultiHeadSelfAttention> train(&attn, /*seq_len=*/2);
  Matrix x = RandomMatrix(4, 4, &rng);  // 2 samples x seq_len 2
  Matrix w = RandomMatrix(4, 4, &rng);
  auto loss = [&]() { return WeightedSum(train.Forward(x), w); };
  attn.ZeroGrad();
  loss();
  train.Backward(w);
  std::vector<Param*> params;
  attn.CollectParams(&params);
  CheckParamGradients(params, loss, 1e-3, 3e-2);
}

TEST(TransformerTest, GradientCheck) {
  Rng rng(51);
  TransformerEncoderLayer layer(4, 2, 8, &rng);
  RowTrainer<TransformerEncoderLayer> train(&layer, /*seq_len=*/2);
  Matrix x = RandomMatrix(4, 4, &rng);
  Matrix w = RandomMatrix(4, 4, &rng);
  auto loss = [&]() { return WeightedSum(train.Forward(x), w); };
  layer.ZeroGrad();
  loss();
  train.Backward(w);
  std::vector<Param*> params;
  layer.CollectParams(&params);
  CheckParamGradients(params, loss, 1e-3, 5e-2, 6);
}

TEST(TransformerTest, StackedEncoderInputGradient) {
  Rng rng(52);
  TransformerEncoder enc(4, 2, 8, 2, &rng);
  RowTrainer<TransformerEncoder> train(&enc, /*seq_len=*/2);
  Matrix x = RandomMatrix(4, 4, &rng);
  Matrix w = RandomMatrix(4, 4, &rng);
  enc.ZeroGrad();
  train.Forward(x);
  Matrix dx = train.Backward(w);
  const double eps = 1e-2;
  int checked = 0;
  for (int i = 0; i < x.rows() && checked < 6; ++i) {
    for (int j = 0; j < x.cols() && checked < 6; ++j, ++checked) {
      float orig = x.At(i, j);
      x.At(i, j) = orig + static_cast<float>(eps);
      double up = WeightedSum(train.Forward(x), w);
      x.At(i, j) = orig - static_cast<float>(eps);
      double down = WeightedSum(train.Forward(x), w);
      x.At(i, j) = orig;
      double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(dx.At(i, j), numeric, 0.05 * std::max(1.0, std::abs(numeric)));
    }
  }
}

void ExpectSameBits(const Matrix& train, const Matrix& infer, const char* what) {
  ASSERT_EQ(train.rows(), infer.rows()) << what;
  ASSERT_EQ(train.cols(), infer.cols()) << what;
  EXPECT_EQ(std::memcmp(train.data(), infer.data(), train.size() * sizeof(float)), 0) << what;
}

// A layer's training forward, run over row shards into its caches, and its
// arena inference forward give the same bits: the two callers share one
// forward body per layer. Attention and the encoder shard on whole samples.
TEST(ForwardBodyTest, TrainingRowShardsMatchArenaInferenceBitwise) {
  Rng rng(61);
  constexpr int kSeqLen = 3;
  constexpr int kRows = 5 * kSeqLen;
  constexpr int kDim = 16;
  const std::vector<int> row_cuts = {0, 4, 9, kRows};
  const std::vector<int> sample_cuts = {0, 2 * kSeqLen, kRows};
  const Matrix x = RandomMatrix(kRows, kDim, &rng);
  Workspace scratch;
  // Runs fwd(r0, r1) over each shard in turn; returns the last shard's result.
  auto shards = [&](const std::vector<int>& cuts, auto&& fwd) {
    const Matrix* y = nullptr;
    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
      scratch.Reset();
      y = &fwd(cuts[i], cuts[i + 1]);
    }
    return y;
  };

  Linear linear(kDim, 12, &rng);
  linear.BeginStep(kRows);
  const Matrix* y = shards(row_cuts, [&](int r0, int r1) -> const Matrix& {
    return linear.ForwardRows(x, r0, r1);
  });
  Workspace ws;
  ExpectSameBits(*y, *linear.ForwardInference(x, &ws), "Linear");

  LayerNorm norm(kDim);
  norm.BeginStep(kRows);
  y = shards(row_cuts, [&](int r0, int r1) -> const Matrix& {
    return norm.ForwardRows(x, r0, r1);
  });
  ExpectSameBits(*y, *norm.ForwardInference(x, &ws), "LayerNorm");

  Mlp mlp({kDim, 24, 8, 4}, &rng);
  mlp.BeginStep(kRows);
  y = shards(row_cuts, [&](int r0, int r1) -> const Matrix& {
    return mlp.ForwardRows(x, r0, r1);
  });
  ExpectSameBits(*y, *mlp.ForwardInference(x, &ws), "Mlp");

  MultiHeadSelfAttention attn(kDim, 4, &rng);
  attn.BeginStep(kRows, kSeqLen);
  y = shards(sample_cuts, [&](int r0, int r1) -> const Matrix& {
    return attn.ForwardRows(x, r0, r1, &scratch);
  });
  ExpectSameBits(*y, *attn.ForwardInference(x, kSeqLen, &ws), "attention");

  TransformerEncoderLayer layer(kDim, 2, 32, &rng);
  layer.BeginStep(kRows, kSeqLen);
  y = shards(sample_cuts, [&](int r0, int r1) -> const Matrix& {
    return layer.ForwardRows(x, r0, r1, &scratch);
  });
  ExpectSameBits(*y, *layer.ForwardInference(x, kSeqLen, &ws), "encoder layer");

  TransformerEncoder enc(kDim, 2, 32, /*num_layers=*/2, &rng);
  enc.BeginStep(kRows, kSeqLen);
  y = shards(sample_cuts, [&](int r0, int r1) -> const Matrix& {
    return enc.ForwardRows(x, r0, r1, &scratch);
  });
  ExpectSameBits(*y, *enc.ForwardInference(x, kSeqLen, &ws), "2-layer encoder");
}

TEST(LstmTest, GradientCheck) {
  Rng rng(53);
  LstmCell cell(3, 4, &rng);
  Matrix x = RandomMatrix(2, 3, &rng);
  LstmCell::State prev = cell.ZeroState(2);
  prev.h = RandomMatrix(2, 4, &rng, 0.5);
  prev.c = RandomMatrix(2, 4, &rng, 0.5);
  Matrix w = RandomMatrix(2, 4, &rng);

  LstmCell::Cache cache;
  auto loss = [&]() {
    LstmCell::Cache tmp;
    return WeightedSum(cell.Forward(x, prev, &tmp).h, w);
  };
  cell.ZeroGrad();
  cell.Forward(x, prev, &cache);
  cell.Backward(cache, w, Matrix());
  std::vector<Param*> params;
  cell.CollectParams(&params);
  CheckParamGradients(params, loss, 1e-3, 3e-2);
}

TEST(OptimizerTest, AdamReducesQuadraticLoss) {
  // Minimize ||w - target||^2 with Adam.
  Param p;
  p.InitZero(1, 8);
  std::vector<float> target = {1, -2, 3, 0.5, -0.25, 2, -1, 0};
  Adam adam({&p}, 0.05);
  double first_loss = 0.0;
  double last_loss = 0.0;
  for (int step = 0; step < 300; ++step) {
    double loss = 0.0;
    for (int j = 0; j < 8; ++j) {
      float d = p.value.At(0, j) - target[static_cast<size_t>(j)];
      loss += d * d;
      p.grad.At(0, j) = 2 * d;
    }
    if (step == 0) {
      first_loss = loss;
    }
    last_loss = loss;
    adam.Step();
    p.grad.Zero();
  }
  EXPECT_LT(last_loss, first_loss * 1e-3);
}

TEST(OptimizerTest, SgdMomentumConverges) {
  Param p;
  p.InitZero(1, 4);
  Sgd sgd({&p}, 0.02);
  for (int step = 0; step < 400; ++step) {
    for (int j = 0; j < 4; ++j) {
      p.grad.At(0, j) = 2 * (p.value.At(0, j) - 1.0f);
    }
    sgd.Step();
    p.grad.Zero();
  }
  for (int j = 0; j < 4; ++j) {
    EXPECT_NEAR(p.value.At(0, j), 1.0f, 1e-2);
  }
}

TEST(OptimizerTest, CyclicLrIsTriangular) {
  CyclicLr sched(0.1, 0.5, 10);
  EXPECT_DOUBLE_EQ(sched.LrAt(0), 0.1);
  EXPECT_DOUBLE_EQ(sched.LrAt(10), 0.5);
  EXPECT_DOUBLE_EQ(sched.LrAt(20), 0.1);
  EXPECT_DOUBLE_EQ(sched.LrAt(5), 0.3);
  EXPECT_DOUBLE_EQ(sched.LrAt(15), 0.3);
}

class LossGradTest : public ::testing::TestWithParam<LossKind> {};

TEST_P(LossGradTest, GradientMatchesFiniteDifference) {
  LossKind kind = GetParam();
  std::vector<float> pred = {1.2f, 3.4f, 0.8f, 2.0f};
  std::vector<float> target = {1.0f, 3.0f, 1.0f, 2.5f};
  LossResult res = ComputeLoss(kind, pred, target, 0.2);
  const double eps = 1e-4;
  for (size_t i = 0; i < pred.size(); ++i) {
    std::vector<float> up = pred;
    std::vector<float> down = pred;
    up[i] += static_cast<float>(eps);
    down[i] -= static_cast<float>(eps);
    double numeric = (ComputeLoss(kind, up, target, 0.2).value -
                      ComputeLoss(kind, down, target, 0.2).value) /
                     (2 * eps);
    EXPECT_NEAR(res.grad[i], numeric, 1e-3) << LossKindName(kind) << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllLosses, LossGradTest,
                         ::testing::Values(LossKind::kMse, LossKind::kMape, LossKind::kMspe,
                                           LossKind::kHybrid));

TEST(LossTest, HybridIsMsePlusLambdaMape) {
  std::vector<float> pred = {2.0f, 4.0f};
  std::vector<float> target = {1.0f, 5.0f};
  double mse = ComputeLoss(LossKind::kMse, pred, target, 0).value;
  double mape = ComputeLoss(LossKind::kMape, pred, target, 0).value;
  double hybrid = ComputeLoss(LossKind::kHybrid, pred, target, 0.3).value;
  EXPECT_NEAR(hybrid, mse + 0.3 * mape, 1e-9);
}

TEST(TrainingSmokeTest, TransformerFitsSimpleFunction) {
  // End-to-end: a tiny transformer + linear head should fit y = mean(x).
  Rng rng(54);
  const int seq = 3;
  const int d = 8;
  TransformerEncoder enc(d, 2, 16, 1, &rng);
  Linear head(seq * d, 1, &rng);
  RowTrainer<TransformerEncoder> enc_train(&enc, seq);
  RowTrainer<Linear> head_train(&head);
  std::vector<Param*> params;
  enc.CollectParams(&params);
  head.CollectParams(&params);
  Adam adam(params, 3e-3);

  auto make_batch = [&](int n, Matrix* x, std::vector<float>* y) {
    *x = RandomMatrix(n * seq, d, &rng);
    y->resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      float sum = 0.0f;
      for (int t = 0; t < seq; ++t) {
        for (int j = 0; j < d; ++j) {
          sum += x->At(i * seq + t, j);
        }
      }
      (*y)[static_cast<size_t>(i)] = sum / (seq * d);
    }
  };

  double first_loss = -1.0;
  double last_loss = 0.0;
  for (int step = 0; step < 150; ++step) {
    Matrix x;
    std::vector<float> y;
    make_batch(16, &x, &y);
    for (Param* p : params) {
      p->grad.Zero();
    }
    Matrix h = enc_train.Forward(x);
    // Flatten each sample's rows into one row for the head.
    Matrix flat(16, seq * d);
    for (int i = 0; i < 16; ++i) {
      for (int t = 0; t < seq; ++t) {
        for (int j = 0; j < d; ++j) {
          flat.At(i, t * d + j) = h.At(i * seq + t, j);
        }
      }
    }
    Matrix pred = head_train.Forward(flat);
    double loss = 0.0;
    Matrix dpred(16, 1);
    for (int i = 0; i < 16; ++i) {
      float diff = pred.At(i, 0) - y[static_cast<size_t>(i)];
      loss += diff * diff / 16.0;
      dpred.At(i, 0) = 2.0f * diff / 16.0f;
    }
    if (first_loss < 0) {
      first_loss = loss;
    }
    last_loss = loss;
    Matrix dflat = head_train.Backward(dpred);
    Matrix dh(16 * seq, d);
    for (int i = 0; i < 16; ++i) {
      for (int t = 0; t < seq; ++t) {
        for (int j = 0; j < d; ++j) {
          dh.At(i * seq + t, j) = dflat.At(i, t * d + j);
        }
      }
    }
    enc_train.Backward(dh);
    adam.Step();
  }
  EXPECT_LT(last_loss, first_loss * 0.5);
}

}  // namespace
}  // namespace cdmpp
