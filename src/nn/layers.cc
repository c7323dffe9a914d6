#include "src/nn/layers.h"

#include <algorithm>
#include <cmath>

#include "src/nn/quantize.h"
#include "src/obs/trace.h"

namespace cdmpp {

// ---------------- GradTask ----------------

namespace {

// Column sums of dy's rows, added to grad: the ColumnSum-then-add a bias
// gradient has always used, per element 0 + dy[0][j] + dy[1][j] + ... in row
// order, then one add into grad. Columns go in blocks of kBlock stack
// accumulators so the row loop streams and vectorizes without a heap
// temporary.
void AddColumnSums(const Matrix& dy, Matrix* grad) {
  constexpr int kBlock = 32;
  for (int j0 = 0; j0 < dy.cols(); j0 += kBlock) {
    const int nb = std::min(kBlock, dy.cols() - j0);
    float acc[kBlock] = {};
    for (int i = 0; i < dy.rows(); ++i) {
      const float* row = dy.Row(i) + j0;
      for (int j = 0; j < nb; ++j) {
        acc[j] += row[j];
      }
    }
    float* g = grad->Row(0) + j0;
    for (int j = 0; j < nb; ++j) {
      g[j] += acc[j];
    }
  }
}

}  // namespace

void RunGradTask(const GradTask& task) {
  const Matrix& dy = *task.dy;
  Matrix& grad = *task.grad;
  switch (task.kind) {
    case GradTask::Kind::kWeight:
      CDMPP_CHECK(task.x->rows() == dy.rows());
      kernels::GemmTN(grad.rows(), grad.cols(), dy.rows(), task.x->data(), task.x->cols(),
                      dy.data(), dy.cols(), /*beta=*/1.0f, grad.data(), grad.cols());
      return;
    case GradTask::Kind::kBias:
      AddColumnSums(dy, &grad);
      return;
    case GradTask::Kind::kGamma:
    case GradTask::Kind::kBeta: {
      float* g = grad.Row(0);
      for (int i = 0; i < dy.rows(); ++i) {
        const float* dyrow = dy.Row(i);
        if (task.kind == GradTask::Kind::kGamma) {
          const float* xrow = task.x->Row(i);
          for (int j = 0; j < dy.cols(); ++j) {
            g[j] += dyrow[j] * xrow[j];
          }
        } else {
          for (int j = 0; j < dy.cols(); ++j) {
            g[j] += dyrow[j];
          }
        }
      }
      return;
    }
  }
}

void ReluBackwardRows(const Matrix& y, int r0, int r1, Matrix* d) {
  for (int i = r0; i < r1; ++i) {
    float* drow = d->Row(i);
    const float* yrow = y.Row(i);
    for (int j = 0; j < d->cols(); ++j) {
      if (yrow[j] <= 0.0f) {
        drow[j] = 0.0f;
      }
    }
  }
}

// ---------------- Linear ----------------

Linear::Linear(int in_dim, int out_dim, Rng* rng) {
  w_.InitXavier(in_dim, out_dim, rng);
  b_.InitZero(1, out_dim);
}

void Linear::ForwardRowsInto(const Matrix& x, int r0, int r1, kernels::Activation act,
                             Precision precision, Matrix* y, Workspace* scratch) const {
  CDMPP_CHECK(x.cols() == in_dim() && y->cols() == out_dim());
  if (precision == Precision::kInt8 && int8_ != nullptr) {
    ForwardQuantizedRowsInto(QuantizeRows(x, r0, r1, scratch), r0, r1, act, y);
    return;
  }
  kernels::GemmBiasAct(r1 - r0, out_dim(), in_dim(), x.Row(r0), x.cols(), w_.value.data(),
                       w_.value.cols(), b_.value.data(), act, y->Row(r0), y->cols());
}

void Linear::PackInt8(const std::vector<float>& col_scales) {
  auto pack = std::make_unique<Int8Pack>();
  const int k = in_dim();
  const int n = out_dim();
  if (col_scales.empty()) {
    QuantizePackWeights(k, n, w_.value.data(), n, &pack->weights);
  } else {
    CDMPP_CHECK(static_cast<int>(col_scales.size()) == k);
    // Fold c_p into the weight rows, then quantize per output channel as
    // usual: the column scales live entirely inside the packed weights and
    // the scaled activation quantizer; kernels and epilogue are untouched.
    std::vector<float> folded(static_cast<size_t>(k) * n);
    pack->inv_col_scales.resize(static_cast<size_t>(k));
    for (int p = 0; p < k; ++p) {
      const float c = col_scales[static_cast<size_t>(p)];
      CDMPP_CHECK_MSG(c > 0.0f && std::isfinite(c), "column scales must be positive and finite");
      pack->inv_col_scales[static_cast<size_t>(p)] = 1.0f / c;
      for (int j = 0; j < n; ++j) {
        folded[static_cast<size_t>(p) * n + j] = w_.value.At(p, j) * c;
      }
    }
    QuantizePackWeights(k, n, folded.data(), n, &pack->weights);
  }
  int8_ = std::move(pack);
}

bool Linear::SharesInt8Input(const Linear& other) const {
  return int8_ != nullptr && other.int8_ != nullptr && in_dim() == other.in_dim() &&
         int8_->inv_col_scales == other.int8_->inv_col_scales;
}

Linear::QuantizedRows Linear::QuantizeRows(const Matrix& x, int r0, int r1,
                                           Workspace* scratch) const {
  CDMPP_CHECK(int8_ != nullptr && x.cols() == in_dim());
  const int m = r1 - r0;
  const int ldq = 2 * int8_->weights.k2;
  int16_t* codes = scratch->NewI16(static_cast<size_t>(m) * ldq);
  float* scales = scratch->NewMatrix(m, 1)->data();
  // The dequant half is fused into the GEMM epilogue and accounted to the
  // enclosing stage; activation quantization is the separable part.
  obs::ScopedSpan span(obs::Stage::kQuantize);
  if (int8_->inv_col_scales.empty()) {
    QuantizeActivationsPerRow(m, in_dim(), x.Row(r0), x.cols(), codes, ldq, scales);
  } else {
    QuantizeActivationsPerRowScaled(m, in_dim(), x.Row(r0), x.cols(),
                                    int8_->inv_col_scales.data(), codes, ldq, scales);
  }
  return {codes, ldq, scales};
}

void Linear::ForwardQuantizedRowsInto(const QuantizedRows& xq, int r0, int r1,
                                      kernels::Activation act, Matrix* y) const {
  CDMPP_CHECK(int8_ != nullptr && xq.ldq >= 2 * int8_->weights.k2 && y->cols() == out_dim());
  kernels::GemmS8S8BiasAct(r1 - r0, xq.codes, xq.ldq, int8_->weights, xq.scales,
                           b_.value.data(), act, y->Row(r0), y->cols());
}

void Linear::BeginStep(int rows) {
  SizeStepCache(&y_, rows, out_dim());
  SizeStepCache(&dy_, rows, out_dim());
}

Matrix& Linear::ForwardRows(const Matrix& x, int r0, int r1) {
  ForwardRowsInto(x, r0, r1, kernels::Activation::kNone, Precision::kFp32, &y_,
                  /*scratch=*/nullptr);
  return y_;
}

void Linear::InputGradRows(int r0, int r1, float* dx, int ldx, bool accumulate) const {
  kernels::GemmNT(r1 - r0, in_dim(), out_dim(), dy_.Row(r0), dy_.cols(), w_.value.data(),
                  w_.value.cols(), accumulate ? 1.0f : 0.0f, dx, ldx);
}

void Linear::AppendGradTasks(const Matrix& x, std::vector<GradTask>* tasks) {
  tasks->push_back({GradTask::Kind::kWeight, &x, &dy_, &w_.grad});
  tasks->push_back({GradTask::Kind::kBias, nullptr, &dy_, &b_.grad});
}

Matrix* Linear::ForwardInference(const Matrix& x, Workspace* ws, kernels::Activation act,
                                 Precision precision) const {
  Matrix* y = ws->NewMatrix(x.rows(), out_dim());
  ForwardRowsInto(x, 0, x.rows(), act, precision, y, ws);
  return y;
}

void Linear::CollectParams(std::vector<Param*>* out) {
  out->push_back(&w_);
  out->push_back(&b_);
}

// ---------------- LayerNorm ----------------

LayerNorm::LayerNorm(int dim) {
  gamma_.InitZero(1, dim);
  for (int j = 0; j < dim; ++j) {
    gamma_.value.At(0, j) = 1.0f;
  }
  beta_.InitZero(1, dim);
}

void LayerNorm::ForwardRowsInto(const Matrix& x, int r0, int r1, const Dest& dest) const {
  // Nests under the encoder span when a sampled trace is bound; no-op (one
  // thread-local load) otherwise.
  obs::ScopedSpan span(obs::Stage::kLayerNorm);
  const int d = x.cols();
  const float* gamma = gamma_.value.Row(0);
  const float* beta = beta_.value.Row(0);
  for (int i = r0; i < r1; ++i) {
    const float* row = x.Row(i);
    float mean = 0.0f;
    for (int j = 0; j < d; ++j) {
      mean += row[j];
    }
    mean /= static_cast<float>(d);
    float var = 0.0f;
    for (int j = 0; j < d; ++j) {
      var += (row[j] - mean) * (row[j] - mean);
    }
    var /= static_cast<float>(d);
    const float inv_std = 1.0f / std::sqrt(var + kEps);
    float* yrow = dest.y->Row(i);
    float* nrow = dest.norm != nullptr ? dest.norm->Row(i) : nullptr;
    if (dest.inv_std != nullptr) {
      dest.inv_std[i] = inv_std;
    }
    for (int j = 0; j < d; ++j) {
      const float n = (row[j] - mean) * inv_std;
      if (nrow != nullptr) {
        nrow[j] = n;
      }
      yrow[j] = n * gamma[j] + beta[j];
    }
  }
}

void LayerNorm::BeginStep(int rows) {
  SizeStepCache(&norm_, rows, dim());
  inv_std_.resize(static_cast<size_t>(rows));
  SizeStepCache(&y_, rows, dim());
  SizeStepCache(&dy_, rows, dim());
}

const Matrix& LayerNorm::ForwardRows(const Matrix& x, int r0, int r1) {
  ForwardRowsInto(x, r0, r1, CacheDest());
  return y_;
}

void LayerNorm::InputGradRows(int r0, int r1, Matrix* dx) const {
  const int d = dy_.cols();
  for (int i = r0; i < r1; ++i) {
    const float* dyrow = dy_.Row(i);
    const float* nrow = norm_.Row(i);
    float inv_std = inv_std_[static_cast<size_t>(i)];
    // dnorm = dy * gamma; dx = inv_std * (dnorm - mean(dnorm) - norm * mean(dnorm*norm)).
    float mean_dn = 0.0f;
    float mean_dn_n = 0.0f;
    for (int j = 0; j < d; ++j) {
      float dn = dyrow[j] * gamma_.value.At(0, j);
      mean_dn += dn;
      mean_dn_n += dn * nrow[j];
    }
    mean_dn /= static_cast<float>(d);
    mean_dn_n /= static_cast<float>(d);
    float* dxrow = dx->Row(i);
    for (int j = 0; j < d; ++j) {
      float dn = dyrow[j] * gamma_.value.At(0, j);
      dxrow[j] = inv_std * (dn - mean_dn - nrow[j] * mean_dn_n);
    }
  }
}

void LayerNorm::AppendGradTasks(std::vector<GradTask>* tasks) {
  tasks->push_back({GradTask::Kind::kGamma, &norm_, &dy_, &gamma_.grad});
  tasks->push_back({GradTask::Kind::kBeta, nullptr, &dy_, &beta_.grad});
}

Matrix* LayerNorm::ForwardInference(const Matrix& x, Workspace* ws) const {
  const Dest dest = ArenaDest(x.rows(), ws);
  ForwardRowsInto(x, 0, x.rows(), dest);
  return dest.y;
}

void LayerNorm::CollectParams(std::vector<Param*>* out) {
  out->push_back(&gamma_);
  out->push_back(&beta_);
}

// ---------------- Mlp ----------------

Mlp::Mlp(const std::vector<int>& dims, Rng* rng) {
  CDMPP_CHECK(dims.size() >= 2);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    linears_.push_back(std::make_unique<Linear>(dims[i], dims[i + 1], rng));
  }
}

template <typename Dest>
Matrix* Mlp::ForwardRowsInto(const Matrix& x, int r0, int r1, Precision precision, Dest&& dest,
                             Workspace* scratch) const {
  const Matrix* h = &x;
  Matrix* y = nullptr;
  for (size_t i = 0; i < linears_.size(); ++i) {
    const bool hidden = i + 1 < linears_.size();
    y = dest(i);
    linears_[i]->ForwardRowsInto(*h, r0, r1,
                                 hidden ? kernels::Activation::kRelu : kernels::Activation::kNone,
                                 precision, y, scratch);
    h = y;
  }
  return y;
}

void Mlp::BeginStep(int rows) {
  for (auto& l : linears_) {
    l->BeginStep(rows);
  }
}

const Matrix& Mlp::ForwardRows(const Matrix& x, int r0, int r1) {
  return *ForwardRowsInto(x, r0, r1, Precision::kFp32,
                          [&](size_t i) { return &linears_[i]->output(); }, /*scratch=*/nullptr);
}

void Mlp::BackpropRows(int r0, int r1) {
  for (size_t i = linears_.size() - 1; i > 0; --i) {
    Linear& below = *linears_[i - 1];
    Matrix& d = below.output_grad();
    linears_[i]->InputGradRows(r0, r1, d.Row(r0), d.cols());
    ReluBackwardRows(below.output(), r0, r1, &d);
  }
}

void Mlp::InputGradRows(int r0, int r1, float* dx, int ldx) const {
  linears_[0]->InputGradRows(r0, r1, dx, ldx);
}

void Mlp::AppendGradTasks(const Matrix& x, std::vector<GradTask>* tasks) {
  linears_[0]->AppendGradTasks(x, tasks);
  for (size_t i = 1; i < linears_.size(); ++i) {
    linears_[i]->AppendGradTasks(linears_[i - 1]->output(), tasks);
  }
}

Matrix* Mlp::ForwardInference(const Matrix& x, Workspace* ws, Precision precision) const {
  return ForwardRowsInto(
      x, 0, x.rows(), precision,
      [&](size_t i) { return ws->NewMatrix(x.rows(), linears_[i]->out_dim()); }, ws);
}

void Mlp::CollectParams(std::vector<Param*>* out) {
  for (auto& l : linears_) {
    l->CollectParams(out);
  }
}

// ---------------- LstmCell ----------------

namespace {

float Sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

}  // namespace

LstmCell::LstmCell(int input_dim, int hidden_dim, Rng* rng)
    : input_dim_(input_dim), hidden_dim_(hidden_dim) {
  w_x_.InitXavier(input_dim, 4 * hidden_dim, rng);
  w_h_.InitXavier(hidden_dim, 4 * hidden_dim, rng);
  b_.InitZero(1, 4 * hidden_dim);
}

LstmCell::State LstmCell::ZeroState(int batch) const {
  State s;
  s.h = Matrix(batch, hidden_dim_);
  s.c = Matrix(batch, hidden_dim_);
  return s;
}

LstmCell::State LstmCell::Forward(const Matrix& x, const State& prev, Cache* cache) {
  CDMPP_CHECK(x.cols() == input_dim_);
  CDMPP_CHECK(prev.h.cols() == hidden_dim_ && prev.c.cols() == hidden_dim_);
  CDMPP_CHECK(cache != nullptr);
  const int n = x.rows();
  cache->x = x;
  cache->h_prev = prev.h;
  cache->c_prev = prev.c;

  Matrix pre = MatMul(x, w_x_.value);
  // pre += h_prev · w_h as a beta=1 accumulate — no temporary.
  kernels::GemmNN(n, 4 * hidden_dim_, hidden_dim_, prev.h.data(), prev.h.cols(),
                  w_h_.value.data(), w_h_.value.cols(), /*beta=*/1.0f, pre.data(), pre.cols());
  AddRowBroadcast(&pre, b_.value);

  cache->gates = Matrix(n, 4 * hidden_dim_);
  State out;
  out.h = Matrix(n, hidden_dim_);
  out.c = Matrix(n, hidden_dim_);
  cache->tanh_c = Matrix(n, hidden_dim_);
  for (int r = 0; r < n; ++r) {
    for (int j = 0; j < hidden_dim_; ++j) {
      float i_g = Sigmoid(pre.At(r, j));
      float f_g = Sigmoid(pre.At(r, hidden_dim_ + j));
      float g_g = std::tanh(pre.At(r, 2 * hidden_dim_ + j));
      float o_g = Sigmoid(pre.At(r, 3 * hidden_dim_ + j));
      cache->gates.At(r, j) = i_g;
      cache->gates.At(r, hidden_dim_ + j) = f_g;
      cache->gates.At(r, 2 * hidden_dim_ + j) = g_g;
      cache->gates.At(r, 3 * hidden_dim_ + j) = o_g;
      float c = f_g * prev.c.At(r, j) + i_g * g_g;
      out.c.At(r, j) = c;
      float tc = std::tanh(c);
      cache->tanh_c.At(r, j) = tc;
      out.h.At(r, j) = o_g * tc;
    }
  }
  cache->c = out.c;
  return out;
}

LstmCell::InputGrads LstmCell::Backward(const Cache& cache, const Matrix& dh,
                                        const Matrix& dc_in) {
  const int n = dh.rows();
  Matrix dpre(n, 4 * hidden_dim_);
  InputGrads grads;
  grads.dc_prev = Matrix(n, hidden_dim_);
  for (int r = 0; r < n; ++r) {
    for (int j = 0; j < hidden_dim_; ++j) {
      float i_g = cache.gates.At(r, j);
      float f_g = cache.gates.At(r, hidden_dim_ + j);
      float g_g = cache.gates.At(r, 2 * hidden_dim_ + j);
      float o_g = cache.gates.At(r, 3 * hidden_dim_ + j);
      float tc = cache.tanh_c.At(r, j);
      float dhv = dh.At(r, j);
      float dc = dc_in.empty() ? 0.0f : dc_in.At(r, j);
      dc += dhv * o_g * (1.0f - tc * tc);
      float do_g = dhv * tc;
      float di = dc * g_g;
      float df = dc * cache.c_prev.At(r, j);
      float dg = dc * i_g;
      grads.dc_prev.At(r, j) = dc * f_g;
      dpre.At(r, j) = di * i_g * (1.0f - i_g);
      dpre.At(r, hidden_dim_ + j) = df * f_g * (1.0f - f_g);
      dpre.At(r, 2 * hidden_dim_ + j) = dg * (1.0f - g_g * g_g);
      dpre.At(r, 3 * hidden_dim_ + j) = do_g * o_g * (1.0f - o_g);
    }
  }
  kernels::GemmTN(w_x_.grad.rows(), w_x_.grad.cols(), n, cache.x.data(), cache.x.cols(),
                  dpre.data(), dpre.cols(), /*beta=*/1.0f, w_x_.grad.data(), w_x_.grad.cols());
  kernels::GemmTN(w_h_.grad.rows(), w_h_.grad.cols(), n, cache.h_prev.data(),
                  cache.h_prev.cols(), dpre.data(), dpre.cols(), /*beta=*/1.0f,
                  w_h_.grad.data(), w_h_.grad.cols());
  b_.grad.AddInPlace(ColumnSum(dpre));
  grads.dx = MatMulTransB(dpre, w_x_.value);
  grads.dh_prev = MatMulTransB(dpre, w_h_.value);
  return grads;
}

void LstmCell::CollectParams(std::vector<Param*>* out) {
  out->push_back(&w_x_);
  out->push_back(&w_h_);
  out->push_back(&b_);
}

}  // namespace cdmpp
