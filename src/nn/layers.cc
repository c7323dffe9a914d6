#include "src/nn/layers.h"

#include <algorithm>
#include <cmath>

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

// ---------------- Linear ----------------

Linear::Linear(int in_dim, int out_dim, Rng* rng) {
  w_.InitXavier(in_dim, out_dim, rng);
  b_.InitZero(1, out_dim);
}

void Linear::ApplyLinear(const Matrix& x, kernels::Activation act, Matrix* y) const {
  CDMPP_CHECK(x.cols() == w_.value.rows());
  kernels::GemmBiasAct(x.rows(), y->cols(), x.cols(), x.data(), x.cols(), w_.value.data(),
                       w_.value.cols(), b_.value.data(), act, y->data(), y->cols());
}

void Linear::BeginStep(int rows) {
  SizeStepCache(&y_, rows, out_dim());
  SizeStepCache(&dy_, rows, out_dim());
}

Matrix& Linear::ForwardRows(const Matrix& x, int r0, int r1) {
  // ApplyLinear's fused kernel call over rows [r0, r1) only: the kernels are
  // batch-size-invariant per row, so a shard's rows match the whole batch's.
  CDMPP_CHECK(x.cols() == in_dim());
  kernels::GemmBiasAct(r1 - r0, out_dim(), in_dim(), x.Row(r0), x.cols(), w_.value.data(),
                       w_.value.cols(), b_.value.data(), kernels::Activation::kNone, y_.Row(r0),
                       y_.cols());
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

Matrix Linear::Forward(const Matrix& x) {
  input_ = x;
  BeginStep(x.rows());
  return ForwardRows(input_, 0, x.rows());
}

Matrix Linear::Backward(const Matrix& dy) {
  CDMPP_CHECK(dy.rows() == input_.rows() && dy.cols() == out_dim());
  dy_ = dy;
  Matrix dx(dy.rows(), in_dim());
  InputGradRows(0, dy.rows(), dx.data(), dx.cols());
  std::vector<GradTask> tasks;
  AppendGradTasks(input_, &tasks);
  for (const GradTask& t : tasks) {
    RunGradTask(t);
  }
  return dx;
}

Matrix Linear::ForwardInference(const Matrix& x) const {
  Workspace ws;
  return *ForwardInference(x, &ws);
}

Matrix* Linear::ForwardInference(const Matrix& x, Workspace* ws,
                                 kernels::Activation act) const {
  Matrix* y = ws->NewMatrix(x.rows(), w_.value.cols());
  ApplyLinear(x, act, y);
  return y;
}

void Linear::CollectParams(std::vector<Param*>* out) {
  out->push_back(&w_);
  out->push_back(&b_);
}

// ---------------- Relu ----------------

const Matrix& Relu::ForwardRows(const Matrix& x, int r0, int r1) {
  for (int i = r0; i < r1; ++i) {
    const float* src = x.Row(i);
    float* dst = y_.Row(i);
    for (int j = 0; j < x.cols(); ++j) {
      dst[j] = std::max(0.0f, src[j]);
    }
  }
  return y_;
}

void Relu::BackwardRows(const Matrix& x, int r0, int r1, Matrix* d) {
  for (int i = r0; i < r1; ++i) {
    float* drow = d->Row(i);
    const float* xrow = x.Row(i);
    for (int j = 0; j < d->cols(); ++j) {
      if (xrow[j] <= 0.0f) {
        drow[j] = 0.0f;
      }
    }
  }
}

Matrix Relu::ForwardInference(const Matrix& x) const {
  Workspace ws;
  return *ForwardInference(x, &ws);
}

Matrix* Relu::ForwardInference(const Matrix& x, Workspace* ws) const {
  Matrix* y = ws->NewMatrix(x.rows(), x.cols());
  const float* src = x.data();
  float* dst = y->data();
  for (size_t i = 0; i < x.size(); ++i) {
    dst[i] = std::max(0.0f, src[i]);
  }
  return y;
}

// ---------------- LayerNorm ----------------

LayerNorm::LayerNorm(int dim) {
  gamma_.InitZero(1, dim);
  for (int j = 0; j < dim; ++j) {
    gamma_.value.At(0, j) = 1.0f;
  }
  beta_.InitZero(1, dim);
}

void LayerNorm::BeginStep(int rows) {
  const int d = gamma_.value.cols();
  SizeStepCache(&norm_, rows, d);
  inv_std_.resize(static_cast<size_t>(rows));
  SizeStepCache(&y_, rows, d);
  SizeStepCache(&dy_, rows, d);
}

const Matrix& LayerNorm::ForwardRows(const Matrix& x, int r0, int r1) {
  const int d = x.cols();
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
    float inv_std = 1.0f / std::sqrt(var + kEps);
    inv_std_[static_cast<size_t>(i)] = inv_std;
    float* nrow = norm_.Row(i);
    float* yrow = y_.Row(i);
    for (int j = 0; j < d; ++j) {
      nrow[j] = (row[j] - mean) * inv_std;
      yrow[j] = nrow[j] * gamma_.value.At(0, j) + beta_.value.At(0, j);
    }
  }
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

Matrix LayerNorm::Forward(const Matrix& x) {
  BeginStep(x.rows());
  return ForwardRows(x, 0, x.rows());
}

Matrix LayerNorm::Backward(const Matrix& dy) {
  CDMPP_CHECK(dy.rows() == norm_.rows() && dy.cols() == norm_.cols());
  dy_ = dy;
  Matrix dx(dy.rows(), dy.cols());
  InputGradRows(0, dy.rows(), &dx);
  std::vector<GradTask> tasks;
  AppendGradTasks(&tasks);
  for (const GradTask& t : tasks) {
    RunGradTask(t);
  }
  return dx;
}

namespace {

// The single copy of the inference-normalization loop, shared by both
// ForwardInference overloads so they stay bitwise-consistent. Rows are
// independent, so a row's result does not depend on the batch around it.
void LayerNormRowsInto(const Matrix& x, const float* gamma, const float* beta, float eps,
                       Matrix* y) {
  const int d = x.cols();
  for (int i = 0; i < x.rows(); ++i) {
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
    const float inv_std = 1.0f / std::sqrt(var + eps);
    float* yrow = y->Row(i);
    for (int j = 0; j < d; ++j) {
      yrow[j] = (row[j] - mean) * inv_std * gamma[j] + beta[j];
    }
  }
}

}  // namespace

Matrix LayerNorm::ForwardInference(const Matrix& x) const {
  Workspace ws;
  return *ForwardInference(x, &ws);
}

Matrix* LayerNorm::ForwardInference(const Matrix& x, Workspace* ws) const {
  // Nests under the encoder span when a sampled trace is bound; no-op (one
  // thread-local load) otherwise.
  obs::ScopedSpan span(obs::Stage::kLayerNorm);
  Matrix* y = ws->NewMatrix(x.rows(), x.cols());
  LayerNormRowsInto(x, gamma_.value.Row(0), beta_.value.Row(0), kEps, y);
  return y;
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
  relus_.resize(linears_.size() - 1);
}

void Mlp::BeginStep(int rows) {
  for (size_t i = 0; i < linears_.size(); ++i) {
    linears_[i]->BeginStep(rows);
    if (i + 1 < linears_.size()) {
      relus_[i].BeginStep(rows, linears_[i]->out_dim());
    }
  }
}

const Matrix& Mlp::ForwardRows(const Matrix& x, int r0, int r1) {
  const Matrix* h = &x;
  for (size_t i = 0; i < linears_.size(); ++i) {
    h = &linears_[i]->ForwardRows(*h, r0, r1);
    if (i + 1 < linears_.size()) {
      h = &relus_[i].ForwardRows(*h, r0, r1);
    }
  }
  return *h;
}

void Mlp::BackpropRows(int r0, int r1) {
  for (size_t i = linears_.size() - 1; i > 0; --i) {
    Linear& below = *linears_[i - 1];
    Matrix& d = below.output_grad();
    linears_[i]->InputGradRows(r0, r1, d.Row(r0), d.cols());
    Relu::BackwardRows(below.output(), r0, r1, &d);
  }
}

void Mlp::InputGradRows(int r0, int r1, float* dx, int ldx) const {
  linears_[0]->InputGradRows(r0, r1, dx, ldx);
}

void Mlp::AppendGradTasks(const Matrix& x, std::vector<GradTask>* tasks) {
  linears_[0]->AppendGradTasks(x, tasks);
  for (size_t i = 1; i < linears_.size(); ++i) {
    linears_[i]->AppendGradTasks(relus_[i - 1].output(), tasks);
  }
}

Matrix Mlp::Forward(const Matrix& x) {
  input_ = x;
  BeginStep(x.rows());
  return ForwardRows(input_, 0, x.rows());
}

Matrix Mlp::Backward(const Matrix& dy) {
  const int rows = input_.rows();
  CDMPP_CHECK(dy.rows() == rows && dy.cols() == output_grad().cols());
  output_grad() = dy;
  BackpropRows(0, rows);
  Matrix dx(rows, input_.cols());
  InputGradRows(0, rows, dx.data(), dx.cols());
  std::vector<GradTask> tasks;
  AppendGradTasks(input_, &tasks);
  for (const GradTask& t : tasks) {
    RunGradTask(t);
  }
  return dx;
}

Matrix Mlp::ForwardInference(const Matrix& x) const {
  Workspace ws;
  return *ForwardInference(x, &ws);
}

Matrix* Mlp::ForwardInference(const Matrix& x, Workspace* ws) const {
  const Matrix* h = &x;
  Matrix* out = nullptr;
  for (size_t i = 0; i < linears_.size(); ++i) {
    const bool hidden = i + 1 < linears_.size();
    out = linears_[i]->ForwardInference(
        *h, ws, hidden ? kernels::Activation::kRelu : kernels::Activation::kNone);
    h = out;
  }
  return out;
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
