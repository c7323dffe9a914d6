#include "src/nn/optimizer.h"

#include <algorithm>
#include <cmath>

#include "src/support/parallel_for.h"

namespace cdmpp {

Sgd::Sgd(std::vector<Param*> params, double lr, double momentum)
    : Optimizer(std::move(params)), momentum_(momentum) {
  lr_ = lr;
  velocity_.reserve(params_.size());
  for (Param* p : params_) {
    velocity_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void Sgd::Step() {
  for (size_t i = 0; i < params_.size(); ++i) {
    Param* p = params_[i];
    Matrix& vel = velocity_[i];
    for (size_t j = 0; j < p->value.size(); ++j) {
      float g = p->grad.data()[j];
      vel.data()[j] = static_cast<float>(momentum_) * vel.data()[j] + g;
      p->value.data()[j] -= static_cast<float>(lr_) * vel.data()[j];
    }
  }
}

Adam::Adam(std::vector<Param*> params, double lr, double weight_decay, double beta1,
           double beta2, double eps)
    : Optimizer(std::move(params)),
      weight_decay_(weight_decay),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  lr_ = lr;
  offsets_.reserve(params_.size() + 1);
  offsets_.push_back(0);
  for (Param* p : params_) {
    offsets_.push_back(offsets_.back() + p->value.size());
  }
  m_.assign(offsets_.back(), 0.0f);
  v_.assign(offsets_.back(), 0.0f);
}

namespace {

struct AdamCoeffs {
  double lr, weight_decay, beta1, beta2, eps, bias1, bias2;
};

// The per-element AdamW update (decoupled weight decay) over n contiguous
// elements. Straight-line double arithmetic with no calls: this TU builds
// with -fno-math-errno, so std::sqrt needs no errno branch and the loop
// vectorizes; sqrt is correctly rounded either way, so the values do not
// change.
void AdamUpdate(size_t n, float* __restrict value, const float* __restrict grad,
                float* __restrict m, float* __restrict v, const AdamCoeffs& c) {
  for (size_t j = 0; j < n; ++j) {
    float g = grad[j];
    m[j] = static_cast<float>(c.beta1 * m[j] + (1.0 - c.beta1) * g);
    v[j] = static_cast<float>(c.beta2 * v[j] + (1.0 - c.beta2) * g * g);
    double m_hat = m[j] / c.bias1;
    double v_hat = v[j] / c.bias2;
    double update = m_hat / (std::sqrt(v_hat) + c.eps) + c.weight_decay * value[j];
    value[j] -= static_cast<float>(c.lr * update);
  }
}

}  // namespace

void Adam::Step() {
  ++t_;
  const AdamCoeffs c{lr_,
                     weight_decay_,
                     beta1_,
                     beta2_,
                     eps_,
                     1.0 - std::pow(beta1_, static_cast<double>(t_)),
                     1.0 - std::pow(beta2_, static_cast<double>(t_))};
  const int64_t total = static_cast<int64_t>(offsets_.back());
  auto update_range = [&](int64_t e0, int64_t e1) {
    // First tensor overlapping [e0, e1), then walk tensor by tensor.
    size_t i = static_cast<size_t>(
        std::upper_bound(offsets_.begin(), offsets_.end(), static_cast<size_t>(e0)) -
        offsets_.begin() - 1);
    for (size_t e = static_cast<size_t>(e0); e < static_cast<size_t>(e1); ++i) {
      const size_t end = std::min(offsets_[i + 1], static_cast<size_t>(e1));
      const size_t off = e - offsets_[i];
      Param* p = params_[i];
      AdamUpdate(end - e, p->value.data() + off, p->grad.data() + off, m_.data() + e,
                 v_.data() + e, c);
      e = end;
    }
  };
  // ~20 flop-equivalents per element (two divides and a sqrt in double).
  if (WorthForking(ThreadPool::Global(), total, 20.0 * static_cast<double>(total))) {
    ParallelFor(0, total, ParallelGrain(total), update_range);
  } else {
    update_range(0, total);
  }
}

CyclicLr::CyclicLr(double base_lr, double max_lr, int64_t step_size)
    : base_lr_(base_lr), max_lr_(max_lr), step_size_(step_size) {
  CDMPP_CHECK(step_size > 0);
  CDMPP_CHECK(max_lr >= base_lr);
}

double CyclicLr::LrAt(int64_t step) const {
  int64_t cycle_pos = step % (2 * step_size_);
  double frac = static_cast<double>(cycle_pos) / static_cast<double>(step_size_);
  if (frac > 1.0) {
    frac = 2.0 - frac;  // descending half
  }
  return base_lr_ + (max_lr_ - base_lr_) * frac;
}

void MseStep(const Matrix& x, const std::vector<float>& targets, Mlp* mlp, Optimizer* opt) {
  const int rows = x.rows();
  CDMPP_CHECK(static_cast<int>(targets.size()) == rows);
  mlp->ZeroGrad();
  mlp->BeginStep(rows);
  const Matrix& pred = mlp->ForwardRows(x, 0, rows);
  CDMPP_CHECK(pred.cols() == 1);
  Matrix& dpred = mlp->output_grad();
  for (int i = 0; i < rows; ++i) {
    dpred.At(i, 0) =
        2.0f * (pred.At(i, 0) - targets[static_cast<size_t>(i)]) / static_cast<float>(rows);
  }
  mlp->BackpropRows(0, rows);
  std::vector<GradTask> tasks;
  mlp->AppendGradTasks(x, &tasks);
  for (const GradTask& task : tasks) {
    RunGradTask(task);
  }
  opt->Step();
}

}  // namespace cdmpp
