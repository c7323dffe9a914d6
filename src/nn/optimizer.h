// Optimizers (Adam, SGD) and learning-rate schedulers (constant, CyclicLR —
// the paper's auto-tuned configuration uses Adam + CyclicLR, Table 6).
#ifndef SRC_NN_OPTIMIZER_H_
#define SRC_NN_OPTIMIZER_H_

#include <memory>
#include <vector>

#include "src/nn/layers.h"

namespace cdmpp {

class Optimizer {
 public:
  explicit Optimizer(std::vector<Param*> params) : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  // Applies one update using the accumulated gradients.
  virtual void Step() = 0;

  void set_learning_rate(double lr) { lr_ = lr; }
  double learning_rate() const { return lr_; }

 protected:
  std::vector<Param*> params_;
  double lr_ = 1e-3;
};

class Sgd : public Optimizer {
 public:
  Sgd(std::vector<Param*> params, double lr, double momentum = 0.9);
  void Step() override;

 private:
  double momentum_;
  std::vector<Matrix> velocity_;
};

// AdamW. Step() updates every parameter element as one flattened range
// [0, total) split across the thread pool: element e of the range is element
// e - offsets_[i] of params_[i], and its moments are m_[e] / v_[e]. The
// per-element update reads nothing but that element's state, so the result
// is bitwise independent of the split.
class Adam : public Optimizer {
 public:
  Adam(std::vector<Param*> params, double lr, double weight_decay = 0.0, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8);
  void Step() override;

 private:
  double weight_decay_;
  double beta1_, beta2_, eps_;
  int64_t t_ = 0;
  std::vector<size_t> offsets_;  // params_.size() + 1 prefix sums of sizes
  std::vector<float> m_, v_;
};

// Learning-rate schedule evaluated per optimizer step.
class LrScheduler {
 public:
  virtual ~LrScheduler() = default;
  virtual double LrAt(int64_t step) const = 0;
};

class ConstantLr : public LrScheduler {
 public:
  explicit ConstantLr(double lr) : lr_(lr) {}
  double LrAt(int64_t) const override { return lr_; }

 private:
  double lr_;
};

// Triangular cyclic learning rate between base_lr and max_lr with the given
// half-cycle length in steps.
class CyclicLr : public LrScheduler {
 public:
  CyclicLr(double base_lr, double max_lr, int64_t step_size);
  double LrAt(int64_t step) const override;

 private:
  double base_lr_, max_lr_;
  int64_t step_size_;
};

// One mean-squared-error step of a one-output Mlp regressor through its
// training row primitives (src/nn/layers.h): zero the gradients, forward
// every row of x, seed the output gradient with 2 (pred - target) / rows,
// backpropagate, accumulate every parameter gradient and step `opt`, which
// owns the Mlp's parameters. Nothing reads the input gradient, so it is not
// computed. The TLP and Habitat baselines train this way.
void MseStep(const Matrix& x, const std::vector<float>& targets, Mlp* mlp, Optimizer* opt);

}  // namespace cdmpp

#endif  // SRC_NN_OPTIMIZER_H_
