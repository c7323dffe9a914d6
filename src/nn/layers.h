// Basic trainable layers with manual forward/backward passes.
//
// Training convention. CdmppPredictor::RunTraining runs each step in a few
// parallel regions over contiguous row shards (README "Training step")
// instead of forking per op, so every trainable layer exposes its forward and
// backward as row primitives over full-batch caches:
//   BeginStep(rows)            serial: sizes the caches for a `rows`-row batch
//                              (capacity-preserving: no heap traffic once
//                              warm). BeginStep(0) frees them instead, so a
//                              model holds only parameters between training
//                              calls.
//   ForwardRows(x, r0, r1)     output rows [r0, r1) from input rows [r0, r1).
//                              Writes only those rows of the caches, so
//                              disjoint shards run concurrently.
//   output_grad()              the dLoss/dOutput buffer; whoever consumes the
//                              output writes its rows there.
//   InputGradRows(r0, r1, ..)  dLoss/dInput rows from output_grad() rows.
//                              Skipped where nobody reads the input gradient.
//   AppendGradTasks(x, tasks)  one GradTask per parameter tensor, run after
//                              the backward region over the full batch.
// `x` is the input matrix the forward saw; layers keep no pointer to it. Every
// op on the row path is local to a row or a sample, and every cross-row
// reduction (dW = xᵀ·dy, bias/gamma/beta column sums) runs once over the
// whole batch in row order, so results do not depend on the sharding.
//
// Forward(x) / Backward(dy) are whole-batch wrappers over the row primitives
// (one implementation): Forward keeps a copy of x, Backward accumulates
// parameter gradients and returns dLoss/dInput. Call ZeroGrad between steps.
//
// Every layer also exposes ForwardInference: a const forward pass that writes
// no caches and touches no mutable state, computing bitwise-identical outputs
// to Forward. Any number of threads may call ForwardInference concurrently on
// a shared layer as long as no thread mutates parameters at the same time —
// this is the serving hot path (src/serve/).
//
// ForwardInference comes in two flavors:
//   * Matrix* ForwardInference(x, Workspace*): the hot path. Output and all
//     intermediates live in the caller's Workspace arena (valid until its
//     Reset()), so steady-state passes perform zero heap allocations. Each
//     thread needs its own Workspace.
//   * Matrix ForwardInference(x): convenience overload, same values. For the
//     composite layers (Mlp, attention, transformer) it is a true wrapper
//     that runs the arena path on a scratch Workspace and copies the result
//     out — there is exactly ONE inference implementation per layer to keep
//     bitwise-consistent. The primitive layers (Linear, Relu, LayerNorm)
//     share their single kernel call / loop between both overloads instead,
//     avoiding the scratch arena.
#ifndef SRC_NN_LAYERS_H_
#define SRC_NN_LAYERS_H_

#include <memory>
#include <vector>

#include "src/nn/kernels.h"
#include "src/nn/matrix.h"
#include "src/nn/workspace.h"

namespace cdmpp {

// One trainable tensor with its gradient accumulator.
struct Param {
  Matrix value;
  Matrix grad;

  void InitXavier(int rows, int cols, Rng* rng) {
    value = Matrix(rows, cols);
    value.XavierInit(rng);
    grad = Matrix(rows, cols);
  }
  void InitZero(int rows, int cols) {
    value = Matrix(rows, cols);
    grad = Matrix(rows, cols);
  }
};

// Base class for all layers/models: exposes parameters to the optimizer.
class Module {
 public:
  virtual ~Module() = default;
  virtual void CollectParams(std::vector<Param*>* out) = 0;

  void ZeroGrad() {
    std::vector<Param*> params;
    CollectParams(&params);
    for (Param* p : params) {
      p->grad.Zero();
    }
  }
  size_t NumParams() {
    std::vector<Param*> params;
    CollectParams(&params);
    size_t n = 0;
    for (Param* p : params) {
      n += p->value.size();
    }
    return n;
  }
};

// One parameter tensor's share of a training step's parameter-gradient
// region: grad accumulates over the full batch, rows in ascending order,
// through the same kernel call or loop a whole-batch backward runs. Tasks
// own disjoint tensors, so a region runs them concurrently in any order.
struct GradTask {
  enum class Kind {
    kWeight,  // grad += xᵀ·dy: one GemmTN, beta = 1
    kBias,    // grad += column sums of dy
    kGamma,   // grad[j] += dy[i][j] * x[i][j], row by row (x: normalized rows)
    kBeta,    // grad[j] += dy[i][j], row by row
  };
  Kind kind;
  const Matrix* x;  // unused by kBias and kBeta
  const Matrix* dy;
  Matrix* grad;
};
void RunGradTask(const GradTask& task);

// How BeginStep sizes one cache: a capacity-preserving Resize, or a release
// for rows == 0.
inline void SizeStepCache(Matrix* cache, int rows, int cols) {
  if (rows == 0) {
    *cache = Matrix();
  } else {
    cache->Resize(rows, cols);
  }
}

// y = x W + b, x: [N, in], W: [in, out].
class Linear : public Module {
 public:
  Linear(int in_dim, int out_dim, Rng* rng);

  // Training row primitives (see the top of this file). ForwardRows returns
  // the full-batch output, which the Linear's own backward never reads:
  // a caller whose consumers are done with it may update its rows in place
  // (the encoder's residual adds).
  void BeginStep(int rows);
  Matrix& ForwardRows(const Matrix& x, int r0, int r1);
  const Matrix& output() const { return y_; }
  Matrix& output_grad() { return dy_; }
  // Rows [r0, r1) of dLoss/dx = dy·Wᵀ, written to dx (row stride ldx; dx
  // addresses row r0), or added to it with `accumulate`.
  void InputGradRows(int r0, int r1, float* dx, int ldx, bool accumulate = false) const;
  void AppendGradTasks(const Matrix& x, std::vector<GradTask>* tasks);

  Matrix Forward(const Matrix& x);
  Matrix Backward(const Matrix& dy);
  Matrix ForwardInference(const Matrix& x) const;
  // Hot path: y = act(x W + b) in one fused kernel pass (the epilogue runs
  // while the accumulator tile is still in registers). kNone reproduces the
  // plain layer; kRelu folds a following Relu away.
  Matrix* ForwardInference(const Matrix& x, Workspace* ws,
                           kernels::Activation act = kernels::Activation::kNone) const;
  void CollectParams(std::vector<Param*>* out) override;

  int in_dim() const { return w_.value.rows(); }
  int out_dim() const { return w_.value.cols(); }

  // Read-only parameter views: the int8 calibration path (src/nn/quantize.h)
  // snapshots these into packed quantized form.
  const Matrix& weight() const { return w_.value; }
  const Matrix& bias() const { return b_.value; }

 private:
  // The one fused-kernel invocation both inference entry points share:
  // y = act(x W + b) written into the caller-sized output.
  void ApplyLinear(const Matrix& x, kernels::Activation act, Matrix* y) const;

  Param w_;
  Param b_;
  Matrix y_;
  Matrix dy_;
  Matrix input_;  // the Forward/Backward wrappers' copy of x
};

// Elementwise max(0, x).
class Relu : public Module {
 public:
  void BeginStep(int rows, int cols) { SizeStepCache(&y_, rows, cols); }
  const Matrix& ForwardRows(const Matrix& x, int r0, int r1);
  const Matrix& output() const { return y_; }
  // Backward for rows [r0, r1): zeroes d in place where the forward input x
  // was <= 0.
  static void BackwardRows(const Matrix& x, int r0, int r1, Matrix* d);
  Matrix ForwardInference(const Matrix& x) const;
  // Hot path: output from `ws`.
  Matrix* ForwardInference(const Matrix& x, Workspace* ws) const;
  void CollectParams(std::vector<Param*>*) override {}

 private:
  Matrix y_;
};

// Per-row layer normalization with learnable gamma/beta.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int dim);

  // Training row primitives (see the top of this file).
  void BeginStep(int rows);
  const Matrix& ForwardRows(const Matrix& x, int r0, int r1);
  const Matrix& output() const { return y_; }
  Matrix& output_grad() { return dy_; }
  void InputGradRows(int r0, int r1, Matrix* dx) const;
  void AppendGradTasks(std::vector<GradTask>* tasks);

  Matrix Forward(const Matrix& x);
  Matrix Backward(const Matrix& dy);
  Matrix ForwardInference(const Matrix& x) const;
  // Hot path: output from `ws`.
  Matrix* ForwardInference(const Matrix& x, Workspace* ws) const;
  void CollectParams(std::vector<Param*>* out) override;

  // Read-only parameter views: the int8 calibration path derives data-free
  // per-channel activation magnitude estimates for post-LayerNorm inputs from
  // gamma/beta (src/nn/quantize.h).
  const Matrix& gamma() const { return gamma_.value; }
  const Matrix& beta() const { return beta_.value; }

 private:
  static constexpr float kEps = 1e-5f;
  Param gamma_;
  Param beta_;
  Matrix norm_;  // normalized activations (pre gamma/beta)
  std::vector<float> inv_std_;
  Matrix y_;
  Matrix dy_;
};

// Multi-layer perceptron: Linear -> ReLU repeated, final Linear (no ReLU).
class Mlp : public Module {
 public:
  // dims = {in, h1, ..., out}. Requires at least {in, out}.
  Mlp(const std::vector<int>& dims, Rng* rng);

  // Training row primitives (see the top of this file). BackpropRows carries
  // output_grad() rows down to the first layer's output gradient: everything
  // the parameter-gradient tasks read. InputGradRows then computes the first
  // layer's input gradient for callers that need it.
  void BeginStep(int rows);
  const Matrix& ForwardRows(const Matrix& x, int r0, int r1);
  const Matrix& output() const { return linears_.back()->output(); }
  Matrix& output_grad() { return linears_.back()->output_grad(); }
  void BackpropRows(int r0, int r1);
  void InputGradRows(int r0, int r1, float* dx, int ldx) const;
  void AppendGradTasks(const Matrix& x, std::vector<GradTask>* tasks);

  Matrix Forward(const Matrix& x);
  Matrix Backward(const Matrix& dy);
  Matrix ForwardInference(const Matrix& x) const;
  // Hot path: each hidden Linear+ReLU pair runs as one fused kernel call.
  Matrix* ForwardInference(const Matrix& x, Workspace* ws) const;
  void CollectParams(std::vector<Param*>* out) override;

  // Read-only layer views for the int8 calibration path.
  size_t num_linear_layers() const { return linears_.size(); }
  const Linear& linear_layer(size_t i) const { return *linears_[i]; }

 private:
  std::vector<std::unique_ptr<Linear>> linears_;
  std::vector<Relu> relus_;
  Matrix input_;  // the Forward/Backward wrappers' copy of x
};

// One LSTM step (used by the Tiramisu-style recursive baseline).
// State tensors are [N, hidden]. The forward intermediates live in an
// external cache so the same cell (shared weights) can be applied at many
// tree positions before backward runs in reverse order.
class LstmCell : public Module {
 public:
  LstmCell(int input_dim, int hidden_dim, Rng* rng);

  struct State {
    Matrix h;
    Matrix c;
  };

  // Forward intermediates for one step.
  struct Cache {
    Matrix x, h_prev, c_prev;
    Matrix gates;  // post-activation i, f, g, o stacked along columns
    Matrix c, tanh_c;
  };

  // Gradients w.r.t. the step inputs.
  struct InputGrads {
    Matrix dx;
    Matrix dh_prev;
    Matrix dc_prev;
  };

  // Runs one step, filling `cache` for the matching Backward.
  State Forward(const Matrix& x, const State& prev, Cache* cache);
  // dh/dc are gradients w.r.t. the step outputs (dc may be empty).
  InputGrads Backward(const Cache& cache, const Matrix& dh, const Matrix& dc);
  void CollectParams(std::vector<Param*>* out) override;

  int hidden_dim() const { return hidden_dim_; }
  State ZeroState(int batch) const;

 private:
  int input_dim_;
  int hidden_dim_;
  Param w_x_;  // [input, 4*hidden]: i, f, g, o gates stacked
  Param w_h_;  // [hidden, 4*hidden]
  Param b_;    // [1, 4*hidden]
};

}  // namespace cdmpp

#endif  // SRC_NN_LAYERS_H_
