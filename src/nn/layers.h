// Basic trainable layers with manual forward/backward passes.
//
// One forward body per layer. Every layer's forward arithmetic lives in one
// const row body, ForwardRowsInto(x, r0, r1, ..., dest): it computes output
// rows [r0, r1) from input rows [r0, r1) and writes them, and every
// intermediate the layer produces, to the same rows of the matrices `dest`
// names (a Matrix* for Linear, one per layer for Mlp, and a Dest struct
// built by CacheDest() or ArenaDest() for LayerNorm, attention and the
// encoder layer). It has two callers:
//   ForwardRows(x, r0, r1, ..)   training: `dest` is the layer's full-batch
//                                caches, which the backward reads.
//   ForwardInference(x, .., ws)  inference: `dest` is fresh matrices for rows
//                                [0, x.rows()) from the caller's Workspace
//                                arena, valid until its Reset(); warm passes
//                                allocate nothing.
// So training and inference agree bit for bit by construction
// (tests/nn_test.cc pins it). ForwardInference is const and touches no
// mutable state: any number of threads may call it on a shared layer, each
// with its own Workspace, while no thread mutates parameters (the serving
// hot path, src/serve/).
//
// Precision is a property of a call, not of a layer. Every body takes the
// call's Precision and passes it down; only Linear acts on it. A Linear may
// hold an int8 pack of its weights (Linear::PackInt8; the scheme is in
// src/nn/quantize.h), and a kInt8 call through a packed Linear runs the int8
// GEMM, with its input rows quantized per row into the caller's scratch
// arena. Every other call runs fp32, so fp32 and int8 forwards share one
// model in one process, and training always passes kFp32. Which Linears are
// packed is the caller's policy (CdmppPredictor::PrepareQuantizedInference).
//
// Training convention. CdmppPredictor::RunTraining runs each step in a few
// parallel regions over contiguous row shards (README "Training step")
// instead of forking per op, so every trainable layer exposes its training
// pass as row primitives over full-batch caches:
//   BeginStep(rows)            serial: sizes the caches for a `rows`-row batch
//                              (capacity-preserving: no heap traffic once
//                              warm). BeginStep(0) frees them instead, so a
//                              model holds only parameters between training
//                              calls.
//   ForwardRows(x, r0, r1)     the forward body into the caches. Writes only
//                              rows [r0, r1), so disjoint shards run
//                              concurrently.
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
// Parameter gradients accumulate: call ZeroGrad between steps.
#ifndef SRC_NN_LAYERS_H_
#define SRC_NN_LAYERS_H_

#include <memory>
#include <vector>

#include "src/nn/kernels.h"
#include "src/nn/matrix.h"
#include "src/nn/workspace.h"
#include "src/support/cpu_features.h"

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
// region: grad accumulates over the full batch, rows in ascending order, in
// one kernel call or loop. Tasks own disjoint tensors, so a region runs them
// concurrently in any order.
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

// ReLU backward for rows [r0, r1) from the activation's output y = max(0, v):
// zeroes d where y <= 0, which is exactly where v <= 0. Hidden layers fuse
// their ReLU into the GEMM epilogue (kernels::Activation::kRelu), so the
// post-activation output is the only cache.
void ReluBackwardRows(const Matrix& y, int r0, int r1, Matrix* d);

// y = act(x W + b), x: [N, in], W: [in, out].
class Linear : public Module {
 public:
  Linear(int in_dim, int out_dim, Rng* rng);

  // The forward body: rows [r0, r1) of y = act(x W + b) in one fused kernel
  // call (the epilogue runs while the accumulator tile is in registers),
  // written to the same rows of `y`. The kernels are batch-size-invariant
  // per row, so a shard's rows match the whole batch's. A kInt8 call on a
  // packed Linear quantizes the rows into `scratch` and runs the int8 GEMM;
  // any other call runs fp32 and may pass a null `scratch`.
  void ForwardRowsInto(const Matrix& x, int r0, int r1, kernels::Activation act,
                       Precision precision, Matrix* y, Workspace* scratch) const;

  // The int8 pack: W quantized per output channel after folding in the
  // per-input-channel activation scales c_p, if any (quantize.h's
  // QuantizeActivationsPerRowScaled). The bias stays the live fp32 one.
  struct Int8Pack {
    kernels::PackedQ8Weights weights;
    std::vector<float> inv_col_scales;  // 1 / c_p; empty: plain per-row scales
  };
  // Packs the current weights; `col_scales` empty for plain per-row
  // activation scales. A pack is a snapshot of W: DropInt8 it when W
  // changes.
  void PackInt8(const std::vector<float>& col_scales);
  void DropInt8() { int8_.reset(); }
  const Int8Pack* int8_pack() const { return int8_.get(); }

  // Input rows [r0, r1) in the int8 GEMM's operand form: the codes of row
  // r0 at `codes`, rows `ldq` apart, and one dequantization scale per row.
  struct QuantizedRows {
    const int16_t* codes;
    int ldq;
    const float* scales;
  };
  // Quantizes rows [r0, r1) of x for this packed Linear, into `scratch`.
  // A Linear whose pack has the same input columns and scales (SharesInt8Input)
  // accepts the same codes: attention quantizes its input once for Q, K, V.
  QuantizedRows QuantizeRows(const Matrix& x, int r0, int r1, Workspace* scratch) const;
  bool SharesInt8Input(const Linear& other) const;
  // Rows [r0, r1) of y from codes QuantizeRows produced: the int8 GEMM with
  // the dequantize, bias and activation fused into its epilogue.
  void ForwardQuantizedRowsInto(const QuantizedRows& xq, int r0, int r1,
                                kernels::Activation act, Matrix* y) const;

  // Training row primitives (see the top of this file). ForwardRows returns
  // the full-batch output, which the Linear's own backward never reads:
  // a caller whose consumers are done with it may update its rows in place
  // (the encoder's residual adds).
  void BeginStep(int rows);
  Matrix& ForwardRows(const Matrix& x, int r0, int r1);
  const Matrix& output() const { return y_; }
  Matrix& output() { return y_; }
  Matrix& output_grad() { return dy_; }
  // Rows [r0, r1) of dLoss/dx = dy·Wᵀ, written to dx (row stride ldx; dx
  // addresses row r0), or added to it with `accumulate`.
  void InputGradRows(int r0, int r1, float* dx, int ldx, bool accumulate = false) const;
  void AppendGradTasks(const Matrix& x, std::vector<GradTask>* tasks);

  Matrix* ForwardInference(const Matrix& x, Workspace* ws,
                           kernels::Activation act = kernels::Activation::kNone,
                           Precision precision = Precision::kFp32) const;
  void CollectParams(std::vector<Param*>* out) override;

  int in_dim() const { return w_.value.rows(); }
  int out_dim() const { return w_.value.cols(); }

  const Matrix& weight() const { return w_.value; }
  const Matrix& bias() const { return b_.value; }

 private:
  Param w_;
  Param b_;
  std::unique_ptr<const Int8Pack> int8_;
  Matrix y_;
  Matrix dy_;
};

// Per-row layer normalization with learnable gamma/beta.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int dim);

  // Where the forward body writes: the output, and the normalized rows
  // (pre gamma/beta) and per-row 1/std that the backward reads. norm and
  // inv_std are null for inference.
  struct Dest {
    Matrix* y;
    Matrix* norm;
    float* inv_std;
  };
  void ForwardRowsInto(const Matrix& x, int r0, int r1, const Dest& dest) const;

  // Training row primitives (see the top of this file).
  void BeginStep(int rows);
  Dest CacheDest() { return {&y_, &norm_, inv_std_.data()}; }
  const Matrix& ForwardRows(const Matrix& x, int r0, int r1);
  const Matrix& output() const { return y_; }
  Matrix& output_grad() { return dy_; }
  void InputGradRows(int r0, int r1, Matrix* dx) const;
  void AppendGradTasks(std::vector<GradTask>* tasks);

  Dest ArenaDest(int rows, Workspace* ws) const {
    return {ws->NewMatrix(rows, dim()), nullptr, nullptr};
  }
  Matrix* ForwardInference(const Matrix& x, Workspace* ws) const;
  void CollectParams(std::vector<Param*>* out) override;

  int dim() const { return gamma_.value.cols(); }
  // Parameter views: int8 packing derives data-free per-channel activation
  // magnitude estimates for post-LayerNorm inputs from gamma/beta
  // (src/nn/quantize.h).
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

  Matrix* ForwardInference(const Matrix& x, Workspace* ws,
                           Precision precision = Precision::kFp32) const;
  void CollectParams(std::vector<Param*>* out) override;

  size_t num_linear_layers() const { return linears_.size(); }
  Linear& linear_layer(size_t i) { return *linears_[i]; }

 private:
  // The forward body: Linear i writes rows [r0, r1) of dest(i), hidden
  // layers with their ReLU fused into the GEMM epilogue. Returns the last
  // layer's destination.
  template <typename Dest>
  Matrix* ForwardRowsInto(const Matrix& x, int r0, int r1, Precision precision, Dest&& dest,
                          Workspace* scratch) const;

  std::vector<std::unique_ptr<Linear>> linears_;
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
