// Transformer encoder layer and stacked encoder (post-LN as in the original
// "Attention Is All You Need", which the paper's predictor follows: Fig. 4).
#ifndef SRC_NN_TRANSFORMER_H_
#define SRC_NN_TRANSFORMER_H_

#include <memory>
#include <vector>

#include "src/nn/attention.h"

namespace cdmpp {

// One encoder block: x -> LN(x + MHA(x)) -> LN(.. + FFN(..)).
class TransformerEncoderLayer : public Module {
 public:
  TransformerEncoderLayer(int d_model, int num_heads, int d_ff, Rng* rng);

  // Where the forward body writes (see src/nn/layers.h).
  struct Dest {
    MultiHeadSelfAttention::Dest attn;
    LayerNorm::Dest norm1;
    Matrix* ff1;  // ReLU(ff1), fused into the GEMM epilogue
    Matrix* ff2;
    LayerNorm::Dest norm2;
  };
  // The forward body over rows [r0, r1), whole samples of `seq_len` rows;
  // `scratch` is private to the calling shard. Returns dest.norm2.y.
  Matrix* ForwardRowsInto(const Matrix& x, int r0, int r1, int seq_len, const Dest& dest,
                          Workspace* scratch) const;
  Dest ArenaDest(int rows, Workspace* ws) const;

  // Training row primitives (see src/nn/layers.h and attention.h).
  void BeginStep(int rows, int seq_len);
  Dest CacheDest();
  const Matrix& ForwardRows(const Matrix& x, int r0, int r1, Workspace* scratch);
  const Matrix& output() const { return norm2_.output(); }
  Matrix& output_grad() { return norm2_.output_grad(); }
  void InputGradRows(int r0, int r1, Workspace* scratch, Matrix* dx);
  void AppendGradTasks(const Matrix& x, std::vector<GradTask>* tasks);

  Matrix Forward(const Matrix& x, int seq_len);
  Matrix Backward(const Matrix& dy);
  Matrix* ForwardInference(const Matrix& x, int seq_len, Workspace* ws) const;
  void CollectParams(std::vector<Param*>* out) override;

  // Read-only sublayer views: the int8 calibration path
  // (QuantizedTransformerEncoderLayer) snapshots the weight GEMMs and derives
  // per-channel activation scales from the LayerNorms.
  const MultiHeadSelfAttention& attn() const { return attn_; }
  const LayerNorm& norm1() const { return norm1_; }
  const Linear& ff1() const { return *ff1_; }
  const Linear& ff2() const { return *ff2_; }
  const LayerNorm& norm2() const { return norm2_; }

 private:
  MultiHeadSelfAttention attn_;
  LayerNorm norm1_;
  std::unique_ptr<Linear> ff1_;
  std::unique_ptr<Linear> ff2_;
  LayerNorm norm2_;
  int seq_len_ = 0;  // of the training step
  Matrix input_;     // the Forward/Backward wrappers' copy of x
};

// A stack of encoder layers.
class TransformerEncoder : public Module {
 public:
  TransformerEncoder(int d_model, int num_heads, int d_ff, int num_layers, Rng* rng);

  // Training row primitives (see src/nn/layers.h and attention.h).
  void BeginStep(int rows, int seq_len);
  const Matrix& ForwardRows(const Matrix& x, int r0, int r1, Workspace* scratch);
  Matrix& output_grad() { return layers_.back()->output_grad(); }
  void InputGradRows(int r0, int r1, Workspace* scratch, Matrix* dx);
  void AppendGradTasks(const Matrix& x, std::vector<GradTask>* tasks);

  Matrix Forward(const Matrix& x, int seq_len);
  Matrix Backward(const Matrix& dy);
  // Each layer's forward body on arena destinations (see src/nn/layers.h),
  // one layer's tensors live at a time: safe for concurrent use on a shared
  // encoder while no thread is training it.
  Matrix* ForwardInference(const Matrix& x, int seq_len, Workspace* ws) const;
  void CollectParams(std::vector<Param*>* out) override;

  int d_model() const { return d_model_; }

  // Read-only layer views for the int8 calibration path.
  size_t num_layers() const { return layers_.size(); }
  const TransformerEncoderLayer& layer(size_t i) const { return *layers_[i]; }

 private:
  int d_model_;
  std::vector<std::unique_ptr<TransformerEncoderLayer>> layers_;
  Matrix input_;  // the Forward/Backward wrappers' copy of x
};

// The int8 mirror of TransformerEncoderLayer (CDMPP_PRECISION=int8): the
// attention Q/K/V/output projections and the FFN Linear pair run through the
// quantized kernel tier; the LayerNorms are fp32 copies (normalization is
// O(d) per row — no GEMM to win — and its re-normalization keeps the
// per-layer quantization noise from compounding across the stack), and the
// residual adds are fp32. Per-channel activation scales (the column-scale
// epilogue variant in src/nn/quantize.h) are derived data-free from the
// LayerNorm feeding each quantized GEMM:
//   * ff1 input is norm1's output -> scales from norm1's gamma/beta;
//   * the attention projections' input is the PREVIOUS layer's norm2 output
//     (post-LN encoder), passed in as `input_norm` — null for layer 0, whose
//     input is the fp32 input projection (no static channel profile); layer
//     0's Q/K/V then stay fp32 outright (see
//     QuantizedMultiHeadSelfAttention — measured, quantizing them per-row
//     breached the 1% end-to-end contract);
//   * ff2's input is ReLU(ff1) and the output projection's input is the
//     attention context — both data-dependent, both plain per-row.
//
// Calibrated, immutable snapshot of a fp32 layer: ForwardInference is const
// and thread-safe for concurrent readers; re-snapshot after training.
class QuantizedTransformerEncoderLayer {
 public:
  QuantizedTransformerEncoderLayer(const TransformerEncoderLayer& layer,
                                   const LayerNorm* input_norm);

  Matrix* ForwardInference(const Matrix& x, int seq_len, Workspace* ws) const;

 private:
  QuantizedMultiHeadSelfAttention attn_;
  LayerNorm norm1_;  // calibration-time fp32 copies
  QuantizedLinear ff1_;
  QuantizedLinear ff2_;
  LayerNorm norm2_;
};

// The int8 mirror of TransformerEncoder: every layer's weight GEMMs
// quantized, chained so layer i >= 1 derives its attention-input column
// scales from layer i-1's norm2.
class QuantizedTransformerEncoder {
 public:
  explicit QuantizedTransformerEncoder(const TransformerEncoder& encoder);

  Matrix* ForwardInference(const Matrix& x, int seq_len, Workspace* ws) const;

  int d_model() const { return d_model_; }
  size_t num_layers() const { return layers_.size(); }

 private:
  int d_model_;
  std::vector<QuantizedTransformerEncoderLayer> layers_;
};

}  // namespace cdmpp

#endif  // SRC_NN_TRANSFORMER_H_
