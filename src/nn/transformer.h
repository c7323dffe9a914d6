// Transformer encoder layer and stacked encoder (post-LN as in the original
// "Attention Is All You Need", which the paper's predictor follows: Fig. 4).
//
// Int8 (see src/nn/layers.h): a forward passes its precision to the
// attention projections and the FFN pair, which run int8 where packed. The
// LayerNorms and residual adds are always fp32: normalization has no GEMM
// to win, and its re-normalization keeps per-layer quantization noise from
// compounding across the stack.
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
  Matrix* ForwardRowsInto(const Matrix& x, int r0, int r1, int seq_len, Precision precision,
                          const Dest& dest, Workspace* scratch) const;
  Dest ArenaDest(int rows, Workspace* ws) const;

  // Training row primitives (see src/nn/layers.h and attention.h).
  void BeginStep(int rows, int seq_len);
  Dest CacheDest();
  const Matrix& ForwardRows(const Matrix& x, int r0, int r1, Workspace* scratch);
  const Matrix& output() const { return norm2_.output(); }
  Matrix& output_grad() { return norm2_.output_grad(); }
  void InputGradRows(int r0, int r1, Workspace* scratch, Matrix* dx);
  void AppendGradTasks(const Matrix& x, std::vector<GradTask>* tasks);

  Matrix* ForwardInference(const Matrix& x, int seq_len, Workspace* ws,
                           Precision precision = Precision::kFp32) const;
  void CollectParams(std::vector<Param*>* out) override;

  MultiHeadSelfAttention& attn() { return attn_; }
  const LayerNorm& norm1() const { return norm1_; }
  Linear& ff1() { return *ff1_; }
  Linear& ff2() { return *ff2_; }
  const LayerNorm& norm2() const { return norm2_; }

 private:
  MultiHeadSelfAttention attn_;
  LayerNorm norm1_;
  std::unique_ptr<Linear> ff1_;
  std::unique_ptr<Linear> ff2_;
  LayerNorm norm2_;
  int seq_len_ = 0;  // of the training step
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

  // Each layer's forward body on arena destinations (see src/nn/layers.h),
  // one layer's tensors live at a time: safe for concurrent use on a shared
  // encoder while no thread is training it.
  Matrix* ForwardInference(const Matrix& x, int seq_len, Workspace* ws,
                           Precision precision = Precision::kFp32) const;
  void CollectParams(std::vector<Param*>* out) override;

  int d_model() const { return d_model_; }

  size_t num_layers() const { return layers_.size(); }
  TransformerEncoderLayer& layer(size_t i) { return *layers_[i]; }

 private:
  int d_model_;
  std::vector<std::unique_ptr<TransformerEncoderLayer>> layers_;
};

}  // namespace cdmpp

#endif  // SRC_NN_TRANSFORMER_H_
