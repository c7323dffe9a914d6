// Multi-head self-attention over batches of equal-length sequences.
//
// Inputs are packed row-major as [batch * seq_len, d_model]. Because CDMPP
// batches compact ASTs by leaf count (paper §5.1), every batch has a uniform
// sequence length and no padding/masking is needed — this is exactly the
// efficiency claim of the compact-AST design.
//
// Int8 (see src/nn/layers.h): the four projections run int8 when packed and
// asked; the activation×activation score/context GEMMs are always fp32
// (both operands are dynamic, a different quantization problem). When Q, K
// and V hold packs that quantize their input identically, the forward
// quantizes x once and feeds the same codes to all three GEMMs.
#ifndef SRC_NN_ATTENTION_H_
#define SRC_NN_ATTENTION_H_

#include <memory>
#include <vector>

#include "src/nn/layers.h"

namespace cdmpp {

class MultiHeadSelfAttention : public Module {
 public:
  MultiHeadSelfAttention(int d_model, int num_heads, Rng* rng);

  // Where the forward body writes (see src/nn/layers.h): [rows, d_model]
  // projections, context and output, plus the per-(sample, head) softmax
  // weights for training (null for inference).
  struct Dest {
    Matrix* q;
    Matrix* k;
    Matrix* v;
    Matrix* context;
    Matrix* out;
    Matrix* attn;
  };
  // The forward body over rows [r0, r1), whole samples of `seq_len` rows.
  // Per-head Q/K/V blocks are addressed in place inside the packed
  // activations via the kernels' leading-dimension parameters; `scratch`
  // backs the per-head blocks and must be private to the calling shard.
  // Returns dest.out.
  Matrix* ForwardRowsInto(const Matrix& x, int r0, int r1, int seq_len, Precision precision,
                          const Dest& dest, Workspace* scratch) const;
  Dest ArenaDest(int rows, Workspace* ws) const;

  // Training row primitives (see src/nn/layers.h). Row ranges cover whole
  // samples (multiples of seq_len).
  void BeginStep(int rows, int seq_len);
  Dest CacheDest();
  Matrix& ForwardRows(const Matrix& x, int r0, int r1, Workspace* scratch);
  Matrix& output_grad() { return wo_->output_grad(); }
  void InputGradRows(int r0, int r1, Workspace* scratch, Matrix* dx);
  void AppendGradTasks(const Matrix& x, std::vector<GradTask>* tasks);

  // x: [batch * seq_len, d_model]; returns the same shape. Output and
  // scratch from `ws`; bitwise identical for every CDMPP_NUM_THREADS value
  // and batch split.
  Matrix* ForwardInference(const Matrix& x, int seq_len, Workspace* ws,
                           Precision precision = Precision::kFp32) const;
  void CollectParams(std::vector<Param*>* out) override;

  int d_model() const { return d_model_; }
  int num_heads() const { return num_heads_; }

  Linear& wq() { return *wq_; }
  Linear& wk() { return *wk_; }
  Linear& wv() { return *wv_; }
  Linear& wo() { return *wo_; }

 private:
  int d_model_;
  int num_heads_;
  int d_head_;
  std::unique_ptr<Linear> wq_, wk_, wv_, wo_;

  // Training caches (Q, K, V are the projections' outputs).
  int seq_len_ = 0;
  Matrix context_;
  std::vector<Matrix> attn_;  // per (sample, head): [L, L] softmax weights
};

}  // namespace cdmpp

#endif  // SRC_NN_ATTENTION_H_
