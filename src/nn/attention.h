// Multi-head self-attention over batches of equal-length sequences.
//
// Inputs are packed row-major as [batch * seq_len, d_model]. Because CDMPP
// batches compact ASTs by leaf count (paper §5.1), every batch has a uniform
// sequence length and no padding/masking is needed — this is exactly the
// efficiency claim of the compact-AST design.
#ifndef SRC_NN_ATTENTION_H_
#define SRC_NN_ATTENTION_H_

#include <memory>
#include <vector>

#include "src/nn/layers.h"
#include "src/nn/quantize.h"

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
  Matrix* ForwardRowsInto(const Matrix& x, int r0, int r1, int seq_len, const Dest& dest,
                          Workspace* scratch) const;
  Dest ArenaDest(int rows, Workspace* ws) const;

  // Training row primitives (see src/nn/layers.h). Row ranges cover whole
  // samples (multiples of seq_len).
  void BeginStep(int rows, int seq_len);
  Dest CacheDest();
  Matrix& ForwardRows(const Matrix& x, int r0, int r1, Workspace* scratch);
  Matrix& output_grad() { return wo_->output_grad(); }
  void InputGradRows(int r0, int r1, Workspace* scratch, Matrix* dx);
  void AppendGradTasks(const Matrix& x, std::vector<GradTask>* tasks);

  // x: [batch * seq_len, d_model]. Returns the same shape.
  Matrix Forward(const Matrix& x, int seq_len);
  Matrix Backward(const Matrix& dy);
  // Output and scratch from `ws`; bitwise identical for every
  // CDMPP_NUM_THREADS value and batch split.
  Matrix* ForwardInference(const Matrix& x, int seq_len, Workspace* ws) const;
  void CollectParams(std::vector<Param*>* out) override;

  int d_model() const { return d_model_; }
  int num_heads() const { return num_heads_; }

  // Read-only projection views: the int8 calibration path
  // (QuantizedMultiHeadSelfAttention) snapshots these into packed quantized
  // form.
  const Linear& wq() const { return *wq_; }
  const Linear& wk() const { return *wk_; }
  const Linear& wv() const { return *wv_; }
  const Linear& wo() const { return *wo_; }

 private:
  int d_model_;
  int num_heads_;
  int d_head_;
  std::unique_ptr<Linear> wq_, wk_, wv_, wo_;

  // Training caches (Q, K, V are the projections' outputs).
  int seq_len_ = 0;
  Matrix context_;
  std::vector<Matrix> attn_;  // per (sample, head): [L, L] softmax weights
  Matrix input_;              // the Forward/Backward wrappers' copy of x
};

// The int8 mirror of MultiHeadSelfAttention for the serving hot path
// (CDMPP_PRECISION=int8): the four weight GEMMs — Q/K/V projections and the
// output projection — run through the quantized kernel tier, while the
// activation×activation score/context GEMMs stay fp32 (their operands are
// both dynamic, a different quantization problem — ROADMAP follow-on). The
// score/context block loop is the one the fp32 path runs (attention.cc's
// AttentionContextRows), and QKV quantization uses row-deterministic per-row
// scales, so the quantized path keeps both bitwise invariance contracts.
//
// `act_absmax` is a data-free per-input-channel magnitude estimate for x
// (from the preceding LayerNorm when there is one); non-empty enables the
// per-channel activation-scale variant on the Q/K/V projections with ONE
// scale vector balanced against all three weights (multi-consumer
// BalancedColumnScales), so the forward quantizes x once and feeds the same
// codes to all three GEMMs (ForwardPreQuantized). Empty (the
// encoder's first layer, whose input comes from the fp32 input projection
// with no static channel profile) keeps Q/K/V fp32 entirely: measured on the
// serving fixtures, plain per-row quantization there breached the 1%
// end-to-end agreement contract — pre-softmax noise compounds through every
// downstream stage. The output projection is always quantized with plain
// per-row activation scales: its input is the attention context, whose
// channel profile is data-dependent, and its noise enters post-softmax.
//
// Calibrated, immutable snapshot: construction is mutating-world only,
// ForwardInference is const and thread-safe for concurrent readers.
class QuantizedMultiHeadSelfAttention {
 public:
  QuantizedMultiHeadSelfAttention(const MultiHeadSelfAttention& attn,
                                  const std::vector<float>& act_absmax);

  // x: [batch * seq_len, d_model]; same contract as the fp32 arena
  // ForwardInference.
  Matrix* ForwardInference(const Matrix& x, int seq_len, Workspace* ws) const;

  int d_model() const { return d_model_; }

 private:
  int d_model_;
  int num_heads_;
  std::vector<QuantizedLinear> qkv_;  // {q, k, v} when a channel profile exists
  std::vector<Linear> fp32_qkv_;      // {q, k, v} fp32 copies otherwise
  QuantizedLinear wo_;
};

}  // namespace cdmpp

#endif  // SRC_NN_ATTENTION_H_
