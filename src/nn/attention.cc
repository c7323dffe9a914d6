#include "src/nn/attention.h"

#include <algorithm>
#include <cmath>

#include "src/obs/trace.h"

namespace cdmpp {

namespace {

// The per-(sample, head) score/softmax/context loop every attention forward
// runs (training, fp32 and int8 inference), over the samples of
// rows [r0, r1) of the packed [rows, d_model] Q/K/V projections. Per head,
// the 1/sqrt(d_head) softmax scale is folded into a scaled copy of the Q
// block in `scratch` (one pass over [L, d_head] instead of over [L, L]
// scores; Q itself stays unscaled, so the backward's dscores scale carries
// the factor to both dq and dk), then scores = Q_scaled·Kᵀ with K read in
// place, softmax, and the context block = scores·V. Scores go to `attn`
// (sample b, head h at attn[b * num_heads + h]: the training cache) or, when
// it is null, to one scratch block reused across heads. Every (sample, head)
// writes a disjoint [L, d_head] block of `context`, so a sample's result
// does not depend on the other samples in the batch. The loop runs inline:
// parallelism comes from the row shards one level up.
void AttentionContextRows(const Matrix& q, const Matrix& k, const Matrix& v, int r0, int r1,
                          int seq_len, int num_heads, Matrix* attn, Workspace* scratch,
                          Matrix* context) {
  const int l = seq_len;
  const int d_model = q.cols();
  const int d_head = d_model / num_heads;
  CDMPP_CHECK(r0 % l == 0 && r1 % l == 0);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d_head));
  Matrix* q_scaled = scratch->NewMatrix(l, d_head);
  Matrix* scores = attn == nullptr ? scratch->NewMatrix(l, l) : nullptr;
  for (int b = r0 / l; b < r1 / l; ++b) {
    for (int h = 0; h < num_heads; ++h) {
      const int col = h * d_head;
      for (int t = 0; t < l; ++t) {
        const float* src = q.Row(b * l + t) + col;
        float* dst = q_scaled->Row(t);
        for (int j = 0; j < d_head; ++j) {
          dst[j] = src[j] * scale;
        }
      }
      Matrix& s = attn != nullptr ? attn[static_cast<size_t>(b) * num_heads + h] : *scores;
      kernels::GemmNT(l, l, d_head, q_scaled->data(), d_head, k.Row(b * l) + col, d_model,
                      /*beta=*/0.0f, s.data(), l);
      SoftmaxRows(&s);
      kernels::GemmNN(l, d_head, l, s.data(), l, v.Row(b * l) + col, d_model, /*beta=*/0.0f,
                      context->Row(b * l) + col, d_model);
    }
  }
}

}  // namespace

MultiHeadSelfAttention::MultiHeadSelfAttention(int d_model, int num_heads, Rng* rng)
    : d_model_(d_model), num_heads_(num_heads), d_head_(d_model / num_heads) {
  CDMPP_CHECK(d_model % num_heads == 0);
  wq_ = std::make_unique<Linear>(d_model, d_model, rng);
  wk_ = std::make_unique<Linear>(d_model, d_model, rng);
  wv_ = std::make_unique<Linear>(d_model, d_model, rng);
  wo_ = std::make_unique<Linear>(d_model, d_model, rng);
}

Matrix* MultiHeadSelfAttention::ForwardRowsInto(const Matrix& x, int r0, int r1, int seq_len,
                                                Precision precision, const Dest& dest,
                                                Workspace* scratch) const {
  // No-op unless the serving layer bound a sampled trace to this thread.
  obs::ScopedSpan span(obs::Stage::kAttention);
  CDMPP_CHECK(seq_len > 0 && x.cols() == d_model_);
  constexpr kernels::Activation kNone = kernels::Activation::kNone;
  if (precision == Precision::kInt8 && wq_->SharesInt8Input(*wk_) &&
      wq_->SharesInt8Input(*wv_)) {
    // One quantization of x feeds all three projections: the quantize pass
    // is the int8 encoder's dominant non-GEMM cost.
    const Linear::QuantizedRows xq = wq_->QuantizeRows(x, r0, r1, scratch);
    wq_->ForwardQuantizedRowsInto(xq, r0, r1, kNone, dest.q);
    wk_->ForwardQuantizedRowsInto(xq, r0, r1, kNone, dest.k);
    wv_->ForwardQuantizedRowsInto(xq, r0, r1, kNone, dest.v);
  } else {
    wq_->ForwardRowsInto(x, r0, r1, kNone, precision, dest.q, scratch);
    wk_->ForwardRowsInto(x, r0, r1, kNone, precision, dest.k, scratch);
    wv_->ForwardRowsInto(x, r0, r1, kNone, precision, dest.v, scratch);
  }
  AttentionContextRows(*dest.q, *dest.k, *dest.v, r0, r1, seq_len, num_heads_, dest.attn,
                       scratch, dest.context);
  wo_->ForwardRowsInto(*dest.context, r0, r1, kNone, precision, dest.out, scratch);
  return dest.out;
}

MultiHeadSelfAttention::Dest MultiHeadSelfAttention::ArenaDest(int rows, Workspace* ws) const {
  return {ws->NewMatrix(rows, d_model_), ws->NewMatrix(rows, d_model_),
          ws->NewMatrix(rows, d_model_), ws->NewMatrix(rows, d_model_),
          ws->NewMatrix(rows, d_model_), nullptr};
}

void MultiHeadSelfAttention::BeginStep(int rows, int seq_len) {
  CDMPP_CHECK(seq_len > 0 && rows % seq_len == 0);
  seq_len_ = seq_len;
  wq_->BeginStep(rows);
  wk_->BeginStep(rows);
  wv_->BeginStep(rows);
  wo_->BeginStep(rows);
  SizeStepCache(&context_, rows, d_model_);
  // resize (not assign) keeps the per-(sample, head) attention matrices'
  // capacity across steps.
  attn_.resize(static_cast<size_t>(rows / seq_len) * num_heads_);
  for (Matrix& a : attn_) {
    a.Resize(seq_len, seq_len);
  }
}

MultiHeadSelfAttention::Dest MultiHeadSelfAttention::CacheDest() {
  return {&wq_->output(), &wk_->output(), &wv_->output(), &context_, &wo_->output(),
          attn_.data()};
}

Matrix& MultiHeadSelfAttention::ForwardRows(const Matrix& x, int r0, int r1,
                                            Workspace* scratch) {
  return *ForwardRowsInto(x, r0, r1, seq_len_, Precision::kFp32, CacheDest(), scratch);
}

void MultiHeadSelfAttention::InputGradRows(int r0, int r1, Workspace* scratch, Matrix* dx) {
  const int l = seq_len_;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d_head_));
  // dcontext is consumed inside this shard, so it lives in shard scratch.
  Matrix* dcontext = scratch->NewMatrix(r1 - r0, d_model_);
  wo_->InputGradRows(r0, r1, dcontext->data(), d_model_);
  Matrix* dscores = scratch->NewMatrix(l, l);
  const Matrix& q = wq_->output();
  const Matrix& k = wk_->output();
  const Matrix& v = wv_->output();
  Matrix& dq = wq_->output_grad();
  Matrix& dk = wk_->output_grad();
  Matrix& dv = wv_->output_grad();
  for (int b = r0 / l; b < r1 / l; ++b) {
    for (int h = 0; h < num_heads_; ++h) {
      const Matrix& attn = attn_[static_cast<size_t>(b) * num_heads_ + h];
      const int row = b * l;
      const int col = h * d_head_;
      const float* dout = dcontext->Row(row - r0) + col;
      // out = attn x v: dattn = dout·vᵀ (into dscores), dv = attnᵀ·dout.
      kernels::GemmNT(l, l, d_head_, dout, d_model_, v.Row(row) + col, d_model_,
                      /*beta=*/0.0f, dscores->data(), l);
      kernels::GemmTN(l, d_head_, l, attn.data(), l, dout, d_model_, /*beta=*/0.0f,
                      dv.Row(row) + col, d_model_);
      // Softmax backward in place: ds = attn * (dattn - rowsum(dattn * attn)),
      // times the folded softmax scale.
      for (int i = 0; i < l; ++i) {
        float* ds = dscores->Row(i);
        const float* a = attn.Row(i);
        float dot = 0.0f;
        for (int j = 0; j < l; ++j) {
          dot += ds[j] * a[j];
        }
        for (int j = 0; j < l; ++j) {
          ds[j] = a[j] * (ds[j] - dot) * scale;
        }
      }
      // scores = (q * scale) x kᵀ.
      kernels::GemmNN(l, d_head_, l, dscores->data(), l, k.Row(row) + col, d_model_,
                      /*beta=*/0.0f, dq.Row(row) + col, d_model_);
      kernels::GemmTN(l, d_head_, l, dscores->data(), l, q.Row(row) + col, d_model_,
                      /*beta=*/0.0f, dk.Row(row) + col, d_model_);
    }
  }
  wq_->InputGradRows(r0, r1, dx->Row(r0), dx->cols());
  wk_->InputGradRows(r0, r1, dx->Row(r0), dx->cols(), /*accumulate=*/true);
  wv_->InputGradRows(r0, r1, dx->Row(r0), dx->cols(), /*accumulate=*/true);
}

void MultiHeadSelfAttention::AppendGradTasks(const Matrix& x, std::vector<GradTask>* tasks) {
  wq_->AppendGradTasks(x, tasks);
  wk_->AppendGradTasks(x, tasks);
  wv_->AppendGradTasks(x, tasks);
  wo_->AppendGradTasks(context_, tasks);
}

Matrix* MultiHeadSelfAttention::ForwardInference(const Matrix& x, int seq_len, Workspace* ws,
                                                 Precision precision) const {
  return ForwardRowsInto(x, 0, x.rows(), seq_len, precision, ArenaDest(x.rows(), ws), ws);
}

void MultiHeadSelfAttention::CollectParams(std::vector<Param*>* out) {
  wq_->CollectParams(out);
  wk_->CollectParams(out);
  wv_->CollectParams(out);
  wo_->CollectParams(out);
}

}  // namespace cdmpp
