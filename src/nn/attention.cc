#include "src/nn/attention.h"

#include <algorithm>
#include <cmath>

#include "src/obs/trace.h"

namespace cdmpp {

namespace {

// The per-(sample, head) fp32 score/context loop shared verbatim by the fp32
// and int8 attention forwards (only the Q/K/V/output *projections* differ
// between the two tiers; the activation×activation GEMMs are identical).
// q_all must already carry the folded 1/sqrt(d_head) softmax scale. Every
// (sample, head) writes its own disjoint [seq_len, d_head] block of the
// returned context, so no zero-fill or reduction is needed, and the result
// of a sample does not depend on the other samples in the batch. The loop
// runs inline: serving parallelism comes from the predictor's row shards,
// one level up.
Matrix* AttentionContext(const Matrix& q_all, const Matrix& k_all, const Matrix& v_all,
                         int batch, int seq_len, int num_heads, int d_head, int d_model,
                         Workspace* ws) {
  Matrix* context = ws->NewMatrix(batch * seq_len, d_model);
  Matrix* scores = ws->NewMatrix(seq_len, seq_len);
  for (int b = 0; b < batch; ++b) {
    for (int h = 0; h < num_heads; ++h) {
      const float* q = q_all.Row(b * seq_len) + h * d_head;
      const float* k = k_all.Row(b * seq_len) + h * d_head;
      const float* v = v_all.Row(b * seq_len) + h * d_head;
      float* ctx = context->Row(b * seq_len) + h * d_head;
      // scores = (Q/sqrt(d))·Kᵀ directly on the packed layout
      // (lda/ldb = d_model).
      kernels::GemmNT(seq_len, seq_len, d_head, q, d_model, k, d_model,
                      /*beta=*/0.0f, scores->data(), seq_len);
      SoftmaxRows(scores);
      // context block = softmax(scores)·V, written in place.
      kernels::GemmNN(seq_len, d_head, seq_len, scores->data(), seq_len, v, d_model,
                      /*beta=*/0.0f, ctx, d_model);
    }
  }
  return context;
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

Matrix& MultiHeadSelfAttention::ForwardRows(const Matrix& x, int r0, int r1,
                                            Workspace* scratch) {
  const int l = seq_len_;
  CDMPP_CHECK(r0 % l == 0 && r1 % l == 0 && x.cols() == d_model_);
  const Matrix& q = wq_->ForwardRows(x, r0, r1);
  const Matrix& k = wk_->ForwardRows(x, r0, r1);
  const Matrix& v = wv_->ForwardRows(x, r0, r1);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d_head_));
  Matrix* q_scaled = scratch->NewMatrix(l, d_head_);
  for (int b = r0 / l; b < r1 / l; ++b) {
    for (int h = 0; h < num_heads_; ++h) {
      // The 1/sqrt(d_head) softmax scale is folded into a scaled copy of the
      // Q block — one pass over [L, d_head] instead of a [L, L] scores pass,
      // the formulation the inference path pins too, so the two stay bitwise
      // equal. Q itself stays unscaled: the backward's dscores scale carries
      // the factor to both dq and dk. K and V are read in place.
      for (int t = 0; t < l; ++t) {
        const float* src = q.Row(b * l + t) + h * d_head_;
        float* dst = q_scaled->Row(t);
        for (int j = 0; j < d_head_; ++j) {
          dst[j] = src[j] * scale;
        }
      }
      Matrix& attn = attn_[static_cast<size_t>(b) * num_heads_ + h];
      kernels::GemmNT(l, l, d_head_, q_scaled->data(), d_head_, k.Row(b * l) + h * d_head_,
                      d_model_, /*beta=*/0.0f, attn.data(), l);
      SoftmaxRows(&attn);
      kernels::GemmNN(l, d_head_, l, attn.data(), l, v.Row(b * l) + h * d_head_, d_model_,
                      /*beta=*/0.0f, context_.Row(b * l) + h * d_head_, d_model_);
    }
  }
  return wo_->ForwardRows(context_, r0, r1);
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

Matrix MultiHeadSelfAttention::Forward(const Matrix& x, int seq_len) {
  input_ = x;
  BeginStep(x.rows(), seq_len);
  Workspace scratch;
  return ForwardRows(input_, 0, x.rows(), &scratch);
}

Matrix MultiHeadSelfAttention::Backward(const Matrix& dy) {
  CDMPP_CHECK(dy.rows() == input_.rows() && dy.cols() == d_model_);
  output_grad() = dy;
  Workspace scratch;
  Matrix dx(dy.rows(), d_model_);
  InputGradRows(0, dy.rows(), &scratch, &dx);
  std::vector<GradTask> tasks;
  AppendGradTasks(input_, &tasks);
  for (const GradTask& t : tasks) {
    RunGradTask(t);
  }
  return dx;
}

Matrix MultiHeadSelfAttention::ForwardInference(const Matrix& x, int seq_len) const {
  // True wrapper over the arena path: one attention-inference implementation
  // to keep bitwise-consistent (see src/nn/layers.h).
  Workspace ws;
  return *ForwardInference(x, seq_len, &ws);
}

Matrix* MultiHeadSelfAttention::ForwardInference(const Matrix& x, int seq_len,
                                                 Workspace* ws) const {
  // No-op unless the serving layer bound a sampled trace to this thread.
  obs::ScopedSpan span(obs::Stage::kAttention);
  CDMPP_CHECK(seq_len > 0);
  CDMPP_CHECK(x.rows() % seq_len == 0);
  CDMPP_CHECK(x.cols() == d_model_);
  const int batch = x.rows() / seq_len;

  Matrix* q_all = wq_->ForwardInference(x, ws);
  Matrix* k_all = wk_->ForwardInference(x, ws);
  Matrix* v_all = wv_->ForwardInference(x, ws);

  // Softmax scale folded into the Q operand (see Forward).
  const float scale = 1.0f / std::sqrt(static_cast<float>(d_head_));
  q_all->Scale(scale);

  Matrix* context =
      AttentionContext(*q_all, *k_all, *v_all, batch, seq_len, num_heads_, d_head_, d_model_, ws);
  return wo_->ForwardInference(*context, ws);
}

QuantizedMultiHeadSelfAttention::QuantizedMultiHeadSelfAttention(
    const MultiHeadSelfAttention& attn, const std::vector<float>& act_absmax)
    : d_model_(attn.d_model()),
      num_heads_(attn.num_heads()),
      d_head_(attn.d_model() / attn.num_heads()),
      wo_(attn.wo()) {
  if (act_absmax.empty()) {
    // No static channel profile for the input (the encoder's first layer,
    // fed by the fp32 input projection): keep Q/K/V fp32. Measured: plain
    // per-row quantization here is what pushed full-encoder agreement past
    // the 1% contract — the noise enters before every downstream stage and
    // the softmax's exponentials are sensitive to it.
    fp32_qkv_.reserve(3);
    fp32_qkv_.push_back(attn.wq());
    fp32_qkv_.push_back(attn.wk());
    fp32_qkv_.push_back(attn.wv());
  } else {
    // ONE column-scale vector balanced against all three projection weights:
    // sharing the scales (and therefore the quantized input codes) lets the
    // forward quantize x once and run three GEMMs over the same codes —
    // measured, the per-row quantize pass is the dominant non-GEMM cost of
    // the int8 encoder, so collapsing 3 passes to 1 here is a straight
    // serving win over marginally finer per-projection balance.
    const std::vector<float> shared_scales = BalancedColumnScales(
        act_absmax, {&attn.wq().weight(), &attn.wk().weight(), &attn.wv().weight()});
    qkv_.reserve(3);
    qkv_.emplace_back(attn.wq(), shared_scales);
    qkv_.emplace_back(attn.wk(), shared_scales);
    qkv_.emplace_back(attn.wv(), shared_scales);
  }
}

Matrix* QuantizedMultiHeadSelfAttention::ForwardInference(const Matrix& x, int seq_len,
                                                          Workspace* ws) const {
  // Same span discipline as the fp32 path.
  obs::ScopedSpan span(obs::Stage::kAttention);
  CDMPP_CHECK(seq_len > 0);
  CDMPP_CHECK(x.rows() % seq_len == 0);
  CDMPP_CHECK(x.cols() == d_model_);
  const int batch = x.rows() / seq_len;

  // The three input projections share ONE quantization of x (the constructor
  // gave them identical folded column scales) with row-deterministic per-row
  // scales — both bitwise invariance contracts hold, and the quantize pass
  // runs once instead of three times. Without a channel profile the fp32
  // copies run instead (see the constructor).
  Matrix* q_all;
  Matrix* k_all;
  Matrix* v_all;
  if (!qkv_.empty()) {
    const int m = x.rows();
    const int ldq = 2 * qkv_[0].k2();
    int16_t* qx = ws->NewI16(static_cast<size_t>(m) * ldq);
    Matrix* row_scales = ws->NewMatrix(m, 1);
    {
      obs::ScopedSpan qspan(obs::Stage::kQuantize);
      QuantizeActivationsPerRowScaled(m, d_model_, x.data(), x.cols(),
                                      qkv_[0].inv_col_scales().data(), qx, ldq,
                                      row_scales->data());
    }
    q_all = qkv_[0].ForwardPreQuantized(m, qx, ldq, row_scales->data(), ws);
    k_all = qkv_[1].ForwardPreQuantized(m, qx, ldq, row_scales->data(), ws);
    v_all = qkv_[2].ForwardPreQuantized(m, qx, ldq, row_scales->data(), ws);
  } else {
    q_all = fp32_qkv_[0].ForwardInference(x, ws);
    k_all = fp32_qkv_[1].ForwardInference(x, ws);
    v_all = fp32_qkv_[2].ForwardInference(x, ws);
  }

  // Softmax scale folded into the (dequantized fp32) Q operand, identical
  // formulation to the fp32 path.
  const float scale = 1.0f / std::sqrt(static_cast<float>(d_head_));
  q_all->Scale(scale);

  Matrix* context =
      AttentionContext(*q_all, *k_all, *v_all, batch, seq_len, num_heads_, d_head_, d_model_, ws);
  return wo_.ForwardInference(*context, ws);
}

void MultiHeadSelfAttention::CollectParams(std::vector<Param*>* out) {
  wq_->CollectParams(out);
  wk_->CollectParams(out);
  wv_->CollectParams(out);
  wo_->CollectParams(out);
}

}  // namespace cdmpp
