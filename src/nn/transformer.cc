#include "src/nn/transformer.h"

#include <algorithm>

namespace cdmpp {

TransformerEncoderLayer::TransformerEncoderLayer(int d_model, int num_heads, int d_ff, Rng* rng)
    : attn_(d_model, num_heads, rng), norm1_(d_model), norm2_(d_model) {
  ff1_ = std::make_unique<Linear>(d_model, d_ff, rng);
  ff2_ = std::make_unique<Linear>(d_ff, d_model, rng);
}

namespace {

// dst rows [r0, r1) += src rows [r0, r1): the post-LN residual adds.
void AddRows(const Matrix& src, int r0, int r1, Matrix* dst) {
  for (int i = r0; i < r1; ++i) {
    const float* s = src.Row(i);
    float* d = dst->Row(i);
    for (int j = 0; j < dst->cols(); ++j) {
      d[j] += s[j];
    }
  }
}

}  // namespace

Matrix* TransformerEncoderLayer::ForwardRowsInto(const Matrix& x, int r0, int r1, int seq_len,
                                                 Precision precision, const Dest& dest,
                                                 Workspace* scratch) const {
  Matrix* attn_out = attn_.ForwardRowsInto(x, r0, r1, seq_len, precision, dest.attn, scratch);
  AddRows(x, r0, r1, attn_out);  // residual
  norm1_.ForwardRowsInto(*attn_out, r0, r1, dest.norm1);
  const Matrix& h = *dest.norm1.y;

  // FFN hidden layer: bias + ReLU fused into the GEMM epilogue.
  ff1_->ForwardRowsInto(h, r0, r1, kernels::Activation::kRelu, precision, dest.ff1, scratch);
  ff2_->ForwardRowsInto(*dest.ff1, r0, r1, kernels::Activation::kNone, precision, dest.ff2,
                        scratch);
  AddRows(h, r0, r1, dest.ff2);  // residual
  norm2_.ForwardRowsInto(*dest.ff2, r0, r1, dest.norm2);
  return dest.norm2.y;
}

TransformerEncoderLayer::Dest TransformerEncoderLayer::ArenaDest(int rows, Workspace* ws) const {
  Dest dest;
  dest.attn = attn_.ArenaDest(rows, ws);
  dest.norm1 = norm1_.ArenaDest(rows, ws);
  dest.ff1 = ws->NewMatrix(rows, ff1_->out_dim());
  dest.ff2 = ws->NewMatrix(rows, ff2_->out_dim());
  dest.norm2 = norm2_.ArenaDest(rows, ws);
  return dest;
}

void TransformerEncoderLayer::BeginStep(int rows, int seq_len) {
  seq_len_ = seq_len;
  attn_.BeginStep(rows, seq_len);
  norm1_.BeginStep(rows);
  ff1_->BeginStep(rows);
  ff2_->BeginStep(rows);
  norm2_.BeginStep(rows);
}

TransformerEncoderLayer::Dest TransformerEncoderLayer::CacheDest() {
  return {attn_.CacheDest(), norm1_.CacheDest(), &ff1_->output(), &ff2_->output(),
          norm2_.CacheDest()};
}

const Matrix& TransformerEncoderLayer::ForwardRows(const Matrix& x, int r0, int r1,
                                                   Workspace* scratch) {
  return *ForwardRowsInto(x, r0, r1, seq_len_, Precision::kFp32, CacheDest(), scratch);
}

void TransformerEncoderLayer::InputGradRows(int r0, int r1, Workspace* scratch, Matrix* dx) {
  // d_ff_sum flows to both the FFN branch and the residual (h); it is ff2's
  // output gradient as it stands.
  Matrix& d_ff_sum = ff2_->output_grad();
  norm2_.InputGradRows(r0, r1, &d_ff_sum);
  Matrix& d_ff1 = ff1_->output_grad();
  ff2_->InputGradRows(r0, r1, d_ff1.Row(r0), d_ff1.cols());
  ReluBackwardRows(ff1_->output(), r0, r1, &d_ff1);
  Matrix& dh = norm1_.output_grad();
  ff1_->InputGradRows(r0, r1, dh.Row(r0), dh.cols());
  AddRows(d_ff_sum, r0, r1, &dh);

  // Likewise d_attn_sum: the attention's output gradient and the residual's.
  Matrix& d_attn_sum = attn_.output_grad();
  norm1_.InputGradRows(r0, r1, &d_attn_sum);
  attn_.InputGradRows(r0, r1, scratch, dx);
  AddRows(d_attn_sum, r0, r1, dx);
}

void TransformerEncoderLayer::AppendGradTasks(const Matrix& x, std::vector<GradTask>* tasks) {
  attn_.AppendGradTasks(x, tasks);
  norm1_.AppendGradTasks(tasks);
  ff1_->AppendGradTasks(norm1_.output(), tasks);
  ff2_->AppendGradTasks(ff1_->output(), tasks);
  norm2_.AppendGradTasks(tasks);
}

Matrix* TransformerEncoderLayer::ForwardInference(const Matrix& x, int seq_len, Workspace* ws,
                                                  Precision precision) const {
  return ForwardRowsInto(x, 0, x.rows(), seq_len, precision, ArenaDest(x.rows(), ws), ws);
}

void TransformerEncoderLayer::CollectParams(std::vector<Param*>* out) {
  attn_.CollectParams(out);
  norm1_.CollectParams(out);
  ff1_->CollectParams(out);
  ff2_->CollectParams(out);
  norm2_.CollectParams(out);
}

TransformerEncoder::TransformerEncoder(int d_model, int num_heads, int d_ff, int num_layers,
                                       Rng* rng)
    : d_model_(d_model) {
  CDMPP_CHECK(num_layers >= 1);
  for (int i = 0; i < num_layers; ++i) {
    layers_.push_back(std::make_unique<TransformerEncoderLayer>(d_model, num_heads, d_ff, rng));
  }
}

void TransformerEncoder::BeginStep(int rows, int seq_len) {
  for (auto& layer : layers_) {
    layer->BeginStep(rows, seq_len);
  }
}

const Matrix& TransformerEncoder::ForwardRows(const Matrix& x, int r0, int r1,
                                              Workspace* scratch) {
  const Matrix* h = &x;
  for (auto& layer : layers_) {
    h = &layer->ForwardRows(*h, r0, r1, scratch);
  }
  return *h;
}

void TransformerEncoder::InputGradRows(int r0, int r1, Workspace* scratch, Matrix* dx) {
  for (size_t i = layers_.size() - 1; i > 0; --i) {
    layers_[i]->InputGradRows(r0, r1, scratch, &layers_[i - 1]->output_grad());
  }
  layers_[0]->InputGradRows(r0, r1, scratch, dx);
}

void TransformerEncoder::AppendGradTasks(const Matrix& x, std::vector<GradTask>* tasks) {
  layers_[0]->AppendGradTasks(x, tasks);
  for (size_t i = 1; i < layers_.size(); ++i) {
    layers_[i]->AppendGradTasks(layers_[i - 1]->output(), tasks);
  }
}

Matrix* TransformerEncoder::ForwardInference(const Matrix& x, int seq_len, Workspace* ws,
                                             Precision precision) const {
  // A layer's intermediates are dead once its output exists, so every output
  // but the last is copied into one of two carry buffers taken before a
  // mark, and the arena is rewound to that mark: the arena holds one layer's
  // tensors instead of all of them, with the same values.
  Matrix* carry[2] = {nullptr, nullptr};
  const Matrix* h = &x;
  for (size_t i = 0; i + 1 < layers_.size(); ++i) {
    Matrix*& buf = carry[i % 2];
    if (buf == nullptr) {
      buf = ws->NewMatrix(x.rows(), x.cols());
    }
    const Workspace::Mark mark = ws->GetMark();
    const Matrix* y = layers_[i]->ForwardInference(*h, seq_len, ws, precision);
    std::copy(y->data(), y->data() + y->size(), buf->data());
    ws->Rewind(mark);
    h = buf;
  }
  return layers_.back()->ForwardInference(*h, seq_len, ws, precision);
}

void TransformerEncoder::CollectParams(std::vector<Param*>* out) {
  for (auto& layer : layers_) {
    layer->CollectParams(out);
  }
}

}  // namespace cdmpp
