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

// Runs layers 0..n-1 (layer(i, h) returns layer i's output for input h) in
// `ws`. A layer's intermediates are dead once its output exists, so every
// output but the last is copied into one of two carry buffers taken before
// a mark, and the arena is rewound to that mark: the arena holds one layer's
// tensors instead of all of them, with the same values.
template <typename Layer>
Matrix* ForwardLayerStack(size_t n, const Matrix& x, Workspace* ws, Layer&& layer) {
  Matrix* carry[2] = {nullptr, nullptr};
  const Matrix* h = &x;
  for (size_t i = 0; i + 1 < n; ++i) {
    Matrix*& buf = carry[i % 2];
    if (buf == nullptr) {
      buf = ws->NewMatrix(x.rows(), x.cols());
    }
    const Workspace::Mark mark = ws->GetMark();
    const Matrix* y = layer(i, *h);
    std::copy(y->data(), y->data() + y->size(), buf->data());
    ws->Rewind(mark);
    h = buf;
  }
  return layer(n - 1, *h);
}

}  // namespace

void TransformerEncoderLayer::BeginStep(int rows, int seq_len) {
  attn_.BeginStep(rows, seq_len);
  norm1_.BeginStep(rows);
  ff1_->BeginStep(rows);
  ff_relu_.BeginStep(rows, ff1_->out_dim());
  ff2_->BeginStep(rows);
  norm2_.BeginStep(rows);
}

const Matrix& TransformerEncoderLayer::ForwardRows(const Matrix& x, int r0, int r1,
                                                   Workspace* scratch) {
  Matrix& attn_out = attn_.ForwardRows(x, r0, r1, scratch);
  AddRows(x, r0, r1, &attn_out);  // residual
  const Matrix& h = norm1_.ForwardRows(attn_out, r0, r1);

  Matrix& ff = ff2_->ForwardRows(ff_relu_.ForwardRows(ff1_->ForwardRows(h, r0, r1), r0, r1),
                                 r0, r1);
  AddRows(h, r0, r1, &ff);  // residual
  return norm2_.ForwardRows(ff, r0, r1);
}

void TransformerEncoderLayer::InputGradRows(int r0, int r1, Workspace* scratch, Matrix* dx) {
  // d_ff_sum flows to both the FFN branch and the residual (h); it is ff2's
  // output gradient as it stands.
  Matrix& d_ff_sum = ff2_->output_grad();
  norm2_.InputGradRows(r0, r1, &d_ff_sum);
  Matrix& d_ff1 = ff1_->output_grad();
  ff2_->InputGradRows(r0, r1, d_ff1.Row(r0), d_ff1.cols());
  Relu::BackwardRows(ff1_->output(), r0, r1, &d_ff1);
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
  ff2_->AppendGradTasks(ff_relu_.output(), tasks);
  norm2_.AppendGradTasks(tasks);
}

Matrix TransformerEncoderLayer::Forward(const Matrix& x, int seq_len) {
  input_ = x;
  BeginStep(x.rows(), seq_len);
  Workspace scratch;
  return ForwardRows(input_, 0, x.rows(), &scratch);
}

Matrix TransformerEncoderLayer::Backward(const Matrix& dy) {
  CDMPP_CHECK(dy.rows() == input_.rows() && dy.cols() == input_.cols());
  output_grad() = dy;
  Workspace scratch;
  Matrix dx(dy.rows(), dy.cols());
  InputGradRows(0, dy.rows(), &scratch, &dx);
  std::vector<GradTask> tasks;
  AppendGradTasks(input_, &tasks);
  for (const GradTask& t : tasks) {
    RunGradTask(t);
  }
  return dx;
}

Matrix TransformerEncoderLayer::ForwardInference(const Matrix& x, int seq_len) const {
  Workspace ws;
  return *ForwardInference(x, seq_len, &ws);
}

Matrix* TransformerEncoderLayer::ForwardInference(const Matrix& x, int seq_len,
                                                  Workspace* ws) const {
  Matrix* attn_out = attn_.ForwardInference(x, seq_len, ws);
  attn_out->AddInPlace(x);  // residual
  Matrix* h = norm1_.ForwardInference(*attn_out, ws);

  // FFN hidden layer: bias + ReLU fused into the GEMM epilogue.
  Matrix* ff1 = ff1_->ForwardInference(*h, ws, kernels::Activation::kRelu);
  Matrix* ff = ff2_->ForwardInference(*ff1, ws);
  ff->AddInPlace(*h);  // residual
  return norm2_.ForwardInference(*ff, ws);
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

Matrix TransformerEncoder::Forward(const Matrix& x, int seq_len) {
  input_ = x;
  BeginStep(x.rows(), seq_len);
  Workspace scratch;
  return ForwardRows(input_, 0, x.rows(), &scratch);
}

Matrix TransformerEncoder::Backward(const Matrix& dy) {
  CDMPP_CHECK(dy.rows() == input_.rows() && dy.cols() == input_.cols());
  output_grad() = dy;
  Workspace scratch;
  Matrix dx(dy.rows(), dy.cols());
  InputGradRows(0, dy.rows(), &scratch, &dx);
  std::vector<GradTask> tasks;
  AppendGradTasks(input_, &tasks);
  for (const GradTask& t : tasks) {
    RunGradTask(t);
  }
  return dx;
}

Matrix TransformerEncoder::ForwardInference(const Matrix& x, int seq_len) const {
  Workspace ws;
  return *ForwardInference(x, seq_len, &ws);
}

Matrix* TransformerEncoder::ForwardInference(const Matrix& x, int seq_len,
                                             Workspace* ws) const {
  return ForwardLayerStack(layers_.size(), x, ws, [&](size_t i, const Matrix& h) {
    return layers_[i]->ForwardInference(h, seq_len, ws);
  });
}

void TransformerEncoder::CollectParams(std::vector<Param*>* out) {
  for (auto& layer : layers_) {
    layer->CollectParams(out);
  }
}

QuantizedTransformerEncoderLayer::QuantizedTransformerEncoderLayer(
    const TransformerEncoderLayer& layer, const LayerNorm* input_norm)
    : attn_(layer.attn(),
            input_norm != nullptr ? LayerNormActAbsMax(*input_norm) : std::vector<float>{}),
      norm1_(layer.norm1()),
      ff1_(layer.ff1(), BalancedColumnScales(LayerNormActAbsMax(layer.norm1()),
                                             layer.ff1().weight())),
      ff2_(layer.ff2()),
      norm2_(layer.norm2()) {}

Matrix* QuantizedTransformerEncoderLayer::ForwardInference(const Matrix& x, int seq_len,
                                                           Workspace* ws) const {
  // Mirrors the fp32 layer exactly, with the weight GEMMs swapped for their
  // quantized snapshots. Residual adds and LayerNorms are fp32, and every
  // op is local to a row or a sample, so the whole layer stays bitwise
  // batch-split- and thread-count-invariant.
  Matrix* attn_out = attn_.ForwardInference(x, seq_len, ws);
  attn_out->AddInPlace(x);  // residual
  Matrix* h = norm1_.ForwardInference(*attn_out, ws);

  // FFN hidden layer: bias + ReLU fused into the int8 dequant epilogue.
  Matrix* ff1 = ff1_.ForwardInference(*h, ws, kernels::Activation::kRelu);
  Matrix* ff = ff2_.ForwardInference(*ff1, ws);
  ff->AddInPlace(*h);  // residual
  return norm2_.ForwardInference(*ff, ws);
}

QuantizedTransformerEncoder::QuantizedTransformerEncoder(const TransformerEncoder& encoder)
    : d_model_(encoder.d_model()) {
  layers_.reserve(encoder.num_layers());
  for (size_t i = 0; i < encoder.num_layers(); ++i) {
    // Post-LN stacking: layer i's attention input is layer i-1's norm2
    // output; layer 0's input is the (fp32) input projection, which has no
    // static channel profile to fold.
    const LayerNorm* input_norm = i > 0 ? &encoder.layer(i - 1).norm2() : nullptr;
    layers_.emplace_back(encoder.layer(i), input_norm);
  }
}

Matrix* QuantizedTransformerEncoder::ForwardInference(const Matrix& x, int seq_len,
                                                      Workspace* ws) const {
  return ForwardLayerStack(layers_.size(), x, ws, [&](size_t i, const Matrix& h) {
    return layers_[i].ForwardInference(h, seq_len, ws);
  });
}

}  // namespace cdmpp
