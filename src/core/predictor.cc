#include "src/core/predictor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "src/ml/cmd.h"
#include "src/ml/transforms.h"
#include "src/nn/quantize.h"
#include "src/obs/trace.h"
#include "src/support/check.h"
#include "src/support/parallel_for.h"
#include "src/support/stats.h"

namespace cdmpp {

namespace {

constexpr double kSecondsToMs = 1e3;

// Transformed labels live in a standardized band around kLabelShift; clamping
// extrapolated predictions keeps the (exponential-tailed) inverse Box-Cox
// from exploding on an undertrained model.
double ClampTransformed(double t) {
  return std::clamp(t, kLabelShift - 6.0, kLabelShift + 6.0);
}

// Reshapes [B*L, D] -> [B, L*D] (row-major, so this is a pure view change)
// for samples [s0, s1).
void PackSampleRows(const Matrix& x, int seq_len, int s0, int s1, Matrix* out) {
  for (int b = s0; b < s1; ++b) {
    float* dst = out->Row(b);
    for (int t = 0; t < seq_len; ++t) {
      const float* src = x.Row(b * seq_len + t);
      for (int j = 0; j < x.cols(); ++j) {
        dst[t * x.cols() + j] = src[j];
      }
    }
  }
}

// The view whose position i is dataset sample indices[i].
AstBatchView SampleView(const Dataset& ds, const std::vector<int>& indices) {
  AstBatchView view;
  view.asts.reserve(indices.size());
  view.device_ids.reserve(indices.size());
  for (int idx : indices) {
    const Sample& s = ds.samples[static_cast<size_t>(idx)];
    view.asts.push_back(&ds.programs[static_cast<size_t>(s.program_index)].ast);
    view.device_ids.push_back(s.device_id);
  }
  return view;
}

// Runs fn(scratch, s0, s1) over contiguous sample shards [s0, s1) of a
// `batch`-sample step as ONE parallel region. Each shard gets a private
// scratch arena leased from the global pool; GEMMs and other ParallelFor
// calls inside a shard run inline (nested regions are serial). The shard
// size follows from the batch and pool sizes alone (ParallelGrain), and
// results do not depend on it.
template <typename Fn>
void RunSampleShards(int batch, Fn&& fn) {
  ThreadPool::Global().ParallelForWithScratch(
      WorkspacePool::Global(), 0, batch, ParallelGrain(batch),
      [&](Workspace* scratch, int64_t s0, int64_t s1) {
        fn(scratch, static_cast<int>(s0), static_cast<int>(s1));
      });
}

}  // namespace

CdmppPredictor::CdmppPredictor(const PredictorConfig& config)
    : config_(config), rng_(config.seed) {
  if (config_.use_pe) {
    pe_table_ = std::make_unique<const PositionalEncodingTable>(config_.pe_theta);
  }
  input_proj_ = std::make_unique<Linear>(kFeatDim, config_.d_model, &rng_);
  encoder_ = std::make_unique<TransformerEncoder>(config_.d_model, config_.num_heads,
                                                  config_.d_ff, config_.num_layers, &rng_);
  device_mlp_ = std::make_unique<Mlp>(
      std::vector<int>{kDeviceFeatDim, config_.device_hidden_dim, config_.device_embed_dim},
      &rng_);
  std::vector<int> dec_dims;
  dec_dims.push_back(config_.z_dim + config_.device_embed_dim);
  for (int h : config_.decoder_hidden) {
    dec_dims.push_back(h);
  }
  dec_dims.push_back(1);
  decoder_ = std::make_unique<Mlp>(dec_dims, &rng_);
}

void CdmppPredictor::CollectAllParams(std::vector<Param*>* out, bool step_heads_only) {
  input_proj_->CollectParams(out);
  encoder_->CollectParams(out);
  for (auto& [leaves, head] : leaf_heads_) {
    if (!step_heads_only ||
        std::find(step_heads_.begin(), step_heads_.end(), head.get()) != step_heads_.end()) {
      head->CollectParams(out);
    }
  }
  device_mlp_->CollectParams(out);
  decoder_->CollectParams(out);
}

size_t CdmppPredictor::NumParams() {
  std::vector<Param*> params;
  CollectAllParams(&params);
  size_t n = 0;
  for (Param* p : params) {
    n += p->value.size();
  }
  return n;
}

void CdmppPredictor::EnsureHeads(const Dataset& ds, const std::vector<int>& indices) {
  bool added = false;
  for (const auto& [leaves, _] : GroupByLeafCount(ds, indices)) {
    if (!HasHead(leaves)) {
      AddHead(leaves);
      added = true;
    }
  }
  if (added || optimizer_ == nullptr) {
    RebuildOptimizer();
  }
}

void CdmppPredictor::AddHead(int leaf_count) {
  Linear* head = (leaf_heads_[leaf_count] = std::make_unique<Linear>(
                      leaf_count * config_.d_model, config_.z_dim, &rng_))
                     .get();
  if (quantized_ready()) {
    PackHeadInt8(leaf_count, head);
  }
}

void CdmppPredictor::RebuildOptimizer() {
  params_.clear();
  CollectAllParams(&params_);
  if (config_.optimizer == OptimizerKind::kAdam) {
    optimizer_ = std::make_unique<Adam>(params_, config_.lr, config_.weight_decay);
  } else {
    optimizer_ = std::make_unique<Sgd>(params_, config_.lr);
  }
  if (config_.use_cyclic_lr) {
    scheduler_ =
        std::make_unique<CyclicLr>(config_.lr, config_.max_lr, config_.cyclic_half_cycle);
  } else {
    scheduler_ = std::make_unique<ConstantLr>(config_.lr);
  }
}

void CdmppPredictor::ForwardPass(const AstBatchView& view, const Batch& batch) {
  const int b = static_cast<int>(batch.sample_indices.size());
  const int l = batch.seq_len;
  auto head_it = leaf_heads_.find(l);
  CDMPP_CHECK_MSG(head_it != leaf_heads_.end(), "no head for this leaf count");
  Linear& head = *head_it->second;
  step_batch_ = b;
  step_seq_len_ = l;
  step_head_ = &head;

  BeginStep(b, l, &head);

  const StandardScaler* scaler = scaler_.fitted() ? &scaler_ : nullptr;
  RunSampleShards(b, [&](Workspace* scratch, int s0, int s1) {
    const int r0 = s0 * l;
    const int r1 = s1 * l;
    BuildFeatureMatrixInto(view, batch, s0, s1, scaler, pe_table_.get(), feat_.Row(r0));
    const Matrix& h =
        encoder_->ForwardRows(input_proj_->ForwardRows(feat_, r0, r1), r0, r1, scratch);
    PackSampleRows(h, l, s0, s1, &packed_);
    const Matrix& zx = head.ForwardRows(packed_, s0, s1);
    BuildDeviceFeatureMatrixInto(view, batch, s0, s1, dev_.Row(s0));
    const Matrix& zv = device_mlp_->ForwardRows(dev_, s0, s1);
    for (int i = s0; i < s1; ++i) {
      float* row = z_.Row(i);
      std::copy(zx.Row(i), zx.Row(i) + config_.z_dim, row);
      std::copy(zv.Row(i), zv.Row(i) + config_.device_embed_dim, row + config_.z_dim);
    }
    decoder_->ForwardRows(z_, s0, s1);
  });
}

void CdmppPredictor::BeginStep(int b, int l, Linear* head) {
  const int z_cols = config_.z_dim + config_.device_embed_dim;
  SizeStepCache(&feat_, b * l, kFeatDim);
  SizeStepCache(&packed_, b, l * config_.d_model);
  SizeStepCache(&dev_, b, kDeviceFeatDim);
  SizeStepCache(&z_, b, z_cols);
  SizeStepCache(&dz_, b, z_cols);
  input_proj_->BeginStep(b * l);
  encoder_->BeginStep(b * l, l);
  head->BeginStep(b);
  device_mlp_->BeginStep(b);
  decoder_->BeginStep(b);
}

void CdmppPredictor::ReleaseStepCaches() {
  for (auto& [leaves, head] : leaf_heads_) {
    BeginStep(0, leaves, head.get());
  }
  step_head_ = nullptr;
}

void CdmppPredictor::BackwardPass(bool through_decoder, const Matrix& dz_extra) {
  const int l = step_seq_len_;
  Linear& head = *step_head_;
  if (std::find(step_heads_.begin(), step_heads_.end(), &head) == step_heads_.end()) {
    step_heads_.push_back(&head);
  }
  RunSampleShards(step_batch_, [&](Workspace* scratch, int s0, int s1) {
    if (through_decoder) {
      decoder_->BackpropRows(s0, s1);
      decoder_->InputGradRows(s0, s1, dz_.Row(s0), dz_.cols());
    } else {
      std::fill(dz_.Row(s0), dz_.Row(s1), 0.0f);
    }
    Matrix& dzx = head.output_grad();
    Matrix& dzv = device_mlp_->output_grad();
    for (int i = s0; i < s1; ++i) {
      float* row = dz_.Row(i);
      if (!dz_extra.empty()) {
        const float* extra = dz_extra.Row(i);
        for (int j = 0; j < dz_.cols(); ++j) {
          row[j] += extra[j];
        }
      }
      std::copy(row, row + config_.z_dim, dzx.Row(i));
      std::copy(row + config_.z_dim, row + dz_.cols(), dzv.Row(i));
    }
    // Neither the device MLP's nor the input projection's input gradient has
    // a reader, so neither is computed.
    device_mlp_->BackpropRows(s0, s1);
    // The head's input [B, L * d_model] and the encoder output [B * L,
    // d_model] share one row-major layout, so the head's input gradient is
    // written straight into the encoder's output gradient.
    Matrix& dh = encoder_->output_grad();
    head.InputGradRows(s0, s1, dh.Row(s0 * l), l * dh.cols());
    encoder_->InputGradRows(s0 * l, s1 * l, scratch, &input_proj_->output_grad());
  });

  std::vector<GradTask> tasks;
  input_proj_->AppendGradTasks(feat_, &tasks);
  encoder_->AppendGradTasks(input_proj_->output(), &tasks);
  head.AppendGradTasks(packed_, &tasks);
  device_mlp_->AppendGradTasks(dev_, &tasks);
  if (through_decoder) {
    decoder_->AppendGradTasks(z_, &tasks);
  }
  ParallelFor(0, static_cast<int64_t>(tasks.size()), 1, [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      RunGradTask(tasks[static_cast<size_t>(t)]);
    }
  });
}

void CdmppPredictor::ClipGradients() {
  if (config_.grad_clip <= 0.0) {
    return;
  }
  // Only the tensors the step wrote: every other gradient is exactly zero,
  // and +0.0 terms leave the ordered sum's bits unchanged.
  const std::vector<Param*>& params = step_params_;
  const int64_t n = static_cast<int64_t>(params.size());
  std::vector<double> norms(params.size());
  ParallelFor(0, n, 1, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      norms[static_cast<size_t>(i)] = params[static_cast<size_t>(i)]->grad.SquaredNorm();
    }
  });
  double norm_sq = 0.0;
  for (double v : norms) {
    norm_sq += v;
  }
  double norm = std::sqrt(norm_sq);
  if (norm > config_.grad_clip) {
    float scale = static_cast<float>(config_.grad_clip / norm);
    ParallelFor(0, n, 1, [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) {
        params[static_cast<size_t>(i)]->grad.Scale(scale);
      }
    });
  }
}

std::vector<Matrix> CdmppPredictor::ExportParams() {
  std::vector<Param*> params;
  CollectAllParams(&params);
  std::vector<Matrix> snapshot;
  snapshot.reserve(params.size());
  for (Param* p : params) {
    snapshot.push_back(p->value);
  }
  return snapshot;
}

void CdmppPredictor::ImportParams(const std::vector<Matrix>& snapshot) {
  DropInt8Packs();
  std::vector<Param*> params;
  CollectAllParams(&params);
  CDMPP_CHECK(params.size() == snapshot.size());
  for (size_t i = 0; i < params.size(); ++i) {
    params[i]->value = snapshot[i];
  }
}

TrainStats CdmppPredictor::Pretrain(const Dataset& ds, const std::vector<int>& train,
                                    const std::vector<int>& valid) {
  CDMPP_CHECK(!train.empty());
  EnsureHeads(ds, train);
  if (!valid.empty()) {
    EnsureHeads(ds, valid);
  }
  scaler_.Fit(StackLeafRows(ds, train));
  label_transform_ = MakeLabelTransform(config_.norm);
  std::vector<double> labels_ms = GatherLabels(ds, train);
  for (double& y : labels_ms) {
    y *= kSecondsToMs;
  }
  label_transform_->Fit(labels_ms);
  fitted_ = true;
  return RunTraining(ds, train, valid, config_.epochs, /*alpha=*/0.0, {}, {});
}

TrainStats CdmppPredictor::Finetune(const Dataset& ds, const std::vector<int>& labeled,
                                    const std::vector<int>& source_domain,
                                    const std::vector<int>& target_domain, int epochs) {
  CDMPP_CHECK(fitted_);
  std::vector<int> all = labeled;
  all.insert(all.end(), source_domain.begin(), source_domain.end());
  all.insert(all.end(), target_domain.begin(), target_domain.end());
  EnsureHeads(ds, all);

  // Fine-tuning perturbs a converged model: drop to a small constant LR and
  // keep the best parameters seen on a held-out slice of the labeled set.
  std::vector<int> train = labeled;
  rng_.Shuffle(&train);
  size_t n_valid = std::max<size_t>(1, train.size() / 10);
  std::vector<int> valid(train.end() - static_cast<long>(n_valid), train.end());
  train.resize(train.size() - n_valid);

  auto saved_scheduler = std::move(scheduler_);
  scheduler_ = std::make_unique<ConstantLr>(config_.lr * 0.4);
  TrainStats stats =
      RunTraining(ds, train, valid, epochs, config_.alpha_cmd, source_domain, target_domain);
  scheduler_ = std::move(saved_scheduler);
  return stats;
}

TrainStats CdmppPredictor::RunTraining(const Dataset& ds, const std::vector<int>& train,
                                       const std::vector<int>& valid, int epochs, double alpha,
                                       const std::vector<int>& source_domain,
                                       const std::vector<int>& target_domain) {
  TrainStats stats;
  DropInt8Packs();  // training changes the weights they snapshot
  auto buckets = GroupByLeafCount(ds, train);
  // Batches hold dataset sample indices, so position i of the view the
  // training step featurizes through is sample i.
  const AstBatchView view = [&ds] {
    std::vector<int> all_samples(ds.samples.size());
    std::iota(all_samples.begin(), all_samples.end(), 0);
    return SampleView(ds, all_samples);
  }();

  // Pre-transform all labels once.
  std::vector<float> transformed(ds.samples.size(), 0.0f);
  for (int idx : train) {
    double y_ms = ds.samples[static_cast<size_t>(idx)].latency_seconds * kSecondsToMs;
    transformed[static_cast<size_t>(idx)] = static_cast<float>(label_transform_->Transform(y_ms));
  }

  // Domain batches for the CMD regularizer.
  std::map<int, std::vector<int>> src_buckets;
  std::map<int, std::vector<int>> tgt_buckets;
  if (alpha > 0.0) {
    src_buckets = GroupByLeafCount(ds, source_domain);
    tgt_buckets = GroupByLeafCount(ds, target_domain);
  }

  double best_valid_mape = 1e30;
  std::vector<Matrix> best_params;
  size_t samples_seen = 0;
  auto start = std::chrono::steady_clock::now();

  for (int epoch = 0; epoch < epochs; ++epoch) {
    std::vector<Batch> batches = MakeBatches(buckets, config_.batch_size, &rng_);
    std::vector<Batch> src_batches;
    std::vector<Batch> tgt_batches;
    if (alpha > 0.0) {
      src_batches = MakeBatches(src_buckets, config_.batch_size, &rng_);
      tgt_batches = MakeBatches(tgt_buckets, config_.batch_size, &rng_);
    }
    double epoch_loss = 0.0;
    size_t step_in_epoch = 0;
    for (const Batch& batch : batches) {
      optimizer_->set_learning_rate(scheduler_->LrAt(global_step_));
      // Only the gradients the previous step wrote can be nonzero; a head
      // no step has drawn since still holds the zeros its last zeroing left.
      for (Param* p : step_params_) {
        p->grad.Zero();
      }
      step_heads_.clear();

      // ---- Prediction loss pass. ----
      ForwardPass(view, batch);
      std::vector<float> preds(batch.sample_indices.size());
      std::vector<float> targets(batch.sample_indices.size());
      for (size_t i = 0; i < batch.sample_indices.size(); ++i) {
        preds[i] = decoder_->output().At(static_cast<int>(i), 0);
        targets[i] = transformed[static_cast<size_t>(batch.sample_indices[i])];
      }
      LossResult loss = ComputeLoss(config_.loss, preds, targets, config_.lambda_mape);
      Matrix& dpred = decoder_->output_grad();
      for (size_t i = 0; i < preds.size(); ++i) {
        dpred.At(static_cast<int>(i), 0) = loss.grad[i];
      }
      BackwardPass(/*through_decoder=*/true, Matrix());
      double step_loss = loss.value;

      // ---- CMD regularizer pass (one side per step, alternating). ----
      if (alpha > 0.0 && !src_batches.empty() && !tgt_batches.empty()) {
        bool update_source = (step_in_epoch % 2) == 0;
        const Batch& const_batch =
            update_source ? tgt_batches[step_in_epoch % tgt_batches.size()]
                          : src_batches[step_in_epoch % src_batches.size()];
        const Batch& grad_batch =
            update_source ? src_batches[step_in_epoch % src_batches.size()]
                          : tgt_batches[step_in_epoch % tgt_batches.size()];
        // Constant side first (its caches are overwritten by the grad side).
        ForwardPass(view, const_batch);
        Matrix z_const = z_;
        ForwardPass(view, grad_batch);
        Matrix dz(z_.rows(), z_.cols());
        Matrix dz_const(z_const.rows(), z_const.cols());
        double cmd = CmdDistanceWithGrad(z_, z_const, config_.cmd_moments,
                                         /*span=*/-1.0, alpha, &dz, &dz_const);
        BackwardPass(/*through_decoder=*/false, dz);
        step_loss += alpha * cmd;
      }

      step_params_.clear();
      CollectAllParams(&step_params_, /*step_heads_only=*/true);
      ClipGradients();
      optimizer_->Step();
      ++global_step_;
      ++step_in_epoch;
      samples_seen += batch.sample_indices.size();
      epoch_loss += step_loss;
    }
    stats.epoch_train_loss.push_back(epoch_loss / std::max<size_t>(1, batches.size()));
    // Validation between epochs runs with the training caches released, so
    // its forward reuses their memory instead of stacking on top of it.
    ReleaseStepCaches();

    if (!valid.empty()) {
      EvalStats v = Evaluate(ds, valid);
      stats.epoch_valid_mape.push_back(v.mape);
      if (v.mape < best_valid_mape) {
        best_valid_mape = v.mape;
        best_params = ExportParams();
      }
    }
  }
  auto end = std::chrono::steady_clock::now();
  stats.train_seconds = std::chrono::duration<double>(end - start).count();
  stats.throughput_samples_per_sec =
      stats.train_seconds > 0.0 ? static_cast<double>(samples_seen) / stats.train_seconds : 0.0;

  if (!best_params.empty()) {
    ImportParams(best_params);
  }
  if (!valid.empty()) {
    stats.final_valid = Evaluate(ds, valid);
  }
  return stats;
}

void CdmppPredictor::PredictSamples(const Dataset& ds, const std::vector<int>& indices,
                                    double* out, Matrix* z) {
  CDMPP_CHECK(fitted_);
  EnsureHeads(ds, indices);
  // Call-local arenas rather than global-pool leases: validation runs
  // between training epochs, and pooled arenas would pin a whole wave's
  // footprint next to the training caches for the life of the process.
  Workspace ws;
  WorkspacePool shard_arenas;
  PredictBatchedImpl(SampleView(ds, indices), &ws, out, /*num_forward_passes=*/nullptr,
                     Precision::kFp32, &shard_arenas, z);
}

std::vector<double> CdmppPredictor::Predict(const Dataset& ds, const std::vector<int>& indices) {
  std::vector<double> out(indices.size(), 0.0);
  PredictSamples(ds, indices, out.data(), /*z=*/nullptr);
  return out;
}

double CdmppPredictor::PredictAst(const CompactAst& ast, int device_id) {
  CDMPP_CHECK(fitted_);
  CDMPP_CHECK(ast.num_leaves > 0);
  EnsureHead(ast.num_leaves);
  AstBatchView view;
  view.asts = {&ast};
  view.device_ids = {device_id};
  return PredictBatched(view)[0];
}

void CdmppPredictor::PackInt8(Linear* linear, const std::vector<float>& col_scales) {
  linear->PackInt8(col_scales);
  int8_linears_.push_back(linear);
}

void CdmppPredictor::PackHeadInt8(int leaf_count, Linear* head) {
  // A head's input is the packed encoder output [B, leaf_count * d_model]:
  // leaf_count tiled copies of the last layer's norm2 channel profile, which
  // is statically estimable from its gamma/beta — so the largest GEMM in the
  // model (k up to leaf_count * d_model) gets per-channel activation scales.
  const LayerNorm& last_norm = encoder_->layer(encoder_->num_layers() - 1).norm2();
  const std::vector<float> est = LayerNormActAbsMax(last_norm);
  std::vector<float> tiled(static_cast<size_t>(leaf_count) * est.size());
  for (int t = 0; t < leaf_count; ++t) {
    std::copy(est.begin(), est.end(), tiled.begin() + static_cast<size_t>(t) * est.size());
  }
  PackInt8(head, BalancedColumnScales(tiled, head->weight()));
}

void CdmppPredictor::DropInt8Packs() {
  for (Linear* linear : int8_linears_) {
    linear->DropInt8();
  }
  int8_linears_.clear();
}

void CdmppPredictor::PrepareQuantizedInference() {
  CDMPP_CHECK_MSG(fitted_, "quantize an unfitted predictor: run Pretrain first");
  DropInt8Packs();
  // The int8 coverage policy (README "Int8 quantized serving"). Three GEMMs
  // stay fp32, each from a measured accuracy/throughput trade:
  //   * the input projection: its quantization noise would feed the whole
  //     encoder stack, for ~1% of model FLOPs;
  //   * layer 0's Q/K/V: their input (the input projection's output) has no
  //     static channel profile, and plain per-row quantization there
  //     breached the 1% end-to-end agreement (pre-softmax noise compounds
  //     through every later stage);
  //   * the decoder's final [*, 1] projection: its absolute noise lands on
  //     the transformed label, which the exponential-tailed inverse Box-Cox
  //     amplifies.
  // Per-channel activation scales come data-free from the LayerNorm feeding
  // a GEMM: layer i >= 1's Q/K/V from layer i-1's norm2 (post-LN), one
  // vector balanced over all three so attention quantizes its input once;
  // ff1 from norm1; the heads from the last norm2. Inputs whose profile is
  // data-dependent (the attention context, ReLU outputs, device features)
  // get plain per-row scales.
  for (size_t i = 0; i < encoder_->num_layers(); ++i) {
    TransformerEncoderLayer& layer = encoder_->layer(i);
    MultiHeadSelfAttention& attn = layer.attn();
    if (i > 0) {
      const std::vector<float> qkv_scales =
          BalancedColumnScales(LayerNormActAbsMax(encoder_->layer(i - 1).norm2()),
                               {&attn.wq().weight(), &attn.wk().weight(), &attn.wv().weight()});
      for (Linear* w : {&attn.wq(), &attn.wk(), &attn.wv()}) {
        PackInt8(w, qkv_scales);
      }
    }
    PackInt8(&attn.wo(), {});
    PackInt8(&layer.ff1(),
             BalancedColumnScales(LayerNormActAbsMax(layer.norm1()), layer.ff1().weight()));
    PackInt8(&layer.ff2(), {});
  }
  for (auto& [leaves, head] : leaf_heads_) {
    PackHeadInt8(leaves, head.get());
  }
  for (size_t i = 0; i < device_mlp_->num_linear_layers(); ++i) {
    PackInt8(&device_mlp_->linear_layer(i), {});
  }
  for (size_t i = 0; i + 1 < decoder_->num_linear_layers(); ++i) {
    PackInt8(&decoder_->linear_layer(i), {});
  }
}

bool CdmppPredictor::HasHead(int leaf_count) const {
  return leaf_heads_.find(leaf_count) != leaf_heads_.end();
}

void CdmppPredictor::EnsureHead(int leaf_count) {
  CDMPP_CHECK(leaf_count > 0);
  if (HasHead(leaf_count)) {
    return;
  }
  AddHead(leaf_count);
  RebuildOptimizer();
}

std::vector<double> CdmppPredictor::PredictBatched(const AstBatchView& view,
                                                   uint64_t* num_forward_passes) const {
  // Arena leased from the process-wide pool: repeated callers (PredictAst,
  // tests, the replayer) share warm arenas with the serving workers and the
  // row shards instead of each thread growing a private one.
  WorkspacePool::Lease ws = WorkspacePool::Global().Acquire();
  std::vector<double> out(view.size(), 0.0);
  PredictBatched(view, ws.get(), out.data(), num_forward_passes);
  return out;
}

void CdmppPredictor::PredictBatched(const AstBatchView& view, Workspace* ws, double* out,
                                    uint64_t* num_forward_passes) const {
  PredictBatchedImpl(view, ws, out, num_forward_passes, Precision::kFp32,
                     &WorkspacePool::Global());
}

void CdmppPredictor::PredictBatchedQuantized(const AstBatchView& view, Workspace* ws,
                                             double* out, uint64_t* num_forward_passes,
                                             Precision mode) const {
  CDMPP_CHECK_MSG(quantized_ready(),
                  "int8 serving before PrepareQuantizedInference()");
  CDMPP_CHECK_MSG(mode != Precision::kFp32,
                  "PredictBatchedQuantized called with fp32 mode; use PredictBatched");
  PredictBatchedImpl(view, ws, out, num_forward_passes, Precision::kInt8,
                     &WorkspacePool::Global());
}

std::vector<double> CdmppPredictor::PredictBatchedQuantized(
    const AstBatchView& view, uint64_t* num_forward_passes, Precision mode) const {
  WorkspacePool::Lease ws = WorkspacePool::Global().Acquire();
  std::vector<double> out(view.size(), 0.0);
  PredictBatchedQuantized(view, ws.get(), out.data(), num_forward_passes, mode);
  return out;
}

namespace {

// Samples [s0, s1) of one plan batch: one forward inside a shard.
struct Segment {
  const Batch* batch;
  int s0;
  int s1;
};

// The plan and the shard table of one wave, recycled per calling thread so
// that planning a warm request stream allocates nothing. Shard j runs
// segments [shard_begin[j], shard_begin[j + 1]).
struct ShardPlan {
  BatchPlan plan;
  std::vector<Segment> segments;
  std::vector<int> shard_begin;
};

// Arena source for a wave's region: the caller's own arena serves the first
// lease (shard 0, which the caller always runs itself, or every shard when
// the region runs inline), `pool` the rest. Leases are taken on the calling
// thread before the fork, so which arena serves which shard never depends
// on scheduling.
class ShardArenas {
 public:
  ShardArenas(Workspace* caller, WorkspacePool* pool) : caller_(caller), pool_(pool) {}
  Workspace* Checkout() {
    if (!caller_lent_) {
      caller_lent_ = true;
      return caller_;
    }
    return pool_->Checkout();
  }
  void Return(Workspace* ws) {
    if (ws != caller_) {
      pool_->Return(ws);
    }
  }

 private:
  Workspace* caller_;
  WorkspacePool* pool_;
  bool caller_lent_ = false;
};

// Rows a shard holds at least. One row's forward costs about as much as
// waking a pool worker, so a drain of one to three rows runs inline: forking
// those made the miss path slower under an open-loop load.
constexpr int kMinShardRows = 2;

// Weight-GEMM flops per token of one forward (input projection, then QKV,
// output projection and FFN per encoder layer): the work estimate a wave's
// fork decision weighs against the shared policy.
double ForwardFlopsPerToken(const PredictorConfig& c) {
  const double d = c.d_model;
  return 2.0 * (kFeatDim * d + c.num_layers * (4.0 * d * d + 2.0 * d * c.d_ff));
}

}  // namespace

void CdmppPredictor::PredictBatchedImpl(const AstBatchView& view, Workspace* ws, double* out,
                                        uint64_t* num_forward_passes, Precision precision,
                                        WorkspacePool* shard_pool, Matrix* z) const {
  CDMPP_CHECK(fitted_);
  CDMPP_CHECK(view.asts.size() == view.device_ids.size());
  if (view.size() == 0) {
    // Nothing to predict; `out` may legitimately be null here (an empty
    // vector's data()).
    if (num_forward_passes != nullptr) {
      *num_forward_passes = 0;
    }
    return;
  }
  CDMPP_CHECK(ws != nullptr && (out != nullptr || z != nullptr));
  // The calling thread's instance, bound once: a chunk body must not name
  // the thread_local itself, or it would resolve to the executing worker's.
  static thread_local ShardPlan tls_plan;
  ShardPlan& sp = tls_plan;
  const BatchPlan& plan = sp.plan;
  sp.plan.Build(view, config_.batch_size);
  if (num_forward_passes != nullptr) {
    *num_forward_passes = static_cast<uint64_t>(plan.num_batches());
  }
  ThreadPool& pool = ThreadPool::Global();
  const int64_t threads = pool.num_threads();
  const double flops_per_token = ForwardFlopsPerToken(config_);
  // Waves run from the largest leaf count down, so the first wave holds the
  // largest shards and later waves mostly fit the arenas it grew.
  int wave_end = plan.num_batches();
  while (wave_end > 0) {
    // A wave: consecutive plan batches (each already <= batch_size rows)
    // totalling at most batch_size rows, so a wave's arenas together hold
    // about one full batch's tensors.
    int bi = wave_end;
    int rows = 0;
    int64_t tokens = 0;
    while (bi > 0) {
      const Batch& b = plan.batch(bi - 1);
      const int n = static_cast<int>(b.sample_indices.size());
      if (bi < wave_end && rows + n > config_.batch_size) {
        break;
      }
      rows += n;
      tokens += static_cast<int64_t>(n) * b.seq_len;
      --bi;
    }
    const int wave_begin = bi;
    const int64_t parts = std::max<int64_t>(1, std::min<int64_t>(threads, rows / kMinShardRows));
    if (ThreadPool::InParallelRegion() ||
        !WorthForking(pool, parts, static_cast<double>(tokens) * flops_per_token)) {
      // Inline on the caller's arena, one forward per plan batch; outside a
      // region, GEMMs large enough still fork their row panels.
      for (; bi < wave_end; ++bi) {
        const Batch& b = plan.batch(bi);
        ForwardShard(view, b, 0, static_cast<int>(b.sample_indices.size()), precision, ws, out,
                     z);
      }
      wave_end = wave_begin;
      continue;
    }
    // Cut the wave's samples, in plan order, into at most one contiguous
    // shard per pool thread with about equal token (sample x leaf) counts.
    // A shard spans whole batches and pieces of batches, one segment each.
    // Equal shards keep every shard arena near 1/parts of the wave, so the
    // arenas of a region together hold about one wave's tensors.
    sp.segments.clear();  // keeps capacity
    sp.shard_begin.clear();
    int64_t prefix = 0;
    int64_t current = -1;
    for (; bi < wave_end; ++bi) {
      const Batch& b = plan.batch(bi);
      const int n = static_cast<int>(b.sample_indices.size());
      for (int k = 0; k < n; ++k, prefix += b.seq_len) {
        const int64_t shard = prefix * parts / tokens;
        if (shard != current) {
          sp.shard_begin.push_back(static_cast<int>(sp.segments.size()));
          current = shard;
        } else if (k > 0) {
          ++sp.segments.back().s1;  // same batch, same shard
          continue;
        }
        sp.segments.push_back({&b, k, k + 1});
      }
    }
    const int64_t num_shards = static_cast<int64_t>(sp.shard_begin.size());
    sp.shard_begin.push_back(static_cast<int>(sp.segments.size()));
    wave_end = wave_begin;

    const std::vector<Segment>& segments = sp.segments;
    const std::vector<int>& shard_begin = sp.shard_begin;
    // Every op inside a shard runs inline, and every op is
    // batch-size-invariant per row, so results do not depend on the cut;
    // each shard writes only its own `out` positions.
    auto run_shards = [&](Workspace* scratch, int64_t j0, int64_t j1) {
      for (int64_t g = shard_begin[static_cast<size_t>(j0)];
           g < shard_begin[static_cast<size_t>(j1)]; ++g) {
        const Segment& seg = segments[static_cast<size_t>(g)];
        ForwardShard(view, *seg.batch, seg.s0, seg.s1, precision, scratch, out, z);
      }
    };
    ShardArenas arenas(ws, shard_pool);
    if (shard_pool->num_free() + 1 < static_cast<size_t>(num_shards)) {
      // The region would create arenas: run its shards one after another on
      // the calling thread, each in the arena it gets in later regions, so
      // that new arenas first grow in the caller's heap, where memory the
      // caller freed (the training caches, for validation) is reused.
      std::vector<Workspace*> leased;
      for (int64_t j = 0; j < num_shards; ++j) {
        leased.push_back(arenas.Checkout());
        run_shards(leased.back(), j, j + 1);
      }
      for (auto it = leased.rbegin(); it != leased.rend(); ++it) {
        arenas.Return(*it);
      }
      continue;
    }
    // One region per wave.
    pool.ParallelForWithScratch(arenas, 0, num_shards, 1, run_shards);
  }
}

void CdmppPredictor::ForwardShard(const AstBatchView& view, const Batch& batch, int s0, int s1,
                                  Precision precision, Workspace* ws, double* out,
                                  Matrix* z_out) const {
  const int b = s1 - s0;
  const int l = batch.seq_len;
  auto head_it = leaf_heads_.find(l);
  CDMPP_CHECK_MSG(head_it != leaf_heads_.end(),
                  "no head for this leaf count; call EnsureHead first");

  // Per-stage trace spans: no-ops unless the serving layer sampled this
  // batch and bound a Trace to the executing thread, which only the caller
  // has, so a traced sharded wave records the stages of the shards the
  // caller ran (shard 0 at least). Pure timing: the data plane below is
  // untouched, so the bitwise thread-count/batch-size invariance contracts
  // hold with tracing on.
  ws->Reset();
  Matrix* x = ws->NewMatrix(b * l, kFeatDim);
  {
    obs::ScopedSpan span(obs::Stage::kFeaturize);
    const StandardScaler* scaler = scaler_.fitted() ? &scaler_ : nullptr;
    BuildFeatureMatrixInto(view, batch, s0, s1, scaler, pe_table_.get(), x->data());
  }
  Matrix* h = nullptr;
  {
    obs::ScopedSpan span(obs::Stage::kEncoder);
    Matrix* proj = input_proj_->ForwardInference(*x, ws, kernels::Activation::kNone, precision);
    h = encoder_->ForwardInference(*proj, l, ws, precision);
  }
  Matrix* zx = nullptr;
  {
    obs::ScopedSpan span(obs::Stage::kHeads);
    Matrix* packed = ws->NewMatrix(b, l * config_.d_model);
    PackSampleRows(*h, l, 0, b, packed);
    zx = head_it->second->ForwardInference(*packed, ws, kernels::Activation::kNone, precision);
  }

  Matrix* zv = nullptr;
  {
    obs::ScopedSpan span(obs::Stage::kDeviceMlp);
    Matrix* dev = ws->NewMatrix(b, kDeviceFeatDim);
    BuildDeviceFeatureMatrixInto(view, batch, s0, s1, dev->data());
    zv = device_mlp_->ForwardInference(*dev, ws, precision);
  }

  Matrix* preds = nullptr;
  {
    obs::ScopedSpan span(obs::Stage::kDecoder);
    Matrix* z = ws->NewMatrix(b, config_.z_dim + config_.device_embed_dim);
    for (int i = 0; i < b; ++i) {
      float* row = z->Row(i);
      for (int j = 0; j < config_.z_dim; ++j) {
        row[j] = zx->At(i, j);
      }
      for (int j = 0; j < config_.device_embed_dim; ++j) {
        row[config_.z_dim + j] = zv->At(i, j);
      }
      if (z_out != nullptr) {
        std::copy(row, row + z->cols(),
                  z_out->Row(batch.sample_indices[static_cast<size_t>(s0 + i)]));
      }
    }
    if (out == nullptr) {
      return;  // latents only (EncodeLatent)
    }
    preds = decoder_->ForwardInference(*z, ws, precision);
  }
  {
    // "Dequant" in the serving sense: map the transformed model output back
    // to seconds. (The int8 GEMM dequant epilogues are fused in-kernel and
    // accounted to their host stage.)
    obs::ScopedSpan span(obs::Stage::kDequant);
    for (int i = 0; i < b; ++i) {
      double pred_ms = label_transform_->Inverse(
          ClampTransformed(static_cast<double>(preds->At(i, 0))));
      out[static_cast<size_t>(batch.sample_indices[static_cast<size_t>(s0 + i)])] =
          pred_ms / kSecondsToMs;
    }
  }
}

EvalStats EvalPredictions(const Dataset& ds, const std::vector<int>& indices,
                          const std::vector<double>& preds_seconds) {
  EvalStats stats;
  std::vector<double> pred_ms(preds_seconds.size());
  std::vector<double> truth_ms(indices.size());
  for (size_t i = 0; i < indices.size(); ++i) {
    pred_ms[i] = preds_seconds[i] * kSecondsToMs;
    truth_ms[i] = ds.samples[static_cast<size_t>(indices[i])].latency_seconds * kSecondsToMs;
  }
  stats.mape = Mape(pred_ms, truth_ms);
  stats.rmse_ms = Rmse(pred_ms, truth_ms);
  stats.acc20 = AccuracyWithin(pred_ms, truth_ms, 0.2);
  stats.acc10 = AccuracyWithin(pred_ms, truth_ms, 0.1);
  stats.acc5 = AccuracyWithin(pred_ms, truth_ms, 0.05);
  stats.count = static_cast<int>(indices.size());
  return stats;
}

EvalStats CdmppPredictor::Evaluate(const Dataset& ds, const std::vector<int>& indices) {
  if (indices.empty()) {
    return EvalStats{};
  }
  return EvalPredictions(ds, indices, Predict(ds, indices));
}

Matrix CdmppPredictor::EncodeLatent(const Dataset& ds, const std::vector<int>& indices) {
  Matrix z(static_cast<int>(indices.size()), config_.z_dim + config_.device_embed_dim);
  PredictSamples(ds, indices, /*out=*/nullptr, &z);
  return z;
}

}  // namespace cdmpp
