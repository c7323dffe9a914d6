// The CDMPP cost model (paper Fig. 4, §5):
//
//   compact AST x --(+PE)--> input Linear --> Transformer encoder
//     --> per-leaf-count Linear head --> z_x
//   device features v --> MLP --> z_v
//   z = z_x (+) z_v --> decoder MLP --> predicted (transformed) latency
//
// Training: pre-training with the scale-insensitive hybrid objective
// (§5.2, Eqn. 3) on Box-Cox-normalized labels (§5.4); fine-tuning adds the
// CMD regularizer between source- and target-domain latents (§5.3, Eqn. 7).
#ifndef SRC_CORE_PREDICTOR_H_
#define SRC_CORE_PREDICTOR_H_

#include <map>
#include <memory>
#include <vector>

#include "src/dataset/batching.h"
#include "src/dataset/dataset.h"
#include "src/ml/transforms.h"
#include "src/nn/loss.h"
#include "src/nn/optimizer.h"
#include "src/nn/quantize.h"
#include "src/nn/transformer.h"
#include "src/nn/workspace.h"
#include "src/support/cpu_features.h"

namespace cdmpp {

enum class OptimizerKind { kAdam, kSgd };

struct PredictorConfig {
  // Architecture (searched by the auto-tuner; defaults are its result).
  int d_model = 64;
  int num_heads = 4;
  int d_ff = 128;
  int num_layers = 2;
  int z_dim = 64;
  int device_embed_dim = 16;
  int device_hidden_dim = 32;
  std::vector<int> decoder_hidden = {64, 64};

  // Optimization.
  OptimizerKind optimizer = OptimizerKind::kAdam;
  double lr = 5e-4;
  double max_lr = 1.2e-3;  // CyclicLR ceiling
  bool use_cyclic_lr = true;
  int cyclic_half_cycle = 150;
  double weight_decay = 3e-5;
  double grad_clip = 0.5;
  int batch_size = 96;
  int epochs = 80;

  // Objective (paper §5.2/§5.4).
  LossKind loss = LossKind::kHybrid;
  double lambda_mape = 0.15;  // hybrid MAPE coefficient in transformed space
  NormKind norm = NormKind::kBoxCox;

  // Features.
  bool use_pe = true;
  double pe_theta = 10000.0;

  // Fine-tuning (paper §5.3).
  double alpha_cmd = 0.3;
  int cmd_moments = 5;

  uint64_t seed = 7;
};

struct EvalStats {
  double mape = 0.0;
  double rmse_ms = 0.0;
  double acc20 = 0.0;  // fraction within 20% relative error
  double acc10 = 0.0;
  double acc5 = 0.0;
  int count = 0;
};

struct TrainStats {
  std::vector<double> epoch_train_loss;
  std::vector<double> epoch_valid_mape;
  double throughput_samples_per_sec = 0.0;
  double train_seconds = 0.0;
  EvalStats final_valid;
};

class CdmppPredictor {
 public:
  explicit CdmppPredictor(const PredictorConfig& config);

  // Pre-trains on `train` sample indices (fits the feature scaler and label
  // transform on them); tracks MAPE on `valid`. Keeps the best-validation
  // parameters.
  TrainStats Pretrain(const Dataset& ds, const std::vector<int>& train,
                      const std::vector<int>& valid);

  // CMD-regularized fine-tuning (Eqn. 7): trains the prediction loss on
  // `labeled` samples while minimizing CMD between latents of `source_domain`
  // and `target_domain` batches. Target labels are never used unless they
  // appear in `labeled`.
  TrainStats Finetune(const Dataset& ds, const std::vector<int>& labeled,
                      const std::vector<int>& source_domain,
                      const std::vector<int>& target_domain, int epochs);

  // Predicted latencies in seconds (inverse-transformed), computed by the
  // const PredictBatched forward; creates any missing leaf-count heads.
  std::vector<double> Predict(const Dataset& ds, const std::vector<int>& indices);
  // Predicts a single program (by dataset program index) on a device.
  double PredictProgram(const Dataset& ds, int program_index, int device_id);
  // Predicts a free-standing compact AST on a device (used by the replayer
  // and the schedule-search integration). A head for the AST's leaf count is
  // created on demand if training never saw that count.
  double PredictAst(const CompactAst& ast, int device_id);

  // ---- Serving / const inference path (src/serve/) -------------------------
  //
  // PredictBatched is the online hot path: a *const* batched forward over
  // free-standing (AST, device) requests, one cache-free forward pass per
  // leaf-count bucket (chunked to config().batch_size). The buckets run in
  // waves of at most config().batch_size rows, each wave as one parallel
  // region of row shards on ThreadPool::Global() (README "Threading
  // model"); results do not depend on the pool size or the cut. Thread-safety
  // contract: any number of threads may call PredictBatched concurrently on a
  // shared predictor without locking, as long as no thread mutates the model
  // (training, EnsureHead, ImportParams) at the same time — the forward pass
  // reads parameters only and writes no member state. Results are
  // bitwise-identical to per-AST PredictAst calls on the same model.
  //
  // Requires fitted() and HasHead() for every leaf count present in the view;
  // the serving layer creates missing heads via EnsureHead under its write
  // lock before entering the lock-free path.
  //
  // When `num_forward_passes` is non-null it receives the number of forward
  // passes actually run (one per leaf-count bucket chunk) — the serving stats
  // report it rather than re-deriving the chunking.
  std::vector<double> PredictBatched(const AstBatchView& view,
                                     uint64_t* num_forward_passes = nullptr) const;

  // Arena-based variant — the serving hot path. The first shard of every
  // wave runs in `ws` (one arena per calling thread; the PredictionService
  // workers each own one), the others in arenas leased from
  // WorkspacePool::Global(), and the `view.size()` predictions are written
  // to `out`, so a warmed-up call performs zero heap allocations end to end
  // on every thread (asserted by tests/dataplane_test.cc). Same
  // thread-safety contract and bitwise-equal results as the vector
  // overload, which delegates here.
  void PredictBatched(const AstBatchView& view, Workspace* ws, double* out,
                      uint64_t* num_forward_passes = nullptr) const;

  // ---- Int8 quantized serving path (CDMPP_PRECISION=int8|int8-heads) -------
  //
  // PredictBatchedQuantized is PredictBatched with the weight GEMMs routed
  // through the int8 symmetric-quantized kernel tier (src/nn/quantize.h):
  // int8 GEMMs with per-output-channel weight scales and dynamic per-row
  // activation scales. `mode` selects the coverage:
  //   * Precision::kInt8 (the default tier): the transformer encoder's
  //     QKV/output projections and FFN pair (the bulk of serving FLOPs, with
  //     per-channel activation scales derived from the LayerNorms — see
  //     QuantizedTransformerEncoder), plus the per-leaf-count heads, the
  //     device MLP, and the decoder hiddens.
  //   * Precision::kInt8Heads: the pre-encoder subset (heads + device MLP +
  //     decoder hiddens), kept for A/B-measuring the encoder conversion.
  // In both modes three fringes stay fp32, each from a measured
  // accuracy/throughput trade: attention's activation×activation
  // score/context GEMMs (both operands dynamic — ROADMAP follow-on), the
  // input projection (its quantization noise feeds the whole encoder stack
  // while its GEMM is ~1% of model FLOPs), and the decoder's final [*, 1]
  // projection (absolute noise there lands directly on the transformed label
  // under the exponential-tailed inverse Box-Cox). See the README design
  // note for the measured per-stage error ladder. Same thread-safety
  // contract as PredictBatched (const, lock-free, reads quantized snapshots
  // only), and — because activation scales are per row — the same bitwise
  // batch-size-invariance. Results agree with fp32 to <= 1% relative on the
  // serving fixtures (tests/serve_test.cc), not bitwise: that is the
  // precision/throughput trade the int8 tier makes.
  //
  // Requires PrepareQuantizedInference() after fitting (and again after any
  // parameter mutation — the quantized snapshots do not track training), plus
  // a quantized head for every leaf count served (EnsureQuantizedHead, which
  // the PredictionService calls under its write lock).
  void PrepareQuantizedInference();
  bool quantized_ready() const { return q_decoder_ != nullptr && q_encoder_ != nullptr; }
  bool HasQuantizedHead(int leaf_count) const;
  // Creates the fp32 head if missing, then its quantized snapshot. Mutating —
  // serialize against concurrent PredictBatched*/PredictAst calls.
  void EnsureQuantizedHead(int leaf_count);
  std::vector<double> PredictBatchedQuantized(const AstBatchView& view,
                                              uint64_t* num_forward_passes = nullptr,
                                              Precision mode = Precision::kInt8) const;
  void PredictBatchedQuantized(const AstBatchView& view, Workspace* ws, double* out,
                               uint64_t* num_forward_passes = nullptr,
                               Precision mode = Precision::kInt8) const;

  // True once Pretrain has fitted the feature scaler and label transform.
  bool fitted() const { return fitted_; }
  // True if a per-leaf-count head exists for `leaf_count`.
  bool HasHead(int leaf_count) const;
  // Creates the head for `leaf_count` if missing and rebuilds the optimizer
  // so later training sees every parameter. Mutating — serialize against
  // concurrent PredictBatched calls.
  void EnsureHead(int leaf_count);

  EvalStats Evaluate(const Dataset& ds, const std::vector<int>& indices);

  // Latent representations z = z_x (+) z_v, one row per sample.
  Matrix EncodeLatent(const Dataset& ds, const std::vector<int>& indices);

  const PredictorConfig& config() const { return config_; }
  size_t NumParams();

  // Snapshots / restores all trainable parameters (used by experiments that
  // fine-tune several times from one pre-trained state). Import requires the
  // same architecture and head set as at export time.
  std::vector<Matrix> ExportParams();
  void ImportParams(const std::vector<Matrix>& params);

 private:
  // Creates per-leaf-count heads for every leaf count in the dataset subset.
  void EnsureHeads(const Dataset& ds, const std::vector<int>& indices);
  // Per-channel activation scales for a head's packed encoder-output input
  // (the last layer's norm2 profile tiled leaf_count times).
  std::vector<float> HeadColumnScales(int leaf_count, const Linear& head) const;
  void RebuildOptimizer();
  // Every trainable tensor in a fixed order; with `step_heads_only`, only the
  // heads in step_heads_ among the per-leaf-count heads.
  void CollectAllParams(std::vector<Param*>* out, bool step_heads_only = false);

  // Shared serving forward: the fp32 and both int8 modes differ only in
  // which layer snapshots run the weight-GEMM stages (`mode` selects encoder
  // coverage on top of the heads/device-MLP/decoder swap). The leaf-count
  // plan is drained in waves of at most config().batch_size rows; each wave
  // runs as one parallel region over row shards (README "Threading model").
  // The first shard runs in `ws`, the others in arenas leased from
  // `shard_pool`.
  void PredictBatchedImpl(const AstBatchView& view, Workspace* ws, double* out,
                          uint64_t* num_forward_passes, Precision mode,
                          WorkspacePool* shard_pool) const;
  // One row shard of the serving forward: samples [s0, s1) of `batch` run
  // featurize -> input projection -> encoder -> head, device MLP -> decoder
  // -> inverse transform with every op inline, in `ws` (Reset first), and
  // write their predictions to `out` at their view positions.
  void ForwardShard(const AstBatchView& view, const Batch& batch, int s0, int s1,
                    Precision mode, Workspace* ws, double* out) const;

  // The training step, as a few parallel regions over contiguous sample
  // shards (README "Training step"; layer row primitives in src/nn/layers.h).
  // ForwardPass sizes every full-batch cache for `batch`, then runs one
  // region whose shards each featurize their samples and run them through
  // the input projection, encoder, head, device MLP and decoder. It leaves
  // z in z_ and the predictions in decoder_->output().
  void ForwardPass(const Dataset& ds, const Batch& batch);
  // Sizes every training cache for a b-sample, l-leaf step through `head`;
  // ReleaseStepCaches frees them all (BeginStep(0)) once a training call or
  // latent encoding is done, so an idle model holds only its parameters.
  void BeginStep(int b, int l, Linear* head);
  void ReleaseStepCaches();
  // BackwardPass runs one region of sample shards that carries the output
  // gradients down to every layer's output gradient — the loss gradient
  // already written to decoder_->output_grad() when `through_decoder`, plus
  // `dz_extra` on z when non-empty — then one region with a task per
  // parameter tensor that accumulates the gradients over the full batch.
  void BackwardPass(bool through_decoder, const Matrix& dz_extra);
  // Global-norm clipping over step_params_: per-tensor squared norms in
  // parallel, summed in tensor order.
  void ClipGradients();
  std::vector<Matrix> SnapshotParams();
  void RestoreParams(const std::vector<Matrix>& snapshot);

  // Shared training loop; when alpha > 0, adds CMD(z_src, z_tgt) per step
  // using batches drawn from the two domains.
  TrainStats RunTraining(const Dataset& ds, const std::vector<int>& train,
                         const std::vector<int>& valid, int epochs, double alpha,
                         const std::vector<int>& source_domain,
                         const std::vector<int>& target_domain);

  PredictorConfig config_;
  Rng rng_;

  std::unique_ptr<Linear> input_proj_;
  std::unique_ptr<TransformerEncoder> encoder_;
  std::map<int, std::unique_ptr<Linear>> leaf_heads_;  // leaf count -> head
  std::unique_ptr<Mlp> device_mlp_;
  std::unique_ptr<Mlp> decoder_;
  std::vector<Param*> params_;  // every trainable tensor, CollectAllParams order
  std::unique_ptr<Optimizer> optimizer_;
  std::unique_ptr<LrScheduler> scheduler_;
  int64_t global_step_ = 0;

  StandardScaler scaler_;
  std::unique_ptr<LabelTransform> label_transform_;
  bool fitted_ = false;

  // Int8 calibrated snapshots (PrepareQuantizedInference / EnsureQuantizedHead).
  std::map<int, std::unique_ptr<QuantizedLinear>> q_leaf_heads_;
  std::unique_ptr<QuantizedMlp> q_device_mlp_;
  std::unique_ptr<QuantizedMlp> q_decoder_;
  std::unique_ptr<QuantizedTransformerEncoder> q_encoder_;

  // Training-step state: the shape and head of the last ForwardPass and the
  // full-batch caches that live outside the layers.
  int step_batch_ = 0;
  int step_seq_len_ = 0;
  Linear* step_head_ = nullptr;
  Matrix feat_;    // [B * L, kFeatDim]: input projection input
  Matrix packed_;  // [B, L * d_model]: head input
  Matrix dev_;     // [B, kDeviceFeatDim]: device MLP input
  Matrix z_;       // [B, z_dim + device_embed_dim]: decoder input
  Matrix dz_;      // its gradient
  // The heads BackwardPass ran through this step, and the tensors the step
  // wrote gradients into (CollectAllParams order). Every gradient outside
  // step_params_ is exactly zero, so the next step zeroes only these.
  std::vector<Linear*> step_heads_;
  std::vector<Param*> step_params_;
};

}  // namespace cdmpp

#endif  // SRC_CORE_PREDICTOR_H_
