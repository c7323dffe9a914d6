// Leaf-count-bucketed batching (paper §5.1): compact ASTs with the same
// number of leaves are batched together, giving uniform sequence lengths with
// zero padding/sparsity — the efficiency core of CDMPP's training pipeline.
#ifndef SRC_DATASET_BATCHING_H_
#define SRC_DATASET_BATCHING_H_

#include <map>
#include <vector>

#include "src/dataset/dataset.h"
#include "src/ml/scaler.h"
#include "src/nn/matrix.h"

namespace cdmpp {

// Groups sample indices by their program's leaf count.
std::map<int, std::vector<int>> GroupByLeafCount(const Dataset& ds,
                                                 const std::vector<int>& sample_indices);

// One training batch: all samples share `seq_len` leaves.
struct Batch {
  int seq_len = 0;
  std::vector<int> sample_indices;
};

// Splits buckets into batches of at most `batch_size`, shuffled within and
// across buckets. Every index appears in exactly one batch.
std::vector<Batch> MakeBatches(const std::map<int, std::vector<int>>& buckets, int batch_size,
                               Rng* rng);

// Builds the [B * seq_len, kFeatDim] feature matrix for a batch: per-leaf
// computation vectors standardized by `scaler` (may be null), then the
// positional encoding added if `use_pe`.
Matrix BuildFeatureMatrix(const Dataset& ds, const Batch& batch, const StandardScaler* scaler,
                          bool use_pe, double theta = 10000.0);

// Builds the [B, kDeviceFeatDim] device feature matrix for a batch.
Matrix BuildDeviceFeatureMatrix(const Dataset& ds, const Batch& batch);

// The rows of samples [s0, s1) of the two matrices above, written into
// full-batch matrices the caller has already sized: the training step's
// sharded forward fills each shard's rows concurrently, allocation-free.
void BuildFeatureRowsInto(const Dataset& ds, const Batch& batch, int s0, int s1,
                          const StandardScaler* scaler, bool use_pe, double theta, Matrix* x);
void BuildDeviceFeatureRowsInto(const Dataset& ds, const Batch& batch, int s0, int s1,
                                Matrix* out);

// Stacks the raw (unscaled, no-PE) leaf rows of the given samples; used to
// fit the feature scaler on training data.
Matrix StackLeafRows(const Dataset& ds, const std::vector<int>& sample_indices);

// ---- Batch-from-programs adapter (serving path, src/serve/) ----------------
//
// The online serving layer batches free-standing (program, device) requests
// that are not dataset samples. AstBatchView adapts a request list to the
// same leaf-count-bucketed batching machinery: GroupByLeafCount buckets
// *positions into the view*, MakeBatches chunks the buckets unchanged, and
// the two matrix builders below mirror their Dataset counterparts row for
// row, so batched serving reuses the exact feature layout of training.
struct AstBatchView {
  std::vector<const CompactAst*> asts;  // non-owning, parallel to device_ids
  std::vector<int> device_ids;

  size_t size() const { return asts.size(); }
};

// Groups view positions [0, view.size()) by each AST's leaf count.
std::map<int, std::vector<int>> GroupByLeafCount(const AstBatchView& view);

// Feature matrix for a batch whose sample_indices are positions into `view`.
Matrix BuildFeatureMatrix(const AstBatchView& view, const Batch& batch,
                          const StandardScaler* scaler, bool use_pe, double theta = 10000.0);

// Device feature matrix for a batch of view positions.
Matrix BuildDeviceFeatureMatrix(const AstBatchView& view, const Batch& batch);

// Allocation-free variants for the serving hot path: fill a caller-provided
// matrix (e.g. from a Workspace arena) already sized to the expected shape.
void BuildFeatureMatrixInto(const AstBatchView& view, const Batch& batch,
                            const StandardScaler* scaler, bool use_pe, double theta,
                            Matrix* x);
void BuildDeviceFeatureMatrixInto(const AstBatchView& view, const Batch& batch, Matrix* out);

// Reusable replacement for GroupByLeafCount + MakeBatches on the serving hot
// path: produces the identical deterministic batch sequence (buckets in
// ascending leaf count, view order preserved within a bucket, chunked to
// batch_size) but recycles its vectors, so Build() allocates nothing once the
// plan has warmed up on the largest request shape. One plan per thread.
class BatchPlan {
 public:
  void Build(const AstBatchView& view, int batch_size);

  int num_batches() const { return num_batches_; }
  const Batch& batch(int i) const { return batches_[static_cast<size_t>(i)]; }

 private:
  std::vector<int> order_;     // view positions sorted by (leaf count, position)
  std::vector<Batch> batches_; // slots persist; only [0, num_batches_) are live
  int num_batches_ = 0;
};

// Gathers raw latency labels (seconds) of the given samples.
std::vector<double> GatherLabels(const Dataset& ds, const std::vector<int>& sample_indices);

}  // namespace cdmpp

#endif  // SRC_DATASET_BATCHING_H_
