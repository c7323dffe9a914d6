// Leaf-count-bucketed batching (paper §5.1): compact ASTs with the same
// number of leaves are batched together, giving uniform sequence lengths with
// zero padding/sparsity — the efficiency core of CDMPP's training pipeline.
#ifndef SRC_DATASET_BATCHING_H_
#define SRC_DATASET_BATCHING_H_

#include <map>
#include <vector>

#include "src/ast/compact_ast.h"
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

// Stacks the raw (unscaled, no-PE) leaf rows of the given samples; used to
// fit the feature scaler on training data.
Matrix StackLeafRows(const Dataset& ds, const std::vector<int>& sample_indices);

// ---- Batch-from-programs adapter (serving path, src/serve/) ----------------
//
// The online serving layer batches free-standing (program, device) requests
// that are not dataset samples. AstBatchView adapts a request list to the
// same leaf-count-bucketed batching machinery: GroupByLeafCount buckets
// *positions into the view* and MakeBatches chunks the buckets unchanged.
// The feature builders below are the only ones: training featurizes through
// a view over its dataset too, so serving and training share one feature
// layout by construction.
struct AstBatchView {
  std::vector<const CompactAst*> asts;  // non-owning, parallel to device_ids
  std::vector<int> device_ids;

  size_t size() const { return asts.size(); }
};

// Groups view positions [0, view.size()) by each AST's leaf count.
std::map<int, std::vector<int>> GroupByLeafCount(const AstBatchView& view);

// The [B * seq_len, kFeatDim] feature matrix for a batch whose
// sample_indices are positions into `view`: per-leaf computation vectors
// standardized by `scaler` (may be null), then each leaf's positional
// encoding added from `pe` (may be null: no encoding). The predictor passes
// its one table, built at construction from config().pe_theta, so no call
// evaluates the encoding's sines and cosines for an ordering the table
// holds; the rows are bitwise those PositionalEncoding would give.
Matrix BuildFeatureMatrix(const AstBatchView& view, const Batch& batch,
                          const StandardScaler* scaler, const PositionalEncodingTable* pe);

// The [B, kDeviceFeatDim] device feature matrix for a batch of view
// positions.
Matrix BuildDeviceFeatureMatrix(const AstBatchView& view, const Batch& batch);

// Allocation-free variants for the sharded forwards: the rows of samples
// [s0, s1) of the two matrices above, written contiguously from `dst` (the
// first row of sample s0) into memory the caller has sized: a Workspace
// matrix for serving, the full-batch cache rows for training.
void BuildFeatureMatrixInto(const AstBatchView& view, const Batch& batch, int s0, int s1,
                            const StandardScaler* scaler, const PositionalEncodingTable* pe,
                            float* dst);
void BuildDeviceFeatureMatrixInto(const AstBatchView& view, const Batch& batch, int s0, int s1,
                                  float* dst);

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
