#include "src/dataset/batching.h"

#include <algorithm>

#include "src/support/check.h"

namespace cdmpp {

namespace {

// One sample's [seq_len, kFeatDim] feature rows, written from `dst` on: each
// leaf's computation vector, standardized by `scaler` (may be null), then
// its positional encoding added from `pe` (null: none).
void LeafFeatureRowsInto(const CompactAst& ast, int seq_len, const StandardScaler* scaler,
                         const PositionalEncodingTable* pe, float* dst) {
  CDMPP_CHECK(ast.num_leaves == seq_len);
  for (int t = 0; t < seq_len; ++t) {
    float* row = dst + static_cast<size_t>(t) * kFeatDim;
    const ComputationVector& cv = ast.leaves[static_cast<size_t>(t)];
    for (int j = 0; j < kFeatDim; ++j) {
      row[j] = cv[static_cast<size_t>(j)];
    }
    if (scaler != nullptr) {
      scaler->ApplyRow(row);
    }
    if (pe != nullptr) {
      pe->AddTo(ast.ordering[static_cast<size_t>(t)], row);
    }
  }
}

}  // namespace

std::map<int, std::vector<int>> GroupByLeafCount(const Dataset& ds,
                                                 const std::vector<int>& sample_indices) {
  std::map<int, std::vector<int>> buckets;
  for (int idx : sample_indices) {
    const Sample& s = ds.samples[static_cast<size_t>(idx)];
    const CompactAst& ast = ds.programs[static_cast<size_t>(s.program_index)].ast;
    buckets[ast.num_leaves].push_back(idx);
  }
  return buckets;
}

std::vector<Batch> MakeBatches(const std::map<int, std::vector<int>>& buckets, int batch_size,
                               Rng* rng) {
  CDMPP_CHECK(batch_size > 0);
  std::vector<Batch> batches;
  for (const auto& [leaves, indices] : buckets) {
    std::vector<int> shuffled = indices;
    if (rng != nullptr) {
      rng->Shuffle(&shuffled);
    }
    for (size_t start = 0; start < shuffled.size(); start += static_cast<size_t>(batch_size)) {
      Batch b;
      b.seq_len = leaves;
      size_t end = std::min(shuffled.size(), start + static_cast<size_t>(batch_size));
      b.sample_indices.assign(shuffled.begin() + static_cast<long>(start),
                              shuffled.begin() + static_cast<long>(end));
      batches.push_back(std::move(b));
    }
  }
  if (rng != nullptr) {
    rng->Shuffle(&batches);
  }
  return batches;
}

Matrix StackLeafRows(const Dataset& ds, const std::vector<int>& sample_indices) {
  size_t total_rows = 0;
  for (int idx : sample_indices) {
    const Sample& s = ds.samples[static_cast<size_t>(idx)];
    total_rows += static_cast<size_t>(
        ds.programs[static_cast<size_t>(s.program_index)].ast.num_leaves);
  }
  Matrix out(static_cast<int>(total_rows), kFeatDim);
  int r = 0;
  for (int idx : sample_indices) {
    const Sample& s = ds.samples[static_cast<size_t>(idx)];
    const CompactAst& ast = ds.programs[static_cast<size_t>(s.program_index)].ast;
    for (const ComputationVector& cv : ast.leaves) {
      float* row = out.Row(r++);
      for (int j = 0; j < kFeatDim; ++j) {
        row[j] = cv[static_cast<size_t>(j)];
      }
    }
  }
  return out;
}

std::map<int, std::vector<int>> GroupByLeafCount(const AstBatchView& view) {
  CDMPP_CHECK(view.asts.size() == view.device_ids.size());
  std::map<int, std::vector<int>> buckets;
  for (size_t i = 0; i < view.asts.size(); ++i) {
    CDMPP_CHECK(view.asts[i] != nullptr);
    buckets[view.asts[i]->num_leaves].push_back(static_cast<int>(i));
  }
  return buckets;
}

Matrix BuildFeatureMatrix(const AstBatchView& view, const Batch& batch,
                          const StandardScaler* scaler, const PositionalEncodingTable* pe) {
  const int b = static_cast<int>(batch.sample_indices.size());
  Matrix x(b * batch.seq_len, kFeatDim);
  BuildFeatureMatrixInto(view, batch, 0, b, scaler, pe, x.data());
  return x;
}

void BuildFeatureMatrixInto(const AstBatchView& view, const Batch& batch, int s0, int s1,
                            const StandardScaler* scaler, const PositionalEncodingTable* pe,
                            float* dst) {
  const int l = batch.seq_len;
  CDMPP_CHECK(0 <= s0 && s0 <= s1 && s1 <= static_cast<int>(batch.sample_indices.size()));
  for (int i = s0; i < s1; ++i) {
    const CompactAst& ast =
        *view.asts[static_cast<size_t>(batch.sample_indices[static_cast<size_t>(i)])];
    LeafFeatureRowsInto(ast, l, scaler, pe, dst + static_cast<size_t>(i - s0) * l * kFeatDim);
  }
}

Matrix BuildDeviceFeatureMatrix(const AstBatchView& view, const Batch& batch) {
  const int b = static_cast<int>(batch.sample_indices.size());
  Matrix out(b, kDeviceFeatDim);
  BuildDeviceFeatureMatrixInto(view, batch, 0, b, out.data());
  return out;
}

void BuildDeviceFeatureMatrixInto(const AstBatchView& view, const Batch& batch, int s0, int s1,
                                  float* dst) {
  CDMPP_CHECK(0 <= s0 && s0 <= s1 && s1 <= static_cast<int>(batch.sample_indices.size()));
  for (int i = s0; i < s1; ++i) {
    const int device_id =
        view.device_ids[static_cast<size_t>(batch.sample_indices[static_cast<size_t>(i)])];
    ExtractDeviceFeaturesInto(DeviceById(device_id),
                              dst + static_cast<size_t>(i - s0) * kDeviceFeatDim);
  }
}

void BatchPlan::Build(const AstBatchView& view, int batch_size) {
  CDMPP_CHECK(batch_size > 0);
  CDMPP_CHECK(view.asts.size() == view.device_ids.size());
  order_.clear();  // clear() keeps capacity: no allocation once warm
  for (size_t i = 0; i < view.asts.size(); ++i) {
    CDMPP_CHECK(view.asts[i] != nullptr);
    order_.push_back(static_cast<int>(i));
  }
  // (leaf count, position) ordering reproduces GroupByLeafCount + MakeBatches
  // with a null rng: buckets ascend by leaf count, view order within each.
  // std::sort is in-place; the position tie-break makes it a stable sort.
  std::sort(order_.begin(), order_.end(), [&view](int lhs, int rhs) {
    const int ll = view.asts[static_cast<size_t>(lhs)]->num_leaves;
    const int rl = view.asts[static_cast<size_t>(rhs)]->num_leaves;
    return ll != rl ? ll < rl : lhs < rhs;
  });

  num_batches_ = 0;
  size_t start = 0;
  while (start < order_.size()) {
    const int leaves = view.asts[static_cast<size_t>(order_[start])]->num_leaves;
    size_t end = start;
    while (end < order_.size() && end - start < static_cast<size_t>(batch_size) &&
           view.asts[static_cast<size_t>(order_[end])]->num_leaves == leaves) {
      ++end;
    }
    if (static_cast<size_t>(num_batches_) == batches_.size()) {
      batches_.emplace_back();
    }
    Batch& b = batches_[static_cast<size_t>(num_batches_)];
    b.seq_len = leaves;
    b.sample_indices.clear();  // keeps capacity
    b.sample_indices.insert(b.sample_indices.end(), order_.begin() + static_cast<long>(start),
                            order_.begin() + static_cast<long>(end));
    ++num_batches_;
    start = end;
  }
}

std::vector<double> GatherLabels(const Dataset& ds, const std::vector<int>& sample_indices) {
  std::vector<double> out;
  out.reserve(sample_indices.size());
  for (int idx : sample_indices) {
    out.push_back(ds.samples[static_cast<size_t>(idx)].latency_seconds);
  }
  return out;
}

}  // namespace cdmpp
