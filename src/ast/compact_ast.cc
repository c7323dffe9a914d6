#include "src/ast/compact_ast.h"

#include <algorithm>
#include <cmath>

#include "src/support/check.h"
#include "src/support/fnv_hash.h"

namespace cdmpp {

namespace {

float Log1p(double x) { return static_cast<float>(std::log1p(std::max(0.0, x))); }

}  // namespace

uint64_t CompactAst::Hash() const {
  uint64_t h = kFnvOffset;
  h = FnvMix(h, static_cast<uint64_t>(num_nodes));
  h = FnvMix(h, static_cast<uint64_t>(num_leaves));
  h = FnvMix(h, static_cast<uint64_t>(max_depth));
  for (int v : ordering) {
    h = FnvMix(h, static_cast<uint64_t>(v));
  }
  for (const ComputationVector& cv : leaves) {
    for (float f : cv) {
      h = FnvMixFloat(h, f);
    }
  }
  return h;
}

ComputationVector BuildComputationVector(const LeafContext& leaf) {
  ComputationVector v{};
  const ComputeStmt& c = *leaf.compute;

  v[0] = Log1p(c.ops.adds);
  v[1] = Log1p(c.ops.muls);
  v[2] = Log1p(c.ops.fmas);
  v[3] = Log1p(c.ops.divs);
  v[4] = Log1p(c.ops.specials);
  v[5] = Log1p(c.ops.cmps);
  v[6] = Log1p(c.loads_per_iter);
  v[7] = Log1p(c.stores_per_iter);

  double iters = leaf.Iterations();
  v[8] = Log1p(iters);
  v[9] = static_cast<float>(leaf.loops.size());

  int num_spatial = 0;
  int num_reduction = 0;
  bool vectorized = false;
  double vector_len = 0.0;
  bool unrolled = false;
  bool parallel = false;
  double parallel_extent = 1.0;
  for (const Loop* loop : leaf.loops) {
    if (loop->kind == LoopKind::kSpatial) {
      ++num_spatial;
    } else {
      ++num_reduction;
    }
    switch (loop->annotation) {
      case LoopAnnotation::kVectorize:
        vectorized = true;
        vector_len = static_cast<double>(loop->extent);
        break;
      case LoopAnnotation::kUnroll:
        unrolled = true;
        break;
      case LoopAnnotation::kParallel:
        parallel = true;
        parallel_extent *= static_cast<double>(loop->extent);
        break;
      case LoopAnnotation::kNone:
        break;
    }
  }
  v[10] = static_cast<float>(num_spatial);
  v[11] = static_cast<float>(num_reduction);

  for (int i = 0; i < kMaxLoopSlots; ++i) {
    if (i < static_cast<int>(leaf.loops.size())) {
      v[12 + i] = Log1p(static_cast<double>(leaf.loops[static_cast<size_t>(i)]->extent));
    }
  }
  v[18] = leaf.loops.empty() ? 0.0f
                             : Log1p(static_cast<double>(leaf.loops.back()->extent));
  v[19] = vectorized ? 1.0f : 0.0f;
  v[20] = Log1p(vector_len);
  v[21] = unrolled ? 1.0f : 0.0f;
  v[22] = parallel ? 1.0f : 0.0f;
  v[23] = parallel ? Log1p(parallel_extent) : 0.0f;

  double read_bytes = 0.0;
  double write_bytes = 0.0;
  double stride_counts[3] = {0.0, 0.0, 0.0};
  for (const BufferAccess& a : c.accesses) {
    if (a.is_write) {
      write_bytes += a.footprint_bytes;
    } else {
      read_bytes += a.footprint_bytes;
    }
    if (a.stride_class >= 0 && a.stride_class < 3) {
      stride_counts[a.stride_class] += 1.0;
    }
  }
  v[24] = Log1p(read_bytes);
  v[25] = Log1p(write_bytes);
  double num_accesses = std::max(1.0, static_cast<double>(c.accesses.size()));
  v[26] = static_cast<float>(stride_counts[0] / num_accesses);
  v[27] = static_cast<float>(stride_counts[1] / num_accesses);
  v[28] = static_cast<float>(stride_counts[2] / num_accesses);

  int kind_index = static_cast<int>(c.kind);
  CDMPP_CHECK(kind_index >= 0 && kind_index < 6);
  v[29 + kind_index] = 1.0f;

  v[35] = num_reduction > 0 ? 1.0f : 0.0f;

  double leaf_flops = iters * c.ops.TotalFlops();
  double bytes_moved = iters * (c.loads_per_iter + c.stores_per_iter) * 4.0;
  v[36] = Log1p(leaf_flops);
  v[37] = bytes_moved > 0.0 ? Log1p(leaf_flops / bytes_moved) : 0.0f;
  return v;
}

CompactAst ExtractCompactAst(const TensorProgram& prog) {
  CDMPP_CHECK(prog.root != nullptr);
  // One walk fills counts, depth, ordering and vectors. The rows collect in
  // per-thread scratch so the AST's own vectors are allocated once, at their
  // final size.
  thread_local LeafContext ctx;
  thread_local std::vector<ComputationVector> rows;
  thread_local std::vector<int> ordering;
  rows.clear();
  ordering.clear();
  CompactAst ast;
  ast.num_nodes = ForEachLeaf(*prog.root, &ctx, [&](const LeafContext& leaf) {
    rows.push_back(BuildComputationVector(leaf));
    ordering.push_back(leaf.preorder_index);
    ast.max_depth = std::max(ast.max_depth, static_cast<int>(leaf.loops.size()));
  });
  ast.num_leaves = static_cast<int>(rows.size());
  ast.leaves.assign(rows.begin(), rows.end());
  ast.ordering.assign(ordering.begin(), ordering.end());
  return ast;
}

ComputationVector PositionalEncoding(int ordering_value, double theta) {
  ComputationVector pe{};
  double v = static_cast<double>(ordering_value);
  for (int d = 0; d * 2 < kFeatDim; ++d) {
    double freq = std::pow(theta, 2.0 * d / static_cast<double>(kFeatDim));
    pe[2 * d] = static_cast<float>(std::sin(v / freq));
    if (2 * d + 1 < kFeatDim) {
      pe[2 * d + 1] = static_cast<float>(std::cos(v / freq));
    }
  }
  return pe;
}

PositionalEncodingTable::PositionalEncodingTable(double theta) : theta_(theta) {
  for (int v = 0; v < kRows; ++v) {
    rows_[static_cast<size_t>(v)] = PositionalEncoding(v, theta);
  }
}

void PositionalEncodingTable::AddTo(int ordering_value, float* row) const {
  const auto add = [row](const ComputationVector& pe) {
    for (int j = 0; j < kFeatDim; ++j) {
      row[j] += pe[static_cast<size_t>(j)];
    }
  };
  if (ordering_value >= 0 && ordering_value < kRows) {
    add(rows_[static_cast<size_t>(ordering_value)]);
  } else {
    add(PositionalEncoding(ordering_value, theta_));
  }
}

std::vector<float> EncodeFeatures(const CompactAst& ast, bool use_pe, double theta) {
  std::vector<float> out(static_cast<size_t>(ast.num_leaves) * kFeatDim);
  for (int i = 0; i < ast.num_leaves; ++i) {
    const ComputationVector& cv = ast.leaves[static_cast<size_t>(i)];
    ComputationVector pe{};
    if (use_pe) {
      pe = PositionalEncoding(ast.ordering[static_cast<size_t>(i)], theta);
    }
    for (int j = 0; j < kFeatDim; ++j) {
      out[static_cast<size_t>(i) * kFeatDim + static_cast<size_t>(j)] =
          cv[static_cast<size_t>(j)] + pe[static_cast<size_t>(j)];
    }
  }
  return out;
}

std::vector<float> AggregateFeatures(const CompactAst& ast) {
  std::vector<float> out(kFeatDim + 2, 0.0f);
  for (const ComputationVector& cv : ast.leaves) {
    for (int j = 0; j < kFeatDim; ++j) {
      out[static_cast<size_t>(j)] += cv[static_cast<size_t>(j)];
    }
  }
  if (ast.num_leaves > 0) {
    for (int j = 0; j < kFeatDim; ++j) {
      out[static_cast<size_t>(j)] /= static_cast<float>(ast.num_leaves);
    }
  }
  out[kFeatDim] = static_cast<float>(ast.num_leaves);
  out[kFeatDim + 1] = static_cast<float>(ast.num_nodes);
  return out;
}

}  // namespace cdmpp
