// Compact AST extraction (paper §4.1) and pre-order positional encoding
// (paper §4.2).
//
// A tensor program's AST (loop nodes + computation leaves) is converted to a
// regular structure: one fixed-width computation vector per leaf plus the
// ordering vector of pre-order positions. Loop information (nesting level,
// extents, annotations) is folded into the leaf vectors, so no information
// relevant to performance is lost while the feature shape stays regular.
#ifndef SRC_AST_COMPACT_AST_H_
#define SRC_AST_COMPACT_AST_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/tir/program.h"

namespace cdmpp {

// Width of one computation vector. Layout (all log1p-compressed magnitudes
// unless noted):
//   [0..5]   op counts per iteration: adds, muls, fmas, divs, specials, cmps
//   [6..7]   loads / stores per iteration
//   [8]      iterations (product of ancestor loop extents)
//   [9]      loop depth
//   [10..11] number of spatial / reduction ancestor loops
//   [12..17] extents of up to 6 ancestor loops, outermost first (0-padded)
//   [18]     innermost loop extent
//   [19..20] vectorize flag, vector length
//   [21]     unroll flag
//   [22..23] parallel flag, parallel extent
//   [24..25] read / write footprint bytes
//   [26..28] fraction of accesses per stride class (contiguous/strided/gather)
//   [29..34] one-hot ComputeKind
//   [35]     has-reduction-ancestor flag
//   [36]     total leaf flops (iterations x flops/iter)
//   [37]     arithmetic intensity (flops / bytes moved)
constexpr int kFeatDim = 38;

// Cap on ancestor-extent slots ([12..17] above).
constexpr int kMaxLoopSlots = 6;

using ComputationVector = std::array<float, kFeatDim>;

// The regular, training-friendly representation of one tensor program.
struct CompactAst {
  int num_nodes = 0;   // loops + leaves in the full AST
  int num_leaves = 0;  // == leaves.size()
  int max_depth = 0;
  std::vector<ComputationVector> leaves;
  // Pre-order index of each leaf within the full AST (the ordering vector V
  // of Fig. 1(d)); strictly increasing.
  std::vector<int> ordering;

  // Stable 64-bit content hash (FNV-1a over node counts, the ordering vector,
  // and the raw bit patterns of every leaf feature). Equal ASTs hash equal
  // across runs and processes, so the hash is usable as a persistent cache
  // key; see the serving-layer prediction cache (src/serve/).
  uint64_t Hash() const;
};

// Builds the compact AST of a scheduled program.
CompactAst ExtractCompactAst(const TensorProgram& prog);

// Builds the computation vector of a single leaf in its loop context.
// (Also used by the Tiramisu-style baseline during AST recursion.)
ComputationVector BuildComputationVector(const LeafContext& leaf);

// Sinusoidal positional encoding of one ordering position (paper §4.2):
//   pe[2d]   = sin(v / Theta^{2d / kFeatDim})
//   pe[2d+1] = cos(v / Theta^{2d / kFeatDim})
ComputationVector PositionalEncoding(int ordering_value, double theta);

// PositionalEncoding(v, theta) for the orderings v in [0, kRows), computed
// once for one theta. Featurization adds every leaf's encoding on every
// forward and training step, where the table read replaces 19 pow, 19 sin
// and 19 cos evaluations per leaf. CdmppPredictor owns one, built from its
// config's pe_theta. The zoo's largest ordering is 18; an ordering outside
// the table (Submit accepts any CompactAst) is computed by
// PositionalEncoding, so no result depends on the table's size.
class PositionalEncodingTable {
 public:
  static constexpr int kRows = 64;

  explicit PositionalEncodingTable(double theta);

  // row[j] += PositionalEncoding(ordering_value, theta)[j] for every j, with
  // the same float bits as that call.
  void AddTo(int ordering_value, float* row) const;

 private:
  double theta_;
  std::array<ComputationVector, kRows> rows_;
};

// Flattens the compact AST to a row-major [num_leaves x kFeatDim] feature
// buffer; when use_pe is set, the positional encoding of each leaf's ordering
// value is added element-wise to its computation vector.
std::vector<float> EncodeFeatures(const CompactAst& ast, bool use_pe,
                                  double theta = 10000.0);

// Mean over leaves of the encoded features — a fixed-size summary used by the
// flat-feature baselines (XGBoost) and the KMeans sampler.
std::vector<float> AggregateFeatures(const CompactAst& ast);

}  // namespace cdmpp

#endif  // SRC_AST_COMPACT_AST_H_
