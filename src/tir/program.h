// Tensor program representation: a tree of loop statements with computation
// statements at the leaves, mirroring the TIR loop nests that CDMPP's feature
// extractor consumes (paper Fig. 1(b)/(c)).
//
// A StmtNode is either
//   * a loop node: `loop` is meaningful, `children` holds the loop body, or
//   * a leaf node: `compute` describes one computation expression.
// The root of a program is a synthetic sequence node (extent-1 loop) whose
// children are the top-level loop nests, so multi-pass operators (softmax,
// layernorm) are trees with several top-level chains.
//
// Every reader of the tree (the helpers below, the compact-AST extractor and
// the latency simulator) walks it through one pre-order leaf visitor,
// ForEachLeaf. The callback's LeafContext is reused across leaves, and its
// `loops` (the live ancestor stack) is valid only during the callback.
#ifndef SRC_TIR_PROGRAM_H_
#define SRC_TIR_PROGRAM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/tir/op.h"

namespace cdmpp {

// Whether a loop iterates a spatial (output) axis or a reduction axis.
enum class LoopKind { kSpatial, kReduction };

// Schedule annotation attached to a loop (paper §4.1 category 2 features).
enum class LoopAnnotation { kNone, kVectorize, kUnroll, kParallel };

const char* LoopAnnotationName(LoopAnnotation a);

struct Loop {
  std::string var;
  int64_t extent = 1;
  LoopKind kind = LoopKind::kSpatial;
  LoopAnnotation annotation = LoopAnnotation::kNone;
};

// What a leaf statement computes. Chosen to span the leaves produced by the
// lowering rules: accumulator init, multiply-accumulate updates, pointwise
// math, reductions, transcendental-heavy statements and plain copies.
enum class ComputeKind { kInit, kFma, kElementwise, kReduceUpdate, kSpecial, kCopy };

const char* ComputeKindName(ComputeKind kind);

// Arithmetic operation counts per innermost iteration of a leaf.
struct OpCounts {
  double adds = 0.0;
  double muls = 0.0;
  double fmas = 0.0;  // fused multiply-adds (counted as 2 flops each)
  double divs = 0.0;
  double specials = 0.0;  // exp/sqrt/tanh-class ops
  double cmps = 0.0;      // comparisons (max-pooling, relu)

  double TotalFlops() const { return adds + muls + 2.0 * fmas + divs + specials + cmps; }
};

// One buffer touched by a leaf statement.
struct BufferAccess {
  // Total footprint of the accessed region across the whole statement, bytes.
  double footprint_bytes = 0.0;
  // 0 = contiguous (stride-1), 1 = strided, 2 = gather-like.
  int stride_class = 0;
  bool is_write = false;
};

struct ComputeStmt {
  ComputeKind kind = ComputeKind::kElementwise;
  OpCounts ops;  // per innermost iteration
  double loads_per_iter = 0.0;
  double stores_per_iter = 0.0;
  std::vector<BufferAccess> accesses;
};

struct StmtNode {
  bool is_leaf = false;
  Loop loop;           // valid when !is_leaf
  ComputeStmt compute;  // valid when is_leaf
  std::vector<std::unique_ptr<StmtNode>> children;

  static std::unique_ptr<StmtNode> MakeLoop(Loop loop);
  static std::unique_ptr<StmtNode> MakeLeaf(ComputeStmt compute);
};

// One schedule primitive application, recorded for the TLP baseline which
// featurizes the primitive sequence instead of the program (paper §2.2).
enum class PrimitiveKind { kSplit, kVectorize, kUnroll, kParallel, kCacheWrite, kFuseEpilogue };

const char* PrimitiveKindName(PrimitiveKind kind);
constexpr int kNumPrimitiveKinds = 6;

struct SchedulePrimitive {
  PrimitiveKind kind = PrimitiveKind::kSplit;
  int loop_index = 0;  // which canonical loop it applies to
  int factor = 0;      // split factor / vector width / unroll factor
};

struct ScheduleDesc {
  std::vector<SchedulePrimitive> primitives;
};

// A fully scheduled tensor program for one task.
struct TensorProgram {
  Task task;
  std::unique_ptr<StmtNode> root;
  ScheduleDesc schedule;
};

// ---- Tree inspection helpers -------------------------------------------------

// Per-leaf context of a walk: the loops on the path from the root to the
// leaf, in outermost-to-innermost order, plus the pre-order position of the
// leaf among all nodes.
struct LeafContext {
  const ComputeStmt* compute = nullptr;
  std::vector<const Loop*> loops;  // ancestors, outer to inner
  int preorder_index = 0;          // pre-order index within the whole tree
  // Product of ancestor loop extents = number of executions of the leaf.
  double Iterations() const;
};

namespace detail {

template <typename Fn>
void VisitLeaves(const StmtNode& node, LeafContext* ctx, int* counter, Fn& fn) {
  for (const auto& child : node.children) {
    ctx->preorder_index = (*counter)++;
    if (child->is_leaf) {
      ctx->compute = &child->compute;
      fn(static_cast<const LeafContext&>(*ctx));
    } else {
      ctx->loops.push_back(&child->loop);
      VisitLeaves(*child, ctx, counter, fn);
      ctx->loops.pop_back();
    }
  }
}

}  // namespace detail

// Calls fn(const LeafContext&) for every leaf of `root` in pre-order and
// returns the number of nodes visited (loops + leaves, excluding the
// synthetic root). Pre-order indices count every node, matching the paper's
// serialization in Fig. 1(d).
//
// `ctx` is the caller's scratch, reused for every leaf: `ctx->loops` is the
// live ancestor stack, pushed and popped as the walk enters and leaves each
// loop, so the walk allocates nothing once that stack has grown to the
// tree's depth. Everything the callback sees through the context, `loops`
// above all, is valid only during the callback; copy what must outlive it.
template <typename Fn>
int ForEachLeaf(const StmtNode& root, LeafContext* ctx, Fn&& fn) {
  ctx->loops.clear();
  ctx->preorder_index = 0;
  if (root.is_leaf) {
    ctx->compute = &root.compute;
    fn(static_cast<const LeafContext&>(*ctx));
    return 0;
  }
  int counter = 0;
  detail::VisitLeaves(root, ctx, &counter, fn);
  return counter;
}

// Total node count of the AST (loops + leaves), excluding the synthetic root.
int CountNodes(const StmtNode& root);
// Number of leaf (computation) nodes.
int CountLeaves(const StmtNode& root);
// Maximum loop depth over all leaves (root excluded).
int MaxDepth(const StmtNode& root);

// Collects every leaf's context in pre-order, each with its own copy of the
// ancestor loops.
std::vector<LeafContext> CollectLeaves(const StmtNode& root);

// Total flops executed by the program (sum over leaves of iters * leaf flops).
double ProgramFlops(const TensorProgram& prog);

// Renders the loop nest as indented pseudo-code (for examples/debugging).
std::string ProgramToString(const TensorProgram& prog);

}  // namespace cdmpp

#endif  // SRC_TIR_PROGRAM_H_
