#include "src/tir/program.h"

#include <algorithm>

#include "src/support/check.h"

namespace cdmpp {

const char* LoopAnnotationName(LoopAnnotation a) {
  switch (a) {
    case LoopAnnotation::kNone:
      return "none";
    case LoopAnnotation::kVectorize:
      return "vectorize";
    case LoopAnnotation::kUnroll:
      return "unroll";
    case LoopAnnotation::kParallel:
      return "parallel";
  }
  return "unknown";
}

const char* ComputeKindName(ComputeKind kind) {
  switch (kind) {
    case ComputeKind::kInit:
      return "init";
    case ComputeKind::kFma:
      return "fma";
    case ComputeKind::kElementwise:
      return "elementwise";
    case ComputeKind::kReduceUpdate:
      return "reduce_update";
    case ComputeKind::kSpecial:
      return "special";
    case ComputeKind::kCopy:
      return "copy";
  }
  return "unknown";
}

const char* PrimitiveKindName(PrimitiveKind kind) {
  switch (kind) {
    case PrimitiveKind::kSplit:
      return "split";
    case PrimitiveKind::kVectorize:
      return "vectorize";
    case PrimitiveKind::kUnroll:
      return "unroll";
    case PrimitiveKind::kParallel:
      return "parallel";
    case PrimitiveKind::kCacheWrite:
      return "cache_write";
    case PrimitiveKind::kFuseEpilogue:
      return "fuse_epilogue";
  }
  return "unknown";
}

std::unique_ptr<StmtNode> StmtNode::MakeLoop(Loop loop) {
  auto node = std::make_unique<StmtNode>();
  node->is_leaf = false;
  node->loop = std::move(loop);
  return node;
}

std::unique_ptr<StmtNode> StmtNode::MakeLeaf(ComputeStmt compute) {
  auto node = std::make_unique<StmtNode>();
  node->is_leaf = true;
  node->compute = std::move(compute);
  return node;
}

int CountNodes(const StmtNode& root) {
  LeafContext ctx;
  return ForEachLeaf(root, &ctx, [](const LeafContext&) {});
}

int CountLeaves(const StmtNode& root) {
  LeafContext ctx;
  int n = 0;
  ForEachLeaf(root, &ctx, [&](const LeafContext&) { ++n; });
  return n;
}

int MaxDepth(const StmtNode& root) {
  LeafContext ctx;
  size_t max_depth = 0;
  ForEachLeaf(root, &ctx,
              [&](const LeafContext& leaf) { max_depth = std::max(max_depth, leaf.loops.size()); });
  return static_cast<int>(max_depth);
}

double LeafContext::Iterations() const {
  double iters = 1.0;
  for (const Loop* loop : loops) {
    iters *= static_cast<double>(loop->extent);
  }
  return iters;
}

std::vector<LeafContext> CollectLeaves(const StmtNode& root) {
  std::vector<LeafContext> out;
  LeafContext ctx;
  ForEachLeaf(root, &ctx, [&](const LeafContext& leaf) { out.push_back(leaf); });
  return out;
}

double ProgramFlops(const TensorProgram& prog) {
  CDMPP_CHECK(prog.root != nullptr);
  LeafContext ctx;
  double total = 0.0;
  ForEachLeaf(*prog.root, &ctx, [&](const LeafContext& leaf) {
    total += leaf.Iterations() * leaf.compute->ops.TotalFlops();
  });
  return total;
}

namespace {

void Render(const StmtNode& node, int indent, std::string* out, bool is_root) {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  if (node.is_leaf) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s%s: flops/iter=%.0f loads=%.0f stores=%.0f\n",
                  pad.c_str(), ComputeKindName(node.compute.kind), node.compute.ops.TotalFlops(),
                  node.compute.loads_per_iter, node.compute.stores_per_iter);
    *out += buf;
    return;
  }
  int child_indent = indent;
  if (!is_root) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%sfor %s in 0..%lld%s%s:\n", pad.c_str(),
                  node.loop.var.c_str(), static_cast<long long>(node.loop.extent),
                  node.loop.kind == LoopKind::kReduction ? " [red]" : "",
                  node.loop.annotation == LoopAnnotation::kNone
                      ? ""
                      : (std::string(" [") + LoopAnnotationName(node.loop.annotation) + "]")
                            .c_str());
    *out += buf;
    child_indent = indent + 1;
  }
  for (const auto& child : node.children) {
    Render(*child, child_indent, out, /*is_root=*/false);
  }
}

}  // namespace

std::string ProgramToString(const TensorProgram& prog) {
  std::string out = std::string(OpKindName(prog.task.kind)) + " '" + prog.task.name + "':\n";
  if (prog.root != nullptr) {
    Render(*prog.root, 0, &out, /*is_root=*/true);
  }
  return out;
}

}  // namespace cdmpp
