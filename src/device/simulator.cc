#include "src/device/simulator.h"

#include <algorithm>
#include <cmath>

#include "src/support/check.h"

namespace cdmpp {

double LeafTiming::Total() const { return std::max(compute_seconds, memory_seconds) + overhead_seconds; }

namespace {

// Cost weights per arithmetic op class (relative to one add).
double WeightedFlopsPerIter(const OpCounts& ops) {
  return ops.adds + ops.muls + 2.0 * ops.fmas + 4.0 * ops.divs + 8.0 * ops.specials + ops.cmps;
}

struct LoopSummary {
  double iterations = 1.0;          // total executions of the leaf
  double parallel_extent = 1.0;     // product of parallel-annotated extents
  bool parallel = false;
  bool vectorized = false;
  double vector_len = 1.0;
  bool unrolled = false;
  double spatial_iters = 1.0;       // product of spatial extents
  double inner_tile_iters = 1.0;    // product of innermost <=3 loop extents
  int depth = 0;
};

LoopSummary Summarize(const LeafContext& leaf) {
  LoopSummary s;
  s.depth = static_cast<int>(leaf.loops.size());
  for (const Loop* loop : leaf.loops) {
    double e = static_cast<double>(loop->extent);
    s.iterations *= e;
    if (loop->kind == LoopKind::kSpatial) {
      s.spatial_iters *= e;
    }
    switch (loop->annotation) {
      case LoopAnnotation::kParallel:
        s.parallel = true;
        s.parallel_extent *= e;
        break;
      case LoopAnnotation::kVectorize:
        s.vectorized = true;
        s.vector_len = e;
        break;
      case LoopAnnotation::kUnroll:
        s.unrolled = true;
        break;
      case LoopAnnotation::kNone:
        break;
    }
  }
  size_t n = leaf.loops.size();
  for (size_t i = n >= 3 ? n - 3 : 0; i < n; ++i) {
    s.inner_tile_iters *= static_cast<double>(leaf.loops[i]->extent);
  }
  return s;
}

}  // namespace

LeafTiming SimulateLeaf(const LeafContext& leaf, const DeviceSpec& spec) {
  const ComputeStmt& c = *leaf.compute;
  LoopSummary s = Summarize(leaf);
  const bool is_gpu = spec.cls == DeviceClass::kGpu;
  const bool is_cpu = spec.cls == DeviceClass::kCpu;
  const bool is_accel = spec.cls == DeviceClass::kAccelerator;

  // ---- Compute time: weighted flops over derated peak throughput. ----
  double flops = s.iterations * WeightedFlopsPerIter(c.ops);
  double efficiency = 0.38;

  // Vectorization: CPUs depend heavily on SIMD; GPUs see a milder coalescing
  // effect; accelerators ship wide fixed-function SIMD either way.
  if (is_cpu) {
    efficiency *= s.vectorized ? 0.95 : std::max(0.18, 1.6 / spec.vector_width);
  } else {
    efficiency *= s.vectorized ? 1.0 : 0.8;
  }
  if (s.unrolled) {
    efficiency *= 1.12;
  }

  // Occupancy: exposed parallelism saturates throughput with a tanh knee.
  // Programs without a parallel annotation still extract some parallelism on
  // GPUs (implicit thread binding) but much less.
  double exposed = s.parallel ? s.parallel_extent : (is_gpu ? s.spatial_iters * 0.05 : 1.0);
  double knee = std::max(1.0, static_cast<double>(spec.cores) * spec.occupancy_knee);
  double occupancy = std::tanh(exposed / knee + 0.02);
  efficiency *= occupancy;

  // GEMM-affine hardware (tensor cores / HL-100 GEMM engines) accelerates
  // multiply-accumulate leaves; HL-100's TPCs run everything else slowly.
  if (c.kind == ComputeKind::kFma) {
    efficiency *= spec.gemm_affinity;
  } else if (is_accel) {
    efficiency *= 0.35;
  }

  LeafTiming t;
  double peak = spec.peak_gflops * 1e9;
  t.compute_seconds = flops > 0.0 ? flops / (peak * std::max(1e-4, efficiency)) : 0.0;

  // ---- Memory time: compulsory traffic + cache-miss dependent excess. ----
  double naive_bytes = s.iterations * (c.loads_per_iter + c.stores_per_iter) * 4.0;
  double compulsory = 0.0;
  double stride_penalty = 1.0;
  for (const BufferAccess& a : c.accesses) {
    compulsory += a.footprint_bytes;
    if (a.stride_class == 1) {
      stride_penalty += 0.3 / static_cast<double>(c.accesses.size());
    } else if (a.stride_class == 2) {
      stride_penalty += 1.0 / static_cast<double>(c.accesses.size());
    }
  }
  compulsory = std::min(compulsory, naive_bytes);

  double tile_bytes = s.inner_tile_iters * (c.loads_per_iter + c.stores_per_iter) * 4.0;
  double alpha;  // fraction of the non-compulsory traffic that misses cache
  if (tile_bytes <= spec.l1_kb * 1024.0) {
    alpha = 0.04;
  } else if (tile_bytes <= spec.l2_mb * 1e6) {
    alpha = 0.18;
  } else {
    alpha = 0.55;
  }
  double bytes = (compulsory + alpha * std::max(0.0, naive_bytes - compulsory)) * stride_penalty;
  t.memory_seconds = bytes / (spec.mem_bw_gbps * 1e9);

  // ---- Loop overhead: branch/index cost per innermost iteration. ----
  double per_iter = (is_cpu ? 0.35e-9 : 0.04e-9) * (1.0 + 0.15 * s.depth);
  if (s.unrolled) {
    per_iter *= 0.55;
  }
  if (s.vectorized) {
    per_iter *= 0.7;
  }
  // Parallel execution divides the visible overhead across workers.
  double workers = s.parallel ? std::min(s.parallel_extent, static_cast<double>(spec.cores))
                              : 1.0;
  t.overhead_seconds = s.iterations * per_iter / std::max(1.0, workers * (is_gpu ? 8.0 : 1.0));
  return t;
}

double SimulateLatencyDeterministic(const TensorProgram& prog, const DeviceSpec& spec) {
  CDMPP_CHECK(prog.root != nullptr);
  thread_local LeafContext ctx;  // reused ancestor stack: a warm walk allocates nothing
  double total = spec.launch_overhead_us * 1e-6;
  ForEachLeaf(*prog.root, &ctx,
              [&](const LeafContext& leaf) { total += SimulateLeaf(leaf, spec).Total(); });
  return total;
}

}  // namespace cdmpp
