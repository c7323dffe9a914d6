// Analytical device latency simulator — the ground-truth oracle.
//
// The paper measures tensor programs on real hardware (Tenset + the authors'
// own profiling). This repo has no accelerators, so ground truth is produced
// by an analytical model over the scheduled loop nest: a roofline core
// (compute vs. memory time) refined with cache-tile analysis, occupancy
// saturation, vectorization efficiency, loop overhead and per-kernel launch
// cost. The model is deliberately nonlinear in both the program structure
// and the device spec so that cross-model and cross-device prediction are
// non-trivial learning problems, as in the paper.
//
// The simulator is deterministic. BuildDataset (src/dataset/) applies the
// multiplicative log-normal measurement noise exp(N(0, sigma)) itself, drawn
// serially in sample order after its parallel labeling pass.
#ifndef SRC_DEVICE_SIMULATOR_H_
#define SRC_DEVICE_SIMULATOR_H_

#include "src/device/device.h"
#include "src/tir/program.h"

namespace cdmpp {

// Per-leaf timing breakdown, exposed for tests and examples.
struct LeafTiming {
  double compute_seconds = 0.0;
  double memory_seconds = 0.0;
  double overhead_seconds = 0.0;
  double Total() const;
};

// Deterministic latency (seconds) of one scheduled program on one device:
// launch overhead plus the sum of SimulateLeaf over the leaves in pre-order.
// One ForEachLeaf walk over a per-thread context, so a warm call allocates
// nothing and concurrent calls on distinct threads are safe.
double SimulateLatencyDeterministic(const TensorProgram& prog, const DeviceSpec& spec);

// Timing of a single leaf in its loop context (unit-tested building block).
LeafTiming SimulateLeaf(const LeafContext& leaf, const DeviceSpec& spec);

}  // namespace cdmpp

#endif  // SRC_DEVICE_SIMULATOR_H_
