// Device registry (paper Table 2) and device-dependent feature extraction
// (paper §4.3).
//
// The registry describes the nine devices of the paper's evaluation. Spec
// values for clock / memory / bandwidth / cores come directly from Table 2;
// derived parameters (peak GFLOPS, cache sizes, launch overheads) use public
// datasheet figures so the simulated performance landscape is plausible.
#ifndef SRC_DEVICE_DEVICE_H_
#define SRC_DEVICE_DEVICE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace cdmpp {

enum class DeviceClass { kGpu, kCpu, kAccelerator };

const char* DeviceClassName(DeviceClass cls);

struct DeviceSpec {
  int id = -1;
  std::string name;
  DeviceClass cls = DeviceClass::kGpu;
  double clock_mhz = 0.0;
  double mem_gb = 0.0;
  double mem_bw_gbps = 0.0;  // GB/s
  int cores = 0;             // SMs for GPUs, cores for CPUs, engines for accelerators
  double peak_gflops = 0.0;  // fp32
  double l1_kb = 0.0;        // per-core L1 / shared memory
  double l2_mb = 0.0;
  double launch_overhead_us = 0.0;  // fixed per-kernel overhead
  double vector_width = 1.0;        // SIMD lanes per core (CPU) / warp efficiency proxy
  // Device-specific saturation knee: fraction of `cores` of exposed
  // parallelism needed to reach ~76% of peak throughput (tanh-shaped).
  double occupancy_knee = 1.0;
  // Efficiency multiplier for GEMM-class work (tensor cores / GEMM engines).
  double gemm_affinity = 1.0;

  // Stable 64-bit fingerprint of the full spec (name + every numeric field).
  // Two specs fingerprint equal iff the cost model would see identical device
  // features, so the fingerprint is usable as a persistent cache-key component
  // (src/serve/). Stable across runs and processes. An FNV pass over the name
  // and 11 doubles: per-request callers read DeviceFingerprint(id) instead.
  uint64_t Fingerprint() const;
};

// All nine devices of Table 2, ids 0..8, stable ordering:
// T4, K80, P100, V100, A100, HL-100, Intel E5-2673, AMD EPYC 7452, Graviton2.
const std::vector<DeviceSpec>& DeviceRegistry();

// Lookup by name; aborts if unknown.
const DeviceSpec& DeviceByName(const std::string& name);
const DeviceSpec& DeviceById(int id);

// DeviceById(id).Fingerprint(), read from a table filled once over the
// immutable registry; aborts if `id` is out of range. The serving cache key
// (PredictionService) and the tuning client's dedup (ServeCostModel) read it
// for every request.
uint64_t DeviceFingerprint(int id);

// Convenience id lists used by the cross-device experiments.
std::vector<int> GpuDeviceIds();
std::vector<int> CpuDeviceIds();
int AcceleratorDeviceId();

// Width of the device-dependent feature vector.
constexpr int kDeviceFeatDim = 12;

// Extracts the device-dependent features v of §4.3: log-compressed hardware
// specification values plus a one-hot device class.
std::vector<float> ExtractDeviceFeatures(const DeviceSpec& spec);

// Allocation-free variant for the serving hot path: writes the same
// kDeviceFeatDim features into `out` (caller-provided, at least that long).
void ExtractDeviceFeaturesInto(const DeviceSpec& spec, float* out);

}  // namespace cdmpp

#endif  // SRC_DEVICE_DEVICE_H_
