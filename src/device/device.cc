#include "src/device/device.h"

#include <cmath>

#include "src/support/check.h"
#include "src/support/fnv_hash.h"

namespace cdmpp {

uint64_t DeviceSpec::Fingerprint() const {
  uint64_t h = kFnvOffset;
  h = FnvMixBytes(h, name.data(), name.size());
  uint64_t id_and_class =
      (static_cast<uint64_t>(static_cast<uint32_t>(id)) << 8) | static_cast<uint64_t>(cls);
  h = FnvMix(h, id_and_class);
  for (double d : {clock_mhz, mem_gb, mem_bw_gbps, static_cast<double>(cores), peak_gflops,
                   l1_kb, l2_mb, launch_overhead_us, vector_width, occupancy_knee,
                   gemm_affinity}) {
    h = FnvMixDouble(h, d);
  }
  return h;
}

const char* DeviceClassName(DeviceClass cls) {
  switch (cls) {
    case DeviceClass::kGpu:
      return "GPU";
    case DeviceClass::kCpu:
      return "CPU";
    case DeviceClass::kAccelerator:
      return "Accelerator";
  }
  return "unknown";
}

namespace {

DeviceSpec MakeSpec(int id, const char* name, DeviceClass cls, double clock_mhz, double mem_gb,
                    double bw, int cores, double peak_gflops, double l1_kb, double l2_mb,
                    double launch_us, double vector_width, double knee, double gemm_affinity) {
  DeviceSpec s;
  s.id = id;
  s.name = name;
  s.cls = cls;
  s.clock_mhz = clock_mhz;
  s.mem_gb = mem_gb;
  s.mem_bw_gbps = bw;
  s.cores = cores;
  s.peak_gflops = peak_gflops;
  s.l1_kb = l1_kb;
  s.l2_mb = l2_mb;
  s.launch_overhead_us = launch_us;
  s.vector_width = vector_width;
  s.occupancy_knee = knee;
  s.gemm_affinity = gemm_affinity;
  return s;
}

}  // namespace

const std::vector<DeviceSpec>& DeviceRegistry() {
  // Clock / memory / bandwidth / cores are Table 2 values; the rest are
  // datasheet-derived. Knees and affinities differentiate device behaviour so
  // cross-device prediction is a genuine distribution shift.
  static const std::vector<DeviceSpec> kRegistry = {
      MakeSpec(0, "T4", DeviceClass::kGpu, 1590, 16, 320, 40, 8100, 64, 4.0, 5.0, 32, 8.0, 1.2),
      MakeSpec(1, "K80", DeviceClass::kGpu, 824, 12, 240.6, 26, 4100, 48, 1.5, 8.0, 32, 6.0,
               1.0),
      MakeSpec(2, "P100", DeviceClass::kGpu, 1329, 16, 732.2, 56, 9300, 64, 4.0, 5.0, 32, 10.0,
               1.0),
      MakeSpec(3, "V100", DeviceClass::kGpu, 1530, 32, 900, 80, 14000, 96, 6.0, 4.5, 32, 14.0,
               1.5),
      MakeSpec(4, "A100", DeviceClass::kGpu, 1410, 40, 1555, 108, 19500, 192, 40.0, 4.0, 32,
               20.0, 1.8),
      MakeSpec(5, "HL-100", DeviceClass::kAccelerator, 1575, 8, 40, 11, 11000, 128, 24.0, 9.0,
               64, 2.0, 2.6),
      MakeSpec(6, "Intel E5-2673", DeviceClass::kCpu, 2300, 2048, 572.24, 8, 590, 32, 2.5, 0.8,
               8, 1.0, 0.9),
      MakeSpec(7, "AMD EPYC 7452", DeviceClass::kCpu, 2350, 2048, 1525.6, 4, 301, 32, 2.0, 0.7,
               8, 0.8, 0.9),
      MakeSpec(8, "Graviton2", DeviceClass::kCpu, 2500, 32, 4.75, 32, 1280, 64, 1.0, 1.0, 4,
               2.5, 0.8),
  };
  return kRegistry;
}

const DeviceSpec& DeviceByName(const std::string& name) {
  for (const DeviceSpec& spec : DeviceRegistry()) {
    if (spec.name == name) {
      return spec;
    }
  }
  CDMPP_CHECK_MSG(false, name.c_str());
  __builtin_unreachable();
}

const DeviceSpec& DeviceById(int id) {
  const auto& registry = DeviceRegistry();
  CDMPP_CHECK(id >= 0 && id < static_cast<int>(registry.size()));
  return registry[static_cast<size_t>(id)];
}

uint64_t DeviceFingerprint(int id) {
  static const std::vector<uint64_t> kFingerprints = [] {
    std::vector<uint64_t> out;
    for (const DeviceSpec& spec : DeviceRegistry()) {
      out.push_back(spec.Fingerprint());
    }
    return out;
  }();
  CDMPP_CHECK(id >= 0 && id < static_cast<int>(kFingerprints.size()));
  return kFingerprints[static_cast<size_t>(id)];
}

std::vector<int> GpuDeviceIds() { return {0, 1, 2, 3, 4}; }
std::vector<int> CpuDeviceIds() { return {6, 7, 8}; }
int AcceleratorDeviceId() { return 5; }

std::vector<float> ExtractDeviceFeatures(const DeviceSpec& spec) {
  std::vector<float> v(kDeviceFeatDim, 0.0f);
  ExtractDeviceFeaturesInto(spec, v.data());
  return v;
}

void ExtractDeviceFeaturesInto(const DeviceSpec& spec, float* out) {
  auto lg = [](double x) { return static_cast<float>(std::log1p(x)); };
  out[0] = lg(spec.clock_mhz) / 10.0f;
  out[1] = lg(spec.mem_gb) / 10.0f;
  out[2] = lg(spec.mem_bw_gbps) / 10.0f;
  out[3] = lg(spec.cores) / 10.0f;
  out[4] = lg(spec.peak_gflops) / 10.0f;
  out[5] = lg(spec.l1_kb) / 10.0f;
  out[6] = lg(spec.l2_mb) / 10.0f;
  out[7] = lg(spec.vector_width) / 10.0f;
  out[8] = lg(spec.launch_overhead_us) / 10.0f;
  out[9] = spec.cls == DeviceClass::kGpu ? 1.0f : 0.0f;
  out[10] = spec.cls == DeviceClass::kCpu ? 1.0f : 0.0f;
  out[11] = spec.cls == DeviceClass::kAccelerator ? 1.0f : 0.0f;
}

}  // namespace cdmpp
