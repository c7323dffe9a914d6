#include <set>

#include <gtest/gtest.h>

#include "src/device/device.h"
#include "src/device/simulator.h"
#include "src/tir/schedule.h"

namespace cdmpp {
namespace {

Task BigMatmul() {
  Task t;
  t.kind = OpKind::kDense;
  t.dims = {1024, 1024, 1024};
  t.name = "big_mm";
  return t;
}

ScheduleDesc GoodGpuSchedule() {
  ScheduleDesc s;
  s.primitives.push_back({PrimitiveKind::kSplit, 0, 16});
  s.primitives.push_back({PrimitiveKind::kSplit, 1, 16});
  s.primitives.push_back({PrimitiveKind::kParallel, -1, 0});
  s.primitives.push_back({PrimitiveKind::kVectorize, -1, 0});
  return s;
}

TEST(DeviceTest, RegistryHasNineDevicesFromTable2) {
  const auto& reg = DeviceRegistry();
  ASSERT_EQ(reg.size(), 9u);
  EXPECT_EQ(DeviceByName("T4").clock_mhz, 1590);
  EXPECT_EQ(DeviceByName("K80").mem_gb, 12);
  EXPECT_EQ(DeviceByName("A100").mem_bw_gbps, 1555);
  EXPECT_EQ(DeviceByName("HL-100").cores, 11);
  EXPECT_EQ(DeviceByName("AMD EPYC 7452").cls, DeviceClass::kCpu);
  EXPECT_EQ(DeviceByName("Graviton2").clock_mhz, 2500);
  for (size_t i = 0; i < reg.size(); ++i) {
    EXPECT_EQ(reg[i].id, static_cast<int>(i));
  }
}

TEST(DeviceTest, DeviceClassLists) {
  EXPECT_EQ(GpuDeviceIds().size(), 5u);
  EXPECT_EQ(CpuDeviceIds().size(), 3u);
  for (int id : GpuDeviceIds()) {
    EXPECT_EQ(DeviceById(id).cls, DeviceClass::kGpu);
  }
  for (int id : CpuDeviceIds()) {
    EXPECT_EQ(DeviceById(id).cls, DeviceClass::kCpu);
  }
  EXPECT_EQ(DeviceById(AcceleratorDeviceId()).cls, DeviceClass::kAccelerator);
}

TEST(DeviceTest, FeatureVectorShapeAndClassOneHot) {
  for (const DeviceSpec& spec : DeviceRegistry()) {
    std::vector<float> f = ExtractDeviceFeatures(spec);
    ASSERT_EQ(f.size(), static_cast<size_t>(kDeviceFeatDim));
    EXPECT_FLOAT_EQ(f[9] + f[10] + f[11], 1.0f);
  }
}

TEST(DeviceTest, FingerprintsDistinctAcrossRegistry) {
  std::set<uint64_t> fingerprints;
  for (const DeviceSpec& spec : DeviceRegistry()) {
    fingerprints.insert(spec.Fingerprint());
  }
  EXPECT_EQ(fingerprints.size(), DeviceRegistry().size());
}

TEST(DeviceTest, FingerprintStableAndSpecSensitive) {
  const DeviceSpec& t4 = DeviceByName("T4");
  EXPECT_EQ(t4.Fingerprint(), DeviceByName("T4").Fingerprint());

  DeviceSpec tweaked = t4;
  tweaked.mem_bw_gbps += 1.0;
  EXPECT_NE(tweaked.Fingerprint(), t4.Fingerprint());

  DeviceSpec renamed = t4;
  renamed.name = "T4-b";
  EXPECT_NE(renamed.Fingerprint(), t4.Fingerprint());
}

TEST(SimulatorTest, LatencyPositiveForAllDevices) {
  Rng rng(31);
  Task t = BigMatmul();
  TensorProgram prog = GenerateProgram(t, SampleSchedule(t, &rng));
  for (const DeviceSpec& spec : DeviceRegistry()) {
    double lat = SimulateLatencyDeterministic(prog, spec);
    EXPECT_GT(lat, 0.0) << spec.name;
    EXPECT_TRUE(std::isfinite(lat));
  }
}

TEST(SimulatorTest, MoreFlopsTakesLonger) {
  Task small = BigMatmul();
  small.dims = {256, 256, 256};
  Task big = BigMatmul();
  ScheduleDesc sched = GoodGpuSchedule();
  const DeviceSpec& v100 = DeviceByName("V100");
  EXPECT_LT(SimulateLatencyDeterministic(GenerateProgram(small, sched), v100),
            SimulateLatencyDeterministic(GenerateProgram(big, sched), v100));
}

TEST(SimulatorTest, FastGpuBeatsSlowGpuOnBigGemm) {
  TensorProgram prog = GenerateProgram(BigMatmul(), GoodGpuSchedule());
  double a100 = SimulateLatencyDeterministic(prog, DeviceByName("A100"));
  double k80 = SimulateLatencyDeterministic(prog, DeviceByName("K80"));
  EXPECT_LT(a100, k80);
}

TEST(SimulatorTest, ParallelAnnotationHelpsOnCpu) {
  Task t = BigMatmul();
  ScheduleDesc serial;
  ScheduleDesc parallel;
  parallel.primitives.push_back({PrimitiveKind::kParallel, -1, 0});
  const DeviceSpec& cpu = DeviceByName("Graviton2");
  EXPECT_LT(SimulateLatencyDeterministic(GenerateProgram(t, parallel), cpu),
            SimulateLatencyDeterministic(GenerateProgram(t, serial), cpu));
}

TEST(SimulatorTest, VectorizeHelpsOnCpu) {
  Task t = BigMatmul();
  ScheduleDesc plain;
  plain.primitives.push_back({PrimitiveKind::kParallel, -1, 0});
  ScheduleDesc vec = plain;
  vec.primitives.push_back({PrimitiveKind::kVectorize, -1, 0});
  const DeviceSpec& cpu = DeviceByName("Intel E5-2673");
  EXPECT_LT(SimulateLatencyDeterministic(GenerateProgram(t, vec), cpu),
            SimulateLatencyDeterministic(GenerateProgram(t, plain), cpu));
}

TEST(SimulatorTest, TilingAffectsLatency) {
  // Cache-aware tiling must matter, otherwise schedule search is trivial.
  Task t = BigMatmul();
  ScheduleDesc untiled;
  untiled.primitives.push_back({PrimitiveKind::kParallel, -1, 0});
  ScheduleDesc tiled = GoodGpuSchedule();
  const DeviceSpec& t4 = DeviceByName("T4");
  double lat_untiled = SimulateLatencyDeterministic(GenerateProgram(t, untiled), t4);
  double lat_tiled = SimulateLatencyDeterministic(GenerateProgram(t, tiled), t4);
  EXPECT_NE(lat_untiled, lat_tiled);
}

TEST(SimulatorTest, Hl100FavorsGemmOverPointwise) {
  // HL-100's GEMM affinity: the accelerator should look relatively better on
  // a matmul than on a pointwise op, compared to a CPU baseline.
  Task mm = BigMatmul();
  Task ew;
  ew.kind = OpKind::kElementwise;
  ew.dims = {1024 * 1024};
  ew.name = "ew";
  ScheduleDesc sched;
  sched.primitives.push_back({PrimitiveKind::kParallel, -1, 0});
  const DeviceSpec& hl = DeviceByName("HL-100");
  const DeviceSpec& cpu = DeviceByName("Intel E5-2673");
  double mm_ratio = SimulateLatencyDeterministic(GenerateProgram(mm, sched), hl) /
                    SimulateLatencyDeterministic(GenerateProgram(mm, sched), cpu);
  double ew_ratio = SimulateLatencyDeterministic(GenerateProgram(ew, sched), hl) /
                    SimulateLatencyDeterministic(GenerateProgram(ew, sched), cpu);
  EXPECT_LT(mm_ratio, ew_ratio);
}

TEST(SimulatorTest, LeafTimingComponentsNonNegative) {
  Rng rng(79);
  Task t = BigMatmul();
  TensorProgram prog = GenerateProgram(t, SampleSchedule(t, &rng));
  for (const LeafContext& leaf : CollectLeaves(*prog.root)) {
    LeafTiming timing = SimulateLeaf(leaf, DeviceByName("P100"));
    EXPECT_GE(timing.compute_seconds, 0.0);
    EXPECT_GE(timing.memory_seconds, 0.0);
    EXPECT_GE(timing.overhead_seconds, 0.0);
    EXPECT_GE(timing.Total(), 0.0);
  }
}

// Cross-device latency ordering differs per workload class: the ranking of
// devices on a memory-bound op should not match the compute-bound ranking
// everywhere — that is what makes CDPP a real distribution shift.
TEST(SimulatorTest, DeviceRankingIsWorkloadDependent) {
  Task mm = BigMatmul();
  Task copy;
  copy.kind = OpKind::kTranspose;
  copy.dims = {4096, 4096};
  copy.name = "copy";
  ScheduleDesc sched;
  sched.primitives.push_back({PrimitiveKind::kParallel, -1, 0});

  auto rank = [&](const Task& task) {
    std::vector<std::pair<double, std::string>> lat;
    for (const DeviceSpec& spec : DeviceRegistry()) {
      lat.emplace_back(SimulateLatencyDeterministic(GenerateProgram(task, sched), spec),
                       spec.name);
    }
    std::sort(lat.begin(), lat.end());
    std::vector<std::string> names;
    for (auto& [_, name] : lat) {
      names.push_back(name);
    }
    return names;
  };
  EXPECT_NE(rank(mm), rank(copy));
}

}  // namespace
}  // namespace cdmpp
