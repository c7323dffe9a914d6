// Serving gates: CI checks on the batched inference service under an
// autotuner-shaped query stream (many small latency queries, heavy schedule
// re-visiting). Each gate is a best-pair comparison over interleaved runs
// (bench/gate.h):
//   * int8 vs fp32: on AVX2 hosts the int8 encoder tier must not lose batched
//     QPS to fp32 (SKIP elsewhere), and must serve the majority of GEMM FLOPs
//     in its runs, from the per-precision data-plane counters;
//   * concurrency: on a 2-worker service a 2-thread pool must reach 1.2x the
//     QPS of a 1-thread pool (SKIP below 4 hardware threads), and
//     parallel_for.serial_contended must not move over the workers x threads
//     matrix and the gate;
//   * observability overhead: instrumented QPS (metrics on, trace sampling
//     off) within 1% of a run whose counter adds are all suppressed.
// Writes BENCH_serve.json (the matrix, every gate pair and each verdict) and
// METRICS_serve.json (registry and trace dumps); exits nonzero when a gate
// fails. The serving precision of the matrix and the overhead gate is the
// ServeOptions default, i.e. CDMPP_PRECISION. Latency under an arrival
// process is bench/e2e's job.
// Build & run:  ./build/bench/bench_serve_throughput [--smoke]
// (--smoke shrinks the model, the workload and the matrix for CI.)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/gate.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/prediction_service.h"
#include "src/support/cpu_features.h"
#include "src/support/json_writer.h"
#include "src/support/parallel_for.h"
#include "src/support/table.h"
#include "src/tir/schedule.h"

using namespace cdmpp;

namespace {

struct Workload {
  // Pointers into `asts`; schedules repeat with autotuner-like locality so a
  // cache can pay off.
  std::vector<CompactAst> asts;
  std::vector<const CompactAst*> requests;
};

Workload BuildWorkload(const Dataset& ds, int unique_schedules, int total_requests,
                       uint64_t seed) {
  Workload w;
  Rng rng(seed);
  while (static_cast<int>(w.asts.size()) < unique_schedules) {
    const TaskInfo& info = rng.Choice(ds.tasks);
    w.asts.push_back(
        ExtractCompactAst(GenerateProgram(info.task, SampleSchedule(info.task, &rng))));
  }
  w.requests.reserve(static_cast<size_t>(total_requests));
  for (int i = 0; i < total_requests; ++i) {
    // Zipf-ish revisiting: half the stream hammers the first few schedules,
    // the rest scans uniformly — schedule search evaluates neighborhoods.
    size_t idx = rng.Bernoulli(0.5)
                     ? static_cast<size_t>(rng.UniformInt(0, 7)) % w.asts.size()
                     : static_cast<size_t>(
                           rng.UniformInt(0, static_cast<int64_t>(w.asts.size()) - 1));
    w.requests.push_back(&w.asts[idx]);
  }
  return w;
}

struct RunResult {
  double qps = 0.0;
  ServerStatsSnapshot stats;
};

// Drives the request stream (on T4, device 0) against an existing service;
// the concurrency matrix and gate reuse one service across several pool
// sizes so worker threads and their arena leases stay warm while only the
// pool varies. `reps` repeats the request stream within the measured window,
// stretching a run from a few milliseconds (where clock noise swamps a 1%
// difference) to a resolvable length.
RunResult RunLoadOn(PredictionService& service, const Workload& w, int reps = 1) {
  // Warm-up slice: primes workspace arenas, missing heads and the thread
  // pool, then reopens the stats window so QPS and percentiles measure
  // steady state instead of first-touch allocation costs.
  const size_t warmup = std::min<size_t>(w.requests.size() / 10, 64);
  {
    std::vector<std::future<double>> wf;
    wf.reserve(warmup);
    for (size_t i = 0; i < warmup; ++i) {
      wf.push_back(service.Submit(*w.requests[i], /*device_id=*/0));
    }
    for (auto& f : wf) {
      f.get();
    }
  }
  service.ResetStats();
  const size_t measured = (w.requests.size() - warmup) * static_cast<size_t>(std::max(1, reps));
  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::future<double>> futures;
  futures.reserve(measured);
  for (int rep = 0; rep < std::max(1, reps); ++rep) {
    for (size_t i = warmup; i < w.requests.size(); ++i) {
      futures.push_back(service.Submit(*w.requests[i], /*device_id=*/0));
    }
  }
  for (auto& f : futures) {
    f.get();
  }
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  RunResult r;
  r.qps = static_cast<double>(measured) / seconds;
  r.stats = service.Stats();
  return r;
}

// QPS of one run on a fresh service.
double RunLoad(CdmppPredictor* predictor, const Workload& w, const ServeOptions& opts, int reps) {
  PredictionService service(predictor, opts);
  return RunLoadOn(service, w, reps).qps;
}

// Runs `fn` with a private `threads`-sized pool as ThreadPool::Global() (the
// code path CDMPP_NUM_THREADS selects at startup).
template <typename Fn>
auto WithPool(int threads, const Fn& fn) {
  ThreadPool pool(threads);
  ThreadPool::SetGlobalForTesting(&pool);
  auto result = fn();
  ThreadPool::SetGlobalForTesting(nullptr);
  return result;
}

uint64_t CounterOrZero(const std::map<std::string, uint64_t>& counters,
                       const std::string& name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

// Counter growth across a measured region (registry counters are cumulative).
std::map<std::string, uint64_t> CounterDelta(const std::map<std::string, uint64_t>& before,
                                             const std::map<std::string, uint64_t>& after) {
  std::map<std::string, uint64_t> delta;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    const uint64_t prev = it == before.end() ? 0 : it->second;
    if (value > prev) {
      delta[name] = value - prev;
    }
  }
  return delta;
}

// Share of GEMM FLOPs that ran through the int8 kernels over a measured
// region, from the per-precision x per-ISA data-plane counters
// (gemm.flops.{fp32,int8}.{scalar,avx2}). ISA-independent: the fraction
// reflects which tier served each GEMM, not which microkernel executed it.
double Int8FlopFraction(const std::map<std::string, uint64_t>& delta) {
  double int8 = 0.0, total = 0.0;
  for (const auto& [name, value] : delta) {
    if (name.rfind("gemm.flops.", 0) == 0) {
      total += static_cast<double>(value);
      if (name.rfind("gemm.flops.int8.", 0) == 0) {
        int8 += static_cast<double>(value);
      }
    }
  }
  return total > 0.0 ? int8 / total : 0.0;
}

// Prints every pair of a gate and writes it under the gate's "pairs" key.
void RecordPairs(const PairRuns<double>& runs, const char* base_key, const char* test_key,
                 JsonWriter* json) {
  TablePrinter table({"pair", base_key, test_key, "ratio"});
  json->Key("pairs");
  json->BeginArray();
  for (size_t i = 0; i < runs.ratio.size(); ++i) {
    table.AddRow({std::to_string(i), FormatDouble(runs.base[i], 0),
                  FormatDouble(runs.test[i], 0), FormatDouble(runs.ratio[i], 4)});
    json->BeginObject();
    json->Key(base_key);
    json->Double(runs.base[i]);
    json->Key(test_key);
    json->Double(runs.test[i]);
    json->Key("ratio");
    json->Double(runs.ratio[i]);
    json->EndObject();
  }
  json->EndArray();
  table.Print(stdout);
}

const char* Verdict(bool ok) { return ok ? "pass" : "fail"; }

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }

  // ---- Model under service: quick pre-train on a T4 slice. ----
  DatasetOptions dopts;
  dopts.device_ids = {0};
  dopts.schedules_per_task = 3;
  dopts.max_networks = smoke ? 5 : 10;
  dopts.seed = 21;
  Dataset ds = BuildDataset(dopts);

  PredictorConfig cfg;
  cfg.epochs = smoke ? 2 : 6;
  cfg.seed = 22;
  CdmppPredictor predictor(cfg);
  Rng rng(23);
  SplitIndices split = SplitDataset(ds, {0}, {}, &rng);
  std::printf("Pre-training the served model (%zu samples, %d epochs)...\n",
              split.train.size(), cfg.epochs);
  predictor.Pretrain(ds, split.train, split.valid);

  Workload w = BuildWorkload(ds, /*unique_schedules=*/smoke ? 24 : 96,
                             /*total_requests=*/smoke ? 400 : 3000, /*seed=*/24);
  for (const CompactAst& ast : w.asts) {
    predictor.EnsureHead(ast.num_leaves);
  }
  std::printf("Workload: %zu requests over %zu unique schedules on T4.\n\n", w.requests.size(),
              w.asts.size());

  // Every gate serves this configuration: batched, cache disabled, 2 workers.
  ServeOptions batched;
  batched.num_workers = 2;
  batched.max_batch_size = 64;
  batched.batch_window_ms = 1.0;
  batched.enable_cache = false;

  JsonWriter json;
  const auto number = [&json](const char* key, double value) {
    json.Key(key);
    json.Double(value);
  };
  json.BeginObject();
  json.Key("bench");
  json.String("serve_throughput");
  json.Key("smoke");
  json.Bool(smoke);
  json.Key("kernel_isa");
  json.String(KernelIsaName(ActiveKernelIsa()));
  json.Key("precision");
  json.String(PrecisionName(batched.precision));
  number("requests", w.requests.size());
  number("unique_schedules", w.asts.size());

  // ---- Int8-vs-fp32 gate. ----
  // On AVX2 hosts the int8 encoder tier must not lose QPS to fp32; without
  // AVX2 the int8 kernels have no SIMD advantage to bank, so the gate is
  // SKIPped, not failed. The int8 runs' counter growth also gives the share
  // of GEMM FLOPs the int8 tier served.
  const bool has_avx2 = CpuSupportsAvx2Fma();
  const int kPrecisionPairs = 3;
  const int kPrecisionReps = smoke ? 6 : 2;
  ServeOptions fp32_opts = batched;
  fp32_opts.precision = Precision::kFp32;
  ServeOptions int8_opts = batched;
  int8_opts.precision = Precision::kInt8;
  std::map<std::string, uint64_t> int8_counters;  // summed over the int8 runs
  const PairRuns<double> int8_runs = RunInterleavedPairs(
      kPrecisionPairs, [&] { return RunLoad(&predictor, w, fp32_opts, kPrecisionReps); },
      [&] {
        const auto before = obs::MetricsRegistry::Global().CounterValues();
        const double qps = RunLoad(&predictor, w, int8_opts, kPrecisionReps);
        for (const auto& [name, value] :
             CounterDelta(before, obs::MetricsRegistry::Global().CounterValues())) {
          int8_counters[name] += value;
        }
        return qps;
      });
  const double int8_flop_fraction = Int8FlopFraction(int8_counters);
  const bool int8_qps_gate_ok = !has_avx2 || int8_runs.best_ratio >= 1.0;
  const bool int8_fraction_gate_ok = int8_flop_fraction > 0.5;
  std::printf("Int8 encoder serving vs fp32 (batched QPS, %d interleaved pairs):\n",
              kPrecisionPairs);
  number("int8_flop_fraction", int8_flop_fraction);
  json.Key("int8_vs_fp32");
  json.BeginObject();
  RecordPairs(int8_runs, "fp32_qps", "int8_qps", &json);
  number("best_pair_ratio", int8_runs.best_ratio);
  json.Key("avx2");
  json.Bool(has_avx2);
  json.Key("qps_gate");
  json.String(has_avx2 ? Verdict(int8_qps_gate_ok) : "skip");
  json.Key("flop_fraction_gate");
  json.String(Verdict(int8_fraction_gate_ok));
  json.EndObject();
  std::printf("Best pair ratio %.3fx, need >= 1.0x [%s]; int8 GEMM flop share %.1f%%, need "
              "> 50%% [%s]\n",
              int8_runs.best_ratio,
              !has_avx2 ? "SKIP: no AVX2" : (int8_qps_gate_ok ? "PASS" : "FAIL"),
              100.0 * int8_flop_fraction, int8_fraction_gate_ok ? "PASS" : "FAIL");

  // ---- Concurrency matrix: serve workers x pool threads, long-lived services. ----
  // The composition the work-stealing scheduler exists for: with several
  // serve workers forwarding concurrently, their ParallelFor regions must
  // compose (steal from each other) instead of convoying — the pre-stealing
  // pool demoted every contended region to inline serial, so workers=2 x
  // threads=2 measured like threads=1. One service per workers value lives
  // across its whole threads sweep (warm arenas, same worker threads); only
  // the pool changes between runs, and only while the service is idle.
  const std::vector<int> matrix_axis =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};
  const auto matrix_counters_before = obs::MetricsRegistry::Global().CounterValues();
  TablePrinter matrix_table({"workers", "threads", "QPS (batched)", "p50 (ms)", "p99 (ms)"});
  json.Key("concurrency_matrix");
  json.BeginArray();
  for (int workers : matrix_axis) {
    ServeOptions mopts = batched;
    mopts.num_workers = workers;
    PredictionService service(&predictor, mopts);
    for (int threads : matrix_axis) {
      const RunResult r = WithPool(threads, [&] { return RunLoadOn(service, w); });
      matrix_table.AddRow({std::to_string(workers), std::to_string(threads),
                           FormatDouble(r.qps, 0), FormatDouble(r.stats.p50_latency_ms, 3),
                           FormatDouble(r.stats.p99_latency_ms, 3)});
      json.BeginObject();
      number("workers", workers);
      number("threads", threads);
      number("qps_batched", r.qps);
      number("p50_ms", r.stats.p50_latency_ms);
      number("p99_ms", r.stats.p99_latency_ms);
      json.EndObject();
    }
  }
  json.EndArray();
  std::printf("\nConcurrency matrix (batched, cache disabled, long-lived services):\n");
  matrix_table.Print(stdout);

  // Concurrency gate: on the workers=2 service, pool threads=2 must beat
  // threads=1 by >= 1.2x aggregate QPS — the exact configuration that used
  // to collapse to serial via serial_contended. The speedup needs real cores
  // for 2 workers x 2 threads, so hosts with fewer than 4 hardware threads
  // SKIP the ratio (it is still measured and recorded); the serial_contended
  // assertion holds on any host.
  const unsigned hw_threads = std::thread::hardware_concurrency();
  const bool conc_gate_applicable = hw_threads >= 4;
  const int kConcPairs = 3;
  const int kConcReps = smoke ? 4 : 2;
  PairRuns<double> conc_runs;
  {
    ServeOptions gopts = batched;
    gopts.num_workers = 2;
    PredictionService service(&predictor, gopts);
    const auto run_with_pool = [&](int threads) {
      return WithPool(threads, [&] { return RunLoadOn(service, w, kConcReps).qps; });
    };
    conc_runs = RunInterleavedPairs(
        kConcPairs, [&] { return run_with_pool(1); }, [&] { return run_with_pool(2); });
  }
  const auto matrix_counters_after = obs::MetricsRegistry::Global().CounterValues();
  const auto matrix_delta = CounterDelta(matrix_counters_before, matrix_counters_after);
  const uint64_t conc_serial_contended =
      CounterOrZero(matrix_delta, "parallel_for.serial_contended");
  const uint64_t conc_steals = CounterOrZero(matrix_delta, "parallel_for.steals");
  // Absolute value: the peak counter is a process-lifetime high-water mark.
  const uint64_t regions_peak =
      CounterOrZero(matrix_counters_after, "parallel_for.regions_concurrent_peak");
  const bool conc_contended_ok = conc_serial_contended == 0;
  const bool conc_qps_gate_ok = !conc_gate_applicable || conc_runs.best_ratio >= 1.2;
  std::printf("\nConcurrency gate (2 workers, threads=2 vs threads=1, %d interleaved pairs):\n",
              kConcPairs);
  json.Key("concurrency_gate");
  json.BeginObject();
  RecordPairs(conc_runs, "threads1_qps", "threads2_qps", &json);
  number("best_pair_ratio", conc_runs.best_ratio);
  number("hardware_threads", hw_threads);
  number("serial_contended_delta", conc_serial_contended);
  number("steals_delta", conc_steals);
  number("regions_concurrent_peak", regions_peak);
  json.Key("qps_gate");
  json.String(conc_gate_applicable ? Verdict(conc_qps_gate_ok) : "skip");
  json.Key("contended_gate");
  json.String(Verdict(conc_contended_ok));
  json.EndObject();
  std::printf("Best pair ratio %.3fx, need >= 1.2x [%s]; serial_contended delta %llu, need 0 "
              "[%s]; steals %llu, regions peak %llu\n",
              conc_runs.best_ratio,
              !conc_gate_applicable ? "SKIP: < 4 hardware threads"
                                    : (conc_qps_gate_ok ? "PASS" : "FAIL"),
              static_cast<unsigned long long>(conc_serial_contended),
              conc_contended_ok ? "PASS" : "FAIL: contended regions serialized",
              static_cast<unsigned long long>(conc_steals),
              static_cast<unsigned long long>(regions_peak));

  // ---- Overhead gate: instrumentation on (sampling off) vs suppressed. ----
  // The contract: with tracing compiled in and sampling disabled — the
  // production default — batched QPS must be within 1% of a run where the
  // metrics kill switch additionally suppresses every counter add. Pair 0
  // runs the instrumented side first.
  obs::TraceCollector& collector = obs::TraceCollector::Global();
  const int saved_rate = collector.sample_every();
  collector.SetSampleEvery(0);
  const int kGatePairs = 5;
  const int kGateReps = smoke ? 10 : 3;  // stretch each run well past clock noise
  const auto run_with_metrics = [&](bool enabled) {
    obs::SetMetricsEnabled(enabled);
    return RunLoad(&predictor, w, batched, kGateReps);
  };
  const PairRuns<double> overhead_runs = RunInterleavedPairs(
      kGatePairs, [&] { return run_with_metrics(false); },
      [&] { return run_with_metrics(true); }, FirstRun::kTest);
  obs::SetMetricsEnabled(true);
  collector.SetSampleEvery(saved_rate);
  const double overhead = 1.0 - overhead_runs.best_ratio;
  const bool gate_ok = overhead_runs.best_ratio >= 0.99;
  std::printf("\nObservability overhead (instrumented vs suppressed, %d interleaved pairs):\n",
              kGatePairs);
  json.Key("trace_overhead");
  json.BeginObject();
  RecordPairs(overhead_runs, "suppressed_qps", "instrumented_qps", &json);
  number("best_pair_ratio", overhead_runs.best_ratio);
  number("overhead_fraction", overhead);
  json.Key("gate");
  json.String(Verdict(gate_ok));
  json.EndObject();
  std::printf("Best pair ratio %.4f, need >= 0.99 -> %.2f%% overhead [%s]\n",
              overhead_runs.best_ratio, 100.0 * overhead, gate_ok ? "PASS" : "FAIL");

  json.EndObject();
  json.WriteFile("BENCH_serve.json");
  std::printf("Wrote BENCH_serve.json\n");

  // Full observability snapshot (cumulative registry + trace aggregates), the
  // artifact CI uploads on every bench leg.
  JsonWriter metrics;
  metrics.BeginObject();
  metrics.Key("metrics");
  metrics.RawValue(obs::MetricsRegistry::Global().DumpJson());
  metrics.Key("traces");
  metrics.RawValue(collector.DumpJson());
  metrics.EndObject();
  metrics.WriteFile("METRICS_serve.json");
  std::printf("Wrote METRICS_serve.json\n");

  // Every gate's verdict is printed above; a SKIPped gate counts as passed.
  const bool all_ok = int8_qps_gate_ok && int8_fraction_gate_ok && conc_qps_gate_ok &&
                      conc_contended_ok && gate_ok;
  return all_ok ? 0 : 1;
}
