// Serving load generator: measures the batched inference service under an
// autotuner-shaped query stream (many small latency queries, heavy schedule
// re-visiting), sweeping worker count x batch window x batching on/off.
//
// Reports QPS, mean batch occupancy, cache hit rate, and p50/p99 request
// latency per configuration, plus the headline batched-vs-unbatched
// comparison, and emits machine-readable BENCH_serve.json (QPS, p50/p99,
// kernel ISA, serving precision) so CI tracks the serving trajectory next to
// the GEMM one. The serving precision comes from the ServeOptions default,
// i.e. the CDMPP_PRECISION environment override — the int8 CI leg measures
// the quantized serving path with no bench-side changes. A precision A/B
// series (fp32 / int8 on the batched config) additionally
// records each mode's QPS and int8_flop_fraction — the share of GEMM FLOPs
// the int8 tier served, from the per-precision data-plane counters — and
// gates that the int8 encoder tier (a) beats fp32 batched QPS on AVX2 hosts
// (SKIP elsewhere) and (b) serves the majority of GEMM FLOPs quantized.
// Build & run:  ./build/bench/bench_serve_throughput [--smoke]
// (--smoke shrinks the workload and sweep for CI.)
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

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/prediction_service.h"
#include "src/support/cpu_features.h"
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

// Drives the request stream against an existing (long-lived) service; the
// concurrency matrix reuses one service across several pool sizes so worker
// threads and their arena leases stay warm while only the pool varies.
// `reps` repeats the request stream within the measured window — the overhead
// gate uses it to stretch a run from a few milliseconds (where clock noise
// swamps a 1% difference) to a resolvable length.
RunResult RunLoadOn(PredictionService& service, const Workload& w, int device_id,
                    int reps = 1) {
  // Warm-up slice: primes workspace arenas, missing heads, the thread pool,
  // and (when enabled) the cache, then reopens the stats window so the
  // headline QPS/percentiles measure steady state instead of first-touch
  // allocation costs. Previously the warm-up requests polluted the window.
  const size_t warmup = std::min<size_t>(w.requests.size() / 10, 64);
  {
    std::vector<std::future<double>> wf;
    wf.reserve(warmup);
    for (size_t i = 0; i < warmup; ++i) {
      wf.push_back(service.Submit(*w.requests[i], device_id));
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
      futures.push_back(service.Submit(*w.requests[i], device_id));
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

RunResult RunLoad(CdmppPredictor* predictor, const Workload& w, const ServeOptions& opts,
                  int device_id, int reps = 1) {
  PredictionService service(predictor, opts);
  return RunLoadOn(service, w, device_id, reps);
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

  // ---- Sweep: workers x batch window, cache on. ----
  struct SweepRecord {
    int workers;
    double window_ms;
    RunResult result;
  };
  std::vector<SweepRecord> sweep_records;
  TablePrinter sweep({"workers", "window (ms)", "max batch", "QPS", "occupancy", "hit rate",
                      "p50 (ms)", "p99 (ms)"});
  const std::vector<int> worker_sweep = smoke ? std::vector<int>{2} : std::vector<int>{1, 2, 4};
  const std::vector<double> window_sweep =
      smoke ? std::vector<double>{0.0} : std::vector<double>{0.0, 0.2, 1.0};
  for (int workers : worker_sweep) {
    for (double window_ms : window_sweep) {
      ServeOptions opts;
      opts.num_workers = workers;
      opts.batch_window_ms = window_ms;
      opts.max_batch_size = 64;
      opts.enable_cache = true;
      RunResult r = RunLoad(&predictor, w, opts, /*device_id=*/0);
      sweep.AddRow({std::to_string(workers), FormatDouble(window_ms, 1),
                    std::to_string(opts.max_batch_size), FormatDouble(r.qps, 0),
                    FormatDouble(r.stats.mean_batch_occupancy, 1),
                    FormatPercent(r.stats.cache_hit_rate, 1),
                    FormatDouble(r.stats.p50_latency_ms, 3),
                    FormatDouble(r.stats.p99_latency_ms, 3)});
      sweep_records.push_back({workers, window_ms, r});
    }
  }
  std::printf("Sweep (prediction cache enabled):\n");
  sweep.Print(stdout);

  // ---- Headline: batching vs batch size 1 on the same workload, no cache. ----
  ServeOptions batched;
  batched.num_workers = 2;
  batched.max_batch_size = 64;
  batched.batch_window_ms = 1.0;
  batched.enable_cache = false;
  ServeOptions single = batched;
  single.max_batch_size = 1;
  single.batch_window_ms = 0.0;

  RunResult r_single = RunLoad(&predictor, w, single, 0);
  RunResult r_batched = RunLoad(&predictor, w, batched, 0);

  std::printf("\nBatching headline (cache disabled, 2 workers):\n");
  TablePrinter headline({"mode", "QPS", "occupancy", "fwd passes", "p50 (ms)", "p99 (ms)"});
  headline.AddRow({"batch size 1", FormatDouble(r_single.qps, 0),
                   FormatDouble(r_single.stats.mean_batch_occupancy, 1),
                   std::to_string(r_single.stats.forward_passes),
                   FormatDouble(r_single.stats.p50_latency_ms, 3),
                   FormatDouble(r_single.stats.p99_latency_ms, 3)});
  headline.AddRow({"batched (<=64)", FormatDouble(r_batched.qps, 0),
                   FormatDouble(r_batched.stats.mean_batch_occupancy, 1),
                   std::to_string(r_batched.stats.forward_passes),
                   FormatDouble(r_batched.stats.p50_latency_ms, 3),
                   FormatDouble(r_batched.stats.p99_latency_ms, 3)});
  headline.Print(stdout);
  std::printf("\nBatched serving: %.2fx the QPS of one-forward-per-request.\n",
              r_batched.qps / r_single.qps);

  // ---- Precision A/B: fp32 vs int8 on the batched config. ----
  // One run per mode for the series (QPS + which share of GEMM FLOPs the
  // int8 tier served), then an interleaved best-of-pairs fp32-vs-int8
  // comparison for the throughput gate — single runs on a shared runner
  // swing several percent, and a gate must not flag noise.
  struct PrecisionRecord {
    const char* name;
    Precision mode;
    RunResult result;
    double int8_flop_fraction;
  };
  std::vector<PrecisionRecord> precision_records;
  const std::vector<std::pair<const char*, Precision>> precision_modes = {
      {"fp32", Precision::kFp32}, {"int8", Precision::kInt8}};
  for (const auto& [name, mode] : precision_modes) {
    ServeOptions opts = batched;
    opts.precision = mode;
    const auto before = obs::MetricsRegistry::Global().CounterValues();
    RunResult r = RunLoad(&predictor, w, opts, 0, /*reps=*/2);
    const double fraction =
        Int8FlopFraction(CounterDelta(before, obs::MetricsRegistry::Global().CounterValues()));
    precision_records.push_back({name, mode, r, fraction});
  }
  std::printf("\nPrecision A/B (batched, cache disabled, 2 workers):\n");
  TablePrinter precision_table(
      {"precision", "QPS (batched)", "int8 flop share", "p50 (ms)", "p99 (ms)"});
  for (const PrecisionRecord& rec : precision_records) {
    precision_table.AddRow({rec.name, FormatDouble(rec.result.qps, 0),
                            FormatPercent(rec.int8_flop_fraction, 1),
                            FormatDouble(rec.result.stats.p50_latency_ms, 3),
                            FormatDouble(rec.result.stats.p99_latency_ms, 3)});
  }
  precision_table.Print(stdout);
  const double int8_flop_fraction = precision_records.back().int8_flop_fraction;

  // Int8-vs-fp32 throughput gate: interleaved pairs, best pair ratio (same
  // design as the observability overhead gate below). On AVX2 hosts the int8
  // encoder tier must not lose QPS to fp32; without AVX2 the int8 kernels
  // have no SIMD advantage to bank, so the gate is SKIPped, not failed.
  const bool has_avx2 = CpuSupportsAvx2Fma();
  const int kPrecisionPairs = 3;
  const int kPrecisionReps = smoke ? 6 : 2;
  double qps_fp32_gate = 0.0, qps_int8_gate = 0.0, best_int8_ratio = 0.0;
  {
    ServeOptions fp32_opts = batched;
    fp32_opts.precision = Precision::kFp32;
    ServeOptions int8_opts = batched;
    int8_opts.precision = Precision::kInt8;
    for (int i = 0; i < kPrecisionPairs; ++i) {
      double fp32_qps, int8_qps;
      if (i % 2 == 0) {
        fp32_qps = RunLoad(&predictor, w, fp32_opts, 0, kPrecisionReps).qps;
        int8_qps = RunLoad(&predictor, w, int8_opts, 0, kPrecisionReps).qps;
      } else {
        int8_qps = RunLoad(&predictor, w, int8_opts, 0, kPrecisionReps).qps;
        fp32_qps = RunLoad(&predictor, w, fp32_opts, 0, kPrecisionReps).qps;
      }
      qps_fp32_gate = std::max(qps_fp32_gate, fp32_qps);
      qps_int8_gate = std::max(qps_int8_gate, int8_qps);
      if (fp32_qps > 0.0) {
        best_int8_ratio = std::max(best_int8_ratio, int8_qps / fp32_qps);
      }
    }
  }
  const bool int8_qps_gate_ok = !has_avx2 || best_int8_ratio >= 1.0;
  const bool int8_fraction_gate_ok = int8_flop_fraction > 0.5;
  std::printf("Int8 encoder serving vs fp32 (best of %d interleaved pairs): "
              "%.0f vs %.0f QPS, best pair ratio %.3fx [%s]; int8 GEMM flop share %.1f%% [%s]\n",
              kPrecisionPairs, qps_int8_gate, qps_fp32_gate, best_int8_ratio,
              !has_avx2 ? "SKIP: no AVX2"
                        : (int8_qps_gate_ok ? "PASS" : "FAIL: int8 slower than fp32"),
              100.0 * int8_flop_fraction,
              int8_fraction_gate_ok ? "PASS" : "FAIL: not a majority");

  // ---- Threads series: batched QPS vs intra-request thread count. ----
  // Each wave of a batched forward runs as one region of row shards on
  // ThreadPool::Global(); this sweep re-runs the batched workload under
  // private pools of several sizes (the same code path
  // CDMPP_NUM_THREADS selects at startup) so BENCH_serve.json records how
  // intra-request parallelism scales on this host. One worker, so the pool
  // size is the only variable; the concurrency matrix below measures how
  // worker-level and intra-request parallelism compose. On a single-core
  // host threads > 1 just timeshare — expect flat-to-slightly-worse numbers
  // there.
  ServeOptions intra = batched;
  intra.num_workers = 1;
  struct ThreadsRecord {
    int threads;
    RunResult result;
  };
  std::vector<ThreadsRecord> threads_records;
  const std::vector<int> threads_sweep =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};
  TablePrinter threads_table({"threads", "QPS (batched)", "p50 (ms)", "p99 (ms)"});
  for (int threads : threads_sweep) {
    ThreadPool pool(threads);
    ThreadPool::SetGlobalForTesting(&pool);
    RunResult r = RunLoad(&predictor, w, intra, 0);
    ThreadPool::SetGlobalForTesting(nullptr);
    threads_table.AddRow({std::to_string(threads), FormatDouble(r.qps, 0),
                          FormatDouble(r.stats.p50_latency_ms, 3),
                          FormatDouble(r.stats.p99_latency_ms, 3)});
    threads_records.push_back({threads, r});
  }
  std::printf("\nIntra-request threads series (1 worker, batched, cache disabled):\n");
  threads_table.Print(stdout);
  const int default_threads = ThreadPool::Global().num_threads();
  std::printf("Default pool size on this host: %d (CDMPP_NUM_THREADS overrides).\n",
              default_threads);

  // ---- Concurrency matrix: serve workers x pool threads, long-lived services. ----
  // The composition the work-stealing scheduler exists for: with several
  // serve workers forwarding concurrently, their ParallelFor regions must
  // compose (steal from each other) instead of convoying — the pre-stealing
  // pool demoted every contended region to inline serial, so workers=2 x
  // threads=2 measured like threads=1. One service per workers value lives
  // across its whole threads sweep (warm arenas, same worker threads); only
  // the pool changes between runs, and only while the service is idle.
  struct MatrixRecord {
    int workers;
    int threads;
    RunResult result;
  };
  std::vector<MatrixRecord> matrix_records;
  const std::vector<int> matrix_axis =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};
  const auto matrix_counters_before = obs::MetricsRegistry::Global().CounterValues();
  TablePrinter matrix_table(
      {"workers", "threads", "QPS (batched)", "p50 (ms)", "p99 (ms)"});
  for (int workers : matrix_axis) {
    ServeOptions mopts = batched;
    mopts.num_workers = workers;
    PredictionService service(&predictor, mopts);
    for (int threads : matrix_axis) {
      ThreadPool mpool(threads);
      ThreadPool::SetGlobalForTesting(&mpool);
      RunResult r = RunLoadOn(service, w, 0);
      ThreadPool::SetGlobalForTesting(nullptr);
      matrix_table.AddRow({std::to_string(workers), std::to_string(threads),
                           FormatDouble(r.qps, 0), FormatDouble(r.stats.p50_latency_ms, 3),
                           FormatDouble(r.stats.p99_latency_ms, 3)});
      matrix_records.push_back({workers, threads, r});
    }
  }
  std::printf("\nConcurrency matrix (batched, cache disabled, long-lived services):\n");
  matrix_table.Print(stdout);

  // Gate: on the workers=2 service, pool threads=2 must beat threads=1 by
  // >= 1.2x aggregate QPS — the exact configuration that used to collapse to
  // serial via serial_contended. Interleaved pairs, best-pair ratio (same
  // noise discipline as the other gates). The speedup needs real cores for
  // 2 workers x 2 threads, so hosts with fewer than 4 hardware threads SKIP
  // the ratio (it is still measured and recorded); the serial_contended
  // assertion below holds on any host.
  const unsigned hw_threads = std::thread::hardware_concurrency();
  const bool conc_gate_applicable = hw_threads >= 4;
  const int kConcPairs = 3;
  const int kConcReps = smoke ? 4 : 2;
  double qps_w2_t1 = 0.0, qps_w2_t2 = 0.0, best_conc_ratio = 0.0;
  {
    ServeOptions gopts = batched;
    gopts.num_workers = 2;
    PredictionService service(&predictor, gopts);
    auto run_with_pool = [&](int threads) {
      ThreadPool p(threads);
      ThreadPool::SetGlobalForTesting(&p);
      const double qps = RunLoadOn(service, w, 0, kConcReps).qps;
      ThreadPool::SetGlobalForTesting(nullptr);
      return qps;
    };
    for (int i = 0; i < kConcPairs; ++i) {
      double t1_qps, t2_qps;
      if (i % 2 == 0) {
        t1_qps = run_with_pool(1);
        t2_qps = run_with_pool(2);
      } else {
        t2_qps = run_with_pool(2);
        t1_qps = run_with_pool(1);
      }
      qps_w2_t1 = std::max(qps_w2_t1, t1_qps);
      qps_w2_t2 = std::max(qps_w2_t2, t2_qps);
      if (t1_qps > 0.0) {
        best_conc_ratio = std::max(best_conc_ratio, t2_qps / t1_qps);
      }
    }
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
  const bool conc_qps_gate_ok = !conc_gate_applicable || best_conc_ratio >= 1.2;
  std::printf("Concurrency gate (2 workers, best of %d interleaved pairs): "
              "threads=2 %.0f vs threads=1 %.0f QPS, best pair ratio %.3fx [%s]; "
              "serial_contended delta %llu [%s], steals %llu, regions peak %llu\n",
              kConcPairs, qps_w2_t2, qps_w2_t1, best_conc_ratio,
              !conc_gate_applicable
                  ? "SKIP: < 4 hardware threads"
                  : (conc_qps_gate_ok ? "PASS" : "FAIL: below 1.2x"),
              static_cast<unsigned long long>(conc_serial_contended),
              conc_contended_ok ? "PASS" : "FAIL: regions still convoy",
              static_cast<unsigned long long>(conc_steals),
              static_cast<unsigned long long>(regions_peak));

  // ---- Per-stage latency breakdown: trace 1-in-4 of the batched workload. ----
  obs::TraceCollector& collector = obs::TraceCollector::Global();
  const int saved_rate = collector.sample_every();
  collector.Reset();
  collector.SetSampleEvery(4);
  const auto counters_before = obs::MetricsRegistry::Global().CounterValues();
  RunResult r_traced = RunLoad(&predictor, w, batched, 0);
  const auto counter_delta =
      CounterDelta(counters_before, obs::MetricsRegistry::Global().CounterValues());
  const obs::TraceCollector::Stats tstats = collector.GetStats();
  collector.SetSampleEvery(0);

  std::printf("\nPer-stage breakdown (batched, cache disabled, 1-in-4 sampled, %llu traces):\n",
              static_cast<unsigned long long>(tstats.traces));
  TablePrinter stages_table({"stage", "total (ms)", "mean/req (ms)", "share"});
  for (int s = 0; s < obs::kNumStages; ++s) {
    const double total = tstats.stage_ms[static_cast<size_t>(s)];
    if (total <= 0.0) {
      continue;
    }
    stages_table.AddRow({obs::StageName(static_cast<obs::Stage>(s)), FormatDouble(total, 2),
                         FormatDouble(tstats.traces > 0 ? total / static_cast<double>(tstats.traces)
                                                        : 0.0,
                                      4),
                         FormatPercent(tstats.total_ms > 0.0 ? total / tstats.total_ms : 0.0, 1)});
  }
  stages_table.Print(stdout);
  std::printf("Named stages attribute %.1f%% of traced request latency.\n",
              100.0 * tstats.AttributedFraction());
  std::printf("Data-plane counters over the traced run:\n");
  for (const auto& [name, value] : counter_delta) {
    std::printf("  %-32s %llu\n", name.c_str(), static_cast<unsigned long long>(value));
  }

  // ---- Overhead gate: instrumentation on (sampling off) vs suppressed. ----
  // The contract: with tracing compiled in and sampling disabled — the
  // production default — batched QPS must be within 1% of a run where the
  // metrics kill switch additionally suppresses every counter add. Pairs are
  // interleaved and the best of each side is compared, so slow-machine noise
  // hits both sides alike.
  // The gate compares PAIRED runs and takes the most favorable pair: on a
  // shared/1-core runner single-run QPS swings several percent, so comparing
  // independent maxima flags noise as regression. A pair runs back-to-back
  // (alternating order to cancel drift), and a true >1% overhead would have
  // to be hidden by same-direction noise in all kGatePairs pairs to slip by.
  const int kGatePairs = 5;
  const int kGateReps = smoke ? 10 : 3;  // stretch each run well past clock noise
  double qps_instrumented = 0.0, qps_suppressed = 0.0, best_ratio = 0.0;
  for (int i = 0; i < kGatePairs; ++i) {
    double on_qps, off_qps;
    if (i % 2 == 0) {
      obs::SetMetricsEnabled(true);
      on_qps = RunLoad(&predictor, w, batched, 0, kGateReps).qps;
      obs::SetMetricsEnabled(false);
      off_qps = RunLoad(&predictor, w, batched, 0, kGateReps).qps;
    } else {
      obs::SetMetricsEnabled(false);
      off_qps = RunLoad(&predictor, w, batched, 0, kGateReps).qps;
      obs::SetMetricsEnabled(true);
      on_qps = RunLoad(&predictor, w, batched, 0, kGateReps).qps;
    }
    qps_instrumented = std::max(qps_instrumented, on_qps);
    qps_suppressed = std::max(qps_suppressed, off_qps);
    if (off_qps > 0.0) {
      best_ratio = std::max(best_ratio, on_qps / off_qps);
    }
  }
  obs::SetMetricsEnabled(true);
  collector.SetSampleEvery(saved_rate);
  const double overhead = 1.0 - best_ratio;
  const bool gate_ok = best_ratio >= 0.99;
  std::printf("\nObservability overhead (best of %d interleaved pairs): "
              "instrumented %.0f QPS vs suppressed %.0f QPS, best pair ratio %.4f "
              "-> %.2f%% overhead [%s]\n",
              kGatePairs, qps_instrumented, qps_suppressed, best_ratio, 100.0 * overhead,
              gate_ok ? "PASS" : "FAIL: exceeds the 1% budget");

  // Machine-readable trajectory record, uploaded by CI next to
  // BENCH_gemm.json. `precision`/`kernel_isa` come from the batched run's
  // snapshot: the code paths that actually served the headline.
  const char* json_path = "BENCH_serve.json";
  if (FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"serve_throughput\",\n  \"smoke\": %s,\n"
                 "  \"kernel_isa\": \"%s\",\n  \"precision\": \"%s\",\n"
                 "  \"requests\": %zu,\n  \"unique_schedules\": %zu,\n"
                 "  \"headline\": {\n"
                 "    \"qps_single\": %.2f,\n    \"qps_batched\": %.2f,\n"
                 "    \"batched_speedup\": %.4f,\n"
                 "    \"p50_ms_single\": %.4f,\n    \"p99_ms_single\": %.4f,\n"
                 "    \"p50_ms_batched\": %.4f,\n    \"p99_ms_batched\": %.4f,\n"
                 "    \"occupancy_batched\": %.2f\n  },\n",
                 smoke ? "true" : "false", r_batched.stats.kernel_isa.c_str(),
                 r_batched.stats.precision.c_str(), w.requests.size(), w.asts.size(),
                 r_single.qps, r_batched.qps, r_batched.qps / r_single.qps,
                 r_single.stats.p50_latency_ms, r_single.stats.p99_latency_ms,
                 r_batched.stats.p50_latency_ms, r_batched.stats.p99_latency_ms,
                 r_batched.stats.mean_batch_occupancy);
    std::fprintf(f, "  \"sweep\": [\n");
    for (size_t i = 0; i < sweep_records.size(); ++i) {
      const SweepRecord& rec = sweep_records[i];
      std::fprintf(f,
                   "    {\"workers\": %d, \"window_ms\": %.1f, \"qps\": %.2f, "
                   "\"hit_rate\": %.4f, \"occupancy\": %.2f, "
                   "\"p50_ms\": %.4f, \"p99_ms\": %.4f}%s\n",
                   rec.workers, rec.window_ms, rec.result.qps,
                   rec.result.stats.cache_hit_rate, rec.result.stats.mean_batch_occupancy,
                   rec.result.stats.p50_latency_ms, rec.result.stats.p99_latency_ms,
                   i + 1 < sweep_records.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"num_threads_default\": %d,\n  \"threads_series\": [\n",
                 default_threads);
    for (size_t i = 0; i < threads_records.size(); ++i) {
      const ThreadsRecord& rec = threads_records[i];
      std::fprintf(f,
                   "    {\"threads\": %d, \"qps_batched\": %.2f, "
                   "\"p50_ms\": %.4f, \"p99_ms\": %.4f}%s\n",
                   rec.threads, rec.result.qps, rec.result.stats.p50_latency_ms,
                   rec.result.stats.p99_latency_ms,
                   i + 1 < threads_records.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"concurrency_matrix\": [\n");
    for (size_t i = 0; i < matrix_records.size(); ++i) {
      const MatrixRecord& rec = matrix_records[i];
      std::fprintf(f,
                   "    {\"workers\": %d, \"threads\": %d, \"qps_batched\": %.2f, "
                   "\"p50_ms\": %.4f, \"p99_ms\": %.4f}%s\n",
                   rec.workers, rec.threads, rec.result.qps,
                   rec.result.stats.p50_latency_ms, rec.result.stats.p99_latency_ms,
                   i + 1 < matrix_records.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"concurrency_gate\": {\n"
                 "    \"qps_w2_t1\": %.2f,\n    \"qps_w2_t2\": %.2f,\n"
                 "    \"best_pair_ratio\": %.4f,\n    \"hardware_threads\": %u,\n"
                 "    \"serial_contended_delta\": %llu,\n    \"steals_delta\": %llu,\n"
                 "    \"regions_concurrent_peak\": %llu,\n"
                 "    \"qps_gate\": \"%s\",\n    \"contended_gate\": \"%s\"\n  },\n",
                 qps_w2_t1, qps_w2_t2, best_conc_ratio, hw_threads,
                 static_cast<unsigned long long>(conc_serial_contended),
                 static_cast<unsigned long long>(conc_steals),
                 static_cast<unsigned long long>(regions_peak),
                 !conc_gate_applicable ? "skip" : (conc_qps_gate_ok ? "pass" : "fail"),
                 conc_contended_ok ? "pass" : "fail");
    // Precision A/B series and the int8-vs-fp32 batched-QPS gate record.
    std::fprintf(f, "  \"precision_series\": [\n");
    for (size_t i = 0; i < precision_records.size(); ++i) {
      const PrecisionRecord& rec = precision_records[i];
      std::fprintf(f,
                   "    {\"precision\": \"%s\", \"qps_batched\": %.2f, "
                   "\"int8_flop_fraction\": %.4f, \"p50_ms\": %.4f, \"p99_ms\": %.4f}%s\n",
                   rec.name, rec.result.qps, rec.int8_flop_fraction,
                   rec.result.stats.p50_latency_ms, rec.result.stats.p99_latency_ms,
                   i + 1 < precision_records.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"int8_flop_fraction\": %.4f,\n"
                 "  \"int8_vs_fp32\": {\n"
                 "    \"qps_fp32\": %.2f,\n    \"qps_int8\": %.2f,\n"
                 "    \"best_pair_ratio\": %.4f,\n    \"avx2\": %s,\n"
                 "    \"qps_gate\": \"%s\",\n    \"flop_fraction_gate\": \"%s\"\n  },\n",
                 int8_flop_fraction, qps_fp32_gate, qps_int8_gate, best_int8_ratio,
                 has_avx2 ? "true" : "false",
                 !has_avx2 ? "skip" : (int8_qps_gate_ok ? "pass" : "fail"),
                 int8_fraction_gate_ok ? "pass" : "fail");
    // Per-stage breakdown of the traced batched run (exclusive time, so the
    // shares sum to <= 1 with the remainder being unattributed gaps).
    std::fprintf(f, "  \"stages\": {\n");
    bool first_stage = true;
    for (int s = 0; s < obs::kNumStages; ++s) {
      const double total = tstats.stage_ms[static_cast<size_t>(s)];
      if (total <= 0.0) {
        continue;
      }
      std::fprintf(f, "%s    \"%s\": {\"total_ms\": %.3f, \"mean_ms\": %.5f, \"share\": %.4f}",
                   first_stage ? "" : ",\n", obs::StageName(static_cast<obs::Stage>(s)), total,
                   tstats.traces > 0 ? total / static_cast<double>(tstats.traces) : 0.0,
                   tstats.total_ms > 0.0 ? total / tstats.total_ms : 0.0);
      first_stage = false;
    }
    std::fprintf(f, "\n  },\n  \"traced_requests\": %llu,\n  \"attributed_fraction\": %.4f,\n",
                 static_cast<unsigned long long>(tstats.traces), tstats.AttributedFraction());
    std::fprintf(f, "  \"qps_traced_1in4\": %.2f,\n", r_traced.qps);
    std::fprintf(f, "  \"counters\": {\n");
    bool first_counter = true;
    for (const auto& [name, value] : counter_delta) {
      std::fprintf(f, "%s    \"%s\": %llu", first_counter ? "" : ",\n", name.c_str(),
                   static_cast<unsigned long long>(value));
      first_counter = false;
    }
    std::fprintf(f,
                 "\n  },\n  \"trace_overhead\": {\n"
                 "    \"qps_instrumented\": %.2f,\n    \"qps_suppressed\": %.2f,\n"
                 "    \"overhead_fraction\": %.4f,\n    \"gate\": \"%s\"\n  }\n}\n",
                 qps_instrumented, qps_suppressed, overhead, gate_ok ? "pass" : "fail");
    std::fclose(f);
    std::printf("Wrote %s\n", json_path);
  } else {
    std::fprintf(stderr, "warning: could not write %s\n", json_path);
  }

  // Full observability snapshot (cumulative registry + trace aggregates), the
  // artifact CI uploads on every matrix leg.
  const char* metrics_path = "METRICS_serve.json";
  if (FILE* f = std::fopen(metrics_path, "w")) {
    std::fprintf(f, "{\n\"metrics\": %s,\n\"traces\": %s\n}\n",
                 obs::MetricsRegistry::Global().DumpJson().c_str(),
                 collector.DumpJson().c_str());
    std::fclose(f);
    std::printf("Wrote %s\n", metrics_path);
  } else {
    std::fprintf(stderr, "warning: could not write %s\n", metrics_path);
  }

  int rc = 0;
  if (!gate_ok) {
    std::fprintf(stderr,
                 "FAIL: observability overhead %.2f%% exceeds the 1%% budget "
                 "(instrumented %.0f QPS < 0.99 * suppressed %.0f QPS)\n",
                 100.0 * overhead, qps_instrumented, qps_suppressed);
    rc = 1;
  }
  if (!has_avx2) {
    std::fprintf(stderr,
                 "SKIP: int8>=fp32 batched-QPS gate (no AVX2; best pair ratio measured "
                 "%.3fx)\n",
                 best_int8_ratio);
  } else if (!int8_qps_gate_ok) {
    std::fprintf(stderr,
                 "FAIL: int8 batched QPS below fp32 in every interleaved pair "
                 "(best ratio %.3fx < 1.0x)\n",
                 best_int8_ratio);
    rc = 1;
  }
  if (!int8_fraction_gate_ok) {
    std::fprintf(stderr,
                 "FAIL: int8 tier served only %.1f%% of GEMM FLOPs in CDMPP_PRECISION=int8 "
                 "mode (need a majority)\n",
                 100.0 * int8_flop_fraction);
    rc = 1;
  }
  if (!conc_gate_applicable) {
    std::fprintf(stderr,
                 "SKIP: concurrency 1.2x QPS gate (%u hardware threads < 4; best pair "
                 "ratio measured %.3fx)\n",
                 hw_threads, best_conc_ratio);
  } else if (!conc_qps_gate_ok) {
    std::fprintf(stderr,
                 "FAIL: 2 workers x 2 threads did not reach 1.2x the QPS of 2 workers x "
                 "1 thread (best pair ratio %.3fx)\n",
                 best_conc_ratio);
    rc = 1;
  }
  if (!conc_contended_ok) {
    std::fprintf(stderr,
                 "FAIL: parallel_for.serial_contended moved by %llu during the concurrency "
                 "matrix — contended top-level regions must fork, not serialize\n",
                 static_cast<unsigned long long>(conc_serial_contended));
    rc = 1;
  }
  return rc;
}
