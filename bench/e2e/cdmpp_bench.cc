// cdmpp_bench: the end-to-end benchmark driver (see bench/e2e/README.md).
//
//   cdmpp_bench --workload <serve-unique|serve-zipf|tune-evo|train> --seed <n>
//               --seconds <s> [--trace] [--quick] --out <result.json>
//
// A traced run writes its spans to trace_<workload>.json next to the result.
//
// One process runs one workload against the library exactly as a user links
// it: default ServeOptions (tune-evo sets batch_window_ms = 0, as
// cost_model_client.h prescribes for population scoring), the default thread
// pool, and the process-default precision. The seed drives everything the
// bench generates (arrivals, program sampling, Zipf and device draws, search
// seeds, the training split); the library only sees the generated inputs.
//
// Without --trace the result holds the end-to-end metrics. --trace runs the
// same workload and seed with bench-side spans (written as Chrome trace_event
// JSON), the library's sampled stage aggregates (1-in-16), and layer probes
// timed from outside through public functions; per-layer numbers come only
// from this run. Exit status is 1 when any operation failed or any output
// check did not hold.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "load.h"
#include "spans.h"
#include "src/core/predictor.h"
#include "src/dataset/dataset.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/search/cost_model_client.h"
#include "src/search/schedule_search.h"
#include "src/serve/prediction_service.h"
#include "src/support/cpu_features.h"
#include "src/support/json_writer.h"
#include "src/support/parallel_for.h"
#include "src/support/stats.h"
#include "src/tir/schedule.h"

using namespace cdmpp;
using cdmpp_bench::Clock;
using cdmpp_bench::LoadDriver;
using cdmpp_bench::PhaseStats;
using cdmpp_bench::RequestKey;
using cdmpp_bench::ScopedBenchSpan;
using cdmpp_bench::ServedSample;
using cdmpp_bench::SpanLog;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool quick = false;  // small inputs and one set-up, same code paths (smoke test)
  std::string out;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

struct Check {
  std::string name;
  uint64_t checked = 0;
  uint64_t mismatched = 0;
};

struct Report {
  MetricMap end_to_end;
  MetricMap per_layer;  // traced runs only
  MetricMap extra;      // workload-specific layer numbers outside the declared set
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Check> checks;
  std::vector<PhaseStats> phases;
  // The reported fixed-rate phase was disturbed by the host (see
  // kMaxLateP99Ms) on every attempt: its latencies are not comparable.
  bool disturbed = false;
};

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(const std::vector<double>& xs) { return Percentile(xs, 50.0); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

// Programs (and forward rows) each layer probe runs on.
constexpr size_t kProbeRows = 2048;

// p99 and the saturation rate are taken per window of this length and
// reduced with the median over windows (load.cc): a host stall of a few ms
// (four busy threads on a 4-vCPU host see one every second or two) spikes the
// windows it lands in, and short windows keep those under half. At 10k rps a
// window holds ~2,500 requests, 25 of them beyond its p99.
constexpr double kWindowSeconds = 0.25;
int Windows(double seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds / kWindowSeconds)));
}

// Fixed open-loop rates, ~15% (serve-unique) and ~7% (serve-zipf) of the
// saturation rate on a 4-vCPU host. Over 10 seeds, the p99 spread was 3.7% at
// 20k rps on serve-zipf and 12.5% at 40k; lower load also keeps the open loop
// clear of backlog when the host slows down.
constexpr double kUniqueRps = 10000.0;
constexpr double kZipfRps = 20000.0;

// An undisturbed fixed-rate phase sends at most ~0.05 ms late at p99 on a
// 4-vCPU host; a phase whose generator was later than this lost its thread to
// the host, and is run again, up to kFixedRateAttempts times in all.
constexpr double kMaxLateP99Ms = 0.5;
constexpr int kFixedRateAttempts = 3;

// Saturation keeps this many requests outstanding: four full batches of the
// default max_batch_size (64), so both workers always find a full batch.
constexpr int kSaturationInFlight = 256;

// tune-evo searches this many tasks per second of --seconds (one search of
// 64 x 20 candidates took ~20 ms on a 4-vCPU host).
constexpr double kTuneTasksPerSecond = 35.0;

// train's per-call latency comes from this many one-epoch Pretrain calls on
// 1/kCallDataShare of the training and validation splits (~0.27 s each on a
// 4-vCPU host). Host slow spells last seconds: of three full-epoch calls, one
// ran 10-16% slower than the others in 3 of 10 runs, so their slowest moved
// by 22% between runs. Many short calls see such a spell in most runs.
constexpr int kOneEpochCalls = 24;
constexpr size_t kCallDataShare = 8;

// Set-up is repeated `reps` times so setup_s is a median, not one sample;
// the last repetition's state is the one the workload then uses. With 3
// repetitions, train's median still moved between 0.14 and 0.23 s.
int SetupReps(const Args& args) { return args.quick ? 1 : 5; }

// ---- Inputs ----------------------------------------------------------------

// The model zoo's deduplicated tasks (1,031 with every network), with one
// program each; only the task list is used.
Dataset ZooTasks() {
  DatasetOptions opts;
  opts.device_ids = {0};
  opts.schedules_per_task = 1;
  opts.seed = 5;
  return BuildDataset(opts);
}

struct ProgramSet {
  std::vector<CompactAst> asts;
  // (task, schedule) of the first programs, for the extraction probe.
  std::vector<std::pair<const Task*, ScheduleDesc>> sources;
};

// `n` programs sampled uniformly over the zoo's tasks, distinct by AST hash.
ProgramSet SampleDistinctPrograms(const Dataset& zoo, size_t n, Rng* rng) {
  ProgramSet set;
  set.asts.reserve(n);
  std::unordered_set<uint64_t> seen;
  for (size_t attempts = 0; set.asts.size() < n && attempts < 8 * n; ++attempts) {
    const TaskInfo& info = rng->Choice(zoo.tasks);
    ScheduleDesc sched = SampleSchedule(info.task, rng);
    CompactAst ast = ExtractCompactAst(GenerateProgram(info.task, sched));
    if (!seen.insert(ast.Hash()).second) {
      continue;
    }
    if (set.sources.size() < kProbeRows) {
      set.sources.emplace_back(&info.task, std::move(sched));
    }
    set.asts.push_back(std::move(ast));
  }
  return set;
}

// ---- The served model (serve-* and tune-evo) --------------------------------

// The serve-bench recipe: a T4 slice of 10 networks, 3 schedules per task
// (dataset seed 21), pre-trained 6 epochs (seed 22). Fixed across bench seeds:
// only the traffic varies with --seed.
struct ServedModel {
  Dataset ds;
  SplitIndices split;
  std::unique_ptr<CdmppPredictor> predictor;
  double valid_mape = 0.0;
  double dataset_build_s = 0.0;
};

ServedModel BuildServedModel() {
  ServedModel m;
  DatasetOptions dopts;
  dopts.device_ids = {0};
  dopts.schedules_per_task = 3;
  dopts.max_networks = 10;
  dopts.seed = 21;
  const Clock::time_point t0 = Clock::now();
  m.ds = BuildDataset(dopts);
  m.dataset_build_s = SecondsBetween(t0, Clock::now());
  PredictorConfig cfg;
  cfg.epochs = 6;
  cfg.seed = 22;
  m.predictor = std::make_unique<CdmppPredictor>(cfg);
  Rng split_rng(23);
  m.split = SplitDataset(m.ds, {0}, {}, &split_rng);
  m.valid_mape = m.predictor->Pretrain(m.ds, m.split.train, m.split.valid).final_valid.mape;
  return m;
}

// Service start-up traffic: the served dataset's first programs, so worker
// arenas are grown before the measured phases (keys outside the workload).
void WarmService(PredictionService* service, const Dataset& ds) {
  std::vector<std::future<double>> futures;
  for (size_t i = 0; i < ds.programs.size() && i < 64; ++i) {
    futures.push_back(service->Submit(ds.programs[i].ast, 0));
  }
  for (auto& f : futures) {
    f.get();
  }
}

struct ServedSetup {
  ServedModel model;
  std::unique_ptr<PredictionService> service;
  double setup_s = 0.0;
  double dataset_build_s = 0.0;
};

// Model build + pre-train, heads for every leaf count the workload will send,
// service start and warm-up; repeated, reporting medians.
void SetUpServed(const Args& args, const std::set<int>& leaf_counts, const ServeOptions& opts,
                 SpanLog* spans, ServedSetup* out) {
  std::vector<double> setup_s, build_s;
  for (int rep = 0; rep < SetupReps(args); ++rep) {
    // Release the previous repetition (service before its model) first.
    out->service.reset();
    out->model = ServedModel();
    const Clock::time_point t0 = Clock::now();
    out->model = BuildServedModel();
    for (int leaves : leaf_counts) {
      out->model.predictor->EnsureHead(leaves);
    }
    out->service = std::make_unique<PredictionService>(out->model.predictor.get(), opts);
    WarmService(out->service.get(), out->model.ds);
    const Clock::time_point t1 = Clock::now();
    spans->Add("setup", nullptr, spans->NewId(), t0, t1);
    setup_s.push_back(SecondsBetween(t0, t1));
    build_s.push_back(out->model.dataset_build_s);
  }
  out->setup_s = Median(setup_s);
  out->dataset_build_s = Median(build_s);
}

// ---- Correctness -------------------------------------------------------------

// One size-1 forward in the process-default precision: the reference a
// served value must equal bit for bit (batched forwards are bitwise
// batch-size-invariant within a precision tier).
double DirectForward(const CdmppPredictor& model, const CompactAst& ast, int device_id) {
  AstBatchView view;
  view.asts = {&ast};
  view.device_ids = {device_id};
  const Precision precision = DefaultPrecision();
  return precision == Precision::kFp32 ? model.PredictBatched(view)[0]
                                       : model.PredictBatchedQuantized(view, nullptr, precision)[0];
}

Check CheckServedValues(const CdmppPredictor& model, const std::vector<ServedSample>& samples) {
  Check check{"served_value_equals_direct_forward"};
  for (const ServedSample& s : samples) {
    ++check.checked;
    if (!SameBits(s.value, DirectForward(model, *s.key.ast, s.key.device_id))) {
      ++check.mismatched;
    }
  }
  return check;
}

// ---- Per-layer numbers ---------------------------------------------------------

void Put(MetricMap* m, const std::string& name, double value, const char* unit) {
  (*m)[name] = Metric{value, unit};
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Serve-layer numbers from a ServerStats interval (an empty snapshot where the
// workload runs no service: train).
void PutServeStats(const ServerStatsSnapshot& s, MetricMap* m) {
  Put(m, "serve.cache_hit_rate", s.cache_hit_rate, "fraction");
  Put(m, "serve.coalesced_rate", Ratio(static_cast<double>(s.coalesced),
                                       static_cast<double>(s.requests)), "fraction");
  Put(m, "serve.batch_occupancy", s.mean_batch_occupancy, "rows");
}

// Shares of traced request latency in the serve-layer stages, from the
// library's sampled stage aggregates.
void PutServeStages(const obs::TraceCollector::Stats& t, MetricMap* m) {
  const std::pair<const char*, obs::Stage> stages[] = {
      {"serve.stage.queue_wait_share", obs::Stage::kQueueWait},
      {"serve.stage.batch_formation_share", obs::Stage::kBatchFormation},
      {"serve.stage.cache_lookup_share", obs::Stage::kCacheLookup},
      {"serve.stage.finalize_share", obs::Stage::kFinalize}};
  for (const auto& [name, stage] : stages) {
    Put(m, name, Ratio(t.stage_ms[static_cast<size_t>(stage)], t.total_ms), "fraction");
  }
}

void PutSearchStats(double score_share, double dedup_rate, MetricMap* m) {
  Put(m, "search.score_share", score_share, "fraction");
  Put(m, "search.dedup_rate", dedup_rate, "fraction");
}

// Data-plane scheduler and arena counters over the measured part, per op.
void PutCounters(const std::map<std::string, uint64_t>& before,
                 const std::map<std::string, uint64_t>& after, double ops, MetricMap* m) {
  auto delta = [&](const std::string& name) {
    const auto a = after.find(name);
    const auto b = before.find(name);
    const uint64_t va = a == after.end() ? 0 : a->second;
    const uint64_t vb = b == before.end() ? 0 : b->second;
    return static_cast<double>(va >= vb ? va - vb : 0);
  };
  for (const char* name : {"parallel_for.forked", "parallel_for.steals",
                           "parallel_for.serial_nested", "parallel_for.serial_contended",
                           "workspace_pool.checkouts"}) {
    Put(m, name, Ratio(delta(name), ops), "1/op");
  }
  Put(m, "workspace_pool.growths", delta("workspace_pool.growths"), "count");
}

uint64_t GemmFlops() {
  uint64_t total = 0;
  for (const auto& [name, value] : obs::MetricsRegistry::Global().CounterValues()) {
    if (name.rfind("gemm.flops.", 0) == 0) {
      total += value;
    }
  }
  return total;
}

struct ProbeInputs {
  std::vector<const CompactAst*> asts;
  std::vector<int> devices;
  std::vector<std::pair<const Task*, const ScheduleDesc*>> programs;
};

// Median over `passes` runs of fn(), in seconds.
template <typename Fn>
double MedianPassSeconds(int passes, Fn&& fn) {
  std::vector<double> times;
  for (int p = 0; p < passes; ++p) {
    const Clock::time_point t0 = Clock::now();
    fn();
    times.push_back(SecondsBetween(t0, Clock::now()));
  }
  return Median(times);
}

// Forward-pass cost per row at batch sizes 1, 8 and 64 on the workload's own
// programs, each batch a single forward pass (one leaf count per batch); the
// model's stage spans, bound to this thread, split the b64 forward into
// stages; the GEMM flop counters give work per row and the achieved rate.
void ProbeForward(const CdmppPredictor& model, const ProbeInputs& in, SpanLog* spans,
                  MetricMap* m) {
  std::map<int, std::vector<size_t>> by_leaves;
  for (size_t i = 0; i < in.asts.size(); ++i) {
    by_leaves[in.asts[i]->num_leaves].push_back(i);
  }
  const Precision precision = DefaultPrecision();
  Workspace ws;
  std::vector<double> out(64);
  auto forward = [&](const AstBatchView& view) {
    if (precision == Precision::kFp32) {
      model.PredictBatched(view, &ws, out.data());
    } else {
      model.PredictBatchedQuantized(view, &ws, out.data(), nullptr, precision);
    }
  };
  for (int b : {1, 8, 64}) {
    std::vector<AstBatchView> batches;
    for (const auto& [leaves, rows] : by_leaves) {
      for (size_t k = 0; k + static_cast<size_t>(b) <= rows.size(); k += static_cast<size_t>(b)) {
        AstBatchView view;
        for (size_t j = k; j < k + static_cast<size_t>(b); ++j) {
          view.asts.push_back(in.asts[rows[j]]);
          view.device_ids.push_back(in.devices[rows[j]]);
        }
        batches.push_back(std::move(view));
      }
    }
    const double rows = static_cast<double>(batches.size()) * b;
    const std::string suffix = ".b" + std::to_string(b);
    auto pass = [&] {
      for (const AstBatchView& view : batches) {
        forward(view);
      }
    };
    pass();  // warm the arena
    const uint64_t id = spans->NewId();
    ScopedBenchSpan span(spans, b == 1 ? "probe.forward.b1" : b == 8 ? "probe.forward.b8"
                                                                     : "probe.forward.b64",
                         nullptr, id);
    const uint64_t flops_before = GemmFlops();
    pass();
    const double flops_per_row = Ratio(static_cast<double>(GemmFlops() - flops_before), rows);
    const double seconds = MedianPassSeconds(5, pass);
    Put(m, "core.forward_us_per_row" + suffix, Ratio(seconds * 1e6, rows), "us");
    if (b != 64) {
      continue;
    }
    Put(m, "nn.gemm_flops_per_row", flops_per_row, "flop");
    Put(m, "nn.gemm_gflops.b64", Ratio(flops_per_row * rows, seconds) / 1e9, "GFLOP/s");
    obs::Trace trace;
    {
      obs::ScopedTraceBinding bind(&trace);
      pass();
    }
    std::map<obs::Stage, double> exclusive_ms;
    for (const obs::SpanRecord& s : trace.spans()) {
      exclusive_ms[s.stage] += s.exclusive_ms;
    }
    for (obs::Stage stage : {obs::Stage::kFeaturize, obs::Stage::kEncoder, obs::Stage::kAttention,
                             obs::Stage::kLayerNorm, obs::Stage::kHeads, obs::Stage::kDeviceMlp,
                             obs::Stage::kDecoder, obs::Stage::kDequant}) {
      Put(m, std::string("core.stage.") + obs::StageName(stage) + "_us",
          Ratio(exclusive_ms[stage] * 1e3, rows), "us");
    }
  }
}

// GenerateProgram + ExtractCompactAst per program, on the workload's inputs.
void ProbeExtract(const ProbeInputs& in, SpanLog* spans, MetricMap* m) {
  ScopedBenchSpan span(spans, "probe.extract", nullptr, spans->NewId());
  const double seconds = MedianPassSeconds(5, [&] {
    for (const auto& [task, sched] : in.programs) {
      ExtractCompactAst(GenerateProgram(*task, *sched));
    }
  });
  Put(m, "ast.extract_us", Ratio(seconds * 1e6, static_cast<double>(in.programs.size())), "us");
}

// Evaluate() (the validation pass training runs every epoch) on a test split.
void ProbeEvaluate(CdmppPredictor* model, const Dataset& ds, const std::vector<int>& test,
                   SpanLog* spans, MetricMap* m) {
  ScopedBenchSpan span(spans, "evaluate", nullptr, spans->NewId());
  int passes = 0;
  const Clock::time_point t0 = Clock::now();
  do {
    model->Evaluate(ds, test);
    ++passes;
  } while (SecondsBetween(t0, Clock::now()) < 0.25);
  Put(m, "core.evaluate_samples_per_s",
      Ratio(static_cast<double>(test.size()) * passes, SecondsBetween(t0, Clock::now())), "1/s");
}

void RunLayerProbes(CdmppPredictor* model, const ProbeInputs& in, const Dataset& eval_ds,
                    const std::vector<int>& eval_idx, SpanLog* spans, MetricMap* m) {
  ProbeForward(*model, in, spans, m);
  ProbeExtract(in, spans, m);
  ProbeEvaluate(model, eval_ds, eval_idx, spans, m);
}

// ---- Workloads -------------------------------------------------------------------

// serve-unique / serve-zipf: open-loop traffic from one bench thread.
void RunServe(const Args& args, bool zipf, SpanLog* spans, Report* rep) {
  Rng root(args.seed);
  Rng program_rng = root.Fork();
  Rng key_rng = root.Fork();
  const uint64_t arrival_seed = root.engine()();

  const Dataset zoo = ZooTasks();
  const ProgramSet programs = SampleDistinctPrograms(zoo, args.quick ? 4096 : 100000, &program_rng);
  const size_t num_programs = programs.asts.size();
  const int num_devices = static_cast<int>(DeviceRegistry().size());
  std::set<int> leaf_counts;
  for (const CompactAst& ast : programs.asts) {
    leaf_counts.insert(ast.num_leaves);
  }

  // serve-unique cycles a shuffled program order, so a key recurs only after
  // every other program (more than the cache's 65,536 entries); the device is
  // uniform. serve-zipf draws Zipf(0.99) ranks over every (program, device)
  // key, mapped to keys through a seeded permutation.
  std::vector<uint32_t> order(num_programs);
  for (size_t i = 0; i < num_programs; ++i) {
    order[i] = static_cast<uint32_t>(i);
  }
  key_rng.Shuffle(&order);
  std::vector<uint32_t> zipf_keys;
  std::vector<double> zipf_cdf;
  if (zipf) {
    const size_t num_keys = num_programs * static_cast<size_t>(num_devices);
    zipf_keys.resize(num_keys);
    zipf_cdf.resize(num_keys);
    double total = 0.0;
    for (size_t r = 0; r < num_keys; ++r) {
      zipf_keys[r] = static_cast<uint32_t>(r);
      total += 1.0 / std::pow(static_cast<double>(r + 1), 0.99);
      zipf_cdf[r] = total;
    }
    key_rng.Shuffle(&zipf_keys);
  }
  size_t cursor = 0;
  std::uniform_int_distribution<int> device_dist(0, num_devices - 1);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  auto next_key = [&]() -> RequestKey {
    if (zipf) {
      const double u = unit(key_rng.engine()) * zipf_cdf.back();
      const size_t rank = std::min(
          zipf_cdf.size() - 1,
          static_cast<size_t>(std::upper_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
                              zipf_cdf.begin()));
      const uint32_t key = zipf_keys[rank];
      return RequestKey{&programs.asts[key / static_cast<uint32_t>(num_devices)],
                        static_cast<int>(key % static_cast<uint32_t>(num_devices))};
    }
    const uint32_t p = order[cursor++ % num_programs];
    return RequestKey{&programs.asts[p], device_dist(key_rng.engine())};
  };

  ServedSetup setup;
  SetUpServed(args, leaf_counts, ServeOptions(), spans, &setup);
  PredictionService* service = setup.service.get();

  // Phases, as shares of --seconds: warm-up (fills the LRU on serve-zipf),
  // the fixed-rate phase latency is read from, then saturation for capacity.
  const double rate = zipf ? kZipfRps : kUniqueRps;
  const double s = args.seconds;
  LoadDriver driver(service, next_key, arrival_seed, spans);
  obs::TraceCollector& collector = obs::TraceCollector::Global();
  {
    ScopedBenchSpan span(spans, "phase.warmup", nullptr, spans->NewId());
    rep->phases.push_back(driver.RunOpenLoop("warmup", rate, 0.10 * s, 1, false));
  }
  const auto counters_before = obs::MetricsRegistry::Global().CounterValues();
  ServerStatsSnapshot fixed_stats;
  obs::TraceCollector::Stats stage_stats;
  for (int attempt = 1;; ++attempt) {
    const ServerStatsSnapshot stats_before = service->Stats();
    collector.Reset();
    {
      ScopedBenchSpan span(spans, "phase.fixed_rate", nullptr, spans->NewId());
      const double fixed_s = 0.55 * s;
      rep->phases.push_back(
          driver.RunOpenLoop("fixed_rate", rate, fixed_s, Windows(fixed_s), args.trace));
    }
    fixed_stats = service->Stats().Delta(stats_before);
    stage_stats = collector.GetStats();
    const double late_ms = rep->phases.back().late_p99_ms;
    rep->disturbed = late_ms > kMaxLateP99Ms;
    if (!rep->disturbed || attempt == kFixedRateAttempts) {
      break;
    }
    std::fprintf(stderr, "fixed-rate phase disturbed (generator late %.3f ms at p99), again\n",
                 late_ms);
  }
  const size_t fixed_index = rep->phases.size() - 1;
  {
    ScopedBenchSpan span(spans, "phase.saturation", nullptr, spans->NewId());
    const double saturation_s = 0.35 * s;
    rep->phases.push_back(driver.RunSaturation("saturation", saturation_s,
                                               Windows(saturation_s), kSaturationInFlight));
  }
  const auto counters_after = obs::MetricsRegistry::Global().CounterValues();
  service->Shutdown();

  const PhaseStats& fixed = rep->phases[fixed_index];
  const PhaseStats& saturation = rep->phases.back();
  for (const PhaseStats& phase : rep->phases) {
    rep->attempted += phase.attempted;
    rep->failed += phase.failed;
  }
  const uint64_t measured_ops = rep->attempted - rep->phases.front().attempted;
  rep->checks.push_back(CheckServedValues(*setup.model.predictor, driver.samples()));

  Put(&rep->end_to_end, "setup_s", setup.setup_s, "s");
  Put(&rep->end_to_end, "p50_ms", fixed.p50_ms, "ms");
  Put(&rep->end_to_end, "p99_ms", fixed.p99_ms, "ms");
  Put(&rep->end_to_end, "ops_per_s", saturation.completed_per_s, "1/s");
  if (!args.trace) {
    return;
  }
  MetricMap* m = &rep->per_layer;
  PutServeStats(fixed_stats, m);
  PutServeStages(stage_stats, m);
  PutSearchStats(0.0, 0.0, m);
  PutCounters(counters_before, counters_after, static_cast<double>(measured_ops), m);
  Put(m, "dataset.build_s", setup.dataset_build_s, "s");
  Put(m, "core.valid_mape", setup.model.valid_mape, "fraction");
  const std::vector<double> submit_pct = Percentiles(fixed.submit_us, {50.0, 99.0});
  Put(&rep->extra, "serve.submit_us.p50", submit_pct[0], "us");
  Put(&rep->extra, "serve.submit_us.p99", submit_pct[1], "us");

  ProbeInputs in;
  std::mt19937_64 probe_rng(args.seed);
  for (size_t i = 0; i < num_programs && i < kProbeRows; ++i) {
    in.asts.push_back(&programs.asts[i]);
    in.devices.push_back(device_dist(probe_rng));
  }
  for (const auto& [task, sched] : programs.sources) {
    in.programs.emplace_back(task, &sched);
  }
  RunLayerProbes(setup.model.predictor.get(), in, setup.model.ds, setup.model.split.test, spans,
                 m);
}

// Wraps the serving client and times each ScoreBatch from outside.
class TimedClient : public CostModelClient {
 public:
  TimedClient(PredictionService* service, SpanLog* spans) : inner_(service), spans_(spans) {}

  const CostClientStats& inner_stats() const { return inner_.stats(); }
  const std::vector<double>& latencies_ms() const { return latencies_ms_; }
  void set_task_id(uint64_t id) { task_id_ = id; }

 protected:
  void ScoreBatchImpl(const std::vector<CostQuery>& queries,
                      std::vector<double>* scores) override {
    const Clock::time_point t0 = Clock::now();
    inner_.ScoreBatch(queries, scores);
    const Clock::time_point t1 = Clock::now();
    latencies_ms_.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
    spans_->Add("score_batch", "task", task_id_, t0, t1);
  }

 private:
  ServeCostModel inner_;
  SpanLog* spans_;
  uint64_t task_id_ = 0;
  std::vector<double> latencies_ms_;
};

bool SameCurve(const SearchCurve& a, const SearchCurve& b) {
  if (a.best_after_round.size() != b.best_after_round.size()) {
    return false;
  }
  for (size_t i = 0; i < a.best_after_round.size(); ++i) {
    if (!SameBits(a.best_after_round[i], b.best_after_round[i])) {
      return false;
    }
  }
  return SameBits(a.final_best, b.final_best) && a.best_ast_hash == b.best_ast_hash &&
         a.total_measurements == b.total_measurements &&
         a.total_candidates == b.total_candidates;
}

// tune-evo: the paper's §7.5 client, a closed loop of evolutionary searches
// over zoo tasks, scored through one long-lived service.
void RunTune(const Args& args, SpanLog* spans, Report* rep) {
  Rng root(args.seed);
  Rng task_rng = root.Fork();
  Rng probe_rng = root.Fork();
  const Dataset zoo = ZooTasks();
  // A fixed, evenly spaced subset of the tasks, the same for every seed: the
  // cost per candidate differs between tasks, and a loop over a seed-shuffled
  // prefix of all tasks moved cand/s by up to 15% between seeds. The seed
  // orders the tasks and seeds each search. Sized so the loop takes about
  // --seconds on a 4-core host.
  const size_t num_tasks = std::min(
      zoo.tasks.size(),
      std::max<size_t>(3, static_cast<size_t>(std::lround(kTuneTasksPerSecond * args.seconds))));
  std::vector<const Task*> tasks;
  for (size_t i = 0; i < num_tasks; ++i) {
    tasks.push_back(&zoo.tasks[i * zoo.tasks.size() / num_tasks].task);
  }
  task_rng.Shuffle(&tasks);

  // Candidate programs for head warm-up and the layer probes: a few sampled
  // schedules of every task, on the device the loop searches that task for.
  const int num_devices = static_cast<int>(DeviceRegistry().size());
  std::vector<CompactAst> candidates;
  std::vector<int> candidate_devices;
  std::vector<std::pair<const Task*, ScheduleDesc>> sources;
  std::set<int> leaf_counts;
  for (const Task* task : tasks) {
    for (int k = 0; k < (args.quick ? 1 : 4); ++k) {
      ScheduleDesc sched = SampleSchedule(*task, &probe_rng);
      candidates.push_back(ExtractCompactAst(GenerateProgram(*task, sched)));
      candidate_devices.push_back(task->id % num_devices);
      leaf_counts.insert(candidates.back().num_leaves);
      if (sources.size() < kProbeRows) {
        sources.emplace_back(task, std::move(sched));
      }
    }
  }

  ServeOptions opts;
  opts.batch_window_ms = 0.0;
  ServedSetup setup;
  SetUpServed(args, leaf_counts, opts, spans, &setup);
  PredictionService* service = setup.service.get();

  SearchOptions search;
  search.population = 64;
  search.rounds = 20;
  search.measured_per_round = 4;
  auto search_seed = [&](size_t i) { return args.seed * 1000003ull + i; };

  TimedClient client(service, spans);
  obs::TraceCollector::Global().Reset();
  const auto counters_before = obs::MetricsRegistry::Global().CounterValues();
  const ServerStatsSnapshot stats_before = service->Stats();
  std::vector<std::pair<size_t, SearchCurve>> first_curves;  // (task position, curve)
  uint64_t candidates_scored = 0;
  size_t done_tasks = 0;
  const Clock::time_point t0 = Clock::now();
  for (; done_tasks < tasks.size(); ++done_tasks) {
    const Task& task = *tasks[done_tasks];
    search.seed = search_seed(done_tasks);
    const uint64_t id = spans->NewId();
    client.set_task_id(id);
    const Clock::time_point task_start = Clock::now();
    try {
      SearchCurve curve =
          EvolutionarySearch(task, DeviceById(task.id % num_devices), &client, search);
      candidates_scored += static_cast<uint64_t>(curve.total_candidates);
      if (first_curves.size() < 3) {
        first_curves.emplace_back(done_tasks, std::move(curve));
      }
    } catch (const std::exception&) {
      // A scoring future threw: the task's whole candidate stream fails.
      rep->failed += static_cast<uint64_t>(search.population) * search.rounds;
      rep->attempted += static_cast<uint64_t>(search.population) * search.rounds;
    }
    spans->Add("task", nullptr, id, task_start, Clock::now());
  }
  const double loop_s = SecondsBetween(t0, Clock::now());
  const ServerStatsSnapshot loop_stats = service->Stats().Delta(stats_before);
  const obs::TraceCollector::Stats stage_stats = obs::TraceCollector::Global().GetStats();
  const auto counters_after = obs::MetricsRegistry::Global().CounterValues();
  service->Shutdown();

  // The same searches re-run through the direct client must give the same
  // curves bit for bit (served and cached scores equal computed ones).
  Check parity{"search_curve_equals_direct_client"};
  {
    DirectCostModel direct(setup.model.predictor.get());
    for (const auto& [i, curve] : first_curves) {
      const Task& task = *tasks[i];
      search.seed = search_seed(i);
      ++parity.checked;
      if (!SameCurve(curve, EvolutionarySearch(task, DeviceById(task.id % num_devices), &direct,
                                               search))) {
        ++parity.mismatched;
      }
    }
  }
  rep->checks.push_back(parity);
  rep->attempted += candidates_scored;

  const std::vector<double> lat = Percentiles(client.latencies_ms(), {50.0, 99.0});
  Put(&rep->end_to_end, "setup_s", setup.setup_s, "s");
  Put(&rep->end_to_end, "p50_ms", lat[0], "ms");
  Put(&rep->end_to_end, "p99_ms", lat[1], "ms");
  Put(&rep->end_to_end, "ops_per_s", Ratio(static_cast<double>(candidates_scored), loop_s), "1/s");
  Put(&rep->extra, "tasks", static_cast<double>(done_tasks), "count");
  if (!args.trace) {
    return;
  }
  MetricMap* m = &rep->per_layer;
  PutServeStats(loop_stats, m);
  PutServeStages(stage_stats, m);
  const CostClientStats& cs = client.inner_stats();
  PutSearchStats(Ratio(cs.score_seconds, loop_s),
                 Ratio(static_cast<double>(cs.deduped), static_cast<double>(cs.queries)), m);
  PutCounters(counters_before, counters_after, static_cast<double>(candidates_scored), m);
  Put(m, "dataset.build_s", setup.dataset_build_s, "s");
  Put(m, "core.valid_mape", setup.model.valid_mape, "fraction");

  ProbeInputs in;
  for (size_t i = 0; i < candidates.size() && i < kProbeRows; ++i) {
    in.asts.push_back(&candidates[i]);
    in.devices.push_back(candidate_devices[i]);
  }
  for (const auto& [task, sched] : sources) {
    in.programs.emplace_back(task, &sched);
  }
  RunLayerProbes(setup.model.predictor.get(), in, setup.model.ds, setup.model.split.test, spans,
                 m);
}

// train: Pretrain on the full zoo x 9 devices, 4 schedules per task.
void RunTrain(const Args& args, SpanLog* spans, Report* rep) {
  Dataset ds;
  SplitIndices split;
  std::vector<double> setup_s;
  for (int r = 0; r < SetupReps(args); ++r) {
    ds = Dataset();
    const Clock::time_point t0 = Clock::now();
    DatasetOptions dopts;
    dopts.schedules_per_task = 4;
    dopts.seed = 31;
    dopts.max_networks = args.quick ? 10 : -1;
    ds = BuildDataset(dopts);
    Rng split_rng(args.seed);
    split = SplitDataset(ds, {}, {}, &split_rng);
    const Clock::time_point t1 = Clock::now();
    spans->Add("setup", nullptr, spans->NewId(), t0, t1);
    setup_s.push_back(SecondsBetween(t0, t1));
  }

  // Throughput: one multi-epoch Pretrain call, timed whole (scaler and label
  // fits, every epoch's validation pass and the final one included).
  const int epochs = std::max(1, static_cast<int>(std::lround(0.3 * args.seconds)));
  PredictorConfig cfg;
  cfg.epochs = epochs;
  CdmppPredictor predictor(cfg);
  const auto counters_before = obs::MetricsRegistry::Global().CounterValues();
  const Clock::time_point t0 = Clock::now();
  const TrainStats trained_stats = predictor.Pretrain(ds, split.train, split.valid);
  const Clock::time_point t1 = Clock::now();
  const auto counters_after = obs::MetricsRegistry::Global().CounterValues();
  spans->Add("pretrain", nullptr, spans->NewId(), t0, t1);
  const double samples = static_cast<double>(split.train.size()) * epochs;

  // Per-call latency: short one-epoch Pretrain calls, each on a fresh
  // predictor. They share config, seed and data, so each does the same work
  // and must end in the same model, bit for bit.
  const std::vector<int> call_train(split.train.begin(),
                                    split.train.begin() + split.train.size() / kCallDataShare);
  const std::vector<int> call_valid(split.valid.begin(),
                                    split.valid.begin() + split.valid.size() / kCallDataShare);
  PredictorConfig one_epoch = cfg;
  one_epoch.epochs = 1;
  std::vector<double> call_ms;
  Check repeat{"one_epoch_pretrain_is_deterministic"};
  TrainStats first_call;
  for (int c = 0; c < kOneEpochCalls; ++c) {
    CdmppPredictor fresh(one_epoch);
    const Clock::time_point c0 = Clock::now();
    const TrainStats stats = fresh.Pretrain(ds, call_train, call_valid);
    const Clock::time_point c1 = Clock::now();
    spans->Add("pretrain.one_epoch", nullptr, spans->NewId(), c0, c1);
    call_ms.push_back(std::chrono::duration<double, std::milli>(c1 - c0).count());
    if (c == 0) {
      first_call = stats;
      continue;
    }
    ++repeat.checked;
    if (!SameBits(stats.final_valid.mape, first_call.final_valid.mape) ||
        !SameBits(stats.epoch_train_loss[0], first_call.epoch_train_loss[0])) {
      ++repeat.mismatched;
    }
  }
  rep->checks.push_back(repeat);

  // The training-path Predict must match the const serving forward bit for bit.
  Check check{"train_predict_equals_batched_forward"};
  {
    std::vector<int> test(split.test.begin(),
                          split.test.begin() + std::min<size_t>(256, split.test.size()));
    const std::vector<double> trained = predictor.Predict(ds, test);
    AstBatchView view;
    for (int idx : test) {
      const Sample& s = ds.samples[static_cast<size_t>(idx)];
      view.asts.push_back(&ds.programs[static_cast<size_t>(s.program_index)].ast);
      view.device_ids.push_back(s.device_id);
    }
    const std::vector<double> batched = predictor.PredictBatched(view);
    for (size_t i = 0; i < test.size(); ++i) {
      ++check.checked;
      if (!SameBits(trained[i], batched[i])) {
        ++check.mismatched;
      }
    }
  }
  rep->checks.push_back(check);
  rep->attempted = split.train.size() * static_cast<uint64_t>(epochs) +
                   call_train.size() * static_cast<uint64_t>(kOneEpochCalls);

  const std::vector<double> calls = Percentiles(call_ms, {50.0, 99.0});
  Put(&rep->end_to_end, "setup_s", Median(setup_s), "s");
  Put(&rep->end_to_end, "p50_ms", calls[0], "ms");
  Put(&rep->end_to_end, "p99_ms", calls[1], "ms");
  Put(&rep->end_to_end, "ops_per_s", Ratio(samples, SecondsBetween(t0, t1)), "1/s");
  Put(&rep->extra, "epochs", epochs, "count");
  if (!args.trace) {
    return;
  }
  MetricMap* m = &rep->per_layer;
  PutServeStats(ServerStatsSnapshot(), m);
  PutServeStages(obs::TraceCollector::Stats(), m);
  PutSearchStats(0.0, 0.0, m);
  PutCounters(counters_before, counters_after, samples, m);
  Put(m, "dataset.build_s", Median(setup_s), "s");
  Put(m, "core.valid_mape", trained_stats.final_valid.mape, "fraction");

  if (DefaultPrecision() != Precision::kFp32) {
    predictor.PrepareQuantizedInference();
  }
  ProbeInputs in;
  for (size_t i = 0; i < split.test.size() && i < kProbeRows; ++i) {
    const Sample& s = ds.samples[static_cast<size_t>(split.test[i])];
    in.asts.push_back(&ds.programs[static_cast<size_t>(s.program_index)].ast);
    in.devices.push_back(s.device_id);
  }
  for (size_t p = 0; p < ds.programs.size() && p < kProbeRows; ++p) {
    const ProgramRecord& rec = ds.programs[p];
    in.programs.emplace_back(&ds.tasks[static_cast<size_t>(rec.task_id)].task, &rec.schedule);
  }
  RunLayerProbes(&predictor, in, ds, split.test, spans, m);
}

// ---- Output ------------------------------------------------------------------------

void WriteMetrics(JsonWriter* w, const MetricMap& metrics) {
  w->BeginObject();
  for (const auto& [name, metric] : metrics) {
    w->Key(name);
    w->BeginObject();
    w->Key("value");
    w->Double(metric.value);
    w->Key("unit");
    w->String(metric.unit);
    w->EndObject();
  }
  w->EndObject();
}

void WriteArray(JsonWriter* w, const std::vector<double>& values) {
  w->BeginArray();
  for (double v : values) {
    w->Double(v);
  }
  w->EndArray();
}

void WriteReport(const Args& args, const Report& rep) {
  JsonWriter w;
  w.BeginObject();
  w.Key("workload");
  w.String(args.workload);
  w.Key("seed");
  w.Uint(args.seed);
  w.Key("seconds");
  w.Double(args.seconds);
  w.Key("trace");
  w.Bool(args.trace);
  w.Key("quick");
  w.Bool(args.quick);
  w.Key("host");
  w.BeginObject();
  w.Key("nproc");
  w.Int(static_cast<int64_t>(std::thread::hardware_concurrency()));
  w.Key("pool_threads");
  w.Int(ThreadPool::Global().num_threads());
  w.Key("kernel_isa");
  w.String(KernelIsaName(ActiveKernelIsa()));
  w.Key("precision");
  w.String(PrecisionName(DefaultPrecision()));
  w.EndObject();
  w.Key("attempted");
  w.Uint(rep.attempted);
  w.Key("failed");
  w.Uint(rep.failed);
  w.Key("disturbed");
  w.Bool(rep.disturbed);
  w.Key("checks");
  w.BeginArray();
  for (const Check& c : rep.checks) {
    w.BeginObject();
    w.Key("name");
    w.String(c.name);
    w.Key("checked");
    w.Uint(c.checked);
    w.Key("mismatched");
    w.Uint(c.mismatched);
    w.EndObject();
  }
  w.EndArray();
  w.Key("end_to_end");
  WriteMetrics(&w, rep.end_to_end);
  w.Key("per_layer");
  WriteMetrics(&w, rep.per_layer);
  w.Key("extra");
  WriteMetrics(&w, rep.extra);
  w.Key("phases");
  w.BeginArray();
  for (const PhaseStats& p : rep.phases) {
    w.BeginObject();
    w.Key("name");
    w.String(p.name);
    w.Key("open_loop");
    w.Bool(p.open_loop);
    w.Key("rate_rps");
    w.Double(p.rate_rps);
    w.Key("seconds");
    w.Double(p.seconds);
    w.Key("attempted");
    w.Uint(p.attempted);
    w.Key("succeeded");
    w.Uint(p.succeeded);
    w.Key("failed");
    w.Uint(p.failed);
    w.Key("ready_at_submit");
    w.Uint(p.ready_at_submit);
    if (p.open_loop) {
      w.Key("p50_ms");
      w.Double(p.p50_ms);
      w.Key("p99_ms");
      w.Double(p.p99_ms);
      w.Key("window_p99_ms");
      WriteArray(&w, p.window_p99_ms);
      w.Key("window_n");
      WriteArray(&w, std::vector<double>(p.window_n.begin(), p.window_n.end()));
      w.Key("gen_late_ms_p99");
      w.Double(p.late_p99_ms);
      w.Key("gen_late_ms_max");
      w.Double(p.late_max_ms);
    } else {
      w.Key("completed_per_s");
      w.Double(p.completed_per_s);
      w.Key("window_per_s");
      WriteArray(&w, p.window_per_s);
    }
    w.Key("floor_us_p50");
    w.Double(p.floor_p50_us);
    w.Key("floor_us_p99");
    w.Double(p.floor_p99_us);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.WriteFile(args.out);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    char* end = nullptr;
    if (flag == "--trace") {
      args->trace = true;
    } else if (flag == "--quick") {
      args->quick = true;
    } else if (flag == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], &end, 10);
      if (*argv[i] == '\0' || *argv[i] == '-' || *end != '\0') {
        return false;
      }
    } else if (flag == "--seconds" && has_value) {
      args->seconds = std::strtod(argv[++i], &end);
      // Bounded so that every phase and the tune-evo task count stay sane.
      if (*end != '\0' || !(args->seconds > 0.0 && args->seconds <= 3600.0)) {
        return false;
      }
    } else if (flag == "--out" && has_value) {
      args->out = argv[++i];
    } else {
      return false;
    }
  }
  const std::set<std::string> workloads = {"serve-unique", "serve-zipf", "tune-evo", "train"};
  return workloads.count(args->workload) == 1 && !args->out.empty();
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload serve-unique|serve-zipf|tune-evo|train --seed N "
                 "--seconds S [--trace] [--quick] --out FILE\n",
                 argv[0]);
    return 2;
  }
  // Fail before the run, not after it, when the result cannot be written.
  if (FILE* f = std::fopen(args.out.c_str(), "w")) {
    std::fclose(f);
  } else {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 2;
  }
  // Tracing is a property of the run, not of the environment: the untraced
  // run samples nothing, the traced run 1-in-16 requests.
  obs::TraceCollector::Global().SetSampleEvery(args.trace ? 16 : 0);
  SpanLog spans(args.trace, process_start);

  Report rep;
  if (args.workload == "tune-evo") {
    RunTune(args, &spans, &rep);
  } else if (args.workload == "train") {
    RunTrain(args, &spans, &rep);
  } else {
    RunServe(args, args.workload == "serve-zipf", &spans, &rep);
  }
  Put(&rep.end_to_end, "peak_rss_mb", PeakRssMb(), "MB");

  bool ok = rep.failed == 0;
  for (const Check& c : rep.checks) {
    rep.failed += c.mismatched;
    ok = ok && c.checked > 0 && c.mismatched == 0;
  }
  WriteReport(args, rep);
  if (args.trace) {
    spans.WriteChromeTrace(
        (std::filesystem::path(args.out).parent_path() / ("trace_" + args.workload + ".json"))
            .string());
  }
  return ok ? 0 : 1;
}
