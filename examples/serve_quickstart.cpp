// Serving quickstart: put the CDMPP cost model behind the batched inference
// service and query it like an autotuner would.
//
//  1. Pre-train a small predictor (as in examples/quickstart.cpp).
//  2. Start a PredictionService: worker pool + leaf-count batching +
//     sharded prediction cache.
//  3. Issue blocking Predict calls and async Submit calls.
//  4. Read the ServerStats block (QPS, hit rate, occupancy, tail latency).
//
// Build & run:  ./build/examples/serve_quickstart
#include <cstdio>
#include <future>
#include <vector>

#include "src/serve/prediction_service.h"
#include "src/tir/schedule.h"

using namespace cdmpp;

int main() {
  // --- 1. Train a small cost model on a T4 slice. ---
  DatasetOptions opts;
  opts.device_ids = {0};
  opts.schedules_per_task = 3;
  opts.max_networks = 8;
  opts.seed = 1;
  Dataset ds = BuildDataset(opts);
  PredictorConfig cfg;
  cfg.epochs = 8;
  CdmppPredictor predictor(cfg);
  Rng rng(2);
  SplitIndices split = SplitDataset(ds, {0}, {}, &rng);
  std::printf("Pre-training on %zu samples...\n", split.train.size());
  predictor.Pretrain(ds, split.train, split.valid);

  // --- 2. Serve it. ---
  ServeOptions serve_opts;
  serve_opts.num_workers = 2;
  serve_opts.max_batch_size = 64;
  PredictionService service(&predictor, serve_opts);
  std::printf("Service up: %d workers, batch window %.1fms (0: dispatch on arrival), "
              "cache capacity %zu.\n\n",
              serve_opts.num_workers, serve_opts.batch_window_ms, serve_opts.cache_capacity);

  // --- 3a. Blocking queries: compare two candidate schedules of one task. ---
  const Task& task = ds.tasks[1].task;
  Rng srng(3);
  CompactAst candidate_a = ExtractCompactAst(GenerateProgram(task, SampleSchedule(task, &srng)));
  CompactAst candidate_b = ExtractCompactAst(GenerateProgram(task, SampleSchedule(task, &srng)));
  double lat_a = service.Predict(candidate_a, /*device_id=*/0);
  double lat_b = service.Predict(candidate_b, /*device_id=*/0);
  std::printf("Task '%s' on T4: schedule A %.4fms vs schedule B %.4fms -> keep %s.\n",
              task.name.c_str(), lat_a * 1e3, lat_b * 1e3, lat_a <= lat_b ? "A" : "B");

  // A repeat of the same query is a cache hit (no forward pass).
  service.Predict(candidate_a, 0);

  // --- 3b. Async burst: an autotuner scoring a population concurrently. ---
  std::vector<CompactAst> population;
  for (int i = 0; i < 64; ++i) {
    population.push_back(ExtractCompactAst(GenerateProgram(task, SampleSchedule(task, &srng))));
  }
  std::vector<std::future<double>> futures;
  futures.reserve(population.size());
  for (const CompactAst& ast : population) {
    futures.push_back(service.Submit(ast, /*device_id=*/0));
  }
  double best = 1e30;
  int best_idx = -1;
  for (size_t i = 0; i < futures.size(); ++i) {
    double lat = futures[i].get();
    if (lat < best) {
      best = lat;
      best_idx = static_cast<int>(i);
    }
  }
  std::printf("Scored a population of %zu candidates; best is #%d at %.4fms.\n\n",
              population.size(), best_idx, best * 1e3);

  // --- 4. Server stats. ---
  std::printf("Server stats: %s\n", service.Stats().ToString().c_str());
  return 0;
}
