// Ansor-style evolutionary schedule search guided by a cost model
// (paper §7.5, Fig. 14(b)): each round mutates a population of candidate
// schedules, ranks them with the cost model, "measures" the top candidates on
// the device (here: the simulator), and tracks the best latency found.
//
// Scoring goes through the CostModelClient seam (cost_model_client.h): whole
// populations are scored in one ScoreBatch call, so a ServeCostModel fills the
// PredictionService's leaf-count buckets by construction while the
// DirectCostModel baseline keeps the old one-candidate-at-a-time shape.
// Before scoring, each round's population is lowered and extracted in one
// fork over the global pool (ExtractPopulation, population.h); sampling,
// mutation, ranking, measurement and elite updates stay serial on the
// search thread.
//
// Determinism contract: a SearchCurve is a pure function of
// (task, device, model state, opts.seed). Candidates are ranked from the
// index-ordered score vector with (score, index) tiebreaks and the rng stream
// never depends on score values, so the curve is bitwise identical across
// CDMPP_NUM_THREADS values, serve-vs-direct clients, and future completion
// order. The extraction fork keeps it: iteration i writes only AST i, a pure
// function of (task, schedule i), and no rng enters the fork. (Wall-clock
// fields — score_seconds — are measurements, not part of the contract.)
#ifndef SRC_SEARCH_SCHEDULE_SEARCH_H_
#define SRC_SEARCH_SCHEDULE_SEARCH_H_

#include <cstdint>
#include <vector>

#include "src/ast/compact_ast.h"
#include "src/device/simulator.h"
#include "src/search/cost_model_client.h"
#include "src/tir/schedule.h"

namespace cdmpp {

struct SearchOptions {
  int rounds = 40;
  int population = 24;
  int measured_per_round = 4;  // candidates actually "profiled" per round
  uint64_t seed = 31;
};

// Common result shape for every search driver (evolutionary, SA, random).
struct SearchCurve {
  // Best measured latency (seconds) after each round; non-increasing.
  std::vector<double> best_after_round;
  double final_best = 0.0;
  int total_measurements = 0;

  // The winning schedule and the content hash of its compact AST — the
  // cross-client quality-parity gate compares these (same seed must find the
  // exact same schedule under DirectCostModel and ServeCostModel).
  ScheduleDesc best_schedule;
  uint64_t best_ast_hash = 0;

  // Cost-model traffic: candidates pushed through ScoreBatch and the
  // wall-clock spent there (the bench's candidates/sec numerator and
  // denominator). score_seconds is a measurement — excluded from the
  // determinism contract above.
  int total_candidates = 0;
  double score_seconds = 0.0;
};

// Searches schedules for one task on one device. The cost model prunes the
// population each round; only `measured_per_round` candidates touch the
// simulator (the expensive "real measurement").
SearchCurve EvolutionarySearch(const Task& task, const DeviceSpec& device,
                               CostModelClient* client, const SearchOptions& opts);

// Convenience overload for plain-function cost models (XGB baseline, test
// heuristics): wraps `cost_model` in an FnCostModel.
SearchCurve EvolutionarySearch(const Task& task, const DeviceSpec& device,
                               const CostModelFn& cost_model, const SearchOptions& opts);

// Baseline: random search measuring the same number of candidates.
SearchCurve RandomSearch(const Task& task, const DeviceSpec& device, const SearchOptions& opts);

}  // namespace cdmpp

#endif  // SRC_SEARCH_SCHEDULE_SEARCH_H_
