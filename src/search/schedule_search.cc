#include "src/search/schedule_search.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/search/population.h"
#include "src/support/check.h"

namespace cdmpp {

SearchCurve EvolutionarySearch(const Task& task, const DeviceSpec& device,
                               CostModelClient* client, const SearchOptions& opts) {
  CDMPP_CHECK(client != nullptr);
  Rng rng(opts.seed);
  SearchCurve curve;
  double best = std::numeric_limits<double>::max();
  const double score_seconds_at_entry = client->stats().score_seconds;

  // Seed population.
  std::vector<ScheduleDesc> population;
  population.reserve(static_cast<size_t>(opts.population));
  for (int i = 0; i < opts.population; ++i) {
    population.push_back(SampleSchedule(task, &rng));
  }
  std::vector<ScheduleDesc> elite;  // measured good candidates seed mutations

  // Reused per round: extracted ASTs (kept alive across ScoreBatch — the
  // CostQuery borrow contract) and their hashes, query list, index-ordered
  // scores.
  std::vector<CompactAst> asts;
  std::vector<uint64_t> hashes;
  std::vector<CostQuery> queries;
  std::vector<double> scores;

  for (int round = 0; round < opts.rounds; ++round) {
    // Extract and hash every candidate's AST on the pool, then rank the
    // whole population with ONE ScoreBatch. The score vector is
    // index-ordered by contract, so ranking below is independent of how the
    // client evaluated it.
    ExtractPopulation(task, population, &asts, &hashes);
    queries.clear();
    queries.reserve(asts.size());
    for (size_t i = 0; i < asts.size(); ++i) {
      queries.emplace_back(&asts[i], device.id, hashes[i]);
    }
    client->ScoreBatch(queries, &scores);
    curve.total_candidates += static_cast<int>(queries.size());

    std::vector<std::pair<double, size_t>> scored;
    scored.reserve(scores.size());
    for (size_t i = 0; i < scores.size(); ++i) {
      scored.emplace_back(scores[i], i);  // (score, index): stable tiebreak
    }
    std::sort(scored.begin(), scored.end());

    // Measure the top candidates on the "device".
    for (int m = 0; m < opts.measured_per_round && m < static_cast<int>(scored.size()); ++m) {
      const size_t idx = scored[static_cast<size_t>(m)].second;
      const ScheduleDesc& cand = population[idx];
      const double latency = MeasureSchedule(task, cand, device);
      ++curve.total_measurements;
      if (latency < best) {
        best = latency;
        curve.best_schedule = cand;
        curve.best_ast_hash = hashes[idx];
        elite.clear();
        elite.push_back(cand);
      } else if (elite.size() < 4) {
        elite.push_back(cand);
      }
    }
    curve.best_after_round.push_back(best);

    // Next generation: mutations of elites + fresh samples.
    std::vector<ScheduleDesc> next;
    next.reserve(population.size());
    while (static_cast<int>(next.size()) < opts.population) {
      if (!elite.empty() && rng.Bernoulli(0.6)) {
        next.push_back(MutateSchedule(task, rng.Choice(elite), &rng));
      } else {
        next.push_back(SampleSchedule(task, &rng));
      }
    }
    population = std::move(next);
  }
  curve.final_best = best;
  curve.score_seconds = client->stats().score_seconds - score_seconds_at_entry;
  return curve;
}

SearchCurve EvolutionarySearch(const Task& task, const DeviceSpec& device,
                               const CostModelFn& cost_model, const SearchOptions& opts) {
  FnCostModel client(cost_model);
  return EvolutionarySearch(task, device, &client, opts);
}

SearchCurve RandomSearch(const Task& task, const DeviceSpec& device, const SearchOptions& opts) {
  Rng rng(opts.seed);
  SearchCurve curve;
  double best = std::numeric_limits<double>::max();
  for (int round = 0; round < opts.rounds; ++round) {
    for (int m = 0; m < opts.measured_per_round; ++m) {
      ScheduleDesc cand = SampleSchedule(task, &rng);
      TensorProgram prog = GenerateProgram(task, cand);
      double latency = SimulateLatencyDeterministic(prog, device);
      ++curve.total_measurements;
      if (latency < best) {
        best = latency;
        curve.best_schedule = std::move(cand);
        curve.best_ast_hash = ExtractCompactAst(prog).Hash();
      }
    }
    curve.best_after_round.push_back(best);
  }
  curve.final_best = best;
  return curve;
}

}  // namespace cdmpp
