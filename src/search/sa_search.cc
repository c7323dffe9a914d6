#include "src/search/sa_search.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/search/population.h"
#include "src/support/check.h"

namespace cdmpp {

SearchCurve SimulatedAnnealingSearch(const Task& task, const DeviceSpec& device,
                                     CostModelClient* client, const SaOptions& opts) {
  CDMPP_CHECK(client != nullptr);
  CDMPP_CHECK(opts.sweeps > 0 && opts.chains > 0);
  CDMPP_CHECK(opts.cooling > 0.0 && opts.cooling < 1.0);
  Rng rng(opts.seed);
  SearchCurve curve;
  double best = std::numeric_limits<double>::max();
  const double score_seconds_at_entry = client->stats().score_seconds;

  const size_t chains = static_cast<size_t>(opts.chains);
  std::vector<ScheduleDesc> state(chains);
  std::vector<CompactAst> state_asts;
  std::vector<uint64_t> state_hashes;  // state_hashes[c] == state_asts[c].Hash()
  std::vector<double> state_scores(chains);

  // Scratch reused per sweep (proposal ASTs must outlive ScoreBatch — the
  // CostQuery borrow contract).
  std::vector<ScheduleDesc> proposals(chains);
  std::vector<CompactAst> proposal_asts;
  std::vector<uint64_t> proposal_hashes;
  std::vector<CostQuery> queries;
  std::vector<double> proposal_scores;

  // Seed the chains and score them in one batch.
  for (size_t c = 0; c < chains; ++c) {
    state[c] = SampleSchedule(task, &rng);
  }
  ExtractPopulation(task, state, &state_asts, &state_hashes);
  queries.reserve(chains);
  for (size_t c = 0; c < chains; ++c) {
    queries.emplace_back(&state_asts[c], device.id, state_hashes[c]);
  }
  client->ScoreBatch(queries, &state_scores);
  curve.total_candidates += static_cast<int>(chains);

  // Self-tuning initial temperature: a fixed fraction of the seed
  // population's score spread, so acceptance odds are task-scale-free. A
  // degenerate spread (all seeds score identically) still anneals — downhill
  // and sideways moves accept, uphill ones effectively never do.
  const auto [min_it, max_it] = std::minmax_element(state_scores.begin(), state_scores.end());
  double spread = *max_it - *min_it;
  if (spread <= 0.0) {
    spread = 1e-12;
  }
  const double t0 = opts.initial_temp * spread;

  for (int sweep = 0; sweep < opts.sweeps; ++sweep) {
    const double temp = t0 * std::pow(opts.cooling, sweep);

    // Propose one neighbor per chain (index order) on the search's rng
    // stream, extract the proposals on the pool and score the whole batch at
    // once.
    for (size_t c = 0; c < chains; ++c) {
      proposals[c] = MutateSchedule(task, state[c], &rng);
    }
    ExtractPopulation(task, proposals, &proposal_asts, &proposal_hashes);
    queries.clear();
    for (size_t c = 0; c < chains; ++c) {
      queries.emplace_back(&proposal_asts[c], device.id, proposal_hashes[c]);
    }
    client->ScoreBatch(queries, &proposal_scores);
    curve.total_candidates += static_cast<int>(chains);

    // Metropolis acceptance per chain. The uniform is drawn unconditionally
    // so the rng stream is independent of the scores (determinism contract).
    for (size_t c = 0; c < chains; ++c) {
      const double delta = proposal_scores[c] - state_scores[c];
      const double u = rng.Uniform(0.0, 1.0);
      if (delta <= 0.0 || (temp > 0.0 && u < std::exp(-delta / temp))) {
        state[c] = std::move(proposals[c]);
        state_asts[c] = std::move(proposal_asts[c]);
        state_hashes[c] = proposal_hashes[c];
        state_scores[c] = proposal_scores[c];
        proposals[c] = ScheduleDesc();
        proposal_asts[c] = CompactAst();
      }
    }

    // Measure the currently best-scored chains on the "device".
    std::vector<std::pair<double, size_t>> ranked;
    ranked.reserve(chains);
    for (size_t c = 0; c < chains; ++c) {
      ranked.emplace_back(state_scores[c], c);  // (score, index): stable tiebreak
    }
    std::sort(ranked.begin(), ranked.end());
    for (int m = 0; m < opts.measured_per_sweep && m < static_cast<int>(chains); ++m) {
      const size_t c = ranked[static_cast<size_t>(m)].second;
      const double latency = MeasureSchedule(task, state[c], device);
      ++curve.total_measurements;
      if (latency < best) {
        best = latency;
        curve.best_schedule = state[c];
        curve.best_ast_hash = state_hashes[c];
      }
    }
    curve.best_after_round.push_back(best);
  }

  curve.final_best = best;
  curve.score_seconds = client->stats().score_seconds - score_seconds_at_entry;
  return curve;
}

}  // namespace cdmpp
