// Simulated-annealing schedule search over the same Ansor-style space as the
// evolutionary driver, scoring through the CostModelClient seam.
//
// Shape: a population of independent chains (not one walker — a batch of
// proposals per sweep is what fills the serving tier's leaf-count buckets),
// a geometric temperature schedule, and Metropolis acceptance on the cost
// model's predicted latency. Each sweep mutates every chain once
// (MutateSchedule neighborhood) serially on the search's rng stream, lowers
// and extracts the proposals in one fork over the global pool
// (ExtractPopulation, population.h; the seed chains go through it too),
// scores all proposals in ONE ScoreBatch, and accepts per chain; the top
// chains by current score are then "measured" on the simulator, which is
// what the SearchCurve tracks — the same cheap-score/expensive-measure split
// as EvolutionarySearch, so the two drivers' curves are directly comparable.
//
// Determinism: same contract as schedule_search.h. Acceptance draws one
// uniform per chain per sweep UNCONDITIONALLY (even when delta <= 0 would
// accept without it), so the rng stream never depends on score values and the
// curve is bitwise-identical across clients and thread counts. The initial
// temperature is scaled from the seed population's score spread, making the
// schedule self-tuning per task without breaking the contract (scores are
// themselves deterministic for fixed model state).
#ifndef SRC_SEARCH_SA_SEARCH_H_
#define SRC_SEARCH_SA_SEARCH_H_

#include <cstdint>

#include "src/search/schedule_search.h"

namespace cdmpp {

struct SaOptions {
  int sweeps = 40;              // one curve point per sweep
  int chains = 16;              // independent walkers == proposals per ScoreBatch
  double initial_temp = 0.25;   // x the seed population's score spread
  double cooling = 0.92;        // geometric: T(sweep) = T0 * cooling^sweep
  int measured_per_sweep = 2;   // chains "profiled" on the simulator per sweep
  uint64_t seed = 31;
};

// Anneals `chains` schedules for one task on one device; emits the same
// SearchCurve shape as EvolutionarySearch/RandomSearch.
SearchCurve SimulatedAnnealingSearch(const Task& task, const DeviceSpec& device,
                                     CostModelClient* client, const SaOptions& opts);

}  // namespace cdmpp

#endif  // SRC_SEARCH_SA_SEARCH_H_
