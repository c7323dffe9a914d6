// The per-candidate work the search drivers share: lowering a population of
// schedules to the compact ASTs the cost model scores, and "measuring" one
// schedule on the simulator.
//
// ExtractPopulation lowers, extracts and hashes a whole round on the global
// pool in one ParallelFor. No rng enters the fork — the drivers sample and
// mutate schedules serially on their own stream before calling it — and
// iteration i writes only (*asts)[i] and (*hashes)[i], a pure function of
// (task, schedules[i]). The ASTs, and so every query, score and SearchCurve
// built from them, are therefore bitwise identical at every pool size
// (SearchTest.CurvesMatchGoldenFingerprint). The hash is the AST half of the
// serving cache key: computed here, on the pool, it travels in each
// CostQuery, so the tuner thread never hashes a candidate. The body
// allocates inside GenerateProgram (the program tree) and ExtractCompactAst
// (the AST's vectors); that is outside the zero-allocation contract, which
// covers the warm serving forward and the training step.
#ifndef SRC_SEARCH_POPULATION_H_
#define SRC_SEARCH_POPULATION_H_

#include <cstdint>
#include <vector>

#include "src/ast/compact_ast.h"
#include "src/device/simulator.h"
#include "src/tir/schedule.h"

namespace cdmpp {

// Resizes *asts and *hashes to schedules.size() and sets
// (*asts)[i] = ExtractCompactAst(GenerateProgram(task, schedules[i])) and
// (*hashes)[i] = (*asts)[i].Hash().
// Forks over the population on ThreadPool::Global(); a call from inside
// another ParallelFor region runs inline.
void ExtractPopulation(const Task& task, const std::vector<ScheduleDesc>& schedules,
                       std::vector<CompactAst>* asts, std::vector<uint64_t>* hashes);

// The search's "real measurement": the simulator's deterministic latency
// (seconds) of `sched` on `device`.
double MeasureSchedule(const Task& task, const ScheduleDesc& sched, const DeviceSpec& device);

}  // namespace cdmpp

#endif  // SRC_SEARCH_POPULATION_H_
