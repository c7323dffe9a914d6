// Interleaved-pair runner behind the benches' A/B gates (bench_serve_throughput
// and bench_tuning).
//
// A gate compares a base configuration against a test configuration on a
// shared host, where a single run's throughput swings by several percent.
// So the two run back to back as a pair, the order alternates from pair to
// pair so drift hits both sides alike, and the gate reads the best pair's
// test/base ratio: a real regression would have to be hidden by
// same-direction noise in every pair to slip through. Every pair's runs are
// returned, so a gate can check each result (bench_tuning's parity) and
// record each pair.
#ifndef BENCH_GATE_H_
#define BENCH_GATE_H_

#include <algorithm>
#include <type_traits>
#include <vector>

namespace cdmpp {

// The side that runs first in pair 0 (and every even pair); odd pairs swap.
enum class FirstRun { kBase, kTest };

template <typename T>
struct PairRuns {
  std::vector<T> base;  // base[i], test[i]: pair i's two runs
  std::vector<T> test;
  std::vector<double> ratio;  // value(test[i]) / value(base[i]); 0 if the base value is not > 0
  double best_ratio = 0.0;    // the largest ratio
};

// The gated value of a run that returns it directly.
struct RunValue {
  double operator()(double v) const { return v; }
};

// Runs `pairs` interleaved (base, test) pairs. `value` maps a run's result to
// the number the ratio compares.
template <typename RunBase, typename RunTest, typename Value = RunValue>
PairRuns<std::invoke_result_t<const RunBase&>> RunInterleavedPairs(
    int pairs, const RunBase& run_base, const RunTest& run_test,
    FirstRun first = FirstRun::kBase, const Value& value = Value()) {
  PairRuns<std::invoke_result_t<const RunBase&>> runs;
  for (int i = 0; i < pairs; ++i) {
    if ((i % 2 == 0) == (first == FirstRun::kBase)) {
      runs.base.push_back(run_base());
      runs.test.push_back(run_test());
    } else {
      runs.test.push_back(run_test());
      runs.base.push_back(run_base());
    }
    const double base_value = value(runs.base.back());
    runs.ratio.push_back(base_value > 0.0 ? value(runs.test.back()) / base_value : 0.0);
    runs.best_ratio = std::max(runs.best_ratio, runs.ratio.back());
  }
  return runs;
}

}  // namespace cdmpp

#endif  // BENCH_GATE_H_
