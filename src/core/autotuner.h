// Auto-tuner (paper §5.3 "NAS and Automatic hyper-parameter tuning"):
// random search over the architecture/hyper-parameter space of Appendix B,
// scoring each trial by short-training validation MAPE. The paper uses
// Optuna with ~1000 trials; here the trial budget is configurable and the
// search strategy is plain random sampling, which reproduces the workflow.
//
// Trial scoring (the prediction of every validation sample under the trial's
// freshly trained predictor) routes through the CostModelClient seam
// (src/search/cost_model_client.h): each trial stands up a borrowed-only
// PredictionService (no workers) and scores the whole validation set as one
// batched population on the calling thread — dedup, leaf-count-bucketed
// forwards, and the prediction cache all apply. The MAPE is bitwise the one
// serial size-1 forwards (DirectCostModel) give, because PredictBatched is
// batch-size-invariant; tests/search_test.cc pins the parity.
#ifndef SRC_CORE_AUTOTUNER_H_
#define SRC_CORE_AUTOTUNER_H_

#include "src/core/predictor.h"

namespace cdmpp {

struct AutotuneOptions {
  int num_trials = 12;
  int epochs_per_trial = 6;
  uint64_t seed = 1234;
};

struct AutotuneTrial {
  PredictorConfig config;
  double valid_mape = 1e30;
};

struct AutotuneResult {
  AutotuneTrial best;
  std::vector<AutotuneTrial> trials;
  // Client-seam traffic accounting, accumulated across trials: validation
  // samples pushed through ScoreBatch, wall-clock spent scoring, and the
  // fraction answered by the prediction cache.
  uint64_t scored_candidates = 0;
  double scoring_seconds = 0.0;
  double scoring_cache_hit_rate = 0.0;
};

// Samples one configuration from the search space of Appendix B.
PredictorConfig SampleConfig(Rng* rng);

// Runs the search on the given train/valid split.
AutotuneResult Autotune(const Dataset& ds, const std::vector<int>& train,
                        const std::vector<int>& valid, const AutotuneOptions& opts);

}  // namespace cdmpp

#endif  // SRC_CORE_AUTOTUNER_H_
