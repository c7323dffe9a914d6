#include "src/core/autotuner.h"

#include <cmath>
#include <memory>

#include "src/search/cost_model_client.h"
#include "src/serve/prediction_service.h"
#include "src/support/check.h"

namespace cdmpp {

PredictorConfig SampleConfig(Rng* rng) {
  PredictorConfig cfg;
  const std::vector<int> d_models = {32, 48, 64, 96};
  const std::vector<int> layers = {1, 2, 3};
  const std::vector<int> heads = {2, 4};
  const std::vector<int> z_dims = {32, 64, 96};
  const std::vector<int> dec_hidden = {32, 64, 96};
  const std::vector<int> batch_sizes = {32, 64, 128};

  cfg.d_model = rng->Choice(d_models);
  cfg.num_heads = rng->Choice(heads);
  cfg.d_ff = cfg.d_model * 2;
  cfg.num_layers = rng->Choice(layers);
  cfg.z_dim = rng->Choice(z_dims);
  int dh = rng->Choice(dec_hidden);
  cfg.decoder_hidden = rng->Bernoulli(0.5) ? std::vector<int>{dh} : std::vector<int>{dh, dh};
  cfg.batch_size = rng->Choice(batch_sizes);

  cfg.optimizer = rng->Bernoulli(0.8) ? OptimizerKind::kAdam : OptimizerKind::kSgd;
  cfg.lr = std::pow(10.0, rng->Uniform(-3.8, -2.3));
  cfg.max_lr = cfg.lr * rng->Uniform(1.5, 4.0);
  cfg.use_cyclic_lr = rng->Bernoulli(0.7);
  cfg.weight_decay = std::pow(10.0, rng->Uniform(-5.0, -2.5));
  cfg.lambda_mape = rng->Uniform(0.05, 0.5);
  cfg.alpha_cmd = rng->Uniform(0.1, 1.0);
  cfg.seed = rng->engine()();
  return cfg;
}

namespace {

// Validation MAPE of one trial's trained predictor, computed through the
// client seam: all validation (AST, device) pairs go out as one population.
// Returns the mean of |pred - truth| / truth over samples with truth > 0.
double ScoreTrial(const Dataset& ds, const std::vector<int>& valid,
                  CostModelClient* client) {
  std::vector<CostQuery> queries;
  queries.reserve(valid.size());
  for (int s : valid) {
    const Sample& sample = ds.samples[static_cast<size_t>(s)];
    const CompactAst& ast = ds.programs[static_cast<size_t>(sample.program_index)].ast;
    queries.emplace_back(&ast, sample.device_id, ast.Hash());
  }
  std::vector<double> predictions;
  client->ScoreBatch(queries, &predictions);

  double sum = 0.0;
  size_t counted = 0;
  for (size_t i = 0; i < valid.size(); ++i) {
    const double truth = ds.samples[static_cast<size_t>(valid[i])].latency_seconds;
    if (truth > 0.0) {
      sum += std::abs(predictions[i] - truth) / truth;
      ++counted;
    }
  }
  return counted > 0 ? sum / static_cast<double>(counted) : 0.0;
}

}  // namespace

AutotuneResult Autotune(const Dataset& ds, const std::vector<int>& train,
                        const std::vector<int>& valid, const AutotuneOptions& opts) {
  Rng rng(opts.seed);
  AutotuneResult result;
  uint64_t cache_hits = 0;
  uint64_t serve_requests = 0;
  for (int t = 0; t < opts.num_trials; ++t) {
    AutotuneTrial trial;
    trial.config = SampleConfig(&rng);
    trial.config.epochs = opts.epochs_per_trial;
    CdmppPredictor predictor(trial.config);
    TrainStats stats = predictor.Pretrain(ds, train, valid);
    if (valid.empty()) {
      // Nothing to score through the client; keep the training loop's number.
      trial.valid_mape = stats.final_valid.mape;
    } else {
      ServeOptions serve_opts;
      serve_opts.num_workers = 0;  // ServeCostModel scores on this thread
      PredictionService service(&predictor, serve_opts);
      ServeCostModel client(&service);
      trial.valid_mape = ScoreTrial(ds, valid, &client);
      result.scored_candidates += client.stats().queries;
      result.scoring_seconds += client.stats().score_seconds;
      const ServerStatsSnapshot snap = service.Stats();
      cache_hits += snap.cache_hits;
      serve_requests += snap.requests;
    }
    if (trial.valid_mape < result.best.valid_mape) {
      result.best = trial;
    }
    result.trials.push_back(std::move(trial));
  }
  if (serve_requests > 0) {
    result.scoring_cache_hit_rate =
        static_cast<double>(cache_hits) / static_cast<double>(serve_requests);
  }
  return result;
}

}  // namespace cdmpp
