#include "src/search/cost_model_client.h"

#include <cassert>
#include <chrono>
#include <future>
#include <map>
#include <utility>

#include "src/device/device.h"
#include "src/support/check.h"

namespace cdmpp {

void CostModelClient::ScoreBatch(const std::vector<CostQuery>& queries,
                                 std::vector<double>* scores) {
  CDMPP_CHECK(scores != nullptr);
  const auto t0 = std::chrono::steady_clock::now();
  scores->resize(queries.size());
  ScoreBatchImpl(queries, scores);
  stats_.queries += queries.size();
  stats_.score_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

void FnCostModel::ScoreBatchImpl(const std::vector<CostQuery>& queries,
                                 std::vector<double>* scores) {
  for (size_t i = 0; i < queries.size(); ++i) {
    (*scores)[i] = fn_(*queries[i].ast, queries[i].device_id);
  }
  stats_.submitted += queries.size();
}

DirectCostModel::DirectCostModel(CdmppPredictor* predictor, Precision precision)
    : predictor_(predictor), precision_(precision) {
  CDMPP_CHECK(predictor != nullptr);
  CDMPP_CHECK_MSG(predictor->fitted(), "DirectCostModel on an unfitted predictor");
  if (precision_ != Precision::kFp32 && !predictor_->quantized_ready()) {
    predictor_->PrepareQuantizedInference();
  }
}

void DirectCostModel::ScoreBatchImpl(const std::vector<CostQuery>& queries,
                                     std::vector<double>* scores) {
  for (size_t i = 0; i < queries.size(); ++i) {
    const CostQuery& q = queries[i];
    CDMPP_CHECK(q.ast != nullptr && q.ast->num_leaves > 0);
    predictor_->EnsureHead(q.ast->num_leaves);
    AstBatchView view;
    view.asts.push_back(q.ast);
    view.device_ids.push_back(q.device_id);
    double prediction = 0.0;
    if (precision_ != Precision::kFp32) {
      predictor_->PredictBatchedQuantized(view, &ws_, &prediction, nullptr, precision_);
    } else {
      predictor_->PredictBatched(view, &ws_, &prediction);
    }
    (*scores)[i] = prediction;
  }
  stats_.submitted += queries.size();
}

ServeCostModel::ServeCostModel(PredictionService* service) : service_(service) {
  CDMPP_CHECK(service != nullptr);
}

void ServeCostModel::ScoreBatchImpl(const std::vector<CostQuery>& queries,
                                    std::vector<double>* scores) {
  // Dedup within the batch by the same identity the prediction cache uses:
  // (AST content hash, device fingerprint). std::map, not unordered_map — the
  // search tree is under the determinism linter rule, and ordered lookups on
  // 64-bit key pairs are plenty fast at population sizes.
  std::map<std::pair<uint64_t, uint64_t>, size_t> unique;  // key -> slot index
  std::vector<const CompactAst*> unique_asts;
  std::vector<int> unique_devices;
  std::vector<uint64_t> unique_hashes;  // unique_asts[j]'s query ast_hash, passed on
  std::vector<size_t> slot_of(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const CostQuery& q = queries[i];
    CDMPP_CHECK(q.ast != nullptr && q.ast->num_leaves > 0);
    assert(q.ast_hash == q.ast->Hash());
    const std::pair<uint64_t, uint64_t> key{q.ast_hash, DeviceFingerprint(q.device_id)};
    const auto [it, inserted] = unique.emplace(key, unique_asts.size());
    if (inserted) {
      unique_asts.push_back(q.ast);
      unique_devices.push_back(q.device_id);
      unique_hashes.push_back(key.first);
    }
    slot_of[i] = it->second;
  }
  // One bulk submission for the whole deduplicated population, with the
  // queries' hashes so the service does not hash each AST again. The
  // service scores it on this thread (see SubmitBorrowedBatch), so every
  // future is resolved on return; collecting positionally and fanning out
  // to duplicates in index order keeps the score vector independent of how
  // the service batched the population.
  std::vector<std::future<double>> futures =
      service_->SubmitBorrowedBatch(unique_asts, unique_devices, unique_hashes);
  std::vector<double> unique_scores(futures.size());
  for (size_t j = 0; j < futures.size(); ++j) {
    unique_scores[j] = futures[j].get();
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    (*scores)[i] = unique_scores[slot_of[i]];
  }
  stats_.submitted += futures.size();
  stats_.deduped += queries.size() - futures.size();
}

}  // namespace cdmpp
