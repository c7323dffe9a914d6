// The client seam between the cost model's consumers (schedule search,
// autotuner trial scoring) and the cost model itself.
//
// The paper's whole point (§7.5, Fig. 14(b)) is that a latency cost model
// absorbs millions of candidate queries from a schedule tuner. Before this
// seam existed the search loop called the predictor synchronously one
// candidate at a time, so none of the serving-tier wins (cross-request
// batching, in-flight coalescing, the sharded LRU cache, int8 kernels,
// thread-parallel forwards) were visible to the tuner. A CostModelClient
// scores whole populations at once:
//
//   search / autotuner ──ScoreBatch(queries)──▶ CostModelClient
//        │                                          │
//        │            ┌─────────────────────────────┼──────────────────┐
//        │            ▼                             ▼                  ▼
//        │     DirectCostModel               ServeCostModel       FnCostModel
//        │     (serial, one const            (dedup by AST hash   (arbitrary
//        │      batched forward of            + device finger-     CostModelFn,
//        │      size 1 per query —            print, hand the      e.g. the XGB
//        │      the pre-serving               unique rows and      baseline)
//        │      baseline shape)               their hashes to
//        │                                    SubmitBorrowed-
//        │                                    Batch, which scores
//        │                                    them on this thread;
//        │                                    collect in index
//        ▼                                    order)
//   stable index-ordered score vector (the determinism contract below)
//
// Determinism contract: for a fixed model state, (*scores)[i] depends only on
// queries[i] — never on thread count, batching boundaries, cache state, or
// future completion order. The serve path honors it because PredictBatched is
// bitwise batch-size- and thread-count-invariant (src/core/predictor.h) and
// scores are collected positionally, not in completion order; search drivers
// rank and mutate only from this index-ordered vector, so a same-seed search
// produces bitwise-identical SearchCurves under every client and
// CDMPP_NUM_THREADS value (tests/search_test.cc pins this).
#ifndef SRC_SEARCH_COST_MODEL_CLIENT_H_
#define SRC_SEARCH_COST_MODEL_CLIENT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/ast/compact_ast.h"
#include "src/core/predictor.h"
#include "src/serve/prediction_service.h"

namespace cdmpp {

// Cost model interface: estimated latency (seconds) of a candidate program.
// Kept for baselines that are plain functions (XGBoost, heuristics in tests);
// FnCostModel adapts it to the client seam.
using CostModelFn = std::function<double(const CompactAst& ast, int device_id)>;

// One candidate to score. The AST is borrowed: it must stay alive and
// unmodified until ScoreBatch returns. `ast_hash` must equal ast->Hash(): it
// is the AST half of the serving cache key, and ServeCostModel dedups and
// submits by it without hashing again, so a stale hash serves or caches
// another program's latency (debug builds assert it). Producers compute it
// where the AST is made — the search drivers inside ExtractPopulation's
// fork — and the constructor takes every field, so a producer cannot leave
// the hash out.
struct CostQuery {
  CostQuery(const CompactAst* query_ast, int query_device_id, uint64_t query_ast_hash)
      : ast(query_ast), device_id(query_device_id), ast_hash(query_ast_hash) {}

  const CompactAst* ast;
  int device_id;
  uint64_t ast_hash;
};

// Traffic accounting across a client's lifetime (ResetStats reopens it).
struct CostClientStats {
  uint64_t queries = 0;    // candidates scored
  uint64_t submitted = 0;  // requests actually issued after batch-local dedup
  uint64_t deduped = 0;    // duplicates answered from another query's result
  double score_seconds = 0.0;  // wall-clock spent inside ScoreBatch
};

class CostModelClient {
 public:
  virtual ~CostModelClient() = default;

  // Scores a population: resizes *scores to queries.size() and fills
  // (*scores)[i] with the predicted latency (seconds) of queries[i].
  // Implementations may evaluate asynchronously and out of order, but the
  // result vector is always index-ordered (see the header contract).
  void ScoreBatch(const std::vector<CostQuery>& queries, std::vector<double>* scores);

  const CostClientStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CostClientStats(); }

 protected:
  virtual void ScoreBatchImpl(const std::vector<CostQuery>& queries,
                              std::vector<double>* scores) = 0;
  CostClientStats stats_;
};

// Adapts a plain CostModelFn (XGB baseline, test heuristics) to the seam.
class FnCostModel : public CostModelClient {
 public:
  explicit FnCostModel(CostModelFn fn) : fn_(std::move(fn)) {}

 protected:
  void ScoreBatchImpl(const std::vector<CostQuery>& queries,
                      std::vector<double>* scores) override;

 private:
  CostModelFn fn_;
};

// The direct-serial baseline: one const batched forward of size 1 per query
// on the calling thread — the shape every search loop had before the serving
// integration, kept as a first-class client so the serve-vs-direct A/B in
// bench_tuning measures exactly the batching/caching delta. `precision`
// selects the numeric tier (default: the CDMPP_PRECISION process default, so
// direct and serve runs compare like for like). Not thread-safe: scoring
// creates missing heads on the predictor, so one client per
// predictor per thread, and don't score while a PredictionService serves the
// same predictor.
class DirectCostModel : public CostModelClient {
 public:
  explicit DirectCostModel(CdmppPredictor* predictor,
                           Precision precision = DefaultPrecision());

 protected:
  void ScoreBatchImpl(const std::vector<CostQuery>& queries,
                      std::vector<double>* scores) override;

 private:
  CdmppPredictor* predictor_;
  Precision precision_;
  Workspace ws_;
};

// The serving-backed client: hands every unique candidate of the batch to
// the PredictionService in one SubmitBorrowedBatch call and collects results
// in index order. Batch-local duplicates are deduplicated client-side by
// (CostQuery::ast_hash, DeviceFingerprint(device_id)) before submission, and
// the queries' hashes go along with the ASTs, so no candidate is hashed on
// this thread and the device fingerprints come from the registry's table;
// candidates re-visited across batches hit the service's
// sharded LRU cache under the same key instead of the forward pass. ASTs go
// out zero-copy, and the service runs the population's cache misses as one
// batch on the calling thread (coalesced, leaf-count-bucketed, the forward
// sharded over the global pool): no queue, no worker wake-up, no
// batch-window wait (ServeOptions::batch_window_ms applies to queued Submit
// traffic only, so the defaults suit this client), and every future is resolved when the call returns,
// which is exactly the borrowed-lifetime contract. ScoreBatch therefore
// takes the service's workers out of the tuning loop (a service only it uses
// can have none: ServeOptions::num_workers = 0); Submit traffic needs them.
// Thread-compatible: the service is thread-safe, but one ServeCostModel's
// stats are not; use one client per search driver.
class ServeCostModel : public CostModelClient {
 public:
  explicit ServeCostModel(PredictionService* service);

 protected:
  void ScoreBatchImpl(const std::vector<CostQuery>& queries,
                      std::vector<double>* scores) override;

 private:
  PredictionService* service_;
};

}  // namespace cdmpp

#endif  // SRC_SEARCH_COST_MODEL_CLIENT_H_
