#include "src/serve/prediction_service.h"

#include <algorithm>
#include <cassert>
#include <exception>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "src/device/device.h"
#include "src/support/check.h"

namespace cdmpp {

namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

double MsBetween(std::chrono::steady_clock::time_point t0,
                 std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

template <typename Error>
std::future<double> FailedFuture(const Error& error) {
  std::promise<double> failed;
  failed.set_exception(std::make_exception_ptr(error));
  return failed.get_future();
}

}  // namespace

PredictionService::PredictionService(CdmppPredictor* predictor, const ServeOptions& options)
    : predictor_(predictor),
      options_(options),
      cache_(options.cache_capacity, options.cache_shards) {
  CDMPP_CHECK(predictor != nullptr);
  CDMPP_CHECK_MSG(predictor->fitted(), "serve an unfitted predictor: run Pretrain first");
  CDMPP_CHECK(options.num_workers >= 0);
  CDMPP_CHECK(options.max_batch_size > 0);
  CDMPP_CHECK(options.batch_window_ms >= 0.0);
  if (options.precision != Precision::kFp32) {
    // Pack the int8 weights from the current fp32 parameters before any
    // worker exists (single-threaded here, so mutating is safe).
    predictor->PrepareQuantizedInference();
  }
  workers_.reserve(static_cast<size_t>(options.num_workers));
  for (int i = 0; i < options.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

PredictionService::~PredictionService() { Shutdown(); }

void PredictionService::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    if (stop_) {
      return;
    }
    stop_ = true;
    // Borrowed batches that started before stop_ finish on their callers'
    // threads; no forward may still be running once Shutdown returns.
    borrowed_done_cv_.wait(lock, [this] { return borrowed_running_ == 0; });
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  workers_.clear();
}

void PredictionService::Recalibrate() {
  if (options_.precision == Precision::kFp32) {
    return;
  }
  // Exclusive lock: waits out in-flight forwards (shared holders), repacks,
  // and releases. PrepareQuantizedInference packs every materialized head,
  // so leaf counts the service has already served stay covered.
  std::unique_lock<std::shared_mutex> lock(model_mu_);
  predictor_->PrepareQuantizedInference();
}

bool PredictionService::BuildRequest(const CompactAst& ast, uint64_t ast_hash, int device_id,
                                     bool copy_ast, Request* req, std::future<double>* ready) {
  const auto t0 = std::chrono::steady_clock::now();
  // Boundary checks fail this request's future instead of aborting, so
  // DeviceFingerprint's range check below never fires.
  if (ast.num_leaves <= 0) {
    *ready = FailedFuture(std::invalid_argument("CompactAst has no leaves"));
    return false;
  }
  if (device_id < 0 || device_id >= static_cast<int>(DeviceRegistry().size())) {
    *ready = FailedFuture(std::invalid_argument("device_id " + std::to_string(device_id) +
                                                " is not in the device registry"));
    return false;
  }
  CacheKey key{ast_hash, DeviceFingerprint(device_id)};
  // Sampling decision up front so the cache-hit fast path is traceable too.
  // With sampling off (the default) this is one relaxed load and a branch.
  const bool traced = obs::TraceCollector::Global().ShouldSample();

  if (options_.enable_cache) {
    double cached = 0.0;
    if (cache_.Lookup(key, &cached)) {
      stats_.RecordRequest();
      stats_.RecordCacheHits();
      stats_.RecordLatencyMs(MsSince(t0));
      std::promise<double> resolved;
      resolved.set_value(cached);
      if (traced) {
        // The whole submit-path hit is the cache lookup stage.
        obs::RequestTrace trace;
        trace.total_ms = MsSince(t0);
        trace.AddSegment(obs::Stage::kCacheLookup, trace.total_ms);
        obs::TraceCollector::Global().Emit(std::move(trace));
      }
      *ready = resolved.get_future();
      return false;
    }
  }

  if (copy_ast) {
    req->owned_ast = ast;
  } else {
    req->borrowed_ast = &ast;
  }
  req->device_id = device_id;
  req->key = key;
  req->submit_time = t0;
  req->traced = traced;
  return true;
}

std::future<double> PredictionService::Submit(const CompactAst& ast, int device_id) {
  Request req;
  std::future<double> ready;
  if (!BuildRequest(ast, ast.Hash(), device_id, /*copy_ast=*/true, &req, &ready)) {
    return ready;
  }
  if (options_.num_workers == 0) {
    return FailedFuture(std::logic_error("Submit cache miss on a service with no workers"));
  }
  std::future<double> result = req.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stop_) {
      return FailedFuture(std::logic_error("Submit after Shutdown"));
    }
    queue_.push_back(std::move(req));
  }
  queue_cv_.notify_one();
  return result;
}

std::vector<std::future<double>> PredictionService::SubmitBorrowedBatch(
    const std::vector<const CompactAst*>& asts, const std::vector<int>& device_ids,
    const std::vector<uint64_t>& ast_hashes) {
  CDMPP_CHECK(asts.size() == device_ids.size());
  CDMPP_CHECK(ast_hashes.empty() || ast_hashes.size() == asts.size());
  std::vector<std::future<double>> futures;
  futures.reserve(asts.size());
  std::vector<Request> pending;
  pending.reserve(asts.size());
  for (size_t i = 0; i < asts.size(); ++i) {
    CDMPP_CHECK(asts[i] != nullptr);
    assert(ast_hashes.empty() || ast_hashes[i] == asts[i]->Hash());
    const uint64_t hash = ast_hashes.empty() ? asts[i]->Hash() : ast_hashes[i];
    Request req;
    std::future<double> ready;
    if (BuildRequest(*asts[i], hash, device_ids[i], /*copy_ast=*/false, &req, &ready)) {
      futures.push_back(req.promise.get_future());
      pending.push_back(std::move(req));
    } else {
      futures.push_back(std::move(ready));
    }
  }
  if (pending.empty()) {
    return futures;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stop_) {
      const std::exception_ptr error =
          std::make_exception_ptr(std::logic_error("SubmitBorrowedBatch after Shutdown"));
      for (Request& req : pending) {
        req.promise.set_exception(error);
      }
      return futures;
    }
    ++borrowed_running_;
  }
  // Leaves the running count on every exit, so Shutdown never waits on a
  // batch whose forward threw.
  struct RunningGuard {
    PredictionService* service;
    ~RunningGuard() {
      std::lock_guard<std::mutex> lock(service->queue_mu_);
      if (--service->borrowed_running_ == 0 && service->stop_) {
        service->borrowed_done_cv_.notify_all();
      }
    }
  } running{this};
  // The caller runs its own population: the whole miss set is one batch,
  // formed already, so handing it to a worker would only add two thread
  // hops. The forward still shards over the pool.
  WorkspacePool::Lease ws = WorkspacePool::Global().Acquire();
  std::vector<double> predictions;
  ProcessBatch(std::move(pending), std::chrono::steady_clock::now(), /*queued=*/false, ws.get(),
               &predictions);
  return futures;
}

double PredictionService::Predict(const CompactAst& ast, int device_id) {
  return Submit(ast, device_id).get();
}

void PredictionService::WorkerLoop() {
  // Per-worker arena leased from the process-wide pool for the worker's
  // lifetime (returned warm at shutdown, so the next service or caller
  // reuses it), plus a reusable output buffer: steady-state forward passes
  // touch the heap zero times once warm (src/nn/workspace.h). The forward
  // runs each wave of a drain as one region of row shards: the first shard
  // in this arena, the others in arenas leased from the same pool; checkout
  // grows on demand and never blocks, so worker-level and per-shard leases
  // compose without deadlock. A drain of fewer than four rows runs inline.
  // Workers need not avoid a busy compute pool either: each worker's region
  // registers separately and concurrent forwards compose through the
  // work-stealing scheduler (src/support/parallel_for.cc) instead of one of
  // them collapsing to serial.
  WorkspacePool::Lease ws = WorkspacePool::Global().Acquire();
  std::vector<double> predictions;
  for (;;) {
    std::vector<Request> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stop_ set and nothing left to drain
      }
      // Dispatch on arrival by default (batch_window_ms == 0): take whatever
      // has queued and run it now. Under load, batches still fill from the
      // requests that queued while every worker was busy, and a drain of
      // fewer than four rows runs inline, so a small batch wakes no pool
      // threads. A window > 0 holds a partial batch that long, as a plain
      // unlocked sleep rather than a condition wait: every Submit notifies
      // the queue, and a condition wait would wake once per request.
      // Shutdown latency is bounded by the window.
      if (options_.batch_window_ms > 0.0 && !stop_ &&
          static_cast<int>(queue_.size()) < options_.max_batch_size) {
        lock.unlock();
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(options_.batch_window_ms));
        lock.lock();
      }
      const size_t take =
          std::min(queue_.size(), static_cast<size_t>(options_.max_batch_size));
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    const auto drained_at = std::chrono::steady_clock::now();
    ProcessBatch(std::move(batch), drained_at, /*queued=*/true, ws.get(), &predictions);
  }
}

void PredictionService::ProcessBatch(std::vector<Request> requests,
                                     std::chrono::steady_clock::time_point ready_at, bool queued,
                                     Workspace* ws, std::vector<double>* predictions) {
  // Trace plumbing: if the sampler picked any request in this batch, bind a
  // batch-level Trace to this thread so the ScopedSpan hooks down the stack
  // (formation, forward sub-stages) record into it. Untraced batches bind
  // nothing and every hook below stays a thread-local load + branch.
  bool traced_any = false;
  for (const Request& req : requests) {
    traced_any |= req.traced;
  }
  obs::Trace batch_trace;
  obs::ScopedTraceBinding trace_binding(traced_any ? &batch_trace : nullptr);
  // forward_done marks the forward/finalize stage boundary for the traces;
  // only traced batches read the clock for it.
  auto forward_done = ready_at;

  // Emits the per-request trace at fulfill time: submit -> ready_at (queue
  // wait for a queued request, formation for a borrowed one), then either
  // the batch's recorded spans plus a finalize segment (computed requests)
  // or the formation time so far (requests a concurrent cache insert
  // resolved mid-formation).
  auto emit_trace = [&](const Request& req, bool computed) {
    obs::RequestTrace trace;
    trace.total_ms = MsSince(req.submit_time);
    trace.AddSegment(queued ? obs::Stage::kQueueWait : obs::Stage::kBatchFormation,
                     MsBetween(req.submit_time, ready_at));
    if (computed) {
      trace.AppendSpans(batch_trace);
      trace.AddSegment(obs::Stage::kFinalize, MsSince(forward_done));
    } else {
      trace.AddSegment(obs::Stage::kBatchFormation, MsBetween(ready_at,
                                                              std::chrono::steady_clock::now()));
    }
    obs::TraceCollector::Global().Emit(std::move(trace));
  };

  // Coalesce duplicate in-flight keys: one forward row answers all of them.
  std::unordered_map<CacheKey, std::vector<size_t>, CacheKeyHash> groups;
  std::vector<size_t> unique_order;  // first request position per distinct key
  std::vector<size_t> to_compute;
  AstBatchView view;

  auto fulfill = [&](const CacheKey& key, double latency_seconds, bool computed) {
    for (size_t pos : groups.at(key)) {
      // Record before resolving: a client observing the future must also
      // observe its request in Stats().
      stats_.RecordRequest();
      stats_.RecordLatencyMs(MsSince(requests[pos].submit_time));
      requests[pos].promise.set_value(latency_seconds);
      if (requests[pos].traced) {
        emit_trace(requests[pos], computed);
      }
    }
  };

  {
    obs::ScopedSpan formation_span(obs::Stage::kBatchFormation);
    for (size_t i = 0; i < requests.size(); ++i) {
      auto [it, inserted] = groups.try_emplace(requests[i].key);
      if (inserted) {
        unique_order.push_back(i);
      }
      it->second.push_back(i);
    }

    // Re-check the cache: another thread may have computed a key since these
    // requests were built.
    for (size_t pos : unique_order) {
      double cached = 0.0;
      if (options_.enable_cache && cache_.Lookup(requests[pos].key, &cached)) {
        stats_.RecordCacheHits(groups.at(requests[pos].key).size());
        fulfill(requests[pos].key, cached, /*computed=*/false);
      } else {
        to_compute.push_back(pos);
      }
    }
    if (to_compute.empty()) {
      return;
    }

    view.asts.reserve(to_compute.size());
    view.device_ids.reserve(to_compute.size());
    for (size_t pos : to_compute) {
      view.asts.push_back(&requests[pos].ast());
      view.device_ids.push_back(requests[pos].device_id);
    }
    // Rare slow path: create heads (int8-packed on a prepared predictor)
    // for leaf counts training never saw, under the exclusive lock.
    // EnsureHead re-checks, so racing threads are safe (and duplicate
    // entries here are harmless).
    std::vector<int> missing_heads;
    {
      std::shared_lock<std::shared_mutex> lock(model_mu_);
      for (const CompactAst* ast : view.asts) {
        if (!predictor_->HasHead(ast->num_leaves)) {
          missing_heads.push_back(ast->num_leaves);
        }
      }
    }
    if (!missing_heads.empty()) {
      std::unique_lock<std::shared_mutex> lock(model_mu_);
      for (int leaves : missing_heads) {
        predictor_->EnsureHead(leaves);
      }
    }
  }

  predictions->resize(view.size());  // shrink/grow keeps capacity
  uint64_t passes = 0;
  {
    // Span covers lock acquisition + batched forward; the per-stage spans the
    // predictor opens (featurize/encoder/heads/...) nest inside, so this
    // span's exclusive time is the forward glue (plan build, chunking).
    obs::ScopedSpan forward_span(obs::Stage::kForward);
    std::shared_lock<std::shared_mutex> lock(model_mu_);
    if (options_.precision != Precision::kFp32) {
      predictor_->PredictBatchedQuantized(view, ws, predictions->data(), &passes,
                                          options_.precision);
    } else {
      predictor_->PredictBatched(view, ws, predictions->data(), &passes);
    }
  }
  if (traced_any) {
    forward_done = std::chrono::steady_clock::now();
  }
  stats_.RecordForwardPasses(passes, static_cast<uint64_t>(view.size()));

  for (size_t u = 0; u < to_compute.size(); ++u) {
    const CacheKey& key = requests[to_compute[u]].key;
    const double latency_seconds = (*predictions)[u];
    if (options_.enable_cache) {
      cache_.Insert(key, latency_seconds);
    }
    stats_.RecordCoalesced(groups.at(key).size() - 1);
    fulfill(key, latency_seconds, /*computed=*/true);
  }
}

}  // namespace cdmpp
