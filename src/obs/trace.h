// Sampled per-request trace spans: where did a request's latency go?
//
// The serving layer samples 1-in-N requests (CDMPP_TRACE_SAMPLE; 0/unset =
// off, 1 = every request). For a sampled request, the worker binds a Trace to
// the thread via ScopedTraceBinding while it forms and runs the batch;
// ScopedSpan instances down the stack (prediction_service.cc, predictor.cc,
// attention.cc, layers.cc, quantize.cc) then record named stage timings into
// it, nested. When no trace is bound — the 1-(1/N) common case, and ALWAYS
// when sampling is off — ScopedSpan is a thread-local load and a branch: no
// clock read, no allocation, nothing the ≤1% overhead gate can see.
//
// Spans are recorded only on the thread that owns the binding; on any other
// thread a ScopedSpan is a no-op. A stage that forks internally (GEMM
// panels) is measured as whole-call wall time on the calling worker. The
// predictor's serving shards open their stage spans inside the chunk body,
// so a traced sharded wave records the stages of the shards the calling
// worker ran (a caller always runs the first chunk of its region), and its
// wait for the others lands in the enclosing forward span. Spans only read
// clocks, so tracing cannot change a result.
//
// Attribution uses EXCLUSIVE time — each span's duration minus its nested
// children — so per-stage numbers sum to (at most) the request total and the
// collector can assert that named stages explain >= 95% of measured latency.
//
// This header depends only on the C++ standard library so that src/support/
// may include obs/ without inverting the layering.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace cdmpp {
namespace obs {

// Stages tile a request's submit-to-fulfill interval. Order is display order.
enum class Stage : int {
  kQueueWait = 0,    // submit -> worker drains the request from the queue
  kBatchFormation,   // coalescing, cache re-check, head creation
  kCacheLookup,      // submit-path cache-hit fast path (whole-request)
  kForward,          // batched forward glue (plan build, lock wait, chunking)
  kFeaturize,        // AST -> feature matrix
  kQuantize,         // fp32 -> int8 activation quantization (int8 tier only)
  kEncoder,          // input projection + transformer encoder
  kAttention,        // multi-head self-attention (nested inside encoder)
  kLayerNorm,        // layer norms (nested inside encoder)
  kHeads,            // leaf-bucket regression head
  kDeviceMlp,        // device-feature embedding MLP
  kDecoder,          // fused [z_x; z_dev] decoder
  kDequant,          // inverse label transform back to seconds (the int8 GEMM
                     // dequant epilogue is fused in-kernel, attributed to its
                     // host stage)
  kFinalize,         // cache insert + promise fulfillment
  kNumStages
};
constexpr int kNumStages = static_cast<int>(Stage::kNumStages);
const char* StageName(Stage stage);

struct SpanRecord {
  Stage stage = Stage::kQueueWait;
  int depth = 0;            // 0 = top-level within the trace
  double total_ms = 0.0;    // wall time including nested spans
  double exclusive_ms = 0.0;  // total minus nested children
};

// Span sink for one batch (or one request). Not thread-safe: written only by
// the worker thread that bound it.
class Trace {
 public:
  void AddSpan(Stage stage, int depth, double total_ms, double exclusive_ms) {
    spans_.push_back(SpanRecord{stage, depth, total_ms, exclusive_ms});
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::vector<SpanRecord> spans_;
};

namespace detail {
struct TraceContext {
  static constexpr int kMaxDepth = 16;
  Trace* trace = nullptr;
  int depth = 0;
  // child_ms[d] accumulates the duration of completed spans at depth d; a
  // parent at depth d-1 reads child_ms[d] to compute its exclusive time.
  // Sized kMaxDepth + 2: spans saturate at depth kMaxDepth and still index
  // child_ms[kMaxDepth + 1].
  double child_ms[kMaxDepth + 2] = {};
};
TraceContext*& CurrentTraceContext();
}  // namespace detail

// Binds `trace` as the current thread's span sink for this scope; pass
// nullptr for a no-op binding (the untraced batch case reads one branch).
class ScopedTraceBinding {
 public:
  explicit ScopedTraceBinding(Trace* trace);
  ~ScopedTraceBinding();
  ScopedTraceBinding(const ScopedTraceBinding&) = delete;
  ScopedTraceBinding& operator=(const ScopedTraceBinding&) = delete;

 private:
  detail::TraceContext ctx_;
  detail::TraceContext* prev_ = nullptr;
  bool active_ = false;
};

// RAII stage timer. Free when no trace is bound to the thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(Stage stage) : ctx_(detail::CurrentTraceContext()) {
    if (ctx_ == nullptr) {
      return;
    }
    stage_ = stage;
    depth_ = ctx_->depth;
    if (ctx_->depth < detail::TraceContext::kMaxDepth) {
      ++ctx_->depth;
    }
    ctx_->child_ms[depth_ + 1] = 0.0;  // fresh accumulator for my children
    start_ = std::chrono::steady_clock::now();
  }
  ~ScopedSpan() {
    if (ctx_ == nullptr) {
      return;
    }
    const double total_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start_)
            .count();
    const double exclusive_ms = total_ms - ctx_->child_ms[depth_ + 1];
    ctx_->trace->AddSpan(stage_, depth_, total_ms, exclusive_ms);
    ctx_->child_ms[depth_] += total_ms;
    if (ctx_->depth > depth_) {
      ctx_->depth = depth_;
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  detail::TraceContext* ctx_;
  Stage stage_ = Stage::kQueueWait;
  int depth_ = 0;
  std::chrono::steady_clock::time_point start_;
};

// One completed sampled request, as emitted to the collector.
struct RequestTrace {
  double total_ms = 0.0;  // submit -> promise fulfilled
  std::array<double, kNumStages> stage_ms{};  // exclusive time per stage
  std::vector<SpanRecord> spans;

  // Records an externally-timed top-level segment (queue wait, finalize).
  void AddSegment(Stage stage, double ms);
  // Copies a batch trace's spans in and accrues their exclusive times.
  void AppendSpans(const Trace& trace);
  double AttributedMs() const;
  // Fraction of total_ms explained by named stages, in [0, 1]; 1 for an
  // empty/zero-length trace.
  double AttributedFraction() const;
};

// Process-wide sink for sampled request traces: per-stage aggregates plus a
// small ring of recent traces for inspection. Emission takes a mutex, but
// only sampled requests reach it.
class TraceCollector {
 public:
  // Sampling rate initialized once from CDMPP_TRACE_SAMPLE (complete decimal
  // integer >= 1 enables 1-in-N; anything else, including unset, disables
  // with a stderr warning for malformed values).
  static TraceCollector& Global();

  // Relaxed on both sides: sample_every_ is a self-contained rate knob. A
  // rate change publishes no other data, so a racing ShouldSample() reading
  // the old rate for one more request is correct behavior, not a reorder
  // hazard. Completed traces are handed to the collector under its mutex,
  // which is the actual happens-before edge for trace payloads.
  int sample_every() const { return sample_every_.load(std::memory_order_relaxed); }
  void SetSampleEvery(int n) { sample_every_.store(n, std::memory_order_relaxed); }
  // True 1-in-N by arrival order; false always when sampling is disabled
  // (one relaxed load + branch — the Submit hot path cost).
  bool ShouldSample() {
    const int n = sample_every_.load(std::memory_order_relaxed);
    if (n <= 0) {
      return false;
    }
    return ticket_.fetch_add(1, std::memory_order_relaxed) % static_cast<uint64_t>(n) == 0;
  }

  void Emit(RequestTrace trace);

  struct Stats {
    uint64_t traces = 0;
    double total_ms = 0.0;                       // summed over traces
    std::array<double, kNumStages> stage_ms{};   // summed exclusive time
    double attributed_ms = 0.0;
    // Aggregate fraction of traced latency attributed to named stages.
    double AttributedFraction() const {
      return total_ms > 0.0 ? attributed_ms / total_ms : 1.0;
    }
  };
  Stats GetStats() const;
  std::vector<RequestTrace> Recent() const;

  // Clears aggregates and the recent ring; keeps the sampling rate.
  void Reset();

  // {"sample_every": N, "traces": M, "attributed_fraction": f,
  //  "stages": {name: {"total_ms": t, "mean_ms": m, "share": s}, ...}}
  std::string DumpJson() const;

 private:
  TraceCollector();

  static constexpr size_t kRecentCapacity = 32;

  std::atomic<int> sample_every_{0};
  std::atomic<uint64_t> ticket_{0};
  mutable std::mutex mu_;
  Stats stats_;
  std::deque<RequestTrace> recent_;
};

}  // namespace obs
}  // namespace cdmpp

#endif  // SRC_OBS_TRACE_H_
