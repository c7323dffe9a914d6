// Load generation for the serve workloads, from one bench thread.
//
// The thread that sends also stamps completions: between sends it sweeps the
// outstanding futures with wait_for(0), in any order, never blocking on one
// of them. A future already ready when Submit returns (a cache hit) is
// stamped right there. Latency runs from the request's *intended* send time
// to the moment its future is seen ready, so a stall in the generator or the
// service is charged to every request it delays.
//
// Between sweeps the thread sleeps (timer slack 1 us) for kPollInterval, and
// wakes kWakeAhead before the next due time to spin onto it. A spinning load
// thread keeps one of a 4-vCPU host's vCPUs busy for the whole run; measured
// on such a host, that tripled the generator's late-send p99 (0.65-0.86 ms vs
// 0.014-0.026 ms) and the share of 0.25-s windows whose p99 a host stall
// spiked (0.45-0.52 vs 0.23-0.32). The price is the stamp's resolution, the
// sweep gap, which each phase reports as its measurement floor (p99 ~25 us).
// The saturation phase spins, and counts only the requests the service's
// workers answered: hits, answered inside Submit on this thread, would make it
// measure the thread's own submit rate.
#ifndef BENCH_E2E_LOAD_H_
#define BENCH_E2E_LOAD_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <random>
#include <string>
#include <vector>

#include "spans.h"
#include "src/obs/histogram.h"
#include "src/serve/prediction_service.h"

namespace cdmpp_bench {

struct RequestKey {
  const cdmpp::CompactAst* ast = nullptr;
  int device_id = 0;
};

// A served value kept for the correctness re-check.
struct ServedSample {
  RequestKey key;
  double value = 0.0;
};

struct PhaseStats {
  std::string name;
  bool open_loop = true;
  double rate_rps = 0.0;  // offered rate (open loop); 0 for the saturation phase
  double seconds = 0.0;
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;  // future threw, or never completed
  uint64_t ready_at_submit = 0;  // succeeded, answered inside Submit (cache hits)

  // Open loop: latency from due time to observed completion.
  double p50_ms = 0.0;  // over the whole phase
  double p99_ms = 0.0;  // median over the phase's windows of each window's p99
  std::vector<double> window_p99_ms;
  std::vector<uint64_t> window_n;
  double late_p99_ms = 0.0;  // how late the generator sent, vs the due time
  double late_max_ms = 0.0;
  std::vector<double> submit_us;  // duration of each Submit() call (traced runs)

  // Saturation: completions by the service's workers per second with a fixed
  // number of them in flight, as the median over the phase's windows.
  double completed_per_s = 0.0;
  std::vector<double> window_per_s;

  double floor_p50_us = 0.0;  // gap between completion sweeps: the stamp's resolution
  double floor_p99_us = 0.0;
};

class LoadDriver {
 public:
  // Sets the calling thread's timer slack to 1 us (for the poll sleeps); the
  // driver must be used from that thread.
  LoadDriver(cdmpp::PredictionService* service, std::function<RequestKey()> next_key,
             uint64_t seed, SpanLog* spans);

  // Poisson arrivals at `rate_rps` for `seconds`; latencies are reduced per
  // window (`windows` equal slices of the phase by due time).
  PhaseStats RunOpenLoop(const std::string& name, double rate_rps, double seconds, int windows,
                         bool time_submits);

  // Closed loop that keeps `in_flight` requests outstanding at the service's
  // workers, counting their completions per window (`windows` equal slices of
  // the phase).
  PhaseStats RunSaturation(const std::string& name, double seconds, int windows,
                           int in_flight);

  // Every kSampleEvery-th request's served value.
  const std::vector<ServedSample>& samples() const { return samples_; }

  static constexpr uint64_t kSampleEvery = 97;
  static constexpr uint64_t kSpanEvery = 64;
  static constexpr std::chrono::microseconds kPollInterval{20};
  static constexpr std::chrono::microseconds kWakeAhead{15};

 private:
  struct Pending {
    std::future<double> future;
    Clock::time_point due;
    RequestKey key;
    uint64_t seq = 0;
  };
  struct Completion {
    Clock::time_point due;
    Clock::time_point done;
  };

  // Sends the next request, due at `due`. Completions go to `done` (open
  // loop) or, when it is null, those of the workers are counted into the
  // saturation phase's windows.
  void Send(Clock::time_point due, PhaseStats* st, std::vector<Completion>* done,
            bool time_submits);
  void Finish(Pending* p, Clock::time_point stamp, bool at_submit, PhaseStats* st,
              std::vector<Completion>* done);
  void Sweep(PhaseStats* st, std::vector<Completion>* done);
  // Waits (sweeping) for everything outstanding; what is still pending after
  // the deadline counts as failed.
  void Drain(PhaseStats* st, std::vector<Completion>* done);

  cdmpp::PredictionService* service_;
  std::function<RequestKey()> next_key_;
  std::mt19937_64 rng_;
  SpanLog* spans_;
  uint64_t seq_ = 0;
  std::vector<Pending> outstanding_;
  Clock::time_point count_from_;
  Clock::duration count_window_{};
  std::vector<uint64_t> counted_;  // completions per saturation window
  std::vector<ServedSample> samples_;
  // Gaps between consecutive sweeps while something is outstanding; one
  // entry per loop turn, hence a fixed-size histogram instead of a vector.
  cdmpp::obs::LogHistogram sweep_gaps_us_;
  bool sweeping_ = false;
  Clock::time_point last_sweep_;
};

}  // namespace cdmpp_bench

#endif  // BENCH_E2E_LOAD_H_
