#include "load.h"

#include <sys/prctl.h>

#include <algorithm>
#include <thread>
#include <utility>

#include "src/support/stats.h"

namespace cdmpp_bench {

namespace {

double Ms(Clock::duration d) { return std::chrono::duration<double, std::milli>(d).count(); }
double Us(Clock::duration d) { return std::chrono::duration<double, std::micro>(d).count(); }
Clock::duration Secs(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

bool Ready(const std::future<double>& f) {
  return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

// A request still pending this long after its phase ended never completes.
constexpr auto kDrainTimeout = std::chrono::seconds(10);

}  // namespace

LoadDriver::LoadDriver(cdmpp::PredictionService* service, std::function<RequestKey()> next_key,
                       uint64_t seed, SpanLog* spans)
    : service_(service), next_key_(std::move(next_key)), rng_(seed), spans_(spans) {
  // The default 50 us slack would stretch every 20 us poll sleep to ~70 us.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
}

void LoadDriver::Send(Clock::time_point due, PhaseStats* st, std::vector<Completion>* done,
                      bool time_submits) {
  Pending p;
  p.due = due;
  p.key = next_key_();
  p.seq = seq_++;
  ++st->attempted;
  const Clock::time_point t0 = Clock::now();
  try {
    p.future = service_->Submit(*p.key.ast, p.key.device_id);
  } catch (...) {
    ++st->failed;
    return;
  }
  const Clock::time_point t1 = Clock::now();
  if (time_submits) {
    st->submit_us.push_back(Us(t1 - t0));
  }
  if (p.seq % kSpanEvery == 0) {
    spans_->Add("submit", "request", p.seq, t0, t1);
  }
  if (Ready(p.future)) {
    Finish(&p, t1, /*at_submit=*/true, st, done);
  } else {
    outstanding_.push_back(std::move(p));
  }
}

void LoadDriver::Finish(Pending* p, Clock::time_point stamp, bool at_submit, PhaseStats* st,
                        std::vector<Completion>* done) {
  double value = 0.0;
  try {
    value = p->future.get();
  } catch (...) {
    ++st->failed;
    return;
  }
  ++st->succeeded;
  st->ready_at_submit += at_submit ? 1 : 0;
  if (done != nullptr) {
    done->push_back(Completion{p->due, stamp});
  } else if (!at_submit) {
    const auto w = static_cast<size_t>((stamp - count_from_) / count_window_);
    if (w < counted_.size()) {
      ++counted_[w];
    }
  }
  if (p->seq % kSampleEvery == 0) {
    samples_.push_back(ServedSample{p->key, value});
  }
  if (p->seq % kSpanEvery == 0) {
    spans_->Add("request", nullptr, p->seq, p->due, stamp);
  }
}

void LoadDriver::Sweep(PhaseStats* st, std::vector<Completion>* done) {
  const Clock::time_point now = Clock::now();
  if (sweeping_) {
    sweep_gaps_us_.Record(Us(now - last_sweep_));
  }
  last_sweep_ = now;
  Clock::time_point stamp;
  bool stamped = false;
  for (size_t i = 0; i < outstanding_.size();) {
    if (!Ready(outstanding_[i].future)) {
      ++i;
      continue;
    }
    if (!stamped) {
      stamp = Clock::now();
      stamped = true;
    }
    Finish(&outstanding_[i], stamp, /*at_submit=*/false, st, done);
    outstanding_[i] = std::move(outstanding_.back());
    outstanding_.pop_back();
  }
  sweeping_ = !outstanding_.empty();
}

void LoadDriver::Drain(PhaseStats* st, std::vector<Completion>* done) {
  const Clock::time_point deadline = Clock::now() + kDrainTimeout;
  while (!outstanding_.empty() && Clock::now() < deadline) {
    Sweep(st, done);
  }
  st->failed += outstanding_.size();
  outstanding_.clear();
  sweeping_ = false;
}

PhaseStats LoadDriver::RunOpenLoop(const std::string& name, double rate_rps, double seconds,
                                   int windows, bool time_submits) {
  PhaseStats st;
  st.name = name;
  st.rate_rps = rate_rps;
  st.seconds = seconds;
  const size_t expected = static_cast<size_t>(rate_rps * seconds * 1.2) + 16;
  std::vector<Completion> done;
  done.reserve(expected);
  std::vector<double> late_ms;
  late_ms.reserve(expected);
  if (time_submits) {
    st.submit_us.reserve(expected);
  }
  sweep_gaps_us_.Reset();

  std::exponential_distribution<double> gap(rate_rps);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  const Clock::time_point end = start + Secs(seconds);
  double due_s = gap(rng_);
  Clock::time_point due = start + Secs(due_s);
  for (;;) {
    const Clock::time_point now = Clock::now();
    if (now >= due) {
      if (due >= end) {
        break;
      }
      late_ms.push_back(Ms(now - due));
      Send(due, &st, &done, time_submits);
      due_s += gap(rng_);
      due = start + Secs(due_s);
    }
    if (!outstanding_.empty()) {
      Sweep(&st, &done);
    }
    // Sleep to the next poll (only while something is outstanding) or to
    // just before the next send, whichever comes first; spin the rest.
    const Clock::time_point t = Clock::now();
    Clock::time_point wake = due - kWakeAhead;
    if (!outstanding_.empty()) {
      wake = std::min(wake, t + kPollInterval);
    }
    if (wake - t > std::chrono::microseconds(5)) {
      std::this_thread::sleep_until(wake);
    }
  }
  Drain(&st, &done);

  const int num_windows = std::max(1, windows);
  const double window_s = seconds / num_windows;
  std::vector<double> all;
  all.reserve(done.size());
  std::vector<std::vector<double>> per_window(static_cast<size_t>(num_windows));
  for (const Completion& c : done) {
    const double ms = Ms(c.done - c.due);
    all.push_back(ms);
    const double offset_s = std::chrono::duration<double>(c.due - start).count();
    const int w = std::min(num_windows - 1, static_cast<int>(offset_s / window_s));
    per_window[static_cast<size_t>(w)].push_back(ms);
  }
  st.p50_ms = cdmpp::Percentile(std::move(all), 50.0);
  for (std::vector<double>& w : per_window) {
    if (w.empty()) {
      continue;
    }
    st.window_n.push_back(w.size());
    st.window_p99_ms.push_back(cdmpp::Percentile(std::move(w), 99.0));
  }
  // A host stall spikes the p99 of the window it lands in; the median over
  // windows moves only when more than half of them are hit, which a
  // regression that stalls the service does and a passing host stall does
  // not.
  st.p99_ms = cdmpp::Percentile(st.window_p99_ms, 50.0);
  const std::vector<double> late = cdmpp::Percentiles(late_ms, {99.0, 100.0});
  st.late_p99_ms = late[0];
  st.late_max_ms = late[1];
  const cdmpp::obs::HistogramSnapshot gaps = sweep_gaps_us_.Snapshot();
  st.floor_p50_us = gaps.Percentile(50.0);
  st.floor_p99_us = gaps.Percentile(99.0);
  return st;
}

PhaseStats LoadDriver::RunSaturation(const std::string& name, double seconds, int windows,
                                     int in_flight) {
  PhaseStats st;
  st.name = name;
  st.open_loop = false;
  st.seconds = seconds;
  sweep_gaps_us_.Reset();
  const int num_windows = std::max(1, windows);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + Secs(seconds);
  count_from_ = start;
  count_window_ = Secs(seconds / num_windows);
  counted_.assign(static_cast<size_t>(num_windows), 0);
  const size_t limit = static_cast<size_t>(std::max(1, in_flight));
  for (Clock::time_point now = start; now < end; now = Clock::now()) {
    while (outstanding_.size() < limit && now < end) {
      Send(now, &st, nullptr, false);
      now = Clock::now();
    }
    Sweep(&st, nullptr);
  }
  Drain(&st, nullptr);
  for (uint64_t n : counted_) {
    st.window_per_s.push_back(static_cast<double>(n) * num_windows / seconds);
  }
  st.completed_per_s = cdmpp::Percentile(st.window_per_s, 50.0);
  const cdmpp::obs::HistogramSnapshot gaps = sweep_gaps_us_.Snapshot();
  st.floor_p50_us = gaps.Percentile(50.0);
  st.floor_p99_us = gaps.Percentile(99.0);
  return st;
}

}  // namespace cdmpp_bench
