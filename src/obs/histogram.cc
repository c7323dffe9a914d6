#include "src/obs/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace cdmpp {
namespace obs {

LogHistogram::LogHistogram() : zero_count_(0) {
  for (int i = 0; i < kNumBuckets; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

int LogHistogram::BucketIndex(double value) {
  int exp = 0;
  const double frac = std::frexp(value, &exp);  // value = frac * 2^exp, frac in [0.5, 1)
  if (exp < kMinExp) {
    return 0;
  }
  if (exp > kMaxExp) {
    return kNumBuckets - 1;
  }
  int sub = static_cast<int>((frac - 0.5) * (2 * kSubBuckets));
  sub = std::min(std::max(sub, 0), kSubBuckets - 1);
  return (exp - kMinExp) * kSubBuckets + sub;
}

double LogHistogram::BucketMidpoint(int index) {
  const int exp = kMinExp + index / kSubBuckets;
  const int sub = index % kSubBuckets;
  const double mid_frac = 0.5 + (sub + 0.5) / (2.0 * kSubBuckets);
  return std::ldexp(mid_frac, exp);
}

// All bucket traffic below is memory_order_relaxed by design: every bucket
// is an independent uint64 tally and the histogram carries no out-of-band
// payload, so there is nothing for acquire/release to order. Readers
// (Snapshot/TotalCount/Merge) take a statistically-consistent sweep — a
// concurrent Add may land in either the old or new reading, which is within
// the instrument's contract. Anything that must observe "all samples up to
// event X" must create its own happens-before with the recording threads
// (e.g. ServerStats snapshots after joining the workers in Shutdown).
void LogHistogram::Add(double value, uint64_t n) {
  if (n == 0) {
    return;
  }
  if (!(value > 0.0)) {  // negatives, zero, and NaN all land in the zero bucket
    zero_count_.fetch_add(n, std::memory_order_relaxed);
    return;
  }
  buckets_[BucketIndex(value)].fetch_add(n, std::memory_order_relaxed);
}

HistogramSnapshot LogHistogram::Snapshot() const {
  HistogramSnapshot s;
  s.zero_count = zero_count_.load(std::memory_order_relaxed);
  s.buckets.resize(kNumBuckets);
  uint64_t total = s.zero_count;
  for (int i = 0; i < kNumBuckets; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    total += s.buckets[i];
  }
  s.count = total;
  return s;
}

void LogHistogram::Merge(const LogHistogram& other) {
  zero_count_.fetch_add(other.zero_count_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  for (int i = 0; i < kNumBuckets; ++i) {
    const uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
    if (n != 0) {
      buckets_[i].fetch_add(n, std::memory_order_relaxed);
    }
  }
}

void LogHistogram::Reset() {
  zero_count_.store(0, std::memory_order_relaxed);
  for (int i = 0; i < kNumBuckets; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

uint64_t LogHistogram::TotalCount() const {
  uint64_t total = zero_count_.load(std::memory_order_relaxed);
  for (int i = 0; i < kNumBuckets; ++i) {
    total += buckets_[i].load(std::memory_order_relaxed);
  }
  return total;
}

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0) {
    return 0.0;
  }
  p = std::min(std::max(p, 0.0), 100.0);
  uint64_t rank = static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(count)));
  rank = std::min(std::max<uint64_t>(rank, 1), count);
  if (rank <= zero_count) {
    return 0.0;
  }
  uint64_t cumulative = zero_count;
  for (size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) {
      return LogHistogram::BucketMidpoint(static_cast<int>(i));
    }
  }
  return LogHistogram::BucketMidpoint(LogHistogram::kNumBuckets - 1);
}

double HistogramSnapshot::Mean() const {
  if (count == 0) {
    return 0.0;
  }
  double sum = 0.0;  // zero bucket contributes 0
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] != 0) {
      sum += static_cast<double>(buckets[i]) * LogHistogram::BucketMidpoint(static_cast<int>(i));
    }
  }
  return sum / static_cast<double>(count);
}

double HistogramSnapshot::MinValue() const {
  if (zero_count > 0) {
    return 0.0;
  }
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] != 0) {
      return LogHistogram::BucketMidpoint(static_cast<int>(i));
    }
  }
  return 0.0;
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (buckets.empty()) {
    buckets.resize(LogHistogram::kNumBuckets, 0);
  }
  count += other.count;
  zero_count += other.zero_count;
  for (size_t i = 0; i < buckets.size() && i < other.buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
}

HistogramSnapshot HistogramSnapshot::Delta(const HistogramSnapshot& earlier) const {
  HistogramSnapshot d;
  d.zero_count = zero_count >= earlier.zero_count ? zero_count - earlier.zero_count : 0;
  d.buckets.resize(buckets.size());
  uint64_t total = d.zero_count;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const uint64_t prev = i < earlier.buckets.size() ? earlier.buckets[i] : 0;
    d.buckets[i] = buckets[i] >= prev ? buckets[i] - prev : 0;
    total += d.buckets[i];
  }
  d.count = total;
  return d;
}

std::string HistogramSnapshot::ToString(const char* unit) const {
  if (count == 0) {
    return "";
  }
  // Collapse sub-buckets into per-octave rows over the occupied range: the
  // display wants readable decades, not 64 rows per power of two.
  constexpr int kSub = LogHistogram::kSubBuckets;
  const int num_octaves = LogHistogram::kNumOctaves;
  std::vector<uint64_t> octave_counts(static_cast<size_t>(num_octaves), 0);
  int first = num_octaves, last = -1;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) {
      continue;
    }
    const int oct = static_cast<int>(i) / kSub;
    octave_counts[static_cast<size_t>(oct)] += buckets[i];
    first = std::min(first, oct);
    last = std::max(last, oct);
  }
  uint64_t modal = 1;
  for (int o = 0; o <= last && o >= 0; ++o) {
    modal = std::max(modal, octave_counts[static_cast<size_t>(o)]);
  }
  std::string out;
  char line[160];
  if (zero_count > 0) {
    std::snprintf(line, sizeof(line), "  %20s  %-20s %10llu (%5.1f%%)\n", "<= 0", "",
                  static_cast<unsigned long long>(zero_count),
                  100.0 * static_cast<double>(zero_count) / static_cast<double>(count));
    out += line;
  }
  for (int o = first; o <= last; ++o) {
    const uint64_t n = octave_counts[static_cast<size_t>(o)];
    const int exp = LogHistogram::kMinExp + o;
    const double lo = std::ldexp(0.5, exp);
    const double hi = std::ldexp(1.0, exp);
    char range[48];
    std::snprintf(range, sizeof(range), "[%.4g, %.4g)%s", lo, hi, unit);
    const int bar = n == 0 ? 0 : std::max(1, static_cast<int>(20.0 * static_cast<double>(n) /
                                                              static_cast<double>(modal)));
    char bars[24];
    int b = 0;
    for (; b < bar && b < 20; ++b) {
      bars[b] = '#';
    }
    bars[b] = '\0';
    std::snprintf(line, sizeof(line), "  %20s  %-20s %10llu (%5.1f%%)\n", range, bars,
                  static_cast<unsigned long long>(n),
                  100.0 * static_cast<double>(n) / static_cast<double>(count));
    out += line;
  }
  return out;
}

}  // namespace obs
}  // namespace cdmpp
