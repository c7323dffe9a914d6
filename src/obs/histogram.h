// Streaming log-bucketed latency histogram (HDR-style): fixed relative error,
// constant memory, lock-free concurrent recording, mergeable snapshots.
//
// Buckets are (octave, sub-bucket) pairs derived from frexp: each power-of-two
// octave is split into kSubBuckets linear sub-buckets, so the bucket midpoint
// is within ~0.8% relative error of any value it absorbs (well inside the 2%
// contract the tests assert). Recording is two relaxed atomic increments —
// safe from any number of threads, no mutex, no allocation — which is what
// lets ServerStats keep percentiles over the ENTIRE run instead of a bounded
// first-N sample reservoir.
//
// This header depends only on the C++ standard library so that src/support/
// may include obs/ without inverting the layering.
#ifndef SRC_OBS_HISTOGRAM_H_
#define SRC_OBS_HISTOGRAM_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace cdmpp {
namespace obs {

// Immutable copy of a histogram's bucket counts. Cheap enough to pass around
// (one dense count vector); supports percentile queries, merge (combine two
// runs) and delta (per-interval windows from two cumulative snapshots).
struct HistogramSnapshot {
  uint64_t count = 0;       // total recorded values, zero/negative included
  uint64_t zero_count = 0;  // values <= 0 (clamped into a dedicated bucket)
  std::vector<uint64_t> buckets;  // dense, LogHistogram::kNumBuckets entries

  bool empty() const { return count == 0; }

  // Nearest-rank percentile, p in [0, 100]; returns the bucket midpoint
  // (<= ~0.8% relative error). 0 for an empty snapshot.
  double Percentile(double p) const;
  // Bucket-midpoint-weighted mean; 0 for an empty snapshot.
  double Mean() const;
  // Midpoint of the lowest occupied bucket; 0 for an empty snapshot.
  double MinValue() const;

  // Element-wise sum; combines two independent runs. Bucket layouts always
  // match (they are compile-time constants of LogHistogram).
  void Merge(const HistogramSnapshot& other);
  // This snapshot minus an EARLIER snapshot of the same histogram: the
  // per-interval window between the two. Counts are monotonic, so every
  // difference is well-defined; entries are clamped at 0 defensively.
  HistogramSnapshot Delta(const HistogramSnapshot& earlier) const;

  // Multi-line text rendering: one row per occupied octave with a #-bar
  // scaled to the modal octave, plus a zero row when present. Empty string
  // for an empty snapshot.
  std::string ToString(const char* unit = "ms") const;
};

class LogHistogram {
 public:
  // 64 linear sub-buckets per power-of-two octave: worst-case midpoint
  // relative error = 1 / (2 * (2*64)) / 0.5 ~= 0.78%.
  static constexpr int kSubBucketsLog2 = 6;
  static constexpr int kSubBuckets = 1 << kSubBucketsLog2;
  // frexp exponent range covered exactly; values outside clamp to the edge
  // buckets. [2^-41, 2^44) spans sub-picosecond to ~half-a-millennium in ms.
  static constexpr int kMinExp = -40;
  static constexpr int kMaxExp = 44;
  static constexpr int kNumOctaves = kMaxExp - kMinExp + 1;
  static constexpr int kNumBuckets = kNumOctaves * kSubBuckets;

  LogHistogram();

  // Thread-safe, lock-free, allocation-free: two relaxed increments.
  void Record(double value) { Add(value, 1); }
  void Add(double value, uint64_t n);

  // Consistent-enough copy under concurrent recording: each bucket is read
  // atomically; a racing Record may or may not be included.
  HistogramSnapshot Snapshot() const;

  // Folds `other`'s current counts into this histogram.
  void Merge(const LogHistogram& other);

  // Zeroes every bucket. Safe under concurrent recording (racing increments
  // land in the new window).
  void Reset();

  uint64_t TotalCount() const;

  // Bucket index for a value (>= 0, < kNumBuckets; values <= 0 go to the
  // zero bucket which is tracked separately) and the midpoint a bucket
  // reports back. Exposed for the accuracy tests.
  static int BucketIndex(double value);
  static double BucketMidpoint(int index);

 private:
  std::atomic<uint64_t> zero_count_;
  std::atomic<uint64_t> buckets_[kNumBuckets];
};

}  // namespace obs
}  // namespace cdmpp

#endif  // SRC_OBS_HISTOGRAM_H_
