#ifndef CSC_PERFBENCH_RECORDER_H_
#define CSC_PERFBENCH_RECORDER_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds; every timing in the benchmark and
/// every span start/end is read from it.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Exact sample store for durations, and the benchmark's one quantile
/// helper. Samples below 65,536 ns land in 1 ns buckets (tens of millions of
/// point-query timings cost 512 KiB), longer ones are kept verbatim, so every
/// quantile is an exact order statistic of what was recorded.
class Recorder {
 public:
  Recorder() : buckets_(kBuckets, 0) {}

  void Add(int64_t ns) {
    if (ns < 0) ns = 0;
    if (ns < kBuckets) {
      ++buckets_[static_cast<size_t>(ns)];
    } else {
      long_.push_back(ns);
      sorted_ = false;
    }
    ++count_;
  }
  uint64_t count() const { return count_; }

  /// Quantile `q` in [0, 1], interpolated linearly between the two
  /// neighbouring order statistics (rank q * (count - 1)), in nanoseconds.
  /// 0 when empty.
  double Quantile(double q) {
    if (count_ == 0) return 0.0;
    double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_ - 1);
    uint64_t lo = static_cast<uint64_t>(rank);
    uint64_t hi = std::min(lo + 1, count_ - 1);
    double a = static_cast<double>(OrderStatistic(lo));
    double b = static_cast<double>(OrderStatistic(hi));
    return a + (rank - static_cast<double>(lo)) * (b - a);
  }
  double Median() { return Quantile(0.5); }

 private:
  static constexpr int64_t kBuckets = 1 << 16;

  int64_t OrderStatistic(uint64_t k) {
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += buckets_[i];
      if (seen > k) return static_cast<int64_t>(i);
    }
    if (!sorted_) {
      std::sort(long_.begin(), long_.end());
      sorted_ = true;
    }
    return long_[k - seen];
  }

  std::vector<uint64_t> buckets_;
  std::vector<int64_t> long_;
  bool sorted_ = true;
  uint64_t count_ = 0;
};

}  // namespace perfbench

#endif  // CSC_PERFBENCH_RECORDER_H_
