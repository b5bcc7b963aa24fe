// Log-linear latency histogram: 16 linear sub-buckets per power of two, so every
// bucket is at most 1/16 of its lower bound wide. Recording is an index computation and
// one increment on a fixed array — no allocation, no atomics; each client owns its
// histograms and the main thread merges them after the clients have stopped.
#ifndef SRL_BENCHMARK_SRL_BENCH_HISTOGRAM_H_
#define SRL_BENCHMARK_SRL_BENCH_HISTOGRAM_H_

#include <array>
#include <bit>
#include <cstdint>

namespace srlbench {

class Histogram {
 public:
  static constexpr int kSubBits = 4;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = 64 * kSub;

  void Record(uint64_t v) {
    ++counts_[Index(v)];
    ++count_;
  }

  void Merge(const Histogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      counts_[i] += o.counts_[i];
    }
    count_ += o.count_;
  }

  // The q-quantile (0 <= q <= 1), interpolated linearly inside the bucket holding the
  // target rank, so the estimate moves smoothly with the distribution instead of
  // jumping between bucket edges. 0 when empty.
  double Quantile(double q) const {
    if (count_ == 0) {
      return 0.0;
    }
    const double target = q * static_cast<double>(count_);
    uint64_t before = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const uint64_t c = counts_[i];
      if (c == 0) {
        continue;
      }
      if (static_cast<double>(before + c) >= target) {
        const double frac = (target - static_cast<double>(before)) / static_cast<double>(c);
        return static_cast<double>(Lower(i)) + frac * static_cast<double>(Width(i));
      }
      before += c;
    }
    return static_cast<double>(Lower(kBuckets - 1) + Width(kBuckets - 1));
  }

  static std::size_t Index(uint64_t v) {
    if (v < kSub) {
      return static_cast<std::size_t>(v);
    }
    const int e = 63 - std::countl_zero(v);  // >= kSubBits
    const uint64_t sub = (v >> (e - kSubBits)) & (kSub - 1);
    return static_cast<std::size_t>((e - kSubBits + 1) * kSub + sub);
  }

  static uint64_t Lower(std::size_t i) {
    if (i < kSub) {
      return i;
    }
    const int e = static_cast<int>(i / kSub) + kSubBits - 1;
    return (kSub + i % kSub) << (e - kSubBits);
  }

  static uint64_t Width(std::size_t i) {
    if (i < kSub) {
      return 1;
    }
    const int e = static_cast<int>(i / kSub) + kSubBits - 1;
    return uint64_t{1} << (e - kSubBits);
  }

 private:
  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
};

}  // namespace srlbench

#endif  // SRL_BENCHMARK_SRL_BENCH_HISTOGRAM_H_
