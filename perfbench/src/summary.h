#ifndef AGNN_PERFBENCH_SUMMARY_H_
#define AGNN_PERFBENCH_SUMMARY_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace agnn::perfbench {

/// A quantile is reported only when at least this many samples lie strictly
/// above it, so a tail figure is never read off the last one or two samples
/// (or off an empty vector).
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank quantile of `samples` (any order) at q in [0, 1]: the value
/// at 0-based rank ceil(q * n) - 1, clamped to [0, n - 1]. Missing (nullopt)
/// when the sample is empty or fewer than kMinSamplesBeyond samples rank
/// above it.
std::optional<double> Quantile(std::vector<double> samples, double q);

/// Median of `samples`, for small repeated measurements such as a handful of
/// set-ups: the mean of the two middle values for an even count. Missing
/// only when the sample is empty.
std::optional<double> Median(std::vector<double> samples);

/// One timing distribution as the benchmark reports it: the sample count,
/// the median, and the highest of the standard tail percentiles (p99.9,
/// p99, p95, p90) that has kMinSamplesBeyond samples above it. Fields the
/// sample cannot support are missing.
struct SampleSummary {
  size_t count = 0;
  std::optional<double> median;
  /// 0.999, 0.99, 0.95 or 0.90; 0 when no tail percentile is supported.
  double tail_q = 0.0;
  std::optional<double> tail;
};

SampleSummary Summarize(std::vector<double> samples);

/// Keeps at most `capacity` samples of an unbounded stream, thinned
/// uniformly: when full, every other kept sample is dropped and from then
/// on only every 2^k-th new sample is kept. Memory stays fixed however many
/// requests a run serves, so a faster build does not raise the process's
/// peak RSS through the benchmark's own bookkeeping.
class BoundedSample {
 public:
  explicit BoundedSample(size_t capacity = size_t{1} << 16);

  void Add(double value);
  const std::vector<double>& values() const { return values_; }
  /// Samples offered so far, kept or not.
  uint64_t seen() const { return seen_; }

 private:
  size_t capacity_;
  uint64_t stride_ = 1;
  uint64_t seen_ = 0;
  std::vector<double> values_;
};

}  // namespace agnn::perfbench

#endif  // AGNN_PERFBENCH_SUMMARY_H_
