#include "summary.h"

#include <algorithm>
#include <cmath>

namespace agnn::perfbench {
namespace {

// Rank of the nearest-rank quantile in a sample of n > 0.
size_t QuantileRank(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n)) - 1.0;
  if (rank <= 0.0) return 0;
  return std::min(n - 1, static_cast<size_t>(rank));
}

}  // namespace

std::optional<double> Quantile(std::vector<double> samples, double q) {
  const size_t n = samples.size();
  if (n == 0) return std::nullopt;
  const size_t rank = QuantileRank(n, q);
  if (n - 1 - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return samples[rank];
}

std::optional<double> Median(std::vector<double> samples) {
  const size_t n = samples.size();
  if (n == 0) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

SampleSummary Summarize(std::vector<double> samples) {
  SampleSummary summary;
  summary.count = samples.size();
  summary.median = Quantile(samples, 0.5);
  for (double q : {0.999, 0.99, 0.95, 0.90}) {
    if (std::optional<double> tail = Quantile(samples, q)) {
      summary.tail_q = q;
      summary.tail = tail;
      break;
    }
  }
  return summary;
}

BoundedSample::BoundedSample(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 2) & ~size_t{1}) {
  values_.reserve(capacity_);
}

void BoundedSample::Add(double value) {
  const uint64_t index = seen_++;
  if (index % stride_ != 0) return;
  if (values_.size() == capacity_) {
    // Kept samples sit at multiples of stride_; keep the multiples of
    // 2 * stride_.
    for (size_t k = 0; k < capacity_ / 2; ++k) values_[k] = values_[2 * k];
    values_.resize(capacity_ / 2);
    stride_ *= 2;
    if (index % stride_ != 0) return;
  }
  values_.push_back(value);
}

}  // namespace agnn::perfbench
