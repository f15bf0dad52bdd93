#include "summary.h"

#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace agnn::perfbench {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  return v;
}

TEST(QuantileTest, EmptySampleIsMissing) {
  EXPECT_FALSE(Quantile({}, 0.5).has_value());
  EXPECT_FALSE(Quantile({}, 0.0).has_value());
  EXPECT_FALSE(Median({}).has_value());
}

TEST(QuantileTest, TinySampleHasNoTail) {
  // Eleven samples: the median has five above it, p99 none.
  EXPECT_FALSE(Quantile(Iota(11), 0.5).has_value());
  EXPECT_FALSE(Quantile(Iota(11), 0.99).has_value());
  // The minimum of eleven has exactly ten above it.
  EXPECT_EQ(Quantile(Iota(11), 0.0), 1.0);
}

TEST(QuantileTest, RequiresTenSamplesBeyond) {
  // n = 1000: p99 is rank 989 (value 990), ten samples above it.
  EXPECT_EQ(Quantile(Iota(1000), 0.99), 990.0);
  // n = 999: p99 is rank 989 as well, but only nine samples above it.
  EXPECT_FALSE(Quantile(Iota(999), 0.99).has_value());
}

TEST(QuantileTest, NearestRankIsOrderIndependent) {
  std::vector<double> v = Iota(100);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(Quantile(v, 0.5), 50.0);
  EXPECT_EQ(Quantile(v, 0.9), 90.0);
  EXPECT_FALSE(Quantile(v, 0.95).has_value());
}

TEST(MedianTest, OddAndEvenCounts) {
  EXPECT_EQ(Median({3.0}), 3.0);
  EXPECT_EQ(Median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(SummarizeTest, PicksHighestSupportedTail) {
  SampleSummary s = Summarize(Iota(20000));
  EXPECT_EQ(s.count, 20000u);
  EXPECT_EQ(s.median, 10000.0);
  EXPECT_DOUBLE_EQ(s.tail_q, 0.999);
  EXPECT_EQ(s.tail, 19980.0);

  s = Summarize(Iota(1000));
  EXPECT_DOUBLE_EQ(s.tail_q, 0.99);
  EXPECT_EQ(s.tail, 990.0);

  s = Summarize(Iota(120));
  EXPECT_DOUBLE_EQ(s.tail_q, 0.90);
  EXPECT_EQ(s.tail, 108.0);
}

TEST(SummarizeTest, EmptyAndTinySamplesReportMissing) {
  SampleSummary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_FALSE(s.median.has_value());
  EXPECT_FALSE(s.tail.has_value());
  EXPECT_EQ(s.tail_q, 0.0);

  s = Summarize(Iota(15));
  EXPECT_FALSE(s.median.has_value());
  EXPECT_FALSE(s.tail.has_value());
}

TEST(BoundedSampleTest, KeepsEverythingBelowCapacity) {
  BoundedSample sample(8);
  for (int i = 0; i < 8; ++i) sample.Add(i);
  EXPECT_EQ(sample.values(), (std::vector<double>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(sample.seen(), 8u);
}

TEST(BoundedSampleTest, ThinsUniformlyOnceFull) {
  BoundedSample sample(8);
  for (int i = 0; i < 9; ++i) sample.Add(i);
  // Full at 8: halved to the even indices; 8 is a multiple of the new
  // stride 2 and is kept.
  EXPECT_EQ(sample.values(), (std::vector<double>{0, 2, 4, 6, 8}));
  for (int i = 9; i < 100; ++i) sample.Add(i);
  EXPECT_EQ(sample.seen(), 100u);
  ASSERT_LE(sample.values().size(), 8u);
  // Every kept value is a multiple of the final stride, in order.
  const double stride = sample.values()[1] - sample.values()[0];
  for (size_t k = 0; k < sample.values().size(); ++k) {
    EXPECT_EQ(sample.values()[k], stride * static_cast<double>(k));
  }
  EXPECT_GE(sample.values().back() + stride, 100.0);
}

}  // namespace
}  // namespace agnn::perfbench
