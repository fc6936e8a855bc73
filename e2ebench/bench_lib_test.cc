#include "bench_lib.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

namespace e2ebench {
namespace {

TEST(Quantile, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({7.5}), 7.5);
}

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.9), 9.1);  // position 8.1
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 5.5);
}

TEST(Quantile, P90NeedsTheTail) {
  // 100 samples, ten of them slow: p90 sits on the boundary, p50 ignores it.
  std::vector<double> v(90, 1.0);
  v.insert(v.end(), 10, 5.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 1.0);
  EXPECT_NEAR(Quantile(v, 0.9), 1.4, 1e-12);  // position 89.1
  EXPECT_DOUBLE_EQ(Quantile(v, 0.95), 5.0);
}

TEST(MetricNames, AcceptsTheBenchmarkGrammar) {
  EXPECT_TRUE(ValidMetricName("setup_s"));
  EXPECT_TRUE(ValidMetricName("tensor.lstm_gates_fwd_ms"));
  EXPECT_TRUE(ValidMetricName("9lives-x"));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_FALSE(ValidMetricName(".hidden"));
  EXPECT_FALSE(ValidMetricName("_x"));
  EXPECT_FALSE(ValidMetricName("latency ms"));
  EXPECT_FALSE(ValidMetricName("a/b"));
  EXPECT_TRUE(ValidUnit("1/s"));
  EXPECT_TRUE(ValidUnit("%"));
  EXPECT_FALSE(ValidUnit(""));
  EXPECT_FALSE(ValidUnit("seconds per req"));
  EXPECT_FALSE(ValidUnit(std::string(17, 's')));
}

TEST(MetricSet, RefusesMalformedEntries) {
  MetricSet ok;
  EXPECT_TRUE(ok.Add("train_s", 1.5, "s"));
  EXPECT_TRUE(ok.Add("auc", 100.0, "AUCx100"));
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToJson(),
            "{\"train_s\": {\"value\": 1.5, \"unit\": \"s\"}, "
            "\"auc\": {\"value\": 100, \"unit\": \"AUCx100\"}}");

  MetricSet dup;
  dup.Add("train_s", 1.0, "s");
  EXPECT_FALSE(dup.Add("train_s", 2.0, "s"));
  EXPECT_FALSE(dup.ok());

  MetricSet nan;
  EXPECT_FALSE(nan.Add("train_s", std::nan(""), "s"));
  EXPECT_FALSE(nan.ok());

  MetricSet bad_name;
  EXPECT_FALSE(bad_name.Add("bad name", 1.0, "s"));
  EXPECT_FALSE(bad_name.ok());
  EXPECT_NE(bad_name.error().find("bad name"), std::string::npos);
}

TEST(FormatNumber, KeepsEveryDigit) {
  EXPECT_EQ(FormatNumber(0.1), "0.1");
  EXPECT_EQ(FormatNumber(1.0 / 3.0), "0.3333333333333333");
  EXPECT_EQ(FormatNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(Quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
}

TEST(ScoresValid, AcceptsFiniteProbabilitiesOnePerSession) {
  EXPECT_TRUE(ScoresValid({0.0, 0.25, 1.0}, 3));
  EXPECT_TRUE(ScoresValid({}, 0));
}

TEST(ScoresValid, NanOrOutOfRangeScoreFailsTheRequest) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(ScoresValid({0.5, nan}, 2));
  EXPECT_FALSE(ScoresValid({inf, 0.5}, 2));
  EXPECT_FALSE(ScoresValid({-1e-9, 0.5}, 2));
  EXPECT_FALSE(ScoresValid({0.5, 1.0000001}, 2));
  EXPECT_FALSE(ScoresValid({0.5}, 2));        // a session left unscored
  EXPECT_FALSE(ScoresValid({0.5, 0.5}, 1));   // one score too many
}

TEST(Tally, BadOrNonRepeatingRequestCountsAsFailed) {
  const std::vector<double> reference{0.1, 0.9};
  Tally tally;
  tally.Op(RequestOk({0.1, 0.9}, 2, &reference), "repeat");
  tally.Op(RequestOk({0.1, std::nan("")}, 2, nullptr), "nan");
  tally.Op(RequestOk({0.1, 1.5}, 2, nullptr), "out of range");
  tally.Op(RequestOk({0.1, 0.9000001}, 2, &reference), "drifted");
  tally.Op(RequestOk({0.1, 0.9000001}, 2, &reference, 1e-6), "rounding");
  tally.Op(RequestOk({0.1, 0.9001}, 2, &reference, 1e-6), "wrong");
  EXPECT_EQ(tally.attempted, 6);
  EXPECT_EQ(tally.failed, 4);
  EXPECT_EQ(tally.problems,
            (std::vector<std::string>{"nan", "out of range", "drifted", "wrong"}));
}

}  // namespace
}  // namespace e2ebench
