#pragma once

// Helpers of the end-to-end benchmark driver that carry its accounting
// rules: order statistics over timing samples, the metric-name grammar of
// BENCHMARK.json, the per-request output check, and the JSON rendering of
// a result line.

#include <cstddef>
#include <string>
#include <vector>

namespace e2ebench {

// q-quantile (0 <= q <= 1) by linear interpolation between order
// statistics (position q * (n - 1)), the rule numpy uses by default.
// `values` must be non-empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// Metric names: start with a letter or digit, then at most 64 characters
// in total of letters, digits, '_', '.' and '-'.
bool ValidMetricName(const std::string& name);
// Units: 1 to 16 characters of letters, digits, '_', '/', '%', '.' and '-'.
bool ValidUnit(const std::string& unit);

// A scoring request succeeds when it returns exactly `expected` scores and
// every one is a finite probability in [0, 1].
bool ScoresValid(const std::vector<double>& scores, size_t expected);

// ScoresValid, and when `reference` is given, each score within
// `tolerance` of it. Scoring is read-only on the model, so a repeated
// request must repeat its answer bitwise (tolerance 0); the same sessions
// batched with other batch-mates may differ only by float rounding.
bool RequestOk(const std::vector<double>& scores, size_t sessions,
               const std::vector<double>* reference, double tolerance = 0.0);

// Operations attempted and failed in one run, with the first few reasons.
struct Tally {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> problems;

  // Counts one operation; returns `ok` so call sites can branch on it.
  bool Op(bool ok, const std::string& what);
};

// Ordered name -> (value, unit) set rendered as the "metrics" object of the
// result line. Add() refuses an invalid or repeated name or unit and a
// non-finite value, so a malformed result cannot be printed.
class MetricSet {
 public:
  bool Add(const std::string& name, double value, const std::string& unit);
  // {"name": {"value": v, "unit": "u"}, ...} with every value printed to
  // full double precision.
  std::string ToJson() const;
  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  bool ok_ = true;
  std::string error_;
};

// Shortest decimal form that reads back as the same double.
std::string FormatNumber(double value);
// JSON string literal with quotes and the escapes JSON requires.
std::string Quote(const std::string& text);

}  // namespace e2ebench
