#include "bench_lib.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace e2ebench {

double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

namespace {

bool AlnumOr(char c, const char* extra) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
      (c >= '0' && c <= '9')) {
    return true;
  }
  for (const char* e = extra; *e != '\0'; ++e) {
    if (c == *e) return true;
  }
  return false;
}

}  // namespace

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64 || !AlnumOr(name[0], "")) return false;
  return std::all_of(name.begin(), name.end(),
                     [](char c) { return AlnumOr(c, "_.-"); });
}

bool ValidUnit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(),
                     [](char c) { return AlnumOr(c, "_/%.-"); });
}

bool ScoresValid(const std::vector<double>& scores, size_t expected) {
  if (scores.size() != expected) return false;
  return std::all_of(scores.begin(), scores.end(), [](double s) {
    return std::isfinite(s) && s >= 0.0 && s <= 1.0;
  });
}

bool RequestOk(const std::vector<double>& scores, size_t sessions,
               const std::vector<double>* reference, double tolerance) {
  if (!ScoresValid(scores, sessions)) return false;
  if (reference == nullptr) return true;
  if (reference->size() != scores.size()) return false;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (!(std::fabs(scores[i] - (*reference)[i]) <= tolerance)) return false;
  }
  return true;
}

bool Tally::Op(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (problems.size() < 8) problems.push_back(what);
  }
  return ok;
}

bool MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  std::string problem;
  if (!ValidMetricName(name)) {
    problem = "invalid metric name '" + name + "'";
  } else if (!ValidUnit(unit)) {
    problem = "invalid unit '" + unit + "' of " + name;
  } else if (!std::isfinite(value)) {
    problem = "non-finite value of " + name;
  } else if (std::any_of(entries_.begin(), entries_.end(),
                         [&](const Entry& e) { return e.name == name; })) {
    problem = "metric " + name + " added twice";
  }
  if (!problem.empty()) {
    if (ok_) error_ = problem;
    ok_ = false;
    return false;
  }
  entries_.push_back({name, value, unit});
  return true;
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(entries_[i].name) + ": {\"value\": " +
           FormatNumber(entries_[i].value) +
           ", \"unit\": " + Quote(entries_[i].unit) + "}";
  }
  return out + "}";
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace e2ebench
