#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace slidebench {

double Report::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

bool Report::check(bool ok, const std::string& what) {
  if (!ok) {
    correct_ = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char buf[64];
  for (const auto& [name, v] : values_) {
    // JSON has no NaN/inf; a non-finite measurement fails a check elsewhere
    // and prints as 0 here.
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    if (out.back() != '{') out += ", ";
    out += "\"" + name + "\": " + buf;
  }
  out += "}}";
  return out;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double rate(std::size_t items, const std::vector<double>& seconds) {
  const double m = median(seconds);
  return m > 0.0 ? static_cast<double>(items) / m : 0.0;
}

void log_samples(const std::string& what, const std::vector<double>& v) {
  std::string line = what + ":";
  char buf[32];
  for (const double x : v) {
    std::snprintf(buf, sizeof buf, " %.4g", x);
    line += buf;
  }
  std::fprintf(stderr, "%s\n", line.c_str());
}

}  // namespace slidebench
