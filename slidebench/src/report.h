// One run's result: named metrics, the correctness verdict and the operation
// counts, printed as the single JSON line the benchmark ends with.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace slidebench {

class Report {
 public:
  // Records (or overwrites) a metric.
  void set(const std::string& name, double value) { values_[name] = value; }
  double get(const std::string& name) const;

  // Records a check; a failed one marks the run incorrect and is logged to
  // stderr with `what`.
  bool check(bool ok, const std::string& what);

  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(std::uint64_t n = 1) { failed_ += n; }

  // {"correct":..,"attempted":..,"failed":..,"metrics":{"name":value,...}}
  // with every recorded metric.
  std::string json() const;

 private:
  std::map<std::string, double> values_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// Order statistics over a copy of the samples (0 for an empty set).
double median(std::vector<double> v);
// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

// Items per second over repeated passes of `items` each: `items` over the
// median pass time (0 for no passes).  The reference host has slow stretches
// of several seconds in which even one thread runs up to 2.5 times slower; the
// median pass ignores a stretch that covers fewer than half of a run's passes,
// where pooling all passes would carry it into the rate.
double rate(std::size_t items, const std::vector<double>& seconds);

// Prints "<what>: v1 v2 ..." to stderr: the samples behind a statistic.
void log_samples(const std::string& what, const std::vector<double>& v);

}  // namespace slidebench
