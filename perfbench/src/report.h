// Result of one benchmark run: named metrics with units, the operation
// and failure counts, and the percentile helpers every workload uses.
// Percentiles are nearest-rank over the benchmark's own raw samples; the
// program's obs histograms are never read for them.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `values` (q in (0, 1]); sorts in place.
double Percentile(std::vector<double>* values, double q);

/// Median of `values` (nearest rank, so it is always an observed value).
double Median(std::vector<double> values);

double Mean(const std::vector<double>& values);

/// Checks that `n` samples leave at least ten beyond percentile `q`.
bool TailResolvable(size_t n, double q);

class RunResult {
 public:
  /// Records a metric; `samples` is the count it was computed from (0 for
  /// a single measurement or an exact count).
  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples = 0);

  /// Counts one correctness check; a failure is also described on stderr.
  void Check(bool ok, const std::string& what);

  /// Counts attempted operations and the ones whose Status was not OK.
  void AddOps(uint64_t attempted, uint64_t failed);

  /// Free-form line for the human-readable report.
  void Note(const std::string& line) { notes_.push_back(line); }

  /// Prints the human-readable report, then the result as one JSON line.
  void Print() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    size_t samples = 0;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t checks_ = 0;
  uint64_t failed_checks_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
