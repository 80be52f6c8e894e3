#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const size_t n = values->size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return (*values)[rank - 1];
}

double Median(std::vector<double> values) { return Percentile(&values, 0.5); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

bool TailResolvable(size_t n, double q) {
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n >= 1 && rank <= n && n - rank >= 10;
}

void RunResult::Set(const std::string& name, double value,
                    const std::string& unit, size_t samples) {
  Check(std::isfinite(value), name + " is finite");
  metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit, samples});
}

void RunResult::Check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    ++failed_checks_;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

void RunResult::AddOps(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void RunResult::Print() const {
  const uint64_t failed = failed_ + failed_checks_;
  const double error_rate =
      attempted_ == 0 ? 1.0
                      : static_cast<double>(failed) /
                            static_cast<double>(attempted_);
  for (const std::string& line : notes_) std::printf("# %s\n", line.c_str());
  for (const Metric& m : metrics_) {
    if (m.samples > 0) {
      std::printf("%-36s %16.6g %-6s n=%zu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("%-36s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("%-36s %16.6g %-6s (%llu failed of %llu ops; %llu/%llu checks "
              "passed)\n",
              "error_rate", error_rate, "ratio",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(checks_ - failed_checks_),
              static_cast<unsigned long long>(checks_));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 && attempted_ > 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                "\"samples\": %zu}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
