// In-memory span recording for the traced run. Spans are opened around
// the benchmark's own calls into each module's public functions (nothing
// inside src/ is instrumented), kept in memory per thread, aggregated
// into per-layer self times, and written out when the run ends.
//
// A span's self time is its duration minus the time its direct child
// spans cover. Each operation of a workload is one root span named "op";
// its self time is the part of the operation no layer span covers, which
// the report calls `other`.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline constexpr const char* kOpSpan = "op";

/// The named layers' mean self time per op must be within this share of
/// the untraced mean per-op time. Both means are over the fastest
/// kSumCheckShare of ops on their side, so a rare stall (a checkpoint
/// holding every writer) does not decide the check.
inline constexpr double kLayerSumSlack = 0.2;
inline constexpr double kSumCheckShare = 0.99;
/// Spans kept for the span file (the metrics use every recorded span).
inline constexpr size_t kMaxSpansWritten = 100000;

struct Span {
  const char* name = nullptr;  ///< A string literal (static lifetime).
  uint64_t op = 0;             ///< Operation id shared by one op's spans.
  int64_t parent = -1;         ///< Index of the enclosing span, or -1.
  int64_t root = -1;           ///< Index of the outermost enclosing span.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// One thread's spans. Not thread-safe: each thread records into its own.
class SpanLog {
 public:
  explicit SpanLog(size_t reserve = 0) { spans_.reserve(reserve); }

  /// Sets the operation id the next spans carry.
  void set_op(uint64_t op) { op_ = op; }

  /// Opens `name` under the innermost open span; returns its index.
  size_t Begin(const char* name);
  void End(size_t index);

  const std::vector<Span>& spans() const { return spans_; }
  /// Drops every closed span; call only with no span open.
  void Clear() { spans_.clear(); }

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;
  uint64_t op_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), index_(log->Begin(name)) {}
  ~ScopedSpan() { log_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  size_t index_;
};

/// Per-layer totals.
struct LayerTotals {
  std::vector<double> inclusive_us;  ///< One entry per call.
  double self_us_in_ops = 0.0;       ///< Self time inside "op" roots only.
};

/// Aggregates span logs as they fill, so a long traced run keeps only
/// per-call durations, and keeps the first kMaxSpansWritten spans for the
/// span file.
class TraceRecorder {
 public:
  /// Aggregates the spans of `log` (recorded by thread `thread`), keeps
  /// the first ones for the span file, and clears `log`.
  void Flush(size_t thread, SpanLog* log);

  /// Median per-call inclusive duration of `name` (0 when never called).
  double MedianUs(const std::string& name) const;
  size_t Calls(const std::string& name) const;

  /// Reports trace.other_us (uncovered remainder per op),
  /// trace.overhead_us (traced minus untraced mean per-op time) and
  /// trace.layer_sum_ratio, checks the layer sum against kLayerSumSlack,
  /// notes each layer's self time per op, and writes the kept spans to
  /// `spans_out` unless it is empty.
  void Finish(const std::vector<double>& untraced_us,
              const std::string& spans_out, RunResult* result) const;

 private:
  std::map<std::string, LayerTotals, std::less<>> layers_;  ///< Not "op".
  struct OpTimes {
    double total_us = 0.0;
    double other_us = 0.0;  ///< The op span's self time.
  };
  std::vector<OpTimes> ops_;
  std::string kept_;           ///< Span file lines.
  size_t kept_spans_ = 0;
  size_t next_id_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
