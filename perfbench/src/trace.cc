#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

size_t SpanLog::Begin(const char* name) {
  const size_t index = spans_.size();
  Span span;
  span.name = name;
  span.op = op_;
  if (!open_.empty()) {
    span.parent = static_cast<int64_t>(open_.back());
    span.root = static_cast<int64_t>(open_.front());
  } else {
    span.root = static_cast<int64_t>(index);
  }
  spans_.push_back(span);
  open_.push_back(index);
  // Read the clock last so the bookkeeping above is not inside the span.
  spans_[index].start_ns = NowNs();
  return index;
}

void SpanLog::End(size_t index) {
  spans_[index].end_ns = NowNs();
  open_.pop_back();
}

void TraceRecorder::Flush(size_t thread, SpanLog* log) {
  const std::vector<Span>& spans = log->spans();
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_us[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    const double self_us = us - child_us[i];
    if (std::strcmp(s.name, kOpSpan) == 0) {
      ops_.push_back({us, self_us});
      continue;
    }
    auto it = layers_.find(std::string_view(s.name));
    if (it == layers_.end()) it = layers_.emplace(s.name, LayerTotals{}).first;
    it->second.inclusive_us.push_back(us);
    if (std::strcmp(spans[static_cast<size_t>(s.root)].name, kOpSpan) == 0) {
      it->second.self_us_in_ops += self_us;
    }
  }
  const size_t base = next_id_;
  for (size_t i = 0; i < spans.size() && kept_spans_ < kMaxSpansWritten;
       ++i, ++kept_spans_) {
    const Span& s = spans[i];
    char line[256];
    std::snprintf(line, sizeof(line), "%zu\t%llu\t%zu\t%lld\t%s\t%lld\t%lld\n",
                  thread, static_cast<unsigned long long>(s.op), base + i,
                  s.parent < 0 ? -1LL
                               : static_cast<long long>(base) +
                                     static_cast<long long>(s.parent),
                  s.name, static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns));
    kept_ += line;
  }
  next_id_ += spans.size();
  log->Clear();
}

double TraceRecorder::MedianUs(const std::string& name) const {
  const auto it = layers_.find(name);
  return it == layers_.end() ? 0.0 : Median(it->second.inclusive_us);
}

size_t TraceRecorder::Calls(const std::string& name) const {
  const auto it = layers_.find(name);
  return it == layers_.end() ? 0 : it->second.inclusive_us.size();
}

namespace {

// The fastest `share` of `values`, ascending.
std::vector<double> Fastest(std::vector<double> values, double share) {
  std::sort(values.begin(), values.end());
  values.resize(static_cast<size_t>(
      std::ceil(share * static_cast<double>(values.size()))));
  return values;
}

}  // namespace

void TraceRecorder::Finish(const std::vector<double>& untraced_us,
                           const std::string& spans_out,
                           RunResult* result) const {
  std::vector<OpTimes> ops = ops_;
  std::sort(ops.begin(), ops.end(), [](const OpTimes& a, const OpTimes& b) {
    return a.total_us < b.total_us;
  });
  ops.resize(static_cast<size_t>(
      std::ceil(kSumCheckShare * static_cast<double>(ops.size()))));
  double traced = 0.0;
  double other = 0.0;
  for (const OpTimes& op : ops) {
    traced += op.total_us;
    other += op.other_us;
  }
  const double n = static_cast<double>(std::max<size_t>(ops.size(), 1));
  traced /= n;
  other /= n;
  const double untraced = Mean(Fastest(untraced_us, kSumCheckShare));
  const double ratio = untraced > 0.0 ? (traced - other) / untraced : 0.0;
  result->Set("trace.other_us", other, "us", ops.size());
  result->Set("trace.overhead_us", traced - untraced, "us", ops.size());
  result->Set("trace.layer_sum_ratio", ratio, "ratio", untraced_us.size());
  result->Check(std::abs(ratio - 1.0) <= kLayerSumSlack,
                "layer self times add up to the untraced per-op time");
  const double all_ops = static_cast<double>(std::max<size_t>(ops_.size(), 1));
  for (const auto& [name, totals] : layers_) {
    if (totals.self_us_in_ops == 0.0) continue;
    char line[160];
    std::snprintf(line, sizeof(line), "self time per op  %-28s %10.3f us",
                  name.c_str(), totals.self_us_in_ops / all_ops);
    result->Note(line);
  }
  if (spans_out.empty()) return;
  std::ofstream out(spans_out);
  out << "thread\top\tid\tparent\tname\tstart_ns\tend_ns\n" << kept_;
  out.close();
  result->Check(out.good(), "spans written to " + spans_out);
}

}  // namespace perfbench
