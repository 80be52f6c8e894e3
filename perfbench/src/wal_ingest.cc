// wal_ingest: write-heavy storage with no model in front. A generated
// history is replayed as individual AddWorker/AddTask/Assign/
// RecordFeedback calls from kWriters threads, each owning a disjoint
// slice (its own workers and tasks), into a fresh durable
// CrowdStoreEngine (WAL flushed per record, no fsync: the default).
// Writer 0 also calls Checkpoint() every kCheckpointEvery acknowledged
// mutations. Each round then drops the engine without a final checkpoint
// and reopens it, so recovery loads the last checkpoint and replays the
// WAL tail. Rounds repeat until the time budget is spent.
#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "crowddb/storage_engine.h"
#include "datagen/platform.h"
#include "inputs.h"
#include "trace.h"
#include "util/logging.h"

namespace perfbench {
namespace {

using crowdselect::CrowdStoreEngine;
using crowdselect::Status;

constexpr size_t kWriters = 4;
constexpr double kTail = 0.99;
constexpr size_t kSetups = 5;
constexpr size_t kMinRounds = 2;
constexpr uint64_t kCheckpointEvery = 50000;
// Per-slice history: a Yahoo-preset world at this size.
constexpr size_t kSliceWorkers = 1500;
constexpr size_t kSliceTasks = 8000;

enum OpType : uint8_t { kAddWorker, kAddTask, kAssign, kFeedback, kOpTypes };

constexpr const char* kOpSpanNames[kOpTypes] = {
    "crowddb.add_worker", "crowddb.add_task", "crowddb.assign",
    "crowddb.record_feedback"};

struct Op {
  OpType type = kAddWorker;
  uint32_t worker = 0;  ///< Slice-local worker index.
  uint32_t task = 0;    ///< Slice-local task index.
  double score = 0.0;
};

struct Slice {
  std::vector<std::string> handles;
  std::vector<std::string> texts;
  std::vector<Op> ops;  ///< Workers first, then each task with its answers.
};

std::vector<Slice> Setup(uint64_t seed) {
  crowdselect::WorldConfig config =
      crowdselect::DefaultPlatformConfig(crowdselect::Platform::kYahooAnswer)
          .world;
  config.num_workers = kSliceWorkers;
  config.num_tasks = kSliceTasks;
  std::vector<Slice> slices(kWriters);
  for (size_t t = 0; t < kWriters; ++t) {
    auto world = crowdselect::SampleWorld(config, seed * kWriters + t);
    CS_CHECK(world.ok()) << world.status().ToString();
    Slice& slice = slices[t];
    for (uint32_t i = 0; i < config.num_workers; ++i) {
      slice.handles.push_back("yahoo_user_" + std::to_string(t) + "_" +
                              std::to_string(i));
      slice.ops.push_back({kAddWorker, i, 0, 0.0});
    }
    for (uint32_t j = 0; j < config.num_tasks; ++j) {
      std::string text;
      for (crowdselect::TermId term : world->draw.tasks[j].tokens) {
        if (!text.empty()) text += ' ';
        text += "word" + std::to_string(term);
      }
      slice.texts.push_back(std::move(text));
      slice.ops.push_back({kAddTask, 0, j, 0.0});
      const auto& slots = world->assignment[j];
      for (size_t s = 0; s < slots.size(); ++s) {
        const double score = world->true_performance[j][s];
        slice.ops.push_back({kAssign, slots[s], j, 0.0});
        slice.ops.push_back({kFeedback, slots[s], j, score});
      }
    }
  }
  return slices;
}

struct WriterResult {
  std::vector<double> latency_us;
  uint64_t acked[kOpTypes] = {};
  uint64_t failed = 0;
  std::vector<double> checkpoint_ms;
  uint64_t checkpoint_bytes = 0;
  SpanLog log;
};

struct RoundResult {
  double wall_s = 0.0;
  uint64_t acked[kOpTypes] = {};
  uint64_t acked_total = 0;
  uint64_t failed = 0;
  uint64_t wal_bytes = 0;
  uint64_t checkpoint_bytes = 0;
  double recover_s = 0.0;
  uint64_t replayed = 0;
  std::vector<std::unique_ptr<WriterResult>> writers;
};

// One writer's replay of its slice. Writer 0 also checkpoints.
void Write(CrowdStoreEngine* engine, const Slice& slice, size_t writer,
           bool traced, std::atomic<uint64_t>* acked,
           const std::atomic<bool>* go, WriterResult* out) {
  std::vector<crowdselect::WorkerId> worker_ids(slice.handles.size());
  std::vector<crowdselect::TaskId> task_ids(slice.texts.size());
  out->latency_us.reserve(slice.ops.size());
  if (traced) out->log = SpanLog(2 * slice.ops.size() + 16);
  uint64_t next_checkpoint = kCheckpointEvery;
  const std::string checkpoint_file =
      engine->dir() + "/" + CrowdStoreEngine::kCheckpointFile;
  const auto apply = [&](const Op& op) -> bool {
    switch (op.type) {
      case kAddWorker: {
        auto id = engine->AddWorker(slice.handles[op.worker], true);
        if (id.ok()) worker_ids[op.worker] = *id;
        return id.ok();
      }
      case kAddTask: {
        auto id = engine->AddTask(slice.texts[op.task]);
        if (id.ok()) task_ids[op.task] = *id;
        return id.ok();
      }
      case kAssign:
        return engine->Assign(worker_ids[op.worker], task_ids[op.task]).ok();
      case kFeedback:
        return engine
            ->RecordFeedback(worker_ids[op.worker], task_ids[op.task],
                             op.score)
            .ok();
      case kOpTypes:
        break;
    }
    return false;
  };
  while (!go->load(std::memory_order_acquire)) std::this_thread::yield();
  for (size_t i = 0; i < slice.ops.size(); ++i) {
    const Op& op = slice.ops[i];
    bool ok = false;
    const int64_t t0 = NowNs();
    if (traced) {
      out->log.set_op(i);
      ScopedSpan root(&out->log, kOpSpan);
      ScopedSpan call(&out->log, kOpSpanNames[op.type]);
      ok = apply(op);
    } else {
      ok = apply(op);
    }
    out->latency_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    if (!ok) {
      ++out->failed;
      continue;
    }
    ++out->acked[op.type];
    const uint64_t total = acked->fetch_add(1, std::memory_order_relaxed) + 1;
    if (writer == 0 && total >= next_checkpoint) {
      next_checkpoint += kCheckpointEvery;
      const int64_t c0 = NowNs();
      Status st;
      if (traced) {
        ScopedSpan span(&out->log, "crowddb.storage.checkpoint");
        st = engine->Checkpoint();
      } else {
        st = engine->Checkpoint();
      }
      out->checkpoint_ms.push_back(SecondsSince(c0) * 1e3);
      std::error_code ec;
      const uint64_t bytes = std::filesystem::file_size(checkpoint_file, ec);
      if (!st.ok() || ec) {
        ++out->failed;
      } else {
        out->checkpoint_bytes += bytes;
      }
    }
  }
}

// Replays every slice into a fresh engine, drops it without a final
// checkpoint, reopens it and checks it recovered every acknowledged
// mutation.
RoundResult Round(const std::vector<Slice>& slices, const RunOptions& options,
                  size_t index, TraceRecorder* trace, RunResult* result) {
  const bool traced = trace != nullptr;
  RoundResult round;
  ScratchDir dir(options.work_dir, "wal-" + std::to_string(index));
  auto opened = CrowdStoreEngine::Open(dir.path());
  CS_CHECK(opened.ok()) << opened.status().ToString();
  std::unique_ptr<CrowdStoreEngine> engine = std::move(*opened);
  const uint64_t wal_before = CounterValue("storage.wal.append_bytes");
  std::atomic<uint64_t> acked{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kWriters; ++t) {
    round.writers.push_back(std::make_unique<WriterResult>());
    threads.emplace_back(Write, engine.get(), std::cref(slices[t]), t, traced,
                         &acked, &go, round.writers.back().get());
  }
  const int64_t start = NowNs();
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
  round.wall_s = SecondsSince(start);
  round.wal_bytes = CounterValue("storage.wal.append_bytes") - wal_before;
  for (const auto& w : round.writers) {
    for (size_t t = 0; t < kOpTypes; ++t) round.acked[t] += w->acked[t];
    round.failed += w->failed;
    round.checkpoint_bytes += w->checkpoint_bytes;
  }
  round.acked_total = acked.load();
  engine.reset();  // No final checkpoint: recovery must replay the tail.

  SpanLog open_log;
  const int64_t open_start = NowNs();
  if (traced) {
    ScopedSpan span(&open_log, "crowddb.storage.open");
    opened = CrowdStoreEngine::Open(dir.path());
  } else {
    opened = CrowdStoreEngine::Open(dir.path());
  }
  round.recover_s = SecondsSince(open_start);
  if (traced) {
    for (size_t t = 0; t < kWriters; ++t) {
      trace->Flush(t, &round.writers[t]->log);
    }
    trace->Flush(kWriters, &open_log);
  }
  result->Check(opened.ok(), "reopen: " + opened.status().ToString());
  if (!opened.ok()) return round;
  const CrowdStoreEngine& reopened = **opened;
  round.replayed = reopened.open_stats().wal_records_applied;
  result->Check(reopened.NumWorkers() == round.acked[kAddWorker] &&
                    reopened.NumTasks() == round.acked[kAddTask] &&
                    reopened.NumAssignments() == round.acked[kAssign] &&
                    reopened.NumScoredAssignments() == round.acked[kFeedback] &&
                    reopened.last_sequence() == round.acked_total,
                "round " + std::to_string(index) +
                    " recovers every acknowledged mutation");
  return round;
}

struct Totals {
  uint64_t acked = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double wall_s = 0.0;
  uint64_t wal_bytes = 0;
  uint64_t checkpoint_bytes = 0;
  size_t checkpoints = 0;
  std::vector<double> latency_us;  ///< Per mutation, untraced rounds only.
  std::vector<double> recover_s;
  std::vector<double> replayed;

  void Add(const RoundResult& round, bool keep_latency) {
    acked += round.acked_total;
    failed += round.failed;
    wall_s += round.wall_s;
    wal_bytes += round.wal_bytes;
    checkpoint_bytes += round.checkpoint_bytes;
    recover_s.push_back(round.recover_s);
    replayed.push_back(static_cast<double>(round.replayed));
    for (const auto& w : round.writers) {
      attempted += w->latency_us.size();
      checkpoints += w->checkpoint_ms.size();
      if (keep_latency) {
        latency_us.insert(latency_us.end(), w->latency_us.begin(),
                          w->latency_us.end());
      }
    }
  }

  double WriteBytesPerOp() const {
    return static_cast<double>(wal_bytes + checkpoint_bytes) /
           static_cast<double>(std::max<uint64_t>(acked, 1));
  }
};

void Untraced(const RunOptions& options, RunResult* result) {
  std::vector<double> setup_s;
  std::vector<Slice> slices;
  for (size_t i = 0; i < kSetups; ++i) {
    slices.clear();
    const int64_t start = NowNs();
    slices = Setup(options.seed);
    setup_s.push_back(SecondsSince(start));
  }
  result->Set("setup_s", Median(setup_s), "s", setup_s.size());
  Totals totals;
  const int64_t start = NowNs();
  for (size_t r = 0;
       r < kMinRounds || SecondsSince(start) < options.seconds; ++r) {
    totals.Add(Round(slices, options, r, nullptr, result), true);
  }
  result->AddOps(totals.attempted, totals.failed);
  result->Set("ops_per_s", static_cast<double>(totals.acked) / totals.wall_s,
              "1/s", totals.acked);
  result->Set("p50_us", Percentile(&totals.latency_us, 0.5), "us",
              totals.latency_us.size());
  result->Check(TailResolvable(totals.latency_us.size(), kTail),
                "p99 has ten samples beyond it");
  result->Set("tail_us", Percentile(&totals.latency_us, kTail), "us",
              totals.latency_us.size());
  result->Set("recover_s", Median(totals.recover_s), "s",
              totals.recover_s.size());
  result->Set("write_bytes_per_op", totals.WriteBytesPerOp(), "B",
              totals.acked);
  result->Note("checkpoints: " + std::to_string(totals.checkpoints) +
               " over " + std::to_string(totals.recover_s.size()) + " rounds");
}

void Traced(const RunOptions& options, RunResult* result) {
  const std::vector<Slice> slices = Setup(options.seed);
  // Rounds alternate: untraced ones give the per-op time the layer spans
  // must add up to, traced ones give the spans.
  Totals totals;
  TraceRecorder trace;
  const int64_t start = NowNs();
  for (size_t r = 0;
       r < 2 * kMinRounds || SecondsSince(start) < options.seconds; ++r) {
    const bool traced = r % 2 == 1;
    totals.Add(Round(slices, options, r, traced ? &trace : nullptr, result),
               !traced);
  }
  result->AddOps(totals.attempted, totals.failed);
  for (const char* name : kOpSpanNames) {
    result->Set(std::string(name) + "_us", trace.MedianUs(name), "us",
                trace.Calls(name));
  }
  result->Set("crowddb.storage.checkpoint_ms",
              trace.MedianUs("crowddb.storage.checkpoint") / 1e3, "ms",
              trace.Calls("crowddb.storage.checkpoint"));
  result->Set("crowddb.storage.open_ms",
              trace.MedianUs("crowddb.storage.open") / 1e3, "ms",
              trace.Calls("crowddb.storage.open"));
  // Counts over both kinds of rounds. The checkpoint sizes and the
  // replayed tail depend on where the concurrent writers stand when a
  // checkpoint lands, so they vary from run to run.
  result->Set("crowddb.storage.checkpoint_bytes",
              static_cast<double>(totals.checkpoint_bytes) /
                  static_cast<double>(std::max<size_t>(totals.checkpoints, 1)),
              "B", totals.checkpoints);
  result->Set("crowddb.wal.bytes_per_op",
              static_cast<double>(totals.wal_bytes) /
                  static_cast<double>(std::max<uint64_t>(totals.acked, 1)),
              "B", totals.acked);
  result->Set("crowddb.storage.replayed_records", Median(totals.replayed),
              "count", totals.replayed.size());
  result->Set("recover_s", Median(totals.recover_s), "s",
              totals.recover_s.size());
  result->Set("write_bytes_per_op", totals.WriteBytesPerOp(), "B",
              totals.acked);
  trace.Finish(totals.latency_us, options.spans_out, result);
}

}  // namespace

RunResult RunWalIngest(const RunOptions& options) {
  RunResult result;
  if (options.trace) {
    Traced(options, &result);
  } else {
    Untraced(options, &result);
  }
  return result;
}

}  // namespace perfbench
