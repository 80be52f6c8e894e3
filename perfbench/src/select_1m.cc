// select_1m: large-pool crowd selection. One closed-loop client runs what
// CrowdManager::SelectCrowd runs per query -- OnlineWorkerPool::Snapshot()
// then SelectionEngine::SelectTopK(bag, 5, candidates) -- against one
// million online workers whose skills are drawn from the generating
// world's prior. The fold-in comes from the world's generating parameters
// (no training), so the latent space matches the ground truth.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "crowddb/online_pool.h"
#include "datagen/platform.h"
#include "inputs.h"
#include "model/generative.h"
#include "serve/selection_engine.h"
#include "trace.h"
#include "util/logging.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using crowdselect::RankedWorker;
using crowdselect::WorkerId;
using crowdselect::serve::SelectionEngine;
using crowdselect::serve::ServeOptions;
using crowdselect::serve::SkillMatrixSnapshot;

constexpr size_t kPoolSize = 1000000;
constexpr size_t kTopK = 5;
// Queries per run are few (tens of ms each), so the fixed tail is p90;
// kMinOps guarantees at least ten samples beyond it.
constexpr double kTail = 0.90;
constexpr size_t kMinOps = 100;
constexpr size_t kSetups = 5;
constexpr size_t kQueryStream = 4000;
constexpr size_t kCheckQueries = 8;     // scalar-kernel equivalence sample
constexpr size_t kQualityQueries = 20;  // crowd_quality sample
constexpr size_t kLayerQueries = 12;    // traced per-call layer sample
constexpr size_t kTraceBlock = 4;       // traced/untraced interleave

struct Pool1M {
  crowdselect::TdpmModelParams params;
  std::shared_ptr<const SkillMatrixSnapshot> snapshot;
  std::unique_ptr<SelectionEngine> engine;
  crowdselect::OnlineWorkerPool pool;
  std::vector<HeldOutTask> queries;
  double snapshot_build_ms = 0.0;
};

crowdselect::TdpmOptions FoldInOptions(size_t k) {
  crowdselect::TdpmOptions options;
  options.num_categories = k;
  return options;
}

std::unique_ptr<SelectionEngine> MakeEngine(const Pool1M& world,
                                            ServeOptions options) {
  auto engine = std::make_unique<SelectionEngine>(options);
  engine->PublishSnapshot(world.snapshot);
  auto folder = crowdselect::TaskFolder::Create(
      world.params, FoldInOptions(world.params.num_categories()));
  CS_CHECK(folder.ok()) << folder.status().ToString();
  engine->SetFolder(std::move(*folder));
  return engine;
}

std::unique_ptr<Pool1M> Setup(uint64_t seed) {
  auto world = std::make_unique<Pool1M>();
  const crowdselect::WorldConfig config =
      crowdselect::DefaultPlatformConfig(crowdselect::Platform::kYahooAnswer)
          .world;
  crowdselect::Rng rng(seed);
  world->params = crowdselect::BuildWorldParams(config, &rng);
  const size_t k = world->params.num_categories();
  crowdselect::TdpmGenerator generator(world->params);
  crowdselect::Matrix skills(kPoolSize, k);
  for (size_t w = 0; w < kPoolSize; ++w) {
    auto drawn = generator.SampleWorkerSkills(&rng);
    CS_CHECK(drawn.ok()) << drawn.status().ToString();
    skills.SetRow(w, *drawn);
  }
  const int64_t build_start = NowNs();
  world->snapshot = SkillMatrixSnapshot::FromMatrix(std::move(skills));
  world->snapshot_build_ms = SecondsSince(build_start) * 1e3;
  world->engine = MakeEngine(*world, ServeOptions{});
  std::vector<WorkerId> ids(kPoolSize);
  for (size_t w = 0; w < kPoolSize; ++w) ids[w] = static_cast<WorkerId>(w);
  world->pool.CheckInAll(ids);
  world->queries = SampleHeldOutTasks(world->params, config, "word",
                                      kQueryStream, seed ^ 0x5E1EC7ULL);
  return world;
}

bool SameRanking(const std::vector<RankedWorker>& a,
                 const std::vector<RankedWorker>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].worker != b[i].worker || a[i].score != b[i].score) return false;
  }
  return true;
}

// Σ ground truth of the selected crowds ÷ Σ ground truth of the oracle
// crowds over all candidates, on the first kQualityQueries queries.
double CrowdQuality(const Pool1M& world,
                    const std::vector<std::vector<RankedWorker>>& selected) {
  double chosen = 0.0;
  double oracle = 0.0;
  std::vector<double> truth(kPoolSize);
  for (size_t q = 0; q < kQualityQueries; ++q) {
    const crowdselect::Vector& mix = world.queries[q].truth;
    for (const RankedWorker& rw : selected[q]) {
      chosen += TruthScore(world.snapshot->RowPtr(rw.worker), mix);
    }
    for (size_t w = 0; w < kPoolSize; ++w) {
      truth[w] = TruthScore(world.snapshot->RowPtr(static_cast<WorkerId>(w)),
                            mix);
    }
    oracle += TopKSum(truth, kTopK);
  }
  return chosen / oracle;
}

// One query as CrowdManager::SelectCrowd runs it.
crowdselect::Result<std::vector<RankedWorker>> Query(const Pool1M& world,
                                                     size_t q) {
  const std::vector<WorkerId> candidates = world.pool.Snapshot();
  return world.engine->SelectTopK(world.queries[q].bag, kTopK, candidates);
}

// The same query with a span around each public call.
crowdselect::Result<std::vector<RankedWorker>> TracedQuery(
    const Pool1M& world, size_t q, SpanLog* log) {
  log->set_op(q);
  ScopedSpan op(log, kOpSpan);
  std::vector<WorkerId> candidates;
  {
    ScopedSpan span(log, "crowddb.pool.snapshot");
    candidates = world.pool.Snapshot();
  }
  ScopedSpan span(log, "serve.select");
  return world.engine->SelectTopK(world.queries[q].bag, kTopK, candidates);
}

// Checks the recorded rankings against a force_scalar_kernel engine over
// the same snapshot, and reports crowd_quality.
void CheckRankings(const Pool1M& world,
                   const std::vector<std::vector<RankedWorker>>& recorded,
                   RunResult* result) {
  const size_t needed = std::max(kCheckQueries, kQualityQueries);
  result->Check(recorded.size() >= needed, "enough queries for the checks");
  if (recorded.size() < needed) return;
  ServeOptions scalar_options;
  scalar_options.force_scalar_kernel = true;
  const auto scalar = MakeEngine(world, scalar_options);
  for (size_t q = 0; q < kCheckQueries; ++q) {
    auto expected = scalar->SelectTopK(world.queries[q].bag, kTopK,
                                       world.pool.Snapshot());
    result->Check(expected.ok() && SameRanking(*expected, recorded[q]),
                  "query " + std::to_string(q) +
                      " ranks as on the scalar kernel");
  }
  result->Set("crowd_quality", CrowdQuality(world, recorded), "ratio",
              kQualityQueries);
}

void Untraced(const RunOptions& options, RunResult* result) {
  std::vector<double> setup_s;
  std::unique_ptr<Pool1M> world;
  for (size_t i = 0; i < kSetups; ++i) {
    world.reset();
    const int64_t start = NowNs();
    world = Setup(options.seed);
    setup_s.push_back(SecondsSince(start));
  }
  std::vector<double> latency_us;
  std::vector<std::vector<RankedWorker>> recorded;
  uint64_t failed = 0;
  size_t q = 0;
  const int64_t start = NowNs();
  while (q < world->queries.size() &&
         (q < kMinOps || SecondsSince(start) < options.seconds)) {
    const int64_t t0 = NowNs();
    auto ranked = Query(*world, q);
    latency_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    if (!ranked.ok() || ranked->size() != kTopK) {
      ++failed;
    } else if (recorded.size() == q && q < kQualityQueries) {
      recorded.push_back(std::move(*ranked));
    }
    ++q;
  }
  const double wall_s = SecondsSince(start);
  result->AddOps(q, failed);
  result->Set("setup_s", Median(setup_s), "s", setup_s.size());
  result->Set("ops_per_s", static_cast<double>(q) / wall_s, "1/s", q);
  result->Set("p50_us", Percentile(&latency_us, 0.5), "us",
              latency_us.size());
  result->Check(TailResolvable(latency_us.size(), kTail),
                "p90 has ten samples beyond it");
  result->Set("tail_us", Percentile(&latency_us, kTail), "us",
              latency_us.size());
  CheckRankings(*world, recorded, result);
}

void Traced(const RunOptions& options, RunResult* result) {
  const std::unique_ptr<Pool1M> world = Setup(options.seed);
  result->Set("serve.snapshot.build_ms", world->snapshot_build_ms, "ms");

  // Interleaved blocks: untraced queries give the per-op time the layer
  // spans must add up to, traced ones give the spans.
  SpanLog log(1 << 16);
  std::vector<double> untraced_us;
  std::vector<std::vector<RankedWorker>> recorded;
  uint64_t failed = 0;
  const uint64_t scans_before = CounterValue("serve.kernel.scans");
  const uint64_t hits_before = world->engine->cache()->hits();
  const uint64_t misses_before = world->engine->cache()->misses();
  size_t q = 0;
  const size_t last = world->queries.size() - kLayerQueries;
  const int64_t start = NowNs();
  while (q < last &&
         (q < 2 * kMinOps || SecondsSince(start) < options.seconds)) {
    const bool traced = (q / kTraceBlock) % 2 == 1;
    crowdselect::Result<std::vector<RankedWorker>> ranked =
        crowdselect::Status::OK();
    if (traced) {
      ranked = TracedQuery(*world, q, &log);
    } else {
      const int64_t t0 = NowNs();
      ranked = Query(*world, q);
      untraced_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    if (!ranked.ok() || ranked->size() != kTopK) {
      ++failed;
    } else if (recorded.size() == q && q < kQualityQueries) {
      recorded.push_back(std::move(*ranked));
    }
    ++q;
  }
  result->AddOps(q, failed);
  const uint64_t lookups = world->engine->cache()->hits() - hits_before +
                           world->engine->cache()->misses() - misses_before;
  result->Set("serve.cache.hit_ratio",
              static_cast<double>(world->engine->cache()->hits() - hits_before) /
                  static_cast<double>(std::max<uint64_t>(lookups, 1)),
              "ratio", lookups);
  result->Set("serve.kernel.scans_per_query",
              static_cast<double>(CounterValue("serve.kernel.scans") -
                                  scans_before) /
                  static_cast<double>(q),
              "count", q);
  CheckRankings(*world, recorded, result);

  // Per-call layers below serve.select, on queries the loop never used
  // (so every fold-in misses the cache, as in the loop): the fold-in, the
  // scan on the default, single-thread and int8 engines, and a bare
  // single-thread kernel sweep over every panel with no top-k.
  ServeOptions one_thread;
  one_thread.num_threads = 1;
  ServeOptions int8;
  int8.quant = crowdselect::serve::ScanQuant::kInt8;
  const auto engine_1t = MakeEngine(*world, one_thread);
  const auto engine_int8 = MakeEngine(*world, int8);
  const crowdselect::serve::kernels::BlockedPanels& panels =
      world->snapshot->panels();
  const crowdselect::serve::kernels::ScoreKernel& kernel =
      world->engine->kernel();
  const std::vector<WorkerId> candidates = world->pool.Snapshot();
  std::vector<double> cg_iterations;
  size_t unconverged = 0;
  double sink = 0.0;
  for (size_t i = 0; i < kLayerQueries; ++i) {
    const HeldOutTask& task = world->queries[last + i];
    crowdselect::Result<crowdselect::FoldInResult> projected =
        crowdselect::Status::OK();
    {
      ScopedSpan span(&log, "model.foldin.project");
      projected = world->engine->Project(task.bag);
    }
    result->Check(projected.ok(), "fold-in succeeds");
    if (!projected.ok()) continue;
    cg_iterations.push_back(projected->cg_iterations);
    if (projected->cg_residual >
        crowdselect::TdpmOptions{}.cg.gradient_tolerance) {
      ++unconverged;
    }
    const crowdselect::Vector& category = projected->category;
    crowdselect::Result<std::vector<RankedWorker>> full =
        crowdselect::Status::OK();
    crowdselect::Result<std::vector<RankedWorker>> single =
        crowdselect::Status::OK();
    crowdselect::Result<std::vector<RankedWorker>> quant =
        crowdselect::Status::OK();
    {
      ScopedSpan span(&log, "serve.rank");
      full = world->engine->RankByCategory(category, kTopK, candidates);
    }
    {
      ScopedSpan span(&log, "serve.rank_1t");
      single = engine_1t->RankByCategory(category, kTopK, candidates);
    }
    {
      ScopedSpan span(&log, "serve.rank_int8");
      quant = engine_int8->RankByCategory(category, kTopK, candidates);
    }
    {
      ScopedSpan span(&log, "serve.kernel.sweep");
      double out[crowdselect::serve::kernels::kPanelWidth];
      for (size_t p = 0; p < panels.num_panels(); ++p) {
        kernel.ScoreBlock(panels.PanelFp(p), category.raw(), panels.dims(),
                          out);
        sink += out[0];
      }
    }
    result->Check(full.ok() && single.ok() && quant.ok() &&
                      SameRanking(*full, *single) && SameRanking(*full, *quant),
                  "default, single-thread and int8 scans agree");
  }
  result->Check(std::isfinite(sink), "kernel sweep produced finite scores");

  TraceRecorder trace;
  trace.Flush(0, &log);
  for (const char* name :
       {"crowddb.pool.snapshot", "serve.select", "model.foldin.project",
        "serve.rank", "serve.rank_1t", "serve.rank_int8",
        "serve.kernel.sweep"}) {
    result->Set(std::string(name) + "_us", trace.MedianUs(name), "us",
                trace.Calls(name));
  }
  result->Set("model.foldin.cg_iterations", Mean(cg_iterations), "count",
              cg_iterations.size());
  result->Set("model.foldin.unconverged_ratio",
              static_cast<double>(unconverged) /
                  static_cast<double>(std::max<size_t>(cg_iterations.size(), 1)),
              "ratio", cg_iterations.size());
  // Bytes one full scan streams: the fp64 panels, or the int8 codes plus
  // their per-worker scales (computed from the panel layout, not measured).
  const double lanes = static_cast<double>(panels.num_panels() *
                                           crowdselect::serve::kernels::kPanelWidth);
  result->Set("serve.kernel.bytes_per_query",
              lanes * static_cast<double>(panels.dims()) * sizeof(double),
              "B");
  result->Set("serve.kernel.bytes_per_query_int8",
              lanes * (static_cast<double>(panels.dims()) + sizeof(double)),
              "B");
  trace.Finish(untraced_us, options.spans_out, result);
}

}  // namespace

RunResult RunSelect1M(const RunOptions& options) {
  RunResult result;
  if (options.trace) {
    Traced(options, &result);
  } else {
    Untraced(options, &result);
  }
  return result;
}

}  // namespace perfbench
