// blue_path_yahoo: the deployed `simulate` loop. A Yahoo-preset history
// is bulk-imported into a durable CrowdStoreEngine (WAL flushed per
// record, no fsync: the StorageOptions default), TDPM is trained with
// simulate's settings (K=10, 10 EM iterations, all cores), and one
// closed-loop client calls CrowdManager::ProcessTask(text, 5, dispatcher)
// on held-out task texts, each used once. Feedback is the generating
// world's noiseless ground truth w_i . softmax(c_j).
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "crowddb/crowd_manager.h"
#include "crowddb/dispatcher.h"
#include "crowddb/storage_engine.h"
#include "datagen/platform.h"
#include "inputs.h"
#include "model/selection.h"
#include "model/variational.h"
#include "text/bag_of_words.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"
#include "trace.h"
#include "util/logging.h"

namespace perfbench {
namespace {

using crowdselect::Answer;
using crowdselect::CrowdStoreEngine;
using crowdselect::RankedWorker;
using crowdselect::Result;
using crowdselect::Status;
using crowdselect::TaskId;
using crowdselect::TaskRecord;
using crowdselect::WorkerId;

constexpr size_t kTopK = 5;
constexpr double kTail = 0.99;
constexpr size_t kMinOps = 1000;  // p99 then has ten samples beyond it
constexpr size_t kSetups = 5;
// Held-out tasks generated per set-up; a run stops early if it uses them
// all (more than twice what HEAD serves in 10 s on 4 vCPUs).
constexpr size_t kStream = 400000;
constexpr size_t kQualityTasks = 500;
constexpr size_t kTraceBlock = 32;
// Traced runs serve at least this many tasks; exact counts cover them.
constexpr size_t kCountTasks = 2 * kMinOps;

crowdselect::TdpmOptions ModelOptions() {
  crowdselect::TdpmOptions options;
  options.num_categories = 10;
  options.max_em_iterations = 10;
  options.num_threads = 0;
  return options;
}

struct BlueWorld {
  std::unique_ptr<ScratchDir> dir;
  crowdselect::SyntheticDataset dataset;
  std::unique_ptr<CrowdStoreEngine> engine;
  std::vector<HeldOutTask> stream;
};

std::unique_ptr<BlueWorld> Setup(const RunOptions& options, size_t index) {
  auto world = std::make_unique<BlueWorld>();
  auto dataset = crowdselect::GeneratePlatformDataset(
      crowdselect::Platform::kYahooAnswer, options.seed);
  CS_CHECK(dataset.ok()) << dataset.status().ToString();
  world->dataset = std::move(*dataset);
  world->dir = std::make_unique<ScratchDir>(options.work_dir,
                                            "blue-" + std::to_string(index));
  auto engine = CrowdStoreEngine::Open(world->dir->path());
  CS_CHECK(engine.ok()) << engine.status().ToString();
  world->engine = std::move(*engine);
  const Status imported = world->engine->BulkImport(world->dataset.db);
  CS_CHECK(imported.ok()) << imported.ToString();
  world->stream = SampleHeldOutTasks(world->dataset.world.params,
                                     world->dataset.config.world, "word",
                                     kStream, options.seed ^ 0xB1E5ULL);
  return world;
}

// A CrowdStore that forwards to the engine and records a span around
// each call, so the dispatcher's Assign/RecordFeedback show up as child
// spans of crowddb.dispatch.task without instrumenting the program.
class TracingStore : public crowdselect::CrowdStore {
 public:
  TracingStore(CrowdStoreEngine* engine, SpanLog* log)
      : engine_(engine), log_(log) {}

  Result<WorkerId> AddWorker(std::string handle, bool online) override {
    return engine_->AddWorker(std::move(handle), online);
  }
  Result<TaskId> AddTask(std::string text) override {
    ScopedSpan span(log_, "crowddb.add_task");
    return engine_->AddTask(std::move(text));
  }
  Status Assign(WorkerId worker, TaskId task) override {
    ScopedSpan span(log_, "crowddb.assign");
    return engine_->Assign(worker, task);
  }
  Status RecordFeedback(WorkerId worker, TaskId task, double score) override {
    ScopedSpan span(log_, "crowddb.record_feedback");
    return engine_->RecordFeedback(worker, task, score);
  }
  Status UpdateWorkerSkills(WorkerId worker,
                            std::vector<double> skills) override {
    return engine_->UpdateWorkerSkills(worker, std::move(skills));
  }
  Status UpdateTaskCategories(TaskId task,
                              std::vector<double> categories) override {
    return engine_->UpdateTaskCategories(task, std::move(categories));
  }
  Status SetWorkerOnline(WorkerId worker, bool online) override {
    return engine_->SetWorkerOnline(worker, online);
  }
  size_t NumWorkers() const override { return engine_->NumWorkers(); }
  size_t NumTasks() const override { return engine_->NumTasks(); }
  size_t NumAssignments() const override { return engine_->NumAssignments(); }
  size_t NumScoredAssignments() const override {
    return engine_->NumScoredAssignments();
  }
  Result<crowdselect::WorkerRecord> GetWorkerCopy(
      WorkerId worker) const override {
    return engine_->GetWorkerCopy(worker);
  }
  Result<TaskRecord> GetTaskCopy(TaskId task) const override {
    ScopedSpan span(log_, "crowddb.get_task");
    return engine_->GetTaskCopy(task);
  }
  std::vector<WorkerId> OnlineWorkers() const override {
    return engine_->OnlineWorkers();
  }
  std::vector<std::pair<WorkerId, double>> ScoredAnswersOfTask(
      TaskId task) const override {
    return engine_->ScoredAnswersOfTask(task);
  }
  Result<std::shared_ptr<const crowdselect::CrowdDatabase>> FrozenView()
      const override {
    return engine_->FrozenView();
  }

 private:
  CrowdStoreEngine* engine_;
  SpanLog* log_;
};

// The serving side of one run: the manager over the engine, the TDPM
// selector it owns, and the simulated crowd answering with ground truth.
class Serving {
 public:
  explicit Serving(BlueWorld* world) : world_(world) {
    auto selector = std::make_unique<crowdselect::TdpmSelector>(ModelOptions());
    tdpm_ = selector.get();
    manager_ = std::make_unique<crowdselect::CrowdManager>(
        world->engine.get(), std::move(selector));
  }

  crowdselect::CrowdManager& manager() { return *manager_; }
  crowdselect::TdpmSelector& tdpm() { return *tdpm_; }

  crowdselect::TaskDispatcher MakeDispatcher(crowdselect::CrowdStore* store) {
    return crowdselect::TaskDispatcher(
        store,
        [](WorkerId, const TaskRecord& task) { return "re: " + task.text; },
        [this](WorkerId worker, const TaskRecord&, const std::string&) {
          return TruthScore(
              world_->dataset.world.draw.worker_skills[worker].raw(),
              *current_truth_);
        });
  }

  /// Sets the ground truth the crowd answers the next task with.
  void set_task(size_t i) { current_truth_ = &world_->stream[i].truth; }

  /// Σ truth of the selected crowd and of the oracle crowd over every
  /// (online) worker, for stream task `i`.
  std::pair<double, double> Quality(size_t i,
                                    const std::vector<WorkerId>& selected) {
    const crowdselect::Vector& truth = world_->stream[i].truth;
    const auto& skills = world_->dataset.world.draw.worker_skills;
    double chosen = 0.0;
    for (WorkerId w : selected) chosen += TruthScore(skills[w].raw(), truth);
    std::vector<double> all;
    all.reserve(skills.size());
    for (const crowdselect::Vector& s : skills) {
      all.push_back(TruthScore(s.raw(), truth));
    }
    return {chosen, TopKSum(std::move(all), kTopK)};
  }

 private:
  BlueWorld* world_;
  crowdselect::TdpmSelector* tdpm_ = nullptr;
  std::unique_ptr<crowdselect::CrowdManager> manager_;
  const crowdselect::Vector* current_truth_ = nullptr;
};

// Tracks crowd_quality over the first kQualityTasks tasks of the stream.
class QualityTally {
 public:
  /// Records task `i`'s answers; false when the task failed or its crowd
  /// is not k strong.
  bool Add(Serving* serving, size_t i,
           const Result<std::vector<Answer>>& answers) {
    if (!answers.ok() || answers->size() != kTopK) return false;
    if (i >= kQualityTasks) return true;
    std::vector<WorkerId> crowd;
    for (const Answer& a : *answers) crowd.push_back(a.worker);
    const auto [chosen, oracle] = serving->Quality(i, crowd);
    chosen_ += chosen;
    oracle_ += oracle;
    ++tasks_;
    return true;
  }
  void Report(RunResult* result) const {
    result->Check(tasks_ == kQualityTasks, "crowd_quality sample complete");
    result->Set("crowd_quality", oracle_ > 0.0 ? chosen_ / oracle_ : 0.0,
                "ratio", tasks_);
  }

 private:
  double chosen_ = 0.0;
  double oracle_ = 0.0;
  size_t tasks_ = 0;
};

// One task as CrowdManager::ProcessTask serves it. Fails on a non-OK
// status or a crowd that is not k strong.
Result<std::vector<Answer>> ServeUntraced(Serving* serving,
                                          crowdselect::TaskDispatcher* dispatcher,
                                          BlueWorld* world, size_t i) {
  serving->set_task(i);
  return serving->manager().ProcessTask(world->stream[i].text, kTopK,
                                        dispatcher);
}

// Counts over the traced tasks among the first kCountTasks, a prefix every
// run reaches, so they repeat exactly for a seed.
struct ReplayCounts {
  std::vector<double> cg_iterations;
  size_t unconverged = 0;
  uint64_t tokens = 0;
};

// The program's own counters, read at the start and the end of the
// kCountTasks prefix.
struct CounterMarks {
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_appends = 0;

  static CounterMarks Read(const crowdselect::serve::FoldInCache& cache) {
    return {cache.hits(), cache.misses(),
            CounterValue("storage.wal.append_bytes"),
            CounterValue("storage.wal.appends")};
  }
};

// The public calls ProcessTask makes, one span each: AddTask ->
// GetTaskCopy -> pool snapshot -> ProjectTask -> RankByCategory ->
// Dispatch (whose store calls nest under it). Fold-in counts go to
// `counts` unless it is null.
Result<std::vector<Answer>> ServeTraced(
    Serving* serving, crowdselect::TaskDispatcher* dispatcher,
    TracingStore* store, BlueWorld* world, size_t i, SpanLog* log,
    ReplayCounts* counts) {
  serving->set_task(i);
  log->set_op(i);
  ScopedSpan op(log, kOpSpan);
  const Result<TaskId> id = store->AddTask(world->stream[i].text);
  if (!id.ok()) return id.status();
  const Result<TaskRecord> record = store->GetTaskCopy(*id);
  if (!record.ok()) return record.status();
  std::vector<WorkerId> candidates;
  {
    ScopedSpan span(log, "crowddb.pool.snapshot");
    candidates = serving->manager().online_pool()->Snapshot();
  }
  Result<crowdselect::FoldInResult> projected = Status::OK();
  {
    ScopedSpan span(log, "model.foldin.project");
    projected = serving->tdpm().ProjectTask(record->bag);
  }
  if (!projected.ok()) return projected.status();
  if (counts != nullptr) {
    counts->cg_iterations.push_back(projected->cg_iterations);
    if (projected->cg_residual > ModelOptions().cg.gradient_tolerance) {
      ++counts->unconverged;
    }
  }
  Result<std::vector<RankedWorker>> ranked = Status::OK();
  {
    ScopedSpan span(log, "serve.rank");
    ranked = serving->tdpm().engine()->RankByCategory(projected->category,
                                                       kTopK, candidates);
  }
  if (!ranked.ok()) return ranked.status();
  ScopedSpan span(log, "crowddb.dispatch.task");
  return dispatcher->Dispatch(*id, *ranked);
}

void Untraced(const RunOptions& options, RunResult* result) {
  std::vector<double> setup_s;
  std::unique_ptr<BlueWorld> world;
  for (size_t i = 0; i < kSetups; ++i) {
    world.reset();
    const int64_t start = NowNs();
    world = Setup(options, i);
    setup_s.push_back(SecondsSince(start));
  }
  result->Set("setup_s", Median(setup_s), "s", setup_s.size());

  Serving serving(world.get());
  const int64_t train_start = NowNs();
  const Status trained = serving.manager().InferCrowdModel();
  result->Set("train_s", SecondsSince(train_start), "s");
  result->Check(trained.ok(), "InferCrowdModel: " + trained.ToString());
  if (!trained.ok()) return;

  crowdselect::TaskDispatcher dispatcher =
      serving.MakeDispatcher(world->engine.get());
  QualityTally quality;
  std::vector<double> latency_us;
  latency_us.reserve(kStream);
  uint64_t failed = 0;
  size_t i = 0;
  const int64_t start = NowNs();
  while (i < world->stream.size() &&
         (i < kMinOps || SecondsSince(start) < options.seconds)) {
    const int64_t t0 = NowNs();
    const auto answers = ServeUntraced(&serving, &dispatcher, world.get(), i);
    latency_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    if (!quality.Add(&serving, i, answers)) ++failed;
    ++i;
  }
  const double wall_s = SecondsSince(start);
  result->AddOps(i, failed);
  result->Set("ops_per_s", static_cast<double>(i) / wall_s, "1/s", i);
  result->Set("p50_us", Percentile(&latency_us, 0.5), "us", latency_us.size());
  result->Check(TailResolvable(latency_us.size(), kTail),
                "p99 has ten samples beyond it");
  result->Set("tail_us", Percentile(&latency_us, kTail), "us",
              latency_us.size());
  quality.Report(result);
  if (i == world->stream.size()) {
    result->Note("held-out stream exhausted before the time budget");
  }
}

void Traced(const RunOptions& options, RunResult* result) {
  const std::unique_ptr<BlueWorld> world = Setup(options, 0);
  SpanLog log(64);
  Serving serving(world.get());

  // Training: InferCrowdModel as the untraced run times it (cold), then
  // the calls it makes, one span each (warm: the process has trained
  // once). Both fits are seeded and must agree exactly.
  const int64_t train_start = NowNs();
  const Status trained = serving.manager().InferCrowdModel();
  result->Set("train_s", SecondsSince(train_start), "s");
  result->Check(trained.ok(), "InferCrowdModel: " + trained.ToString());
  if (!trained.ok()) return;
  crowdselect::TdpmFitResult fit;
  const uint64_t cg_iters = CounterValue("em.cg.iterations");
  const uint64_t cg_solves = CounterValue("em.cg.solves");
  const uint64_t cg_converged = CounterValue("em.cg.converged");
  {
    Result<std::shared_ptr<const crowdselect::CrowdDatabase>> view =
        Status::OK();
    {
      ScopedSpan span(&log, "crowddb.storage.freeze");
      view = world->engine->FrozenView();
    }
    result->Check(view.ok(), "FrozenView: " + view.status().ToString());
    if (!view.ok()) return;
    crowdselect::TdpmTrainData data;
    {
      ScopedSpan span(&log, "model.em.prep");
      data = crowdselect::TdpmTrainData::FromDatabase(**view);
    }
    Result<crowdselect::TdpmFitResult> fitted = Status::OK();
    {
      ScopedSpan span(&log, "model.em.fit");
      fitted = crowdselect::TdpmTrainer(ModelOptions()).Fit(data);
    }
    result->Check(fitted.ok(), "TdpmTrainer::Fit");
    if (!fitted.ok()) return;
    fit = std::move(*fitted);
  }
  TraceRecorder trace;
  trace.Flush(0, &log);
  const double solves =
      static_cast<double>(CounterValue("em.cg.solves") - cg_solves);
  result->Set("model.em.cg_iterations_per_solve",
              static_cast<double>(CounterValue("em.cg.iterations") - cg_iters) /
                  std::max(solves, 1.0),
              "count", static_cast<size_t>(solves));
  result->Set("model.em.cg_converged_ratio",
              static_cast<double>(CounterValue("em.cg.converged") -
                                  cg_converged) /
                  std::max(solves, 1.0),
              "ratio", static_cast<size_t>(solves));
  if (fit.elbo_history.empty()) return;
  result->Set("model.em.final_elbo", fit.elbo_history.back(), "nats");
  result->Check(serving.tdpm().fit().elbo_history == fit.elbo_history,
                "decomposed fit repeats InferCrowdModel's ELBO history");

  // Serving: blocks of untraced ProcessTask calls (the per-op time the
  // layers must add up to) alternate with traced replays.
  TracingStore store(world->engine.get(), &log);
  crowdselect::TaskDispatcher dispatcher =
      serving.MakeDispatcher(world->engine.get());
  crowdselect::TaskDispatcher traced_dispatcher =
      serving.MakeDispatcher(&store);
  const crowdselect::serve::FoldInCache& cache =
      *serving.tdpm().engine()->cache();
  const CounterMarks begin = CounterMarks::Read(cache);
  CounterMarks end;
  // The text layer on its own: the tokenization AddTask performs, on the
  // same texts against a copy of the store's vocabulary.
  crowdselect::Vocabulary vocab = world->dataset.db.vocabulary();
  const crowdselect::Tokenizer tokenizer(
      crowdselect::TokenizerOptions{.remove_stopwords = true});
  QualityTally quality;
  ReplayCounts counts;
  std::vector<double> untraced_us;
  uint64_t failed = 0;
  size_t i = 0;
  const int64_t start = NowNs();
  while (i < world->stream.size() &&
         (i < kCountTasks || SecondsSince(start) < options.seconds)) {
    Result<std::vector<Answer>> answers = Status::OK();
    if ((i / kTraceBlock) % 2 == 1) {
      ReplayCounts* prefix = i < kCountTasks ? &counts : nullptr;
      answers = ServeTraced(&serving, &traced_dispatcher, &store, world.get(),
                            i, &log, prefix);
      uint64_t tokens = 0;
      {
        ScopedSpan span(&log, "text.tokenize");
        tokens = crowdselect::BagOfWords::FromText(world->stream[i].text,
                                                   tokenizer, &vocab)
                     .TotalTokens();
      }
      if (prefix != nullptr) prefix->tokens += tokens;
      trace.Flush(0, &log);
    } else {
      const int64_t t0 = NowNs();
      answers = ServeUntraced(&serving, &dispatcher, world.get(), i);
      untraced_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    if (!quality.Add(&serving, i, answers)) ++failed;
    if (++i == kCountTasks) end = CounterMarks::Read(cache);
  }
  result->AddOps(i, failed);
  quality.Report(result);
  const uint64_t lookups = end.cache_hits - begin.cache_hits +
                           end.cache_misses - begin.cache_misses;
  result->Set("serve.cache.hit_ratio",
              static_cast<double>(end.cache_hits - begin.cache_hits) /
                  static_cast<double>(std::max<uint64_t>(lookups, 1)),
              "ratio", lookups);
  result->Set("crowddb.wal.bytes_per_op",
              static_cast<double>(end.wal_bytes - begin.wal_bytes) /
                  static_cast<double>(kCountTasks),
              "B", kCountTasks);
  result->Set("crowddb.wal.appends_per_op",
              static_cast<double>(end.wal_appends - begin.wal_appends) /
                  static_cast<double>(kCountTasks),
              "count", kCountTasks);
  const size_t replayed = std::max<size_t>(counts.cg_iterations.size(), 1);
  result->Set("model.foldin.cg_iterations", Mean(counts.cg_iterations),
              "count", counts.cg_iterations.size());
  result->Set("model.foldin.unconverged_ratio",
              static_cast<double>(counts.unconverged) /
                  static_cast<double>(replayed),
              "ratio", counts.cg_iterations.size());
  result->Set("text.tokens_per_task",
              static_cast<double>(counts.tokens) /
                  static_cast<double>(replayed),
              "count", counts.cg_iterations.size());

  for (const char* name :
       {"crowddb.add_task", "crowddb.get_task", "crowddb.pool.snapshot",
        "crowddb.dispatch.task", "crowddb.assign", "crowddb.record_feedback",
        "model.foldin.project", "serve.rank", "text.tokenize"}) {
    result->Set(std::string(name) + "_us", trace.MedianUs(name), "us",
                trace.Calls(name));
  }
  result->Set("crowddb.storage.freeze_ms",
              trace.MedianUs("crowddb.storage.freeze") / 1e3, "ms");
  result->Set("model.em.prep_ms", trace.MedianUs("model.em.prep") / 1e3,
              "ms");
  result->Set("model.em.fit_s", trace.MedianUs("model.em.fit") / 1e6, "s");
  trace.Finish(untraced_us, options.spans_out, result);
}

}  // namespace

RunResult RunBluePath(const RunOptions& options) {
  RunResult result;
  if (options.trace) {
    Traced(options, &result);
  } else {
    Untraced(options, &result);
  }
  return result;
}

}  // namespace perfbench
