#include "inputs.h"

#include <algorithm>
#include <filesystem>
#include <functional>

#include "model/generative.h"
#include "obs/metrics.h"
#include "trace.h"
#include "util/logging.h"
#include "util/rng.h"

namespace perfbench {

using crowdselect::Vector;

std::vector<HeldOutTask> SampleHeldOutTasks(
    const crowdselect::TdpmModelParams& params,
    const crowdselect::WorldConfig& world, const std::string& prefix,
    size_t n, uint64_t seed) {
  crowdselect::TdpmGenerator generator(params);
  crowdselect::Rng rng(seed);
  std::vector<HeldOutTask> tasks;
  tasks.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double len =
        rng.Normal(world.mean_task_length, world.task_length_stddev);
    auto drawn =
        generator.SampleTask(static_cast<size_t>(std::max(3.0, len)), &rng);
    CS_CHECK(drawn.ok()) << drawn.status().ToString();
    HeldOutTask task;
    for (crowdselect::TermId term : drawn->tokens) {
      if (!task.text.empty()) task.text += ' ';
      task.text += prefix;
      task.text += std::to_string(term);
    }
    task.bag = std::move(drawn->bag);
    task.truth = drawn->categories.Softmax();
    tasks.push_back(std::move(task));
  }
  return tasks;
}

double TruthScore(const double* skills, const Vector& truth) {
  double sum = 0.0;
  for (size_t d = 0; d < truth.size(); ++d) sum += skills[d] * truth[d];
  return sum;
}

double TopKSum(std::vector<double> scores, size_t k) {
  k = std::min(k, scores.size());
  std::nth_element(scores.begin(), scores.begin() + static_cast<long>(k),
                   scores.end(), std::greater<double>());
  double sum = 0.0;
  for (size_t i = 0; i < k; ++i) sum += scores[i];
  return sum;
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

ScratchDir::ScratchDir(const std::string& parent, const std::string& name)
    : path_(parent + "/" + name) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

uint64_t CounterValue(const char* name) {
  return crowdselect::obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

}  // namespace perfbench
