// Inputs and shared plumbing for the workloads: seeded task streams drawn
// from a generating world, ground-truth scoring, the run options and
// scratch directories.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "datagen/world.h"
#include "linalg/vector.h"
#include "report.h"
#include "text/bag_of_words.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   ///< Scratch space for stores; removed after use.
  std::string spans_out;  ///< Where the traced run writes its spans.
};

RunResult RunBluePath(const RunOptions& options);
RunResult RunSelect1M(const RunOptions& options);
RunResult RunWalIngest(const RunOptions& options);

/// A task drawn from a world's generative model but never part of its
/// history: the rendered text the program sees, its bag of words over
/// the world's term ids, and softmax(c_j), the ground-truth category mix
/// the world scores workers against.
struct HeldOutTask {
  std::string text;
  crowdselect::BagOfWords bag;
  crowdselect::Vector truth;
};

/// Draws `n` tasks from `params` with the world's task-length
/// distribution. Terms render as "<prefix><term id>", the names the
/// platform generator interns.
std::vector<HeldOutTask> SampleHeldOutTasks(
    const crowdselect::TdpmModelParams& params,
    const crowdselect::WorldConfig& world, const std::string& prefix,
    size_t n, uint64_t seed);

/// Ground truth w_i . softmax(c_j), the world's noiseless performance.
double TruthScore(const double* skills, const crowdselect::Vector& truth);

/// Sum of the `k` largest `scores`: the oracle crowd's ground truth for
/// crowd_quality.
double TopKSum(std::vector<double> scores, size_t k);

/// Seconds since `start_ns`.
double SecondsSince(int64_t start_ns);

/// A fresh directory under the run's work dir, removed on destruction.
class ScratchDir {
 public:
  ScratchDir(const std::string& parent, const std::string& name);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Reads counter `name` from the program's metrics registry.
uint64_t CounterValue(const char* name);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
