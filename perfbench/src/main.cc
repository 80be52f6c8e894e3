// perfbench: the repository benchmark binary. perfbench/run.py builds it
// and turns its last output line into the benchmark result; see
// perfbench/README.md for the workloads and metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--spans-out FILE]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "inputs.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload blue_path_yahoo|select_1m|"
               "wal_ingest --seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--spans-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  if (argc % 2 != 1) return Usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else {
      return Usage();
    }
  }
  if (options.work_dir.empty() || options.seconds <= 0.0) return Usage();
  std::filesystem::create_directories(options.work_dir);

  perfbench::RunResult result;
  if (options.workload == "blue_path_yahoo") {
    result = perfbench::RunBluePath(options);
  } else if (options.workload == "select_1m") {
    result = perfbench::RunSelect1M(options);
  } else if (options.workload == "wal_ingest") {
    result = perfbench::RunWalIngest(options);
  } else {
    return Usage();
  }
  result.Print();
  return 0;
}
