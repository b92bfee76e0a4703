// dfmkit benchmark driver. Runs one workload and prints, as its last line,
// {"correct", "attempted", "failed", "metrics"} with every metric it
// measured; run.py selects the end-to-end or per-layer set from it.
//
//   perfbench_driver --workload <signoff|eco-edit|fix-loop|served>
//                    --seed N --seconds S --trace 0|1
//                    --dfmkit <path> --workdir <dir>
#include "bench.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <stdexcept>

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string val = argv[i + 1];
      if (key == "--workload") args.workload = val;
      else if (key == "--seed") args.seed = std::strtoull(val.c_str(), nullptr, 10);
      else if (key == "--seconds") args.seconds = std::strtod(val.c_str(), nullptr);
      else if (key == "--trace") args.trace = val == "1";
      else if (key == "--dfmkit") args.dfmkit = val;
      else if (key == "--workdir") args.workdir = val;
      else throw std::runtime_error("unknown argument " + key);
    }
    if (args.workdir.empty()) throw std::runtime_error("--workdir is required");
    std::filesystem::create_directories(args.workdir);

    // A traced run reports per-layer numbers only: one round of the
    // workload's operation (with its checks) is enough to drive the
    // probes. The served loop keeps its full length, since the service
    // numbers come from its own requests.
    if (args.trace && args.workload != "served") args.seconds = 0;

    Result res;
    if (args.workload == "signoff") run_signoff(args, res);
    else if (args.workload == "eco-edit") run_eco_edit(args, res);
    else if (args.workload == "fix-loop") run_fix_loop(args, res);
    else if (args.workload == "served") run_served(args, res);
    else throw std::runtime_error("unknown workload '" + args.workload + "'");
    std::printf("%s\n", res.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
