// perfbench, the divscrape benchmark:
//
//   perfbench --workload <analyze_alerts|live_tail4|catchup_warm4>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>] [--outdir <dir>]
//
// Builds the workload's inputs from the seed, measures for the given
// seconds, checks the outputs, prints one human-readable line per check,
// finding and metric, and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// carrying the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit status: 0 when every output check passed, 1 when one
// failed, 2 on a usage error.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <analyze_alerts|"
               "live_tail4|catchup_warm4> --seed <n> --seconds <s> --trace <0|1> "
               "[--workdir <dir>] [--outdir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.workdir = ".bench_work";
  options.outdir = ".bench_out";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--workdir") {
      options.workdir = value;
    } else if (arg == "--outdir") {
      options.outdir = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be > 0");

  // Each run gets its own scratch directory, removed however the run ends.
  options.workdir += "/" + options.workload + "-" + std::to_string(::getpid());
  std::filesystem::create_directories(options.workdir);
  std::filesystem::create_directories(options.outdir);
  struct RemoveWorkdir {
    std::string path;
    ~RemoveWorkdir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } cleanup{options.workdir};

  perfbench::Report report;
  try {
    if (options.workload == "analyze_alerts") {
      report = perfbench::run_analyze_alerts(options);
    } else if (options.workload == "live_tail4") {
      report = perfbench::run_live_tail4(options);
    } else if (options.workload == "catchup_warm4") {
      report = perfbench::run_catchup_warm4(options);
    } else {
      return usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  report.print_human();
  perfbench::select_metrics(report, options.trace ? perfbench::per_layer_metrics()
                                                  : perfbench::end_to_end_metrics());
  std::printf("%s\n", report.json().c_str());
  return report.correct() ? 0 : 1;
}
