// Experiment E10: end-to-end throughput of the two-tool deployment over the
// paper-shaped workload, sequential and sharded — the repository's primary
// perf yardstick. Emits the machine-readable BENCH_throughput document with
// --json so every perf PR has a measured baseline to beat.
//
// Usage: bench_throughput [scale] [--json <path>]   (default scale 1.0)
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "detectors/registry.hpp"
#include "httplog/clf.hpp"
#include "pipeline/sharded.hpp"
#include "workload/engine.hpp"

namespace {

// Parse-path rows, identity-gated: before any timing, every corpus line must
// get the same verdict from the fast parser and the reference oracle AND
// re-format to identical bytes — a wrong-but-fast parser reports failure
// here instead of a flattering number.
bool add_parse_runs(const divscrape::workload::ScenarioSpec& spec,
                    std::vector<divscrape::bench::ThroughputRun>& runs) {
  using namespace divscrape;
  constexpr std::size_t kMaxLines = 300'000;
  std::vector<std::string> lines;
  {
    workload::WorkloadEngine engine(spec);
    httplog::ClfFormatter formatter;
    (void)engine.run([&](httplog::LogRecord&& r) {
      if (lines.size() == kMaxLines) return engine.request_stop();
      std::string buf;
      formatter.append(r, buf);
      lines.push_back(std::move(buf));
    });
  }

  httplog::ClfParser parser;
  httplog::LogRecord rec;
  for (const auto& line : lines) {
    const auto ref = httplog::parse_clf_reference(line);
    const bool fast_ok =
        parser.parse(line, rec) == httplog::ClfError::kNone;
    if (!ref.ok() || !fast_ok ||
        httplog::format_clf(*ref.record) != httplog::format_clf(rec)) {
      std::fprintf(stderr, "parse identity gate FAILED on: %s\n",
                   line.c_str());
      return false;
    }
  }

  const auto time_passes = [&](auto&& parse_one, std::size_t passes) {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t parsed = 0;
    for (std::size_t p = 0; p < passes; ++p) {
      for (const auto& line : lines) parsed += parse_one(line);
    }
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return std::pair<std::uint64_t, double>(parsed, wall);
  };

  const auto [ref_n, ref_wall] = time_passes(
      [](const std::string& line) {
        return httplog::parse_clf_reference(line).ok() ? 1u : 0u;
      },
      1);
  runs.push_back({"parse_reference", 0, ref_n, ref_wall});

  const auto [fast_n, fast_wall] = time_passes(
      [&](const std::string& line) {
        return parser.parse(line, rec) == httplog::ClfError::kNone ? 1u : 0u;
      },
      4);
  runs.push_back({"parse_fast", 0, fast_n, fast_wall});
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace divscrape;

  const auto args = bench::parse_bench_args(argc, argv, 1.0);
  const double scale = args.scale;
  const std::string& json_path = args.json_path;
  const auto spec = bench::amadeus_like(scale);
  std::printf("# E10: end-to-end throughput, scale=%.3f\n\n", scale);

  std::vector<bench::ThroughputRun> runs;

  // Sequential: generator -> AlertJoiner in one thread.
  const auto pool = detectors::make_paper_pair();
  const auto sequential = workload::run_experiment(spec, pool);
  runs.push_back({"sequential", 0, sequential.records,
                  sequential.wall_seconds});

  // Sharded: the engine's batches -> single dispatcher, N detector-pool
  // worker threads.
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    const auto t0 = std::chrono::steady_clock::now();
    pipeline::ShardedPipeline pipeline(
        [] { return detectors::make_paper_pair(); }, shards);
    workload::WorkloadEngine engine(spec);
    (void)engine.run_batched(
        [&pipeline](pipeline::RecordBatch&& batch) {
          pipeline.process_batch(std::move(batch));
        },
        pipeline.batch_size(), &pipeline.batch_pool());
    const auto results = pipeline.finish();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    runs.push_back({"sharded", shards, results.total_requests(), wall});
  }

  if (!add_parse_runs(spec, runs)) return 1;

  std::printf("  %-12s %8s %12s %14s %14s\n", "mode", "shards", "wall(s)",
              "records/s", "ns/record");
  for (const auto& run : runs) {
    std::printf("  %-12s %8zu %12.2f %14.0f %14.0f\n", run.mode.c_str(),
                run.shards, run.wall_s, run.records_per_sec(),
                run.ns_per_record());
  }
  std::printf("\n  peak RSS: %llu kB\n",
              static_cast<unsigned long long>(bench::peak_rss_kb()));

  if (!json_path.empty()) {
    if (!bench::write_throughput_json(json_path, "bench_throughput", scale,
                                      runs))
      return 1;
    std::printf("  wrote %s\n", json_path.c_str());
  }
  return 0;
}
