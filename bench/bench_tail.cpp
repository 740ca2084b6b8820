// Live-ingest throughput: StreamWriter writes the paper-shaped workload
// into growing CLF files (torn writes enabled, like a real Apache worker
// pool) while the tail stack consumes them — the deployment-shaped
// counterpart to bench_throughput's in-memory runs. Four rows:
//
//   tail                one file  -> LogTailer + ReplayEngine
//   tail_multi4         four vhost-style files (split by /24, the detector
//                       state key) -> MultiTailer merge -> ReplayEngine
//   tail_multi4_sharded same four files -> MultiTailer -> ShardedPipeline
//                       at 2 shards
//   batch_replay        one-shot replay of the single-file log
//
// Every live row's JointResults must serialize byte-identically to the
// batch row's or the bench exits nonzero (the /24 split keeps all state-
// sharing records in one file, so any per-file-order-preserving interleave
// is equivalent — the same argument that makes ShardedPipeline exact).
//
// Usage: bench_tail [scale] [--json <path>]   (default scale 0.1)
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/export.hpp"
#include "detectors/registry.hpp"
#include "httplog/ip.hpp"
#include "pipeline/checkpoint.hpp"
#include "pipeline/multi_tailer.hpp"
#include "pipeline/replay.hpp"
#include "pipeline/sharded.hpp"
#include "pipeline/tailer.hpp"
#include "traffic/stream_writer.hpp"
#include "util/interner.hpp"
#include "util/state.hpp"
#include "workload/engine.hpp"

namespace {

using namespace divscrape;

constexpr std::size_t kMultiFiles = 4;
constexpr std::size_t kShards = 2;
/// Writer-side writev batching: the live loop's writer half is one syscall
/// per kWriterBatch lines instead of one per line (torn writes still flush
/// mid-line, keeping the partial-line path hot for the reader).
constexpr std::size_t kWriterBatch = 256;

/// Generates the amadeus_like stream at `scale` into `write`, calling
/// `on_burst` (the reader's poll point; false stops generation) every 4096
/// records and once after the last one.
template <typename Write, typename Burst>
void generate_in_bursts(double scale, Write&& write, Burst&& on_burst) {
  workload::WorkloadEngine gen(bench::amadeus_like(scale));
  std::size_t written = 0;
  (void)gen.run([&](httplog::LogRecord&& record) {
    write(record);
    if (++written % 4096 == 0 && !on_burst()) gen.request_stop();
  });
  if (!gen.stop_requested()) (void)on_burst();
}

std::uint32_t route(const httplog::LogRecord& record) {
  // Per-vhost-style split that respects the detector state key: all
  // records of one /24 land in one file (cf. ShardedPipeline::route).
  const auto key = httplog::Ipv4Hash{}(record.ip.prefix(24));
  return static_cast<std::uint32_t>(key % kMultiFiles);
}

struct MultiLogs {
  std::vector<std::string> paths;
  std::vector<std::unique_ptr<traffic::StreamWriter>> writers;

  explicit MultiLogs(const std::string& prefix) {
    for (std::size_t i = 0; i < kMultiFiles; ++i) {
      paths.push_back(prefix + "." + std::to_string(i) + ".log");
      traffic::StreamWriter::FaultPlan plan;
      plan.tear_every = 97;  // keep the partial-line path hot per file
      plan.seed = 1 + i;
      writers.push_back(std::make_unique<traffic::StreamWriter>(
          paths.back(), plan, kWriterBatch));
    }
  }
  ~MultiLogs() {
    for (const auto& p : paths) std::remove(p.c_str());
  }
  [[nodiscard]] std::uint64_t records_written() const {
    std::uint64_t total = 0;
    for (const auto& w : writers) total += w->records_written();
    return total;
  }
};

/// Generates the scenario, routing each record to its file while polling
/// the tailer every batch. Returns wall seconds for the whole live loop.
double write_multi(MultiLogs& logs, pipeline::MultiTailer& tailer,
                  double scale) {
  const auto t0 = std::chrono::steady_clock::now();
  generate_in_bursts(
      scale,
      [&](const httplog::LogRecord& record) {
        logs.writers[route(record)]->write(record);
      },
      [&] {
        for (auto& w : logs.writers) w->flush();  // poll sees a byte boundary
        (void)tailer.poll();
        return true;
      });
  (void)tailer.flush();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool check_live_counts(const char* mode, const MultiLogs& logs,
                       const pipeline::MultiTailer& tailer) {
  if (tailer.stats().parsed != logs.records_written()) {
    std::fprintf(stderr, "FAIL: %s tailed %llu of %llu written records\n",
                 mode,
                 static_cast<unsigned long long>(tailer.stats().parsed),
                 static_cast<unsigned long long>(logs.records_written()));
    return false;
  }
  return true;
}

bool check_identity(const char* mode, const std::string& live,
                    const std::string& batch) {
  if (live != batch) {
    std::fprintf(stderr,
                 "FAIL: %s results differ from one-shot batch replay\n",
                 mode);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_bench_args(argc, argv, 0.1);
  const double scale = args.scale;
  const std::string& json_path = args.json_path;
  std::printf("# live ingest: write + tail + detect, scale=%.3f\n\n", scale);
  const std::string log_path = "bench_tail.log";

  std::vector<bench::ThroughputRun> runs;

  // Single file, sequential: generation + CLF encode + write + tail +
  // parse + both detectors — the full deployment loop.
  std::string tail_results;
  {
    traffic::StreamWriter::FaultPlan plan;
    plan.tear_every = 97;  // exercise the partial-line path continuously
    traffic::StreamWriter writer(log_path, plan, kWriterBatch);
    const auto pool = detectors::make_paper_pair();
    pipeline::ReplayEngine engine(pool);
    pipeline::LogTailer tailer(log_path, engine);

    const auto t0 = std::chrono::steady_clock::now();
    generate_in_bursts(
        scale, [&](const httplog::LogRecord& r) { writer.write(r); },
        [&] {
          writer.flush();
          (void)tailer.poll();
          return true;
        });
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (engine.stats().parsed != writer.records_written()) {
      std::fprintf(stderr, "FAIL: tailed %llu of %llu written records\n",
                   static_cast<unsigned long long>(engine.stats().parsed),
                   static_cast<unsigned long long>(writer.records_written()));
      return 1;
    }
    runs.push_back({"tail", 0, engine.stats().parsed, wall});
    tail_results = core::to_json(engine.results());
  }

  // Batch: one-shot replay of the single-file log — the reference every
  // live row must match byte-for-byte.
  std::string batch_results;
  {
    const auto pool = detectors::make_paper_pair();
    pipeline::ReplayEngine engine(pool);
    std::ifstream in(log_path, std::ios::binary);
    const auto stats = engine.replay(in);
    runs.push_back({"batch_replay", 0, stats.parsed, stats.wall_seconds});
    batch_results = core::to_json(engine.results());
    if (!check_identity("tail", tail_results, batch_results)) return 1;
  }
  std::remove(log_path.c_str());

  // Single file with a mid-run kill: tailer and engine are torn down
  // mid-stream, the detector state travels through the Checkpoint JSON
  // wire, and a fresh incarnation resumes warm. Wall time covers the
  // serialize + restore, and the identity gate proves the resumed run's
  // results byte-identical to batch_replay — the kill-anywhere contract
  // of pipeline_warm_resume_test, timed.
  {
    const std::string warm_log = log_path + ".warm";
    traffic::StreamWriter::FaultPlan plan;
    plan.tear_every = 97;
    traffic::StreamWriter writer(warm_log, plan, kWriterBatch);
    auto pool = detectors::make_paper_pair();
    auto engine = std::make_unique<pipeline::ReplayEngine>(pool);
    auto tailer = std::make_unique<pipeline::LogTailer>(warm_log, *engine);
    std::vector<std::unique_ptr<detectors::Detector>> resumed_pool;

    // The kill and warm restart; false (with a FAIL line) on any error.
    const auto restart = [&] {
      pipeline::Checkpoint cp = tailer->checkpoint();
      util::StateWriter w;
      if (!engine->save_state(w)) {
        std::fprintf(stderr, "FAIL: warm_resume cannot serialize state\n");
        return false;
      }
      cp.state = w.take();
      const auto saved = pipeline::Checkpoint::from_json(cp.to_json());
      tailer.reset();
      engine.reset();  // the kill
      resumed_pool = detectors::make_paper_pair();
      engine = std::make_unique<pipeline::ReplayEngine>(resumed_pool);
      tailer = std::make_unique<pipeline::LogTailer>(warm_log, *engine);
      if (!saved || !tailer->resume(*saved)) {
        std::fprintf(stderr, "FAIL: warm_resume offset not honored\n");
        return false;
      }
      util::StateReader r(saved->state);
      if (!engine->load_state(r)) {
        std::fprintf(stderr, "FAIL: warm_resume cannot restore state\n");
        return false;
      }
      return true;
    };

    const auto t0 = std::chrono::steady_clock::now();
    std::size_t batches = 0;
    bool restarted = false;
    bool failed = false;
    generate_in_bursts(
        scale, [&](const httplog::LogRecord& r) { writer.write(r); },
        [&] {
          writer.flush();
          (void)tailer->poll();
          if (!restarted && ++batches == 32) {
            restarted = true;
            failed = !restart();
          }
          return !failed;
        });
    if (failed) return 1;
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const auto cp = tailer->checkpoint();
    if (cp.parsed != writer.records_written()) {
      std::fprintf(stderr,
                   "FAIL: warm_resume tailed %llu of %llu written records\n",
                   static_cast<unsigned long long>(cp.parsed),
                   static_cast<unsigned long long>(writer.records_written()));
      return 1;
    }
    runs.push_back({"tail_warm_resume", 0, cp.parsed, wall});
    if (!check_identity("tail_warm_resume", core::to_json(engine->results()),
                        batch_results))
      return 1;
    std::remove(warm_log.c_str());
  }

  // Four files, merged, sequential consumption.
  {
    MultiLogs logs(log_path + ".multi");
    const auto pool = detectors::make_paper_pair();
    pipeline::ReplayEngine engine(pool);
    pipeline::MultiTailer tailer(
        logs.paths,
        [&engine](httplog::LogRecord&& record) {
          engine.process_record(std::move(record));
        });
    const double wall = write_multi(logs, tailer, scale);
    if (!check_live_counts("tail_multi4", logs, tailer)) return 1;
    runs.push_back({"tail_multi4", 0, tailer.stats().parsed, wall});
    if (!check_identity("tail_multi4", core::to_json(engine.results()),
                        batch_results))
      return 1;
  }

  // Four files, merged, sharded consumption (2 worker threads).
  {
    MultiLogs logs(log_path + ".sharded");
    pipeline::ShardedPipeline pipeline(
        [] { return detectors::make_paper_pair(); }, kShards);
    util::StringInterner ua_tokens;
    pipeline::MultiTailer tailer(
        logs.paths,
        pipeline::MultiTailer::BatchSink([&](pipeline::RecordBatch&& batch) {
          for (auto& record : batch)
            record.ua_token = ua_tokens.intern(record.user_agent);
          pipeline.process_batch(std::move(batch));
        }),
        pipeline.batch_size(), pipeline::MultiTailConfig{},
        &pipeline.batch_pool());
    const auto t0 = std::chrono::steady_clock::now();
    const double write_wall = write_multi(logs, tailer, scale);
    const auto results = pipeline.finish();  // wall covers the join too
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    (void)write_wall;
    if (!check_live_counts("tail_multi4_sharded", logs, tailer)) return 1;
    runs.push_back(
        {"tail_multi4_sharded", kShards, tailer.stats().parsed, wall});
    if (!check_identity("tail_multi4_sharded", core::to_json(results),
                        batch_results))
      return 1;
  }

  std::printf("  %-20s %12s %14s %14s\n", "mode", "wall(s)", "records/s",
              "ns/record");
  for (const auto& run : runs) {
    std::printf("  %-20s %12.2f %14.0f %14.0f\n", run.mode.c_str(),
                run.wall_s, run.records_per_sec(), run.ns_per_record());
  }
  std::printf(
      "\n  identity: every live mode == batch_replay (byte-identical "
      "JSON)\n");
  std::printf("  peak RSS: %llu kB\n",
              static_cast<unsigned long long>(bench::peak_rss_kb()));

  if (!json_path.empty()) {
    if (!bench::write_throughput_json(json_path, "bench_tail", scale, runs))
      return 1;
    std::printf("  wrote %s\n", json_path.c_str());
  }
  return 0;
}
