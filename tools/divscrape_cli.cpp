// divscrape — command-line front end to the library.
//
//   divscrape simulate  <scenario|spec.json>  run a catalog/spec workload
//                                through the parallel WorkloadEngine (CLF
//                                on stdout unless --out/--detect)
//   divscrape analyze   <log>    run the two detectors over a CLF file
//   divscrape tail      <log>... follow growing CLF file(s) (deployment mode)
//   divscrape tables    [scenario|spec.json]  regenerate the paper's four
//                                tables (default scenario: amadeus_like)
//   divscrape export    [scenario|spec.json]  run the experiment, emit
//                                JSON results (default: amadeus_like)
//   divscrape label     <log>    heuristically label a CLF file (paper §V)
//   divscrape soak      [scenario]  chaos soak: closed generate->tail loop
//                                under scripted faults (default: megasite)
//   divscrape score     <scenario|spec.json>  run a workload through the
//                                detector pair and score detection quality
//                                (precision/recall/AUC/time-to-detect per
//                                detector and for the 1oo2 ensemble)
//
// Common options:
//   --config <file>     key=value config (see core/config.hpp header)
//   --set k=v           inline override (repeatable); a key the command
//                       does not read is a usage error (exit 2)
//   --scale <s>         shorthand for --set scenario.scale=s
//   --alerts <file>     (analyze) also write a JSONL alert log
//   --csv <prefix>      (export) also write <prefix>_{totals,pairs,status}.csv
//
// Scenarios: every command that generates traffic takes a catalog name or
// a spec file. Seeds, durations and populations are set in the spec: dump
// a template with `simulate <name> --dump-spec > my.json`, edit it, and
// pass my.json in place of the name. `--scale` is the one scenario knob on
// the command line.
//
// Simulate options:
//   --list              print the scenario catalog and exit
//   --dump-spec         print the resolved spec JSON and exit (the
//                       template workflow: dump, edit, simulate the file)
//   --gen-threads <n>   generator worker threads (output is identical for
//                       any value — the determinism contract)
//   --partitions <n>    logical partitions (part of the output contract;
//                       default 8)
//   --out <file>        write the merged stream as a CLF log (batched
//                       writev writer); default without --out/--detect is
//                       CLF on stdout
//   --out-multi <dir>   write one CLF log per vhost under <dir> (the
//                       deployment shape `tail` ingests); SIGINT flushes
//                       and closes every log cleanly
//   --lazy              force lazy actor materialization (auto-enabled for
//                       megasite-class specs)
//   --detect            feed the stream to the sentinel+arcane pair and
//                       print the joint summary
//   --shards <n>        with --detect: sharded detection on n workers
//   --dispatchers <m>   with --shards: m dispatcher threads, each owning a
//                       contiguous shard range (default 1); records travel
//                       as RecordBatches through SPSC rings either way
//
// Soak options (see pipeline/chaos.hpp for the full contract):
//   --out <dir>         work directory (live logs, shadows, checkpoints;
//                       default soak_run)
//   --bench <file>      machine-readable report (default BENCH_soak.json)
//   --smoke             CI-sized run: --scale 0.01 + tight persist cadence
//   --chaos-seed <n>    fault schedule seed
//   --rss-limit-mb <n>  RSS high-water bound (default 4096)
//
// Tail options:
//   --checkpoint-dir <d>  resume from / persist checkpoints under one
//                         directory (created if missing): one per-log
//                         offset file plus tail_session.state.json, the
//                         per-log offsets + the shared detector state,
//                         committed last so warm resume always sees a
//                         consistent cut (see pipeline/tail_session.hpp)
//   --shards <n>          dispatch merged records to a ShardedPipeline with
//                         n worker threads (results print at exit); the
//                         merged stream is framed into RecordBatches
//   --dispatchers <m>     (tail, with --shards) m dispatcher threads
//   --reorder-ms <n>      multi-file merge reorder window (default 2000)
//   --follow              keep polling after catching up (stop with SIGINT)
//   --poll-ms <n>         follow-mode poll interval (default 200)
//   --results <file>      periodically flush JointResults JSON (atomic
//                         rename; sharded mode writes it once at exit)
//   --flush-every <n>     flush results/checkpoint every n parsed records
//
// Score options:
//   --json <file>       also write the single-scenario DetectionDocument
//                       (schema divscrape.bench_detection.v1)
//   --gen-threads <n>   generator worker threads (the score is identical
//                       for any value — the determinism contract)
#include <sys/stat.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "core/export.hpp"
#include "core/labeling.hpp"
#include "core/paper_reference.hpp"
#include "core/report.hpp"
#include "core/timeseries.hpp"
#include "detectors/arcane.hpp"
#include "detectors/sentinel.hpp"
#include "eval/run.hpp"
#include "eval/scorer.hpp"
#include "httplog/io.hpp"
#include "pipeline/alert_log.hpp"
#include "pipeline/chaos.hpp"
#include "pipeline/multi_tailer.hpp"
#include "pipeline/sharded.hpp"
#include "pipeline/tail_session.hpp"
#include "traffic/stream_writer.hpp"
#include "util/atomic_file.hpp"
#include "util/interner.hpp"
#include "workload/catalog.hpp"
#include "workload/engine.hpp"
#include "workload/experiment.hpp"

using namespace divscrape;

namespace {

struct CliOptions {
  std::string command;
  std::string input;                ///< first positional (single-log cmds)
  std::vector<std::string> inputs;  ///< all positionals (tail takes many)
  std::string alerts_path;
  std::string csv_prefix;
  std::string checkpoint_dir;
  std::string results_path;
  std::string out_path;
  std::string out_multi_dir;
  std::string bench_path;
  std::string json_path;
  bool follow = false;
  bool detect = false;
  bool list = false;
  bool dump_spec = false;
  bool lazy = false;
  bool smoke = false;
  std::uint64_t chaos_seed = 0xC4A05ULL;
  double rss_limit_mb = 4096.0;
  int poll_ms = 200;
  int reorder_ms = 2000;
  std::size_t shards = 1;
  std::size_t dispatchers = 1;
  std::size_t gen_threads = 1;
  std::size_t partitions = 0;  ///< 0 = engine default
  std::uint64_t flush_every = 100000;
  /// Raw --config/--set store. read_config() reads it once, into the
  /// typed fields below; nothing else reads it.
  core::KeyValueConfig config;
  std::optional<double> scale;  ///< scenario.scale, when set
  detectors::SentinelConfig sentinel;
  detectors::ArcaneConfig arcane;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: divscrape "
      "<simulate|analyze|tail|tables|export|label|soak|score> "
      "[options]\n"
      "  score    <scenario|spec.json> [--json <file>] [--gen-threads <n>]\n"
      "  simulate <scenario|spec.json> [--list] [--dump-spec]\n"
      "           [--gen-threads <n>] [--partitions <n>] [--lazy]\n"
      "           [--out <file>] [--out-multi <dir>] [--detect] "
      "[--shards <n>]\n"
      "  soak     [scenario] [--out <dir>] [--bench <file>] [--smoke]\n"
      "           [--chaos-seed <n>] [--rss-limit-mb <n>]\n"
      "  tail     <log>... [--checkpoint-dir <d>] [--shards <n>] "
      "[--follow]\n"
      "  tables|export [scenario|spec.json]   (default amadeus_like)\n"
      "  --config <file>       load key=value configuration\n"
      "  --set k=v             inline config override (repeatable)\n"
      "  --scale <s>           scenario scale (> 0); other scenario knobs\n"
      "                        live in spec files (simulate --dump-spec)\n"
      "  --alerts <file>       (analyze) write JSONL alert log\n"
      "  --csv <prefix>        (export) also write CSV files\n"
      "  --checkpoint-dir <d>  (tail) resume/persist warm checkpoints here\n"
      "  --shards <n>          (tail) sharded detection, n worker threads\n"
      "  --dispatchers <m>     (tail/simulate, with --shards) dispatcher "
      "threads\n"
      "  --reorder-ms <n>      (tail) merge reorder window, default 2000\n"
      "  --follow              (tail) keep polling; SIGINT checkpoints+exits\n"
      "  --poll-ms <n>         (tail) follow poll interval, default 200\n"
      "  --results <file>      (tail) periodic JointResults JSON flush\n"
      "  --flush-every <n>     (tail) flush cadence in parsed records\n");
  return 2;
}

bool parse_args(int argc, char** argv, CliOptions& opts) {
  if (argc < 2) return false;
  opts.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--config") {
      const char* path = next();
      if (!path) return false;
      std::ifstream in(path);
      if (!in) {
        std::fprintf(stderr, "cannot open config %s\n", path);
        return false;
      }
      if (!opts.config.parse(in)) {
        for (const auto& e : opts.config.errors())
          std::fprintf(stderr, "config: %s\n", e.c_str());
        return false;
      }
    } else if (arg == "--set") {
      const char* kv = next();
      if (!kv) return false;
      const std::string text = kv;
      const auto eq = text.find('=');
      if (eq == std::string::npos) return false;
      opts.config.set(text.substr(0, eq), text.substr(eq + 1));
    } else if (arg == "--scale") {
      const char* s = next();
      if (!s) return false;
      opts.config.set("scenario.scale", s);
    } else if (arg == "--alerts") {
      const char* path = next();
      if (!path) return false;
      opts.alerts_path = path;
    } else if (arg == "--csv") {
      const char* prefix = next();
      if (!prefix) return false;
      opts.csv_prefix = prefix;
    } else if (arg == "--checkpoint-dir") {
      const char* path = next();
      if (!path) return false;
      opts.checkpoint_dir = path;
    } else if (arg == "--shards") {
      const char* n = next();
      if (!n) return false;
      char* end = nullptr;
      const long v = std::strtol(n, &end, 10);
      if (end == n || *end != '\0' || v < 1 || v > 64) return false;
      opts.shards = static_cast<std::size_t>(v);
    } else if (arg == "--dispatchers") {
      const char* n = next();
      if (!n) return false;
      char* end = nullptr;
      const long v = std::strtol(n, &end, 10);
      if (end == n || *end != '\0' || v < 1 || v > 64) return false;
      opts.dispatchers = static_cast<std::size_t>(v);
    } else if (arg == "--reorder-ms") {
      const char* n = next();
      if (!n) return false;
      char* end = nullptr;
      const long v = std::strtol(n, &end, 10);
      if (end == n || *end != '\0' || v < 0 || v > 3600000) return false;
      opts.reorder_ms = static_cast<int>(v);
    } else if (arg == "--results") {
      const char* path = next();
      if (!path) return false;
      opts.results_path = path;
    } else if (arg == "--follow") {
      opts.follow = true;
    } else if (arg == "--detect") {
      opts.detect = true;
    } else if (arg == "--list") {
      opts.list = true;
    } else if (arg == "--dump-spec") {
      opts.dump_spec = true;
    } else if (arg == "--out") {
      const char* path = next();
      if (!path) return false;
      opts.out_path = path;
    } else if (arg == "--out-multi") {
      const char* path = next();
      if (!path) return false;
      opts.out_multi_dir = path;
    } else if (arg == "--bench") {
      const char* path = next();
      if (!path) return false;
      opts.bench_path = path;
    } else if (arg == "--json") {
      const char* path = next();
      if (!path) return false;
      opts.json_path = path;
    } else if (arg == "--lazy") {
      opts.lazy = true;
    } else if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg == "--chaos-seed") {
      const char* n = next();
      if (!n) return false;
      char* end = nullptr;
      opts.chaos_seed = std::strtoull(n, &end, 10);
      if (end == n || *end != '\0') return false;
    } else if (arg == "--rss-limit-mb") {
      const char* n = next();
      if (!n) return false;
      char* end = nullptr;
      opts.rss_limit_mb = std::strtod(n, &end);
      if (end == n || *end != '\0') return false;
    } else if (arg == "--gen-threads") {
      const char* n = next();
      if (!n) return false;
      char* end = nullptr;
      const long v = std::strtol(n, &end, 10);
      if (end == n || *end != '\0' || v < 1 || v > 64) return false;
      opts.gen_threads = static_cast<std::size_t>(v);
    } else if (arg == "--partitions") {
      const char* n = next();
      if (!n) return false;
      char* end = nullptr;
      const long v = std::strtol(n, &end, 10);
      if (end == n || *end != '\0' || v < 1 || v > 256) return false;
      opts.partitions = static_cast<std::size_t>(v);
    } else if (arg == "--poll-ms") {
      const char* n = next();
      if (!n) return false;
      char* end = nullptr;
      const long v = std::strtol(n, &end, 10);
      if (end == n || *end != '\0' || v <= 0 || v > 3600000) return false;
      opts.poll_ms = static_cast<int>(v);
    } else if (arg == "--flush-every") {
      const char* n = next();
      if (!n) return false;
      char* end = nullptr;
      opts.flush_every = std::strtoull(n, &end, 10);
      if (end == n || *end != '\0' || opts.flush_every == 0) return false;
    } else if (!arg.empty() && arg[0] != '-') {
      // Positional argument: tail accepts many logs, other commands use
      // the first.
      opts.inputs.push_back(arg);
      if (opts.input.empty()) opts.input = arg;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

std::vector<std::unique_ptr<detectors::Detector>> pair_from(
    const CliOptions& opts) {
  std::vector<std::unique_ptr<detectors::Detector>> pool;
  pool.push_back(std::make_unique<detectors::SentinelDetector>(opts.sentinel));
  pool.push_back(std::make_unique<detectors::ArcaneDetector>(opts.arcane));
  return pool;
}

void print_detector_summary(const core::JointResults& r);

volatile std::sig_atomic_t g_tail_interrupted = 0;

void tail_sigint(int) { g_tail_interrupted = 1; }

/// Resolves the scenario positional of simulate/soak/score/tables/export:
/// a catalog name first, then a spec file. The catalog wins on a name
/// collision (rename the file).
std::optional<workload::ScenarioSpec> resolve_spec(const CliOptions& opts) {
  if (opts.scale && *opts.scale <= 0.0) {
    std::fprintf(stderr, "%s: --scale must be > 0 (got %g)\n",
                 opts.command.c_str(), *opts.scale);
    return std::nullopt;
  }
  if (auto spec =
          workload::catalog_entry(opts.input, opts.scale.value_or(1.0))) {
    return spec;
  }
  std::string error;
  auto spec = workload::ScenarioSpec::load(opts.input, &error);
  if (!spec) {
    std::fprintf(stderr,
                 "%s: \"%s\" is not a catalog scenario, and loading "
                 "it as a spec file failed: %s\n",
                 opts.command.c_str(), opts.input.c_str(), error.c_str());
    return std::nullopt;
  }
  if (opts.scale) spec->scale = *opts.scale;  // --scale overrides the file
  return spec;
}

int cmd_simulate(const CliOptions& opts) {
  if (opts.list) {
    std::printf("scenario catalog:\n");
    for (const auto& entry : workload::catalog()) {
      std::printf("  %-20s %s\n", std::string(entry.name).c_str(),
                  std::string(entry.description).c_str());
    }
    return 0;
  }
  if (opts.input.empty()) {
    std::fprintf(stderr,
                 "simulate: missing <scenario|spec.json> "
                 "(try: simulate --list)\n");
    return 2;
  }
  auto spec = resolve_spec(opts);
  if (!spec) return 1;
  if (opts.dump_spec) {
    std::printf("%s\n", spec->to_json().c_str());
    return 0;
  }

  workload::EngineConfig engine_config;
  engine_config.gen_threads = opts.gen_threads;
  if (opts.partitions != 0) engine_config.partitions = opts.partitions;
  // Megasite-class specs only fit in memory lazily; small ones skip the
  // second construction pass (see EngineConfig::lazy_actors).
  engine_config.lazy_actors =
      opts.lazy || workload::static_population(*spec) >= 200'000;
  workload::WorkloadEngine engine(std::move(*spec), engine_config);

  // Compose the sink: an optional CLF writer (file, per-vhost directory,
  // or stdout when neither --out nor --detect asked for anything else)
  // plus an optional detector pair (sequential joiner or sharded
  // pipeline). Engine-stamped tokens are globally consistent, so
  // detectors consume records as-is.
  std::unique_ptr<traffic::StreamWriter> file_writer;
  if (!opts.out_path.empty()) {
    file_writer = std::make_unique<traffic::StreamWriter>(
        opts.out_path, traffic::StreamWriter::FaultPlan(), 512);
  }
  std::vector<std::unique_ptr<traffic::StreamWriter>> vhost_writers;
  if (!opts.out_multi_dir.empty()) {
    if (::mkdir(opts.out_multi_dir.c_str(), 0755) != 0 && errno != EEXIST) {
      std::fprintf(stderr, "simulate: cannot create %s\n",
                   opts.out_multi_dir.c_str());
      return 1;
    }
    for (std::size_t v = 0; v < engine.spec().vhosts.size(); ++v) {
      vhost_writers.push_back(std::make_unique<traffic::StreamWriter>(
          opts.out_multi_dir + "/v" + std::to_string(v) + "_" +
              engine.spec().vhosts[v].name + ".log",
          traffic::StreamWriter::FaultPlan(), 512));
    }
  }
  const bool stdout_log =
      opts.out_path.empty() && opts.out_multi_dir.empty() && !opts.detect;
  httplog::LogWriter stdout_writer(std::cout);

  std::vector<std::unique_ptr<detectors::Detector>> pool;
  std::unique_ptr<core::AlertJoiner> joiner;
  std::unique_ptr<pipeline::ShardedPipeline> sharded;
  if (opts.detect) {
    if (opts.shards > 1) {
      sharded = std::make_unique<pipeline::ShardedPipeline>(
          [&opts] { return pair_from(opts); }, opts.shards,
          /*batch_size=*/1024, /*max_backlog=*/16 * 1024, opts.dispatchers);
    } else {
      pool = pair_from(opts);
      joiner = std::make_unique<core::AlertJoiner>(pool);
    }
  }

  // A long generation run must be interruptible without shearing a log
  // mid-line: SIGINT requests a cooperative stop at the next record
  // boundary and every writer below gets its normal flush-and-close.
  std::signal(SIGINT, tail_sigint);
  const auto t0 = std::chrono::steady_clock::now();
  const auto write_record = [&](const httplog::LogRecord& record) {
    if (file_writer) file_writer->write(record);
    if (!vhost_writers.empty()) {
      const std::size_t v =
          record.vhost < vhost_writers.size() ? record.vhost : 0;
      vhost_writers[v]->write(record);
    }
    if (stdout_log) stdout_writer.write(record);
  };
  std::uint64_t records = 0;
  if (sharded) {
    // Batched handoff: whole merge windows travel as RecordBatches into
    // the pipeline's SPSC rings (same emission order as engine.run()).
    records = engine.run_batched(
        [&](pipeline::RecordBatch&& batch) {
          if (g_tail_interrupted) engine.request_stop();
          for (const auto& record : batch) write_record(record);
          sharded->process_batch(std::move(batch));
        },
        /*batch_records=*/1024, &sharded->batch_pool());
  } else {
    records = engine.run([&](httplog::LogRecord&& record) {
      if (g_tail_interrupted) engine.request_stop();
      write_record(record);
      if (joiner) (void)joiner->process(record);
    });
  }
  if (file_writer) file_writer->flush();
  for (auto& writer : vhost_writers) writer->flush();
  std::optional<core::JointResults> sharded_results;
  if (sharded) sharded_results = sharded->finish();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::fprintf(stderr,
               "simulated \"%s\" scale %.3g: %s records, %zu vhosts, %zu "
               "distinct UAs, %zu gen threads x %zu partitions, %.2fs "
               "(%s records/s)\n",
               engine.spec().name.c_str(), engine.spec().scale,
               core::with_thousands(records).c_str(),
               engine.spec().vhosts.size(), engine.distinct_user_agents(),
               engine.config().gen_threads, engine.config().partitions, wall,
               core::with_thousands(static_cast<std::uint64_t>(
                                        wall > 0.0 ? records / wall : 0))
                   .c_str());
  if (joiner) {
    print_detector_summary(joiner->results());
  } else if (sharded_results) {
    print_detector_summary(*sharded_results);
  }
  if (g_tail_interrupted) {
    std::fprintf(stderr,
                 "interrupted: stopped at a record boundary, all logs "
                 "flushed and closed\n");
    return 130;
  }
  return 0;
}

int cmd_analyze(const CliOptions& opts) {
  if (opts.input.empty()) {
    std::fprintf(stderr, "analyze: missing <log> path\n");
    return 2;
  }
  std::ifstream in(opts.input);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", opts.input.c_str());
    return 1;
  }
  const auto pool = pair_from(opts);
  core::AlertJoiner joiner(pool);

  std::ofstream alerts_file;
  std::unique_ptr<pipeline::AlertLogWriter> alerts;
  if (!opts.alerts_path.empty()) {
    alerts_file.open(opts.alerts_path);
    if (!alerts_file) {
      std::fprintf(stderr, "cannot open %s\n", opts.alerts_path.c_str());
      return 1;
    }
    alerts = std::make_unique<pipeline::AlertLogWriter>(alerts_file);
  }

  httplog::LogReader reader(in);
  httplog::LogRecord record;
  util::StringInterner ua_tokens;
  while (reader.next(record)) {
    // Stamp the interned UA token so the detectors skip per-record string
    // hashing (same as ReplayEngine and the traffic generator do).
    record.ua_token = ua_tokens.intern(record.user_agent);
    const auto verdicts = joiner.process(record);
    if (alerts) {
      for (std::size_t d = 0; d < pool.size(); ++d) {
        alerts->write(pool[d]->name(), record, verdicts[d]);
      }
    }
  }
  // A failed write (a full disk) only marks the stream bad, and the last
  // buffered lines reach the file at close: check after closing.
  if (alerts) {
    alerts_file.close();
    if (!alerts_file) {
      std::fprintf(stderr, "cannot write %s\n", opts.alerts_path.c_str());
      return 1;
    }
  }
  const auto& r = joiner.results();
  std::printf("parsed %s records (%s lines skipped)\n",
              core::with_thousands(r.total_requests()).c_str(),
              core::with_thousands(reader.lines_skipped()).c_str());
  for (std::size_t d = 0; d < r.detector_count(); ++d) {
    std::printf("  %-10s alerts %s\n", r.names()[d].c_str(),
                core::with_thousands(r.alerts(d)).c_str());
  }
  const auto& pair = r.pair(0, 1);
  std::printf(
      "  both %s | neither %s | sentinel-only %s | arcane-only %s\n",
      core::with_thousands(pair.both()).c_str(),
      core::with_thousands(pair.neither()).c_str(),
      core::with_thousands(pair.first_only()).c_str(),
      core::with_thousands(pair.second_only()).c_str());
  if (alerts) {
    std::printf("wrote %s alert events to %s\n",
                core::with_thousands(alerts->written()).c_str(),
                opts.alerts_path.c_str());
  }
  return 0;
}

/// Atomic results flush: SOC dashboards read the file while we rewrite it,
/// so the document replaces the previous one in a single rename.
bool flush_results(const core::JointResults& results,
                   const std::string& path) {
  return util::write_file_atomic(path, core::to_json(results) + "\n");
}

void print_detector_summary(const core::JointResults& r) {
  for (std::size_t d = 0; d < r.detector_count(); ++d) {
    std::printf("  %-10s alerts %s\n", r.names()[d].c_str(),
                core::with_thousands(r.alerts(d)).c_str());
  }
  if (r.detector_count() >= 2) {
    const auto& pair = r.pair(0, 1);
    std::printf(
        "  both %s | neither %s | sentinel-only %s | arcane-only %s\n",
        core::with_thousands(pair.both()).c_str(),
        core::with_thousands(pair.neither()).c_str(),
        core::with_thousands(pair.first_only()).c_str(),
        core::with_thousands(pair.second_only()).c_str());
  }
}

/// Tails one or more growing CLF logs through a pipeline::TailSession,
/// which owns the merge, the sequential or sharded consumer and the
/// checkpoint directory. This command owns the follow loop, --results and
/// what is printed.
int cmd_tail(const CliOptions& opts) {
  if (opts.inputs.empty()) {
    std::fprintf(stderr, "tail: missing <log> path\n");
    return 2;
  }
  pipeline::TailSession session(
      opts.inputs, [&opts] { return pair_from(opts); }, opts.shards,
      opts.dispatchers, static_cast<std::int64_t>(opts.reorder_ms) * 1000,
      opts.checkpoint_dir);
  const auto resumed = session.resume();
  if (resumed.dir_errno != 0) {
    std::fprintf(stderr, "tail: cannot create checkpoint dir %s: %s\n",
                 opts.checkpoint_dir.c_str(), std::strerror(resumed.dir_errno));
    return 1;
  }
  using SessionBlob = pipeline::TailSession::SessionBlob;
  if (resumed.session == SessionBlob::kOtherLogSet ||
      resumed.session == SessionBlob::kRejected) {
    std::fprintf(stderr,
                 "warning: cannot restore detector state from %s (%s); "
                 "detection restarts cold\n",
                 session.session_path().c_str(),
                 resumed.session == SessionBlob::kOtherLogSet
                     ? "it describes a different log set"
                     : "replaced log, mode change, or stale blob");
  }
  for (const auto& log : resumed.logs) {
    std::fprintf(stderr,
                 "resumed %s from %s: offset %llu %s (%llu records already "
                 "ingested; detector state %s)\n",
                 opts.inputs[log.file].c_str(), log.from.c_str(),
                 static_cast<unsigned long long>(log.offset),
                 log.honored ? "honored" : "discarded (file replaced)",
                 static_cast<unsigned long long>(log.parsed),
                 resumed.warm() ? "restored warm" : "restarts cold");
  }
  if (opts.follow) std::signal(SIGINT, tail_sigint);
  if (!opts.results_path.empty() && opts.shards > 1) {
    std::fprintf(stderr,
                 "note: sharded tail writes --results once at exit "
                 "(per-shard results merge only on finish)\n");
  }

  const auto persist = [&]() {
    for (const auto& path : session.persist()) {
      std::fprintf(stderr, "cannot save checkpoint %s\n", path.c_str());
    }
    const core::JointResults* results = session.live_results();
    if (results && !opts.results_path.empty() &&
        !flush_results(*results, opts.results_path)) {
      std::fprintf(stderr, "cannot write results %s\n",
                   opts.results_path.c_str());
    }
  };

  // Nothing to write => no periodic persist: the flush would force
  // heap-buffered records past the watermark and the sharded drain would
  // stall the dispatcher, all for no durable artifact.
  const bool persist_output =
      !opts.checkpoint_dir.empty() || !opts.results_path.empty();
  pipeline::MultiTailer& tailer = session.tailer();
  std::uint64_t last_flush_parsed = 0;
  int idle_polls = 0;
  for (;;) {
    const std::size_t consumed = tailer.poll();
    if (persist_output &&
        tailer.stats().parsed - last_flush_parsed >= opts.flush_every) {
      last_flush_parsed = tailer.stats().parsed;
      persist();
    }
    if (!opts.follow) break;  // one drain: batch-catch-up semantics
    if (g_tail_interrupted) break;
    if (consumed == 0) {
      // Every log has gone quiet: the watermark and the reorder window
      // are both keyed to *new* records' simulated time, so without this
      // wall-clock escape a final burst would sit in the reorder heap
      // until SIGINT. A laggard waking up afterwards emits late (counted)
      // rather than being dropped.
      if (++idle_polls >= 2 && tailer.buffered_records() > 0) {
        (void)tailer.flush();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(opts.poll_ms));
    } else {
      idle_polls = 0;
    }
  }
  persist();

  const auto stats = tailer.stats();
  std::printf(
      "tailed %zu logs (%zu shards, %zu dispatchers): %s records parsed, "
      "%s lines skipped, %llu rotations, %llu truncations, %llu lost "
      "incarnations, %llu read errors, %llu late, %llu forced\n",
      tailer.files(), opts.shards, opts.shards > 1 ? opts.dispatchers : 0,
      core::with_thousands(stats.parsed).c_str(),
      core::with_thousands(stats.skipped).c_str(),
      static_cast<unsigned long long>(tailer.rotations()),
      static_cast<unsigned long long>(tailer.truncations()),
      static_cast<unsigned long long>(tailer.lost_incarnations()),
      static_cast<unsigned long long>(tailer.read_errors()),
      static_cast<unsigned long long>(tailer.late_records()),
      static_cast<unsigned long long>(tailer.forced_emits()));
  const auto results = session.finish();
  if (opts.shards > 1 && !opts.results_path.empty() &&
      !flush_results(results, opts.results_path)) {
    std::fprintf(stderr, "cannot write results %s\n",
                 opts.results_path.c_str());
  }
  print_detector_summary(results);
  return 0;
}

/// Chaos soak: the closed generate->tail loop under scripted faults (see
/// pipeline/chaos.hpp). Exit status is the verdict — nonzero unless every
/// record was ingested exactly once, results matched the batch-replay
/// reference byte for byte, every kill resumed warm and RSS stayed bounded.
int cmd_soak(CliOptions opts) {
  if (opts.input.empty()) opts.input = "megasite";
  if (opts.smoke && !opts.scale) opts.scale = 0.01;
  auto spec = resolve_spec(opts);
  if (!spec) return 1;

  pipeline::ChaosConfig config;
  config.spec = std::move(*spec);
  config.work_dir = opts.out_path.empty() ? "soak_run" : opts.out_path;
  config.chaos_seed = opts.chaos_seed;
  config.gen_threads = opts.gen_threads > 1 ? opts.gen_threads : 4;
  if (opts.partitions != 0) config.partitions = opts.partitions;
  config.rss_limit_mb = opts.rss_limit_mb;
  config.verbose = true;
  // Smoke runs are ~1% of the records, so the persist cadence tightens in
  // step: several warm cuts must still land between any two fault epochs.
  if (opts.smoke) config.persist_every_records = 5'000;

  std::fprintf(stderr,
               "soak: \"%s\" scale %.3g, %zu vhosts, %d fault epochs, "
               "chaos seed %llu, work dir %s\n",
               config.spec.name.c_str(), config.spec.scale,
               config.spec.vhosts.size(), config.fault_epochs,
               static_cast<unsigned long long>(config.chaos_seed),
               config.work_dir.c_str());
  const auto report = pipeline::run_chaos_soak(config);

  const std::string bench_path =
      opts.bench_path.empty() ? "BENCH_soak.json" : opts.bench_path;
  if (!pipeline::write_chaos_bench(config, report, bench_path)) {
    std::fprintf(stderr, "soak: cannot write %s\n", bench_path.c_str());
  }

  std::printf(
      "soak %s: %s records (%llu scripted drops), %llu faults "
      "(%llu rotations, %llu truncations, %llu torn, %llu enospc, %llu "
      "short-write bursts, %llu kills), %llu warm / %llu cold resumes, "
      "%llu checkpoints\n",
      report.passed ? "PASSED" : "FAILED",
      core::with_thousands(report.records_generated).c_str(),
      static_cast<unsigned long long>(report.records_dropped),
      static_cast<unsigned long long>(report.faults),
      static_cast<unsigned long long>(report.rotations),
      static_cast<unsigned long long>(report.truncations),
      static_cast<unsigned long long>(report.torn_writes),
      static_cast<unsigned long long>(report.enospc_faults),
      static_cast<unsigned long long>(report.short_write_bursts),
      static_cast<unsigned long long>(report.kills),
      static_cast<unsigned long long>(report.warm_resumes),
      static_cast<unsigned long long>(report.cold_resumes),
      static_cast<unsigned long long>(report.checkpoints_persisted));
  std::printf(
      "  exactly-once: %llu lost, %llu duplicated; results %s reference; "
      "peak RSS %.1f MiB (%s %.0f MiB limit); %.1fs wall "
      "(%s records/s); report: %s\n",
      static_cast<unsigned long long>(report.lost_records),
      static_cast<unsigned long long>(report.duplicate_records),
      report.results_identical ? "byte-identical to" : "DIVERGED from",
      static_cast<double>(report.rss_peak_kb) / 1024.0,
      report.rss_within_limit ? "within" : "OVER",
      config.rss_limit_mb,
      report.wall_seconds,
      core::with_thousands(
          static_cast<std::uint64_t>(report.records_per_s))
          .c_str(),
      bench_path.c_str());
  return report.passed ? 0 : 1;
}

/// Detection-quality scoring: the bench_detection engine behind a CLI seam,
/// for scoring one scenario (catalog entry or spec file) interactively —
/// e.g. a freshly authored evasion spec, before promoting it to the
/// catalog. Same scorer, same document schema, same determinism contract.
int cmd_score(const CliOptions& opts) {
  if (opts.input.empty()) {
    std::fprintf(stderr,
                 "score: missing <scenario|spec.json> "
                 "(try: simulate --list)\n");
    return 2;
  }
  auto spec = resolve_spec(opts);
  if (!spec) return 1;

  eval::RunOptions run_options;
  run_options.gen_threads = opts.gen_threads;
  const auto t0 = std::chrono::steady_clock::now();
  const auto score = eval::score_scenario(*spec, run_options);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::printf("%s (scale %.3f): %s records scored (%s benign, %s "
              "malicious), %llu attacking actors, %.2fs\n",
              score.scenario.c_str(), score.scale,
              core::with_thousands(score.records).c_str(),
              core::with_thousands(score.truth_benign).c_str(),
              core::with_thousands(score.truth_malicious).c_str(),
              static_cast<unsigned long long>(score.actors_attacking), wall);
  std::printf("  %-14s %9s %9s %9s %9s %12s %10s\n", "column", "prec",
              "recall", "f1", "auc", "actors", "ttd_p50");
  for (const auto& column : score.columns) {
    std::printf(
        "  %-14s %8.1f%% %8.1f%% %8.1f%% %9.4f %6llu/%-5llu %9.0fs\n",
        column.name.c_str(), 100.0 * column.precision(),
        100.0 * column.recall(), 100.0 * column.f1(), column.auc,
        static_cast<unsigned long long>(column.actors_detected),
        static_cast<unsigned long long>(score.actors_attacking),
        column.ttd_p50_s);
  }

  if (!opts.json_path.empty()) {
    eval::DetectionDocument document;
    document.scenarios.push_back(score);
    if (!document.save(opts.json_path)) {
      std::fprintf(stderr, "score: cannot write %s\n",
                   opts.json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", opts.json_path.c_str());
  }
  return 0;
}

/// tables/export: the configured detector pair over the positional scenario
/// (default amadeus_like, the paper reproduction).
std::optional<workload::ExperimentOutput> run_pair_experiment(
    CliOptions opts) {
  if (opts.input.empty()) opts.input = "amadeus_like";
  const auto spec = resolve_spec(opts);
  if (!spec) return std::nullopt;
  return workload::run_experiment(*spec, pair_from(opts));
}

int cmd_tables(const CliOptions& opts) {
  const auto out = run_pair_experiment(opts);
  if (!out) return 1;
  const auto& r = out->results;
  const auto& pair = r.pair(0, 1);

  std::printf("Table 1\n");
  std::printf("  total    %12s (paper %s)\n",
              core::with_thousands(r.total_requests()).c_str(),
              core::with_thousands(core::paper::kTotalRequests).c_str());
  std::printf("  sentinel %12s (paper %s)\n",
              core::with_thousands(r.alerts(0)).c_str(),
              core::with_thousands(core::paper::kDistilAlerts).c_str());
  std::printf("  arcane   %12s (paper %s)\n",
              core::with_thousands(r.alerts(1)).c_str(),
              core::with_thousands(core::paper::kArcaneAlerts).c_str());
  std::printf("Table 2\n");
  std::printf("  both %s | neither %s | arcane-only %s | sentinel-only %s\n",
              core::with_thousands(pair.both()).c_str(),
              core::with_thousands(pair.neither()).c_str(),
              core::with_thousands(pair.second_only()).c_str(),
              core::with_thousands(pair.first_only()).c_str());
  std::printf("Tables 3/4 (status: alerted / unique)\n");
  for (std::size_t d = 0; d < 2; ++d) {
    std::printf("  %s:\n", r.names()[d].c_str());
    for (const auto& [status, count] : r.alerted_status(d).by_count()) {
      std::printf("    %-28s %10s %10s\n",
                  httplog::status_label(status).c_str(),
                  core::with_thousands(count).c_str(),
                  core::with_thousands(
                      r.unique_alert_status(d).count(status))
                      .c_str());
    }
  }
  return 0;
}

int cmd_export(const CliOptions& opts) {
  const auto out = run_pair_experiment(opts);
  if (!out) return 1;
  core::export_json(out->results, std::cout);
  std::cout << '\n';
  if (!opts.csv_prefix.empty()) {
    {
      std::ofstream f(opts.csv_prefix + "_totals.csv");
      core::export_totals_csv(out->results, f);
    }
    {
      std::ofstream f(opts.csv_prefix + "_pairs.csv");
      core::export_pairs_csv(out->results, f);
    }
    {
      std::ofstream f(opts.csv_prefix + "_status.csv");
      core::export_status_csv(out->results, f);
    }
    std::fprintf(stderr, "wrote %s_{totals,pairs,status}.csv\n",
                 opts.csv_prefix.c_str());
  }
  return 0;
}

int cmd_label(const CliOptions& opts) {
  if (opts.input.empty()) {
    std::fprintf(stderr, "label: missing <log> path\n");
    return 2;
  }
  std::ifstream in(opts.input);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", opts.input.c_str());
    return 1;
  }
  auto records = httplog::read_all(in);
  core::HeuristicLabeler labeler;
  const auto result = labeler.label(records);
  std::fprintf(stderr,
               "labelled %llu records: %llu malicious, %llu benign, %llu "
               "unknown (coverage %.1f%%)\n",
               static_cast<unsigned long long>(result.records),
               static_cast<unsigned long long>(result.labeled_malicious),
               static_cast<unsigned long long>(result.labeled_benign),
               static_cast<unsigned long long>(result.left_unknown),
               result.coverage() * 100.0);
  // Emit "<truth>\t<clf line>" so downstream tooling can join.
  for (const auto& record : records) {
    std::cout << to_string(record.truth) << '\t'
              << httplog::format_clf(record) << '\n';
  }
  return 0;
}

/// The one place the CLI reads its --config/--set store: fills the typed
/// fields `opts.command` uses and returns the keys none of its appliers
/// read, so a mistyped or retired key is named up front instead of being
/// silently ignored.
std::vector<std::string> read_config(CliOptions& opts) {
  const std::string& c = opts.command;
  if ((c == "simulate" || c == "tables" || c == "export" || c == "soak" ||
       c == "score") &&
      opts.config.get("scenario.scale")) {
    opts.scale = opts.config.get_double("scenario.scale", 1.0);
  }
  if (c == "analyze" || c == "tail" || c == "tables" || c == "export" ||
      (c == "simulate" && opts.detect)) {
    core::apply_sentinel_config(opts.config, opts.sentinel);
    core::apply_arcane_config(opts.config, opts.arcane);
  }
  return opts.config.unconsumed();
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  if (!parse_args(argc, argv, opts)) return usage();
  if (opts.command != "tail" && opts.inputs.size() > 1) {
    // Only tail fans out over many logs; a stray extra positional on the
    // single-input commands is almost certainly a mistyped flag.
    std::fprintf(stderr, "%s: takes at most one positional argument\n",
                 opts.command.c_str());
    return usage();
  }
  if (const auto unread = read_config(opts); !unread.empty()) {
    for (const auto& key : unread) {
      std::fprintf(stderr, "%s: config key \"%s\" is not read by this "
                   "command\n", opts.command.c_str(), key.c_str());
    }
    return 2;
  }
  if (opts.command == "simulate") return cmd_simulate(opts);
  if (opts.command == "analyze") return cmd_analyze(opts);
  if (opts.command == "tail") return cmd_tail(opts);
  if (opts.command == "tables") return cmd_tables(opts);
  if (opts.command == "export") return cmd_export(opts);
  if (opts.command == "label") return cmd_label(opts);
  if (opts.command == "soak") return cmd_soak(opts);
  if (opts.command == "score") return cmd_score(opts);
  return usage();
}
