#include "wl_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string_view>

#include "core/joiner.hpp"
#include "corpus.hpp"
#include "detectors/arcane.hpp"
#include "detectors/sentinel.hpp"
#include "httplog/clf.hpp"
#include "httplog/framing.hpp"
#include "pipeline/decoder.hpp"
#include "pipeline/record_batch.hpp"
#include "probes.hpp"
#include "pipeline/checkpoint.hpp"
#include "util/interner.hpp"
#include "util/state.hpp"

namespace perfbench {

using divscrape::httplog::LogRecord;

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> m = {
      {"records_per_s", "1/s"},      {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},      {"setup_s", "s"},
      {"cpu_us_per_record", "us"},   {"mem_peak_mb", "MB"},
      {"ok_share", "share"},
  };
  return m;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> m = {
      {"httplog.frame_ns_per_record", "ns"},
      {"httplog.parse_ns_per_record", "ns"},
      {"util.intern_ns_per_record", "ns"},
      {"detectors.sentinel_ns_per_record", "ns"},
      {"detectors.arcane_ns_per_record", "ns"},
      {"detectors.sentinel_alone_ns_per_record", "ns"},
      {"detectors.arcane_alone_ns_per_record", "ns"},
      {"detectors.sentinel_state_mb", "MB"},
      {"detectors.arcane_state_mb", "MB"},
      {"core.join_self_ns_per_record", "ns"},
      {"core.finish_ms", "ms"},
      {"pipeline.alert_log_ns_per_alert", "ns"},
      {"pipeline.alert_log_bytes_per_alert", "B"},
      {"pipeline.alerts_per_record", "count"},
      {"pipeline.reader_ns_per_record", "ns"},
      {"pipeline.multi_tailer.poll_self_ns_per_record", "ns"},
      {"pipeline.multi_tailer.decode_alone_ns_per_record", "ns"},
      {"pipeline.multi_tailer.late_records", "count"},
      {"pipeline.multi_tailer.forced_emits", "count"},
      {"pipeline.multi_tailer.peak_buffered_records", "count"},
      {"pipeline.tailer.empty_poll_ratio", "share"},
      {"pipeline.tailer.bytes_behind_eof_p99", "B"},
      {"pipeline.batch_fill_ratio", "share"},
      {"pipeline.sharded.caller_blocked_ms", "ms"},
      {"pipeline.sharded.peak_shard_backlog", "count"},
      {"pipeline.sharded.shard_busy_share", "share"},
      {"pipeline.sharded.shard_skew", "ratio"},
      {"pipeline.sharded.speedup_vs_unsharded", "ratio"},
      {"pipeline.sharded.sharded_wall_s", "s"},
      {"pipeline.sharded.unsharded_wall_s", "s"},
      {"pipeline.checkpoint.restore_ms", "ms"},
      {"pipeline.checkpoint.save_ms", "ms"},
      {"pipeline.checkpoint.blob_mb", "MB"},
      {"harness.writer_late_p99_ms", "ms"},
      {"harness.gen_s", "s"},
      {"harness.trace_overhead_share", "share"},
      {"harness.span_closure_error", "share"},
      {"harness.latency_samples", "count"},
      {"harness.time_ordered_match", "bool"},
  };
  return m;
}

void select_metrics(Report& report, const std::vector<MetricSpec>& wanted) {
  std::vector<Metric> selected;
  for (const auto& spec : wanted) {
    const auto& have = report.metrics();
    const auto it = std::find_if(have.begin(), have.end(), [&](const Metric& m) {
      return m.name == spec.name;
    });
    selected.push_back(it != have.end()
                           ? *it
                           : Metric{spec.name, 0.0, spec.unit, 0,
                                    "not measured on this workload"});
  }
  report.replace_metrics(std::move(selected));
}

std::string results_blob(const divscrape::core::JointResults& r) {
  divscrape::util::StateWriter w;
  r.save_state(w);
  return w.take();
}

void report_latency(Report& report, const std::vector<std::vector<double>>& reps_ms) {
  std::vector<double> p50, p99;
  std::size_t samples = 0;
  for (const auto& rep : reps_ms) {
    const auto a = percentile(rep, 50.0);
    const auto b = percentile(rep, 99.0);
    if (a && b) {
      p50.push_back(*a);
      p99.push_back(*b);
    }
    samples += rep.size();
  }
  report.check("latency p50 and p99 of every repetition have >= 10 samples beyond "
               "them (" + std::to_string(samples) + " samples)",
               !reps_ms.empty() && p99.size() == reps_ms.size());
  const std::string note = reps_ms.size() > 1 ? "median over repetitions" : "";
  report.metric("latency_p50_ms", median(p50), "ms", samples, note);
  report.metric("latency_p99_ms", median(p99), "ms", samples, note);
  report.metric("harness.latency_samples", static_cast<double>(samples), "count",
                reps_ms.size());
}

void report_closed_loop(Report& report, const std::vector<RepTimeline>& reps,
                        std::uint64_t records, const std::string& rate_note) {
  const auto n = static_cast<double>(records);
  const Composed c = fastest_segments(reps, kMarkEvery);
  std::size_t samples = 0;
  std::vector<double> rate, cpu, p50, p99;
  bool every_rep = !reps.empty();
  for (const auto& rep : reps) {
    samples += rep.samples;
    rate.push_back(n / rep.wall_ms * 1e3);
    cpu.push_back(rep.cpu_ms / n * 1e3);
    // A closed repetition's marks are its sampled verdicts' latencies too,
    // so its own percentiles are read off its timeline alone.
    const Composed own = fastest_segments({rep}, kMarkEvery);
    every_rep = every_rep && own.p50_ms && own.p99_ms;
    if (own.p50_ms && own.p99_ms) {
      p50.push_back(*own.p50_ms);
      p99.push_back(*own.p99_ms);
    }
  }
  report.check("latency p50 and p99 of every repetition have >= 10 samples beyond "
               "them (" + std::to_string(samples) + " samples)",
               every_rep && c.p50_ms && c.p99_ms);
  const std::string how =
      "fastest-segment composition of " + std::to_string(reps.size()) + " repetitions";
  report.metric("records_per_s", n / c.wall_ms * 1e3, "1/s", reps.size(),
                rate_note + ", " + how);
  report.metric("latency_p50_ms", c.p50_ms.value_or(0.0), "ms", samples, how);
  report.metric("latency_p99_ms", c.p99_ms.value_or(0.0), "ms", samples, how);
  report.metric("harness.latency_samples", static_cast<double>(samples), "count",
                reps.size());
  report.metric("cpu_us_per_record", c.cpu_ms / n * 1e3, "us", reps.size(), how);
  char line[240];
  std::snprintf(line, sizeof line,
                "median over repetitions: %.0f records/s, latency p50 %.1f ms, p99 "
                "%.1f ms, %.3f CPU us/record",
                median(rate), median(p50), median(p99), median(cpu));
  report.info(line);
}

ShardedTail::ShardedTail(const std::vector<std::string>& paths, ProbedPools& pools,
                         const divscrape::pipeline::MultiTailConfig& config,
                         Trace& trace)
    : trace_(&trace),
      sharded_(std::make_unique<divscrape::pipeline::ShardedPipeline>(
          pools.factory(), kShards, kBatchRecords, kMaxBacklog, /*dispatchers=*/1)),
      tailer_(std::make_unique<divscrape::pipeline::MultiTailer>(
          paths,
          divscrape::pipeline::MultiTailer::BatchSink(
              [this](divscrape::pipeline::RecordBatch&& b) { sink(std::move(b)); }),
          kBatchRecords, config, &sharded_->batch_pool())) {}

void ShardedTail::sink(divscrape::pipeline::RecordBatch&& batch) {
  const int span = trace_->open("sink.batch", parent_);
  ++counters_.batches;
  counters_.batch_records += batch.size();
  counters_.peak_buffered = std::max<std::uint64_t>(counters_.peak_buffered,
                                                    tailer_->buffered_records());
  for (auto& record : batch) {
    record.ua_token = ua_tokens_.intern(record.user_agent);
    const std::uint64_t i = next_index_++;
    if (i % kSampleStride != 0) {
      record.actor_id = 0;
      continue;
    }
    const std::uint64_t k = i / kSampleStride;
    record.actor_id = static_cast<std::uint32_t>(k + 1);
    if (expected_ != nullptr &&
        (k >= expected_->size() ||
         record.time.micros() != (*expected_)[static_cast<std::size_t>(k)])) {
      ++mismatches_;
    }
  }
  const int push = trace_->open("sharded.process_batch", span);
  sharded_->process_batch(std::move(batch));
  trace_->close(push);
  trace_->close(span);
}

bool ShardedTail::restore(const std::string& session_path) {
  const auto session = divscrape::pipeline::TailSessionState::load(session_path);
  if (!session || session->logs.size() != tailer_->files()) return false;
  for (std::size_t i = 0; i < tailer_->files(); ++i) {
    if (session->logs[i].first != tailer_->path(i) ||
        !tailer_->resume(i, session->logs[i].second)) {
      return false;
    }
  }
  divscrape::util::StateReader r(session->state);
  return r.u8() == 1 && r.ok() && ua_tokens_.load_state(r) && sharded_->load_state(r) &&
         r.at_end();
}

std::size_t ShardedTail::poll(int parent) {
  if (!trace_->enabled()) {
    ++counters_.polls;
    const std::size_t consumed = tailer_->poll();
    counters_.empty_polls += consumed == 0;
    return consumed;
  }
  const std::size_t spans_before = trace_->spans().size();
  parent_ = trace_->open("multi_tailer.poll", parent);
  const std::size_t consumed = tailer_->poll();
  trace_->close(parent_);
  ++counters_.polls;
  if (consumed == 0 && trace_->spans().size() == spans_before + 1) {
    ++counters_.empty_polls;
    trace_->fold_last_span("multi_tailer.poll_empty");
  }
  if (written_) {
    std::uint64_t behind = 0;
    for (std::size_t i = 0; i < tailer_->files(); ++i) {
      const std::uint64_t offset = tailer_->checkpoint(i).offset;
      const std::uint64_t written = written_(i);
      behind += written > offset ? written - offset : 0;
    }
    counters_.bytes_behind.push_back(static_cast<double>(behind));
  }
  parent_ = parent;
  return consumed;
}

void ShardedTail::flush(int parent) {
  parent_ = trace_->open("multi_tailer.flush", parent);
  (void)tailer_->flush();
  trace_->close(parent_);
  parent_ = parent;
}

divscrape::core::JointResults ShardedTail::finish(int parent) {
  const int span = trace_->open("sharded.finish", parent);
  auto results = sharded_->finish();
  trace_->close(span);
  return results;
}

void report_tail_layers(Report& report, const Trace& trace,
                        const TailCounters& counters,
                        const divscrape::pipeline::MultiTailer& tailer,
                        std::uint64_t records, std::uint64_t peak_shard_backlog) {
  const double n = static_cast<double>(std::max<std::uint64_t>(records, 1));
  const double poll_self = static_cast<double>(
      trace.total_self_ns("multi_tailer.poll") +
      trace.total_ns("multi_tailer.poll_empty"));
  report.metric("pipeline.multi_tailer.poll_self_ns_per_record", poll_self / n,
                "ns", records, "poll spans minus their sink child spans");
  report.metric("pipeline.sharded.caller_blocked_ms",
                static_cast<double>(trace.total_ns("sharded.process_batch")) / 1e6,
                "ms", trace.count("sharded.process_batch"),
                "time inside process_batch (ring push)");
  report.metric("core.finish_ms",
                static_cast<double>(trace.total_ns("sharded.finish")) / 1e6, "ms",
                trace.count("sharded.finish"));
  report.metric("pipeline.batch_fill_ratio",
                counters.batches == 0
                    ? 0.0
                    : static_cast<double>(counters.batch_records) /
                          static_cast<double>(counters.batches * kBatchRecords),
                "share", counters.batches);
  report.metric("pipeline.tailer.empty_poll_ratio",
                counters.polls == 0 ? 0.0
                                    : static_cast<double>(counters.empty_polls) /
                                          static_cast<double>(counters.polls),
                "share", counters.polls);
  const auto behind = percentile(counters.bytes_behind, 99.0);
  report.metric("pipeline.tailer.bytes_behind_eof_p99", behind.value_or(0.0), "B",
                counters.bytes_behind.size(),
                behind ? "" : "too few polls for a p99; reported as 0");
  report.metric("pipeline.multi_tailer.late_records",
                static_cast<double>(tailer.late_records()), "count", 1);
  report.metric("pipeline.multi_tailer.forced_emits",
                static_cast<double>(tailer.forced_emits()), "count", 1);
  report.metric("pipeline.multi_tailer.peak_buffered_records",
                static_cast<double>(counters.peak_buffered), "count",
                counters.batches, "sampled at every handed batch");
  report.metric("pipeline.sharded.peak_shard_backlog",
                static_cast<double>(peak_shard_backlog), "count", 1);
}

void report_pool_layers(Report& report, const ProbedPools& pools, double wall_s,
                        bool sharded) {
  CallStats sentinel, arcane;
  std::uint64_t max_calls = 0;
  double busy = 0.0;
  for (const auto& p : pools.probes()) {
    sentinel.calls += p.sentinel.calls;
    sentinel.ns += p.sentinel.ns;
    arcane.calls += p.arcane.calls;
    arcane.ns += p.arcane.ns;
    max_calls = std::max(max_calls, p.sentinel.calls);
    busy += static_cast<double>(p.sentinel.ns + p.arcane.ns) / 1e9;
  }
  const std::size_t pools_n = std::max<std::size_t>(pools.probes().size(), 1);
  report.metric("detectors.sentinel_ns_per_record", sentinel.ns_per_call(), "ns",
                sentinel.calls, "in place, timed by the pool decorator");
  report.metric("detectors.arcane_ns_per_record", arcane.ns_per_call(), "ns",
                arcane.calls, "in place, timed by the pool decorator");
  if (sharded) {
  report.metric("pipeline.sharded.shard_busy_share",
                wall_s <= 0.0 ? 0.0 : busy / static_cast<double>(pools_n) / wall_s,
                "share", pools_n, "detector time per pool over timed wall, mean");
  const double mean_calls =
      static_cast<double>(sentinel.calls) / static_cast<double>(pools_n);
  report.metric("pipeline.sharded.shard_skew",
                mean_calls <= 0.0 ? 0.0 : static_cast<double>(max_calls) / mean_calls,
                "ratio", pools_n, "max / mean records per shard");
  }
  report.metric("detectors.sentinel_state_mb",
                static_cast<double>(pools.sentinel_state_bytes()) / 1048576.0, "MB",
                pools_n, "save_state bytes, all pools");
  report.metric("detectors.arcane_state_mb",
                static_cast<double>(pools.arcane_state_bytes()) / 1048576.0, "MB",
                pools_n, "save_state bytes, all pools");
}

namespace {

/// The first `max_bytes` of `path`, cut after its last complete line.
std::string load_prefix(const std::string& path, std::size_t max_bytes) {
  std::ifstream in(path, std::ios::binary);
  std::string data(max_bytes, '\0');
  in.read(data.data(), static_cast<std::streamsize>(max_bytes));
  data.resize(static_cast<std::size_t>(in.gcount()));
  const auto last = data.rfind('\n');
  data.resize(last == std::string::npos ? 0 : last + 1);
  return data;
}

double per(std::int64_t ns, std::uint64_t n) {
  return n == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(n);
}

}  // namespace

void report_layers_alone(Report& report, const std::vector<std::string>& paths,
                         bool in_place_join) {
  constexpr std::size_t kPrefixBytes = 24u << 20;
  constexpr std::size_t kChunk = 64 * 1024;
  constexpr std::size_t kDetectorRecords = 200'000;

  std::vector<std::string> data;
  for (const auto& p : paths) data.push_back(load_prefix(p, kPrefixBytes));

  // Framing alone: 64 KiB chunks through LineFramer.
  std::uint64_t lines = 0;
  std::int64_t t0 = now_ns();
  for (const auto& d : data) {
    divscrape::httplog::LineFramer framer;
    std::string_view line;
    for (std::size_t off = 0; off < d.size(); off += kChunk) {
      framer.feed(std::string_view(d).substr(off, kChunk));
      while (framer.next(line)) ++lines;
    }
  }
  report.metric("httplog.frame_ns_per_record", per(now_ns() - t0, lines), "ns",
                lines, "LineFramer alone, 64 KiB chunks");

  // Parsing alone over the framed lines.
  std::vector<std::string_view> views;
  views.reserve(lines);
  for (const auto& d : data) {
    std::size_t start = 0;
    for (std::size_t i = 0; i < d.size(); ++i) {
      if (d[i] == '\n') {
        views.push_back(std::string_view(d).substr(start, i - start));
        start = i + 1;
      }
    }
  }
  divscrape::httplog::ClfParser parser;
  LogRecord scratch;
  std::uint64_t parsed = 0;
  t0 = now_ns();
  for (const auto v : views) {
    parsed += parser.parse(v, scratch) == divscrape::httplog::ClfError::kNone;
  }
  report.metric("httplog.parse_ns_per_record", per(now_ns() - t0, parsed), "ns",
                parsed, "ClfParser::parse alone");

  // LineDecoder::feed per file (frame + parse into batches), alone.
  divscrape::pipeline::BatchPool pool;
  std::uint64_t decoded = 0;
  t0 = now_ns();
  for (const auto& d : data) {
    divscrape::pipeline::LineDecoder decoder(
        [&](divscrape::pipeline::RecordBatch&& b) { pool.recycle(std::move(b)); },
        kBatchRecords, &pool);
    for (std::size_t off = 0; off < d.size(); off += kChunk) {
      decoded += decoder.feed(std::string_view(d).substr(off, kChunk));
    }
  }
  report.metric("pipeline.multi_tailer.decode_alone_ns_per_record",
                per(now_ns() - t0, decoded), "ns", decoded,
                "LineDecoder::feed alone, 64 KiB chunks per file");
  views.clear();
  views.shrink_to_fit();
  data.clear();
  data.shrink_to_fit();

  // The detectors' inputs: the first records of the time-ordered stream.
  std::vector<LogRecord> records;
  records.reserve(kDetectorRecords);
  merge_files(
      paths,
      [&](LogRecord& r) {
        records.push_back(r);
        return records.size() < kDetectorRecords;
      });
  const std::uint64_t n = records.size();

  divscrape::util::StringInterner interner;
  t0 = now_ns();
  for (auto& r : records) r.ua_token = interner.intern(r.user_agent);
  report.metric("util.intern_ns_per_record", per(now_ns() - t0, n), "ns", n,
                "StringInterner::intern alone");

  const auto alone = [&](divscrape::detectors::Detector& d) {
    std::uint64_t alerts = 0;
    const std::int64_t start = now_ns();
    for (const auto& r : records) alerts += d.evaluate(r).alert;
    const std::int64_t ns = now_ns() - start;
    return alerts > n ? 0 : ns;  // keeps the verdicts observable
  };
  divscrape::detectors::SentinelDetector sentinel{divscrape::detectors::SentinelConfig{}};
  divscrape::detectors::ArcaneDetector arcane{divscrape::detectors::ArcaneConfig{}};
  const std::int64_t sentinel_ns = alone(sentinel);
  const std::int64_t arcane_ns = alone(arcane);
  report.metric("detectors.sentinel_alone_ns_per_record", per(sentinel_ns, n), "ns", n);
  report.metric("detectors.arcane_alone_ns_per_record", per(arcane_ns, n), "ns", n);

  if (!in_place_join) {
    auto pool_pair = plain_pool();
    divscrape::core::AlertJoiner joiner(pool_pair);
    t0 = now_ns();
    for (const auto& r : records) (void)joiner.process(r);
    const std::int64_t join_ns = now_ns() - t0;
    report.metric("core.join_self_ns_per_record",
                  std::max(0.0, per(join_ns - sentinel_ns - arcane_ns, n)), "ns", n,
                  "alone: AlertJoiner::process minus both detectors alone");
  }
}

void report_span_closure(Report& report, const Trace& trace,
                         const std::vector<int>& roots, double wall_s) {
  std::int64_t sum = 0;
  for (const int root : roots) sum += trace.subtree_self_sum_ns(root);
  const double err =
      wall_s <= 0.0 ? 1.0 : std::abs(static_cast<double>(sum) / 1e9 - wall_s) / wall_s;
  constexpr double kTolerance = 0.02;
  char what[160];
  std::snprintf(what, sizeof what,
                "caller-thread span self times sum to the timed wall time "
                "within %.0f%% (%.4f s vs %.4f s)",
                kTolerance * 100, static_cast<double>(sum) / 1e9, wall_s);
  report.check(what, err <= kTolerance);
  report.metric("harness.span_closure_error", err, "share", roots.size());
}

void save_trace(Report& report, const Trace& trace, const Options& options) {
  const std::string path = options.outdir + "/trace_" + options.workload + "_seed" +
                           std::to_string(options.seed) + ".csv";
  if (trace.write_csv(path)) {
    report.info("spans and aggregates written to " + path);
  } else {
    report.info("could not write " + path);
  }
}

}  // namespace perfbench
