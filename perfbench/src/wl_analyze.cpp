// analyze_alerts: the `divscrape analyze --alerts` job on one pre-written
// amadeus_like log — LogReader -> UA intern -> AlertJoiner (Sentinel +
// Arcane) -> AlertLogWriter to a file, on one thread, repeated closed-loop
// for the run's seconds. No merge, ring or checkpoint code runs.
#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <memory>

#include "core/joiner.hpp"
#include "corpus.hpp"
#include "httplog/io.hpp"
#include "pipeline/alert_log.hpp"
#include "pipeline/replay.hpp"
#include "probes.hpp"
#include "util/interner.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using divscrape::httplog::LogRecord;

/// The system under test, built as cmd_analyze builds it.
struct AnalyzeJob {
  AnalyzeJob(const std::string& log, const std::string& alerts_path,
             ProbedPools& pools)
      : pool(pools.make()),
        joiner(pool),
        in(log, std::ios::binary),
        out(alerts_path, std::ios::binary | std::ios::trunc),
        writer(out),
        reader(in) {}

  std::vector<std::unique_ptr<divscrape::detectors::Detector>> pool;
  divscrape::core::AlertJoiner joiner;
  std::ifstream in;
  std::ofstream out;
  divscrape::pipeline::AlertLogWriter writer;
  divscrape::httplog::LogReader reader;
  divscrape::util::StringInterner interner;
};

struct Rep {
  double wall_s = 0.0;
  double mem_mb = 0.0;
  std::uint64_t records = 0;
  std::uint64_t skipped = 0;
  std::uint64_t alerts = 0;
  std::string blob;
  RepTimeline timeline;
  std::vector<Metric> pool_layers;  ///< traced reps: the decorators' readings
};

std::uint64_t file_size(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size) : 0;
}

/// One analyze job. Traced reps time every per-record call into the
/// reader, interner, joiner and alert log, as aggregates under the rep span.
Rep run_rep(const std::string& log, const std::string& alerts_path, bool traced,
            Trace& trace, ProbedPools& pools, std::vector<std::int64_t>& due,
            std::vector<double>& setup_samples, std::vector<int>& roots) {
  Rep rep;
  reset_peak_rss();
  const double base_mb = rss_mb();
  std::unique_ptr<AnalyzeJob> job;
  for (int k = 0; k < kSetupRepeats; ++k) {
    job.reset();
    pools.clear();
    const std::int64_t t = now_ns();
    job = std::make_unique<AnalyzeJob>(log, alerts_path, pools);
    setup_samples.push_back(static_cast<double>(now_ns() - t) / 1e9);
  }

  LogRecord record;
  std::uint64_t n = 0;
  const double cpu0_ms = process_cpu_ms();
  const std::int64_t t0 = now_ns();
  due[0] = t0;
  const int root = traced ? trace.open("analyze.rep", Trace::kNone) : Trace::kNone;
  if (!traced) {
    while (job->reader.next(record)) {
      record.ua_token = job->interner.intern(record.user_agent);
      record.actor_id = n++ % kSampleStride == 0 ? 1 : 0;
      const auto verdicts = job->joiner.process(record);
      for (std::size_t d = 0; d < job->pool.size(); ++d) {
        job->writer.write(job->pool[d]->name(), record, verdicts[d]);
      }
    }
    job->out.close();
  } else {
    CallStats reader, intern, join, alert_log;
    for (;;) {
      std::int64_t a = now_ns();
      const bool more = job->reader.next(record);
      std::int64_t b = now_ns();
      reader.ns += b - a;
      ++reader.calls;
      if (!more) break;
      record.ua_token = job->interner.intern(record.user_agent);
      a = now_ns();
      intern.ns += a - b;
      ++intern.calls;
      record.actor_id = n++ % kSampleStride == 0 ? 1 : 0;
      const auto verdicts = job->joiner.process(record);
      b = now_ns();
      join.ns += b - a;
      ++join.calls;
      for (std::size_t d = 0; d < job->pool.size(); ++d) {
        job->writer.write(job->pool[d]->name(), record, verdicts[d]);
      }
      a = now_ns();
      alert_log.ns += a - b;
      ++alert_log.calls;
    }
    const std::int64_t a = now_ns();
    job->out.close();
    alert_log.ns += now_ns() - a;
    trace.aggregate("httplog.LogReader.next", root, reader.calls, reader.ns);
    trace.aggregate("util.StringInterner.intern", root, intern.calls, intern.ns);
    trace.aggregate("core.AlertJoiner.process", root, join.calls, join.ns);
    trace.aggregate("pipeline.AlertLogWriter.write", root, alert_log.calls,
                    alert_log.ns);
    roots.push_back(root);
  }
  trace.close(root);
  rep.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  rep.timeline.wall_ms = rep.wall_s * 1e3;
  rep.timeline.cpu_ms = process_cpu_ms() - cpu0_ms;
  rep.timeline.samples = pools.latency_ms().size();
  for (ProgressMark mark : pools.marks()) {
    mark.cpu_ms -= cpu0_ms;
    rep.timeline.marks.push_back(mark);
  }
  rep.mem_mb = peak_rss_mb() - base_mb;
  rep.records = job->joiner.results().total_requests();
  rep.skipped = job->reader.lines_skipped();
  rep.alerts = job->writer.written();
  rep.blob = results_blob(job->joiner.results());
  if (traced) {
    Report layers;
    report_pool_layers(layers, pools, rep.wall_s, /*sharded=*/false);
    rep.pool_layers = layers.metrics();
  }
  return rep;
}

}  // namespace

Report run_analyze_alerts(const Options& options) {
  Report report;
  const Corpus corpus = generate(catalog_spec("amadeus_like", kAnalyzeScale, options.seed),
                                 options.workdir);
  const std::string& log = corpus.paths.at(0);
  const std::string alerts_path = options.workdir + "/alerts.jsonl";
  const std::uint64_t lines = corpus.lines.size();
  report.metric("harness.gen_s", corpus.gen_s, "s", 1);
  report.info("corpus: amadeus_like scale " + std::to_string(kAnalyzeScale) + ", " +
              std::to_string(lines) + " lines, " + std::to_string(corpus.bytes[0]) +
              " bytes");

  std::vector<std::int64_t> due(1, 0);
  Trace trace(options.trace);
  std::vector<Rep> plain, traced;
  std::vector<double> setup_samples;
  std::vector<int> roots;
  std::uint64_t failed = 0;
  bool identical_across_reps = true;
  double alert_log_bytes = 0.0;

  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  for (int k = 0; now_ns() < deadline || plain.size() < 2 ||
                  (options.trace && traced.size() < 2);
       ++k) {
    // Traced runs alternate plain and traced reps: the difference between
    // the two is the tracing overhead.
    const bool trace_rep = options.trace && k % 2 == 1;
    ProbedPools pools(trace_rep, due, kMarkEvery);
    Rep rep = run_rep(log, alerts_path, trace_rep, trace, pools, due, setup_samples, roots);
    if (k == 0) {
      // Output checks, outside the timed region, on the first job's files.
      std::ifstream in(log, std::ios::binary);
      auto ref_pool = plain_pool();
      divscrape::pipeline::ReplayEngine engine(ref_pool);
      (void)engine.replay(in);
      const bool identical = results_blob(engine.results()) == rep.blob;
      report.check("JointResults byte-identical to ReplayEngine::replay of the log",
                   identical);
      report.metric("harness.time_ordered_match", identical ? 1.0 : 0.0, "bool", 1,
                    "the log is in time order, so replay is the time-ordered reference");
      const auto& r = engine.results();
      std::uint64_t alert_total = 0;
      for (std::size_t d = 0; d < r.detector_count(); ++d) alert_total += r.alerts(d);
      report.check("alert lines written (" + std::to_string(rep.alerts) +
                       ") equal the per-detector alert totals (" +
                       std::to_string(alert_total) + ")",
                   rep.alerts == alert_total);
      std::ifstream alerts_in(alerts_path, std::ios::binary);
      divscrape::pipeline::AlertLogReader alert_reader(alerts_in);
      divscrape::pipeline::AlertEvent event;
      std::uint64_t events = 0;
      while (alert_reader.next(event)) ++events;
      report.check("alert log parses back through AlertLogReader: " +
                       std::to_string(events) + " events, " +
                       std::to_string(alert_reader.lines_skipped()) + " skipped lines",
                   events == rep.alerts && alert_reader.lines_skipped() == 0);
      alert_log_bytes = static_cast<double>(file_size(alerts_path));
      failed = failed_records(lines, rep.records, rep.skipped, 0);
      if (!identical) failed = lines;
    } else if (rep.blob != plain.front().blob) {
      identical_across_reps = false;
    }
    std::remove(alerts_path.c_str());
    if (trace_rep) {
      traced.push_back(std::move(rep));
    } else {
      plain.push_back(std::move(rep));
    }
  }
  report.check("every repetition produced the same JointResults", identical_across_reps);
  if (!identical_across_reps) failed = lines;

  std::vector<double> mem;
  std::vector<RepTimeline> timelines;
  for (const Rep& rep : plain) {
    mem.push_back(rep.mem_mb);
    timelines.push_back(rep.timeline);
  }
  report_closed_loop(report, timelines, plain.front().records, "log records per second");
  report.metric("setup_s", median(setup_samples), "s", setup_samples.size(),
                "pool + joiner + reader + alert writer construction");
  report.metric("mem_peak_mb", median(mem), "MB", plain.size());
  report.metric("ok_share", ok_share(lines, failed), "share", lines);
  report.set_counts(lines, failed);

  if (options.trace) {
    std::vector<double> traced_wall, plain_wall;
    std::uint64_t records = 0, alerts = 0;
    double wall = 0.0;
    for (const Rep& rep : traced) {
      traced_wall.push_back(rep.wall_s);
      records += rep.records;
      alerts += rep.alerts;
      wall += rep.wall_s;
    }
    for (const Rep& rep : plain) plain_wall.push_back(rep.wall_s);
    const double plain_median = median(plain_wall);
    report.metric("harness.trace_overhead_share",
                  (median(traced_wall) - plain_median) / plain_median, "share",
                  traced.size(), "median traced minus untraced job wall time");
    const auto per_record = [&](const char* name) {
      return static_cast<double>(trace.total_ns(name)) / static_cast<double>(records);
    };
    report.metric("pipeline.reader_ns_per_record", per_record("httplog.LogReader.next"),
                  "ns", records, "in place");
    report.metric("pipeline.alert_log_ns_per_alert",
                  static_cast<double>(trace.total_ns("pipeline.AlertLogWriter.write")) /
                      static_cast<double>(alerts),
                  "ns", alerts, "in place, write() calls plus the final close");
    report.metric("pipeline.alert_log_bytes_per_alert",
                  alert_log_bytes / static_cast<double>(plain.front().alerts), "B",
                  plain.front().alerts);
    report.metric("pipeline.alerts_per_record",
                  static_cast<double>(alerts) / static_cast<double>(records), "count",
                  records);
    // The joiner's own work: process() minus the decorated detectors in it.
    double detectors_ns = 0.0;
    for (const auto& metric : traced.back().pool_layers) {
      report.metric(metric.name, metric.value, metric.unit, metric.samples, metric.note);
      if (metric.name == "detectors.sentinel_ns_per_record" ||
          metric.name == "detectors.arcane_ns_per_record") {
        detectors_ns += metric.value;
      }
    }
    report.metric("core.join_self_ns_per_record",
                  per_record("core.AlertJoiner.process") - detectors_ns, "ns", records,
                  "in place: process() minus the timed detectors");
    report_span_closure(report, trace, roots, wall);
    report_layers_alone(report, corpus.paths, /*in_place_join=*/true);
    save_trace(report, trace, options);
  }
  return report;
}

}  // namespace perfbench
