// live_tail4: time-to-alert on a live estate. A writer thread appends each
// megasite line to its vhost log when it is due, at a fixed simulated-time
// speedup (due = t0 + (time - day start) / speedup), so the scenario's
// daily shape is kept. The system under test is `tail --follow --shards 2`
// as the CLI composes it, with the CLI's follow policy: poll again at once
// while bytes arrive, flush the merge after two empty polls, and sleep the
// poll interval when caught up.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "corpus.hpp"
#include "pipeline/replay.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using divscrape::httplog::LogRecord;
using divscrape::pipeline::MultiTailConfig;

/// The open-loop load generator: appends lines to the live logs on their
/// schedule, however far behind the system under test is.
class Writer {
 public:
  Writer(const Corpus& corpus, const std::vector<std::string>& live,
         const std::vector<std::int64_t>& due_rel_ns)
      : corpus_(&corpus), live_(&live), due_(&due_rel_ns), written_(live.size()) {}

  /// Writes every line, then sets done(). Run on its own thread.
  void run(std::int64_t t0) {
    const std::size_t files = live_->size();
    std::vector<int> in(files), out(files);
    for (std::size_t v = 0; v < files; ++v) {
      in[v] = ::open(corpus_->paths[v].c_str(), O_RDONLY);
      out[v] = ::open((*live_)[v].c_str(), O_WRONLY | O_APPEND);
      if (in[v] < 0 || out[v] < 0) error_ = true;
    }
    std::vector<std::uint64_t> src_off(files, 0), pending(files, 0);
    std::vector<char> buf;
    const auto& lines = corpus_->lines;
    std::size_t i = 0;
    while (i < lines.size() && !error_) {
      const std::int64_t now = now_ns();
      const std::int64_t next_due = t0 + (*due_)[i];
      if (now < next_due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(next_due - now));
        continue;
      }
      late_ms_.push_back(static_cast<double>(now - next_due) / 1e6);
      // Write every due line, one write per file and simulated second, so
      // the files' frontiers stay within a second of each other even when
      // the writer catches up on a long burst.
      const auto write_pending = [&] {
        for (std::size_t v = 0; v < files; ++v) {
          if (pending[v] == 0) continue;
          buf.resize(pending[v]);
          const ssize_t got =
              ::pread(in[v], buf.data(), buf.size(), static_cast<off_t>(src_off[v]));
          if (got != static_cast<ssize_t>(buf.size()) ||
              ::write(out[v], buf.data(), buf.size()) != got) {
            error_ = true;
          }
          src_off[v] += pending[v];
          written_[v].fetch_add(pending[v], std::memory_order_release);
          pending[v] = 0;
        }
      };
      std::size_t j = i;
      while (j < lines.size() && t0 + (*due_)[j] <= now && j - i < 65536) {
        if (j > i && lines[j].time_us / 1000000 != lines[j - 1].time_us / 1000000) {
          write_pending();
        }
        pending[lines[j].vhost] += lines[j].len;
        ++j;
      }
      write_pending();
      i = j;
    }
    for (std::size_t v = 0; v < files; ++v) {
      if (in[v] >= 0) ::close(in[v]);
      if (out[v] >= 0) ::close(out[v]);
    }
    cpu_s_ = thread_cpu_s();
    done_.store(true, std::memory_order_release);
  }

  [[nodiscard]] bool done() const noexcept { return done_.load(std::memory_order_acquire); }
  [[nodiscard]] bool error() const noexcept { return error_; }
  [[nodiscard]] std::uint64_t written(std::size_t file) const noexcept {
    return written_[file].load(std::memory_order_acquire);
  }
  /// Read after the thread is joined.
  [[nodiscard]] double cpu_s() const noexcept { return cpu_s_; }
  [[nodiscard]] const std::vector<double>& late_ms() const noexcept { return late_ms_; }

 private:
  const Corpus* corpus_;
  const std::vector<std::string>* live_;
  const std::vector<std::int64_t>* due_;
  std::vector<std::atomic<std::uint64_t>> written_;
  std::atomic<bool> done_{false};
  bool error_ = false;
  double cpu_s_ = 0.0;
  std::vector<double> late_ms_;
};

struct Run {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double mem_mb = 0.0;
  std::uint64_t records = 0;
  std::uint64_t late = 0;
  std::uint64_t skipped = 0;
  std::uint64_t mismatches = 0;
  bool writer_error = false;
  std::string blob;
  std::vector<double> setup_s;
  std::vector<double> latency_ms;
  std::vector<double> writer_late_ms;
  std::vector<Metric> layers;  ///< traced runs
};

Run run_live(const Corpus& corpus, const std::vector<std::string>& live,
             const std::vector<std::int64_t>& due_rel_ns,
             const std::vector<std::int64_t>& sample_due_rel_ns,
             const std::vector<std::int64_t>& sample_sec_us, bool traced,
             const Options& options, Report& report) {
  Run run;
  for (const auto& path : live) {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) ::close(fd);
  }
  MultiTailConfig config;
  config.reorder_window_us = kLiveReorderWindowUs;
  Trace trace(traced);
  std::vector<std::int64_t> due(sample_due_rel_ns.size(), 0);
  ProbedPools pools(traced, due);
  reset_peak_rss();
  const double base_mb = rss_mb();
  std::unique_ptr<ShardedTail> tail;
  for (int k = 0; k < kSetupRepeats; ++k) {
    tail.reset();
    pools.clear();
    const std::int64_t t = now_ns();
    tail = std::make_unique<ShardedTail>(live, pools, config, trace);
    run.setup_s.push_back(static_cast<double>(now_ns() - t) / 1e9);
  }
  tail->set_expected_order(&sample_sec_us);

  Writer writer(corpus, live, due_rel_ns);
  tail->set_written_bytes([&](std::size_t i) { return writer.written(i); });
  const std::int64_t t0 = now_ns() + 2'000'000;
  for (std::size_t k = 0; k < due.size(); ++k) due[k] = t0 + sample_due_rel_ns[k];
  const double cpu0 = process_cpu_s();
  std::thread writer_thread([&] { writer.run(t0); });
  struct JoinOnExit {  // joins the writer on every path out, exceptions too
    std::thread& thread;
    ~JoinOnExit() {
      if (thread.joinable()) thread.join();
    }
  } join_writer{writer_thread};

  const int root = trace.open("live.run", Trace::kNone);
  int idle_polls = 0;
  for (;;) {
    const bool writer_done = writer.done();
    if (tail->poll(root) != 0) {
      idle_polls = 0;
      continue;
    }
    if (writer_done) break;
    // The CLI's idle policy: the merge waits for new records' time, so
    // after two empty polls the heap is flushed on the wall clock.
    if (++idle_polls >= 2 && tail->tailer().buffered_records() > 0) tail->flush(root);
    std::this_thread::sleep_for(std::chrono::microseconds(kLivePollUs));
  }
  tail->flush(root);
  const auto results = tail->finish(root);
  trace.close(root);
  const std::int64_t t_end = now_ns();
  writer_thread.join();

  run.wall_s = static_cast<double>(t_end - t0) / 1e9;
  run.cpu_s = process_cpu_s() - cpu0 - writer.cpu_s();
  run.mem_mb = peak_rss_mb() - base_mb;
  run.records = results.total_requests();
  run.late = tail->tailer().late_records();
  run.skipped = tail->tailer().stats().skipped;
  run.mismatches = tail->order_mismatches();
  run.writer_error = writer.error();
  run.blob = results_blob(results);
  run.latency_ms = pools.latency_ms();
  run.writer_late_ms = writer.late_ms();
  if (traced) {
    Report layers;
    report_tail_layers(layers, trace, tail->counters(), tail->tailer(), run.records,
                       tail->sharded().peak_shard_backlog());
    report_pool_layers(layers, pools, run.wall_s, /*sharded=*/true);
    run.layers = layers.metrics();
    save_trace(report, trace, options);
  }
  return run;
}

}  // namespace

Report run_live_tail4(const Options& options) {
  Report report;
  const auto spec = catalog_spec("megasite", kMegasiteScale, options.seed);
  const std::int64_t start_us = spec.start.micros();
  const std::int64_t window_us = std::min<std::int64_t>(
      static_cast<std::int64_t>(options.seconds * kLiveSpeedup * 1e6),
      spec.end().micros() - start_us);
  const Corpus corpus = generate(spec, options.workdir, start_us + window_us);
  report.metric("harness.gen_s", corpus.gen_s, "s", 1);
  const std::size_t n = corpus.lines.size();

  // Each line's due time, and the merge order the tail must emit: by log
  // second, then file, each file in its own order (MultiTailer's key).
  std::vector<std::int64_t> due_rel_ns(n);
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    due_rel_ns[i] = static_cast<std::int64_t>(
        static_cast<double>(corpus.lines[i].time_us - start_us) * 1000.0 / kLiveSpeedup);
    order[i] = static_cast<std::uint32_t>(i);
  }
  const auto sec = [&](std::uint32_t i) { return corpus.lines[i].time_us / 1000000; };
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return sec(a) != sec(b) ? sec(a) < sec(b) : corpus.lines[a].vhost < corpus.lines[b].vhost;
  });
  std::vector<std::int64_t> sample_due, sample_sec;
  for (std::size_t m = 0; m < n; m += kSampleStride) {
    sample_due.push_back(due_rel_ns[order[m]]);
    sample_sec.push_back(sec(order[m]) * 1000000);
  }
  std::vector<std::uint32_t>().swap(order);

  std::vector<std::string> live;
  for (std::size_t v = 0; v < corpus.paths.size(); ++v) {
    live.push_back(options.workdir + "/v" + std::to_string(v) + ".log");
  }
  char what[200];
  std::snprintf(what, sizeof what,
                "corpus: megasite scale %g, first %.0f simulated s of the day "
                "(%zu lines) at speedup %g, poll %lld us, reorder window %s",
                kMegasiteScale, static_cast<double>(window_us) / 1e6, n, kLiveSpeedup,
                static_cast<long long>(kLivePollUs),
                kLiveReorderWindowUs > 0
                    ? (std::to_string(kLiveReorderWindowUs) + " simulated us").c_str()
                    : "off (no forced emits)");
  report.info(what);

  const Run run = run_live(corpus, live, due_rel_ns, sample_due, sample_sec, false,
                           options, report);

  // Output checks: every line ingested once, in merge order, with results
  // equal to the time-ordered batch replay of what was written.
  report.check("writer wrote every line", !run.writer_error);
  report.check("every written line ingested once (" + std::to_string(run.records) +
                   " of " + std::to_string(n) + ")",
               run.records == n);
  auto pool = plain_pool();
  divscrape::pipeline::ReplayEngine engine(pool);
  merge_files(
      live,
      [&](LogRecord& r) {
        engine.process_record(LogRecord(r));
        return true;
      });
  // A record merged late reaches the detectors out of time order, so the
  // results may then differ from the time-ordered replay: late records are
  // counted as failed, and the identity is checked on runs without them.
  const bool identical = results_blob(engine.results()) == run.blob;
  if (run.late == 0) {
    report.check("JointResults equal the time-ordered batch replay of the written logs",
                 identical);
    report.check("sampled records reached the pool in the expected merge order (" +
                     std::to_string(run.mismatches) + " mismatches)",
                 run.mismatches == 0);
  } else {
    report.info(std::to_string(run.late) + " records merged late (counted as failed); " +
                "results " + (identical ? "still equal" : "differ from") +
                " the time-ordered batch replay");
  }
  report.metric("harness.time_ordered_match", identical ? 1.0 : 0.0, "bool", 1);

  std::uint64_t failed =
      failed_records(n, run.records, run.skipped, run.late + run.mismatches * kSampleStride);
  if ((run.late == 0 && !identical) || run.writer_error) failed = n;

  const auto writer_late = percentile(run.writer_late_ms, 99.0);
  report.info("writer ran " + std::to_string(writer_late.value_or(0.0)) +
              " ms behind schedule at p99 over " +
              std::to_string(run.writer_late_ms.size()) + " bursts");
  report.metric("records_per_s", static_cast<double>(run.records) / run.wall_s, "1/s", 1,
                "lines ingested per second of the live window");
  report_latency(report, {run.latency_ms});
  report.metric("setup_s", median(run.setup_s), "s", run.setup_s.size(),
                "2-shard pipeline threads + 4 tailers");
  report.metric("cpu_us_per_record", run.cpu_s / static_cast<double>(run.records) * 1e6,
                "us", 1, "process CPU minus the writer thread");
  report.metric("mem_peak_mb", run.mem_mb, "MB", 1);
  report.metric("ok_share", ok_share(n, failed), "share", n);
  report.metric("harness.writer_late_p99_ms", writer_late.value_or(0.0), "ms",
                run.writer_late_ms.size());
  report.set_counts(n, failed);

  if (options.trace) {
    // A second live window, traced; the CPU difference is the overhead.
    const Run traced = run_live(corpus, live, due_rel_ns, sample_due, sample_sec, true,
                                options, report);
    for (const auto& m : traced.layers) report.metric(m.name, m.value, m.unit, m.samples, m.note);
    const double plain_cpu = run.cpu_s / static_cast<double>(run.records);
    const double traced_cpu = traced.cpu_s / static_cast<double>(traced.records);
    report.metric("harness.trace_overhead_share", (traced_cpu - plain_cpu) / plain_cpu,
                  "share", 1, "traced minus untraced CPU per record (wall is scheduled)");
    report.check("the traced window produced the same JointResults", traced.blob == run.blob);
    report_layers_alone(report, corpus.paths, /*in_place_join=*/false);
  }
  return report;
}

}  // namespace perfbench
