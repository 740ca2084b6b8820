// catchup_warm4: restart after a long outage. Set-up ingests the megasite
// day up to a fixed cut in time order (the state of a tail that kept up)
// and saves a warm TailSessionState as `tail --checkpoint-dir` does; the
// rest of the day is then appended to the 4 vhost logs as the backlog. Each
// timed repetition restores that state and catches up through the 2-shard
// topology, ending at finish().
#include <fstream>
#include <memory>

#include "corpus.hpp"
#include "pipeline/checkpoint.hpp"
#include "pipeline/replay.hpp"
#include "probes.hpp"
#include "util/state.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using divscrape::httplog::LogRecord;
using divscrape::pipeline::MultiTailConfig;
using divscrape::pipeline::MultiTailer;
using divscrape::pipeline::RecordBatch;
using divscrape::pipeline::ReplayEngine;
using divscrape::pipeline::ShardedPipeline;
using divscrape::pipeline::TailSessionState;

struct Warm {
  std::string sharded_session;    ///< TailSessionState, sharded mode
  std::string unsharded_session;  ///< TailSessionState, sequential mode
  std::uint64_t precut_records = 0;
  std::string time_ordered_blob;  ///< whole day, time-ordered replay
  double save_ms = 0.0;
  double blob_mb = 0.0;
};

/// Time-ordered replay of the source logs. Records before `cut_us` feed
/// both a sequential ReplayEngine and a 2-shard pipeline; at the cut, both
/// states are saved as tail sessions over `live` (which hold exactly the
/// pre-cut bytes). The engine then replays the rest of the day, giving the
/// time-ordered reference results.
Warm build_warm_state(const Corpus& corpus, const std::vector<std::string>& live,
                      std::int64_t cut_us, const MultiTailConfig& config,
                      const std::string& dir) {
  Warm warm;
  auto ref_pool = plain_pool();
  ReplayEngine engine(ref_pool);
  ShardedPipeline pre([] { return plain_pool(); }, kShards, kBatchRecords, kMaxBacklog, 1);
  divscrape::util::StringInterner pre_tokens;
  RecordBatch batch = pre.batch_pool().acquire();
  bool cut = false;

  const auto flush = [&] {
    engine.process_batch(batch);
    if (cut) {
      batch.clear();
      return;
    }
    for (auto& r : batch) r.ua_token = pre_tokens.intern(r.user_agent);
    pre.process_batch(std::move(batch));
    batch = pre.batch_pool().acquire();
  };
  const auto save_at_cut = [&] {
    // Offsets as a tail that ingested the pre-cut logs would commit them.
    std::vector<divscrape::pipeline::Checkpoint> checkpoints;
    {
      MultiTailer offsets(live, [](LogRecord&&) {}, config);
      while (offsets.poll() != 0) {
      }
      (void)offsets.flush();
      for (std::size_t i = 0; i < live.size(); ++i) checkpoints.push_back(offsets.checkpoint(i));
    }
    const auto save = [&](std::uint8_t mode, const std::string& path) {
      divscrape::util::StateWriter w;
      w.u8(mode);
      const bool ok =
          mode == 1 ? (pre_tokens.save_state(w), pre.save_state(w)) : engine.save_state(w);
      TailSessionState session;
      for (std::size_t i = 0; i < live.size(); ++i) {
        session.logs.emplace_back(live[i], checkpoints[i]);
      }
      session.state = w.take();
      if (!ok || !session.save(path)) throw std::runtime_error("cannot save " + path);
      return session.state.size();
    };
    warm.sharded_session = dir + "/tail_session_sharded.state.json";
    warm.unsharded_session = dir + "/tail_session_unsharded.state.json";
    const std::int64_t t0 = now_ns();
    warm.blob_mb = static_cast<double>(save(1, warm.sharded_session)) / 1048576.0;
    warm.save_ms = static_cast<double>(now_ns() - t0) / 1e6;
    (void)save(0, warm.unsharded_session);
    warm.precut_records = engine.results().total_requests();
    (void)pre.finish();
  };

  merge_files(
      corpus.paths,
      [&](LogRecord& r) {
        if (!cut && r.time.micros() >= cut_us) {
          flush();
          cut = true;
          save_at_cut();
        }
        batch.append_slot() = r;
        if (batch.size() >= kBatchRecords) flush();
        return true;
      });
  flush();
  warm.time_ordered_blob = results_blob(engine.results());
  return warm;
}

struct Rep {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double mem_mb = 0.0;
  double setup_s = 0.0;
  double restore_ms = 0.0;
  std::uint64_t records = 0;
  std::uint64_t late = 0;
  std::uint64_t forced = 0;
  std::uint64_t skipped = 0;
  bool restored = false;
  std::string blob;
  std::vector<double> latency_ms;
  std::vector<Metric> layers;  ///< traced reps: tail and pool readings
  Trace trace{false};          ///< traced reps: this repetition's spans
  int root = Trace::kNone;
};

Rep run_rep(const std::vector<std::string>& live, const std::vector<std::uint64_t>& file_bytes,
            const Warm& warm, const MultiTailConfig& config, std::uint64_t backlog,
            bool traced) {
  Rep rep;
  Trace trace(traced);
  std::vector<std::int64_t> due(backlog / kSampleStride + 2, 0);
  ProbedPools pools(traced, due);
  reset_peak_rss();
  const double base_mb = rss_mb();
  std::int64_t t = now_ns();
  ShardedTail tail(live, pools, config, trace);
  tail.set_written_bytes([&](std::size_t i) { return file_bytes[i]; });
  const std::int64_t r0 = now_ns();
  rep.restored = tail.restore(warm.sharded_session);
  rep.restore_ms = static_cast<double>(now_ns() - r0) / 1e6;
  rep.setup_s = static_cast<double>(now_ns() - t) / 1e9;
  if (!rep.restored) return rep;

  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  std::fill(due.begin(), due.end(), t0);  // the whole backlog is due at restart
  const int root = trace.open("catchup.rep", Trace::kNone);
  while (tail.poll(root) != 0) {
  }
  tail.flush(root);
  const auto results = tail.finish(root);
  trace.close(root);
  rep.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  rep.cpu_s = process_cpu_s() - cpu0;
  rep.mem_mb = peak_rss_mb() - base_mb;
  rep.records = results.total_requests() - warm.precut_records;
  rep.late = tail.tailer().late_records();
  rep.forced = tail.tailer().forced_emits();
  rep.skipped = tail.tailer().stats().skipped;
  rep.blob = results_blob(results);
  rep.latency_ms = pools.latency_ms();
  if (traced) {
    Report layers;
    report_tail_layers(layers, trace, tail.counters(), tail.tailer(), rep.records,
                       tail.sharded().peak_shard_backlog());
    report_pool_layers(layers, pools, rep.wall_s, /*sharded=*/true);
    rep.layers = layers.metrics();
  }
  rep.root = root;
  rep.trace = std::move(trace);
  return rep;
}

/// The same catch-up through a sequential ReplayEngine (the unsharded
/// `tail`), from the sequential session saved at the same cut.
struct Unsharded {
  bool restored = false;
  double wall_s = 0.0;
  std::uint64_t late = 0;
  std::uint64_t forced = 0;
  std::string blob;
};

Unsharded run_unsharded(const std::vector<std::string>& live, const Warm& warm,
                        const MultiTailConfig& config) {
  Unsharded u;
  auto pool = plain_pool();
  ReplayEngine engine(pool);
  MultiTailer tailer(
      live, [&](LogRecord&& r) { engine.process_record(std::move(r)); }, config);
  const auto session = TailSessionState::load(warm.unsharded_session);
  if (!session || session->logs.size() != live.size()) return u;
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (!tailer.resume(i, session->logs[i].second)) return u;
  }
  divscrape::util::StateReader r(session->state);
  u.restored = r.u8() == 0 && r.ok() && engine.load_state(r) && r.at_end();
  if (!u.restored) return u;
  const std::int64_t t0 = now_ns();
  while (tailer.poll() != 0) {
  }
  (void)tailer.flush();
  u.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  u.late = tailer.late_records();
  u.forced = tailer.forced_emits();
  u.blob = results_blob(engine.results());
  return u;
}

}  // namespace

Report run_catchup_warm4(const Options& options) {
  Report report;
  const auto spec = catalog_spec("megasite", kMegasiteScale, options.seed);
  const Corpus corpus = generate(spec, options.workdir);
  report.metric("harness.gen_s", corpus.gen_s, "s", 1);
  const std::int64_t day_us = corpus.end_us - corpus.start_us;
  const std::int64_t cut_us =
      corpus.start_us +
      static_cast<std::int64_t>(kCatchupCut * static_cast<double>(day_us) / 1e6) * 1000000;
  const auto cut_off = corpus.offsets_before(cut_us);
  const std::uint64_t lines = corpus.lines.size();
  const std::uint64_t backlog = lines - corpus.lines_before(cut_us);

  std::vector<std::string> live;
  for (std::size_t v = 0; v < corpus.paths.size(); ++v) {
    live.push_back(options.workdir + "/v" + std::to_string(v) + ".log");
    if (!append_bytes(corpus.paths[v], 0, cut_off[v], live[v])) {
      throw std::runtime_error("cannot write " + live[v]);
    }
  }
  const MultiTailConfig config;  // the CLI's defaults
  const Warm warm = build_warm_state(corpus, live, cut_us, config, options.workdir);
  report.check("the pre-cut day was ingested whole (" +
                   std::to_string(warm.precut_records) + " records)",
               warm.precut_records == lines - backlog);
  for (std::size_t v = 0; v < live.size(); ++v) {
    if (!append_bytes(corpus.paths[v], cut_off[v], corpus.bytes[v], live[v])) {
      throw std::runtime_error("cannot write " + live[v]);
    }
  }
  report.info("corpus: megasite scale " + std::to_string(kMegasiteScale) + ", " +
              std::to_string(lines) + " lines over " + std::to_string(live.size()) +
              " vhost logs; cut at " + std::to_string(kCatchupCut) + " of the day; " +
              "backlog " + std::to_string(backlog) + " lines; warm blob " +
              std::to_string(warm.blob_mb) + " MB");

  std::vector<Rep> plain, traced;
  bool restored = true;
  bool identical_across_reps = true;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  for (int k = 0; now_ns() < deadline || plain.size() < 2 ||
                  (options.trace && traced.size() < 2);
       ++k) {
    const bool trace_rep = options.trace && k % 2 == 1;
    Rep rep = run_rep(live, corpus.bytes, warm, config, backlog, trace_rep);
    restored = restored && rep.restored;
    if (!rep.restored) break;
    if (!plain.empty() && rep.blob != plain.front().blob) identical_across_reps = false;
    (trace_rep ? traced : plain).push_back(std::move(rep));
  }
  report.check("the warm session restored into the 2-shard pipeline", restored);
  if (!restored) {
    report.set_counts(backlog, backlog);
    return report;
  }
  const Rep& first = plain.front();
  report.check("every repetition produced the same JointResults", identical_across_reps);

  const Unsharded unsharded = run_unsharded(live, warm, config);
  const bool same_as_unsharded = unsharded.restored && unsharded.blob == first.blob;
  report.check("2-shard results byte-identical to the unsharded MultiTailer -> "
               "ReplayEngine catch-up from the same cut",
               same_as_unsharded);
  report.check("sharded and unsharded catch-ups merged alike (" +
                   std::to_string(first.late) + " late, " + std::to_string(first.forced) +
                   " forced)",
               unsharded.late == first.late && unsharded.forced == first.forced);
  report.check("every backlog record ingested once (" + std::to_string(first.records) +
                   " of " + std::to_string(backlog) + ")",
               first.records == backlog);
  const bool time_ordered = first.blob == warm.time_ordered_blob;
  report.info(std::string("results ") + (time_ordered ? "equal" : "DIFFER FROM") +
              " the time-ordered batch replay of the same day; " +
              std::to_string(first.late) + " backlog records merged late and " +
              std::to_string(first.forced) +
              " were force-emitted (the catch-up reorder defect, counted in failed)");

  std::uint64_t failed = failed_records(backlog, first.records, first.skipped, first.late);
  if (!same_as_unsharded || !identical_across_reps) failed = backlog;

  std::vector<double> rate, cpu, mem, setup, restore, wall;
  std::vector<std::vector<double>> latency;
  for (const Rep& rep : plain) {
    rate.push_back(static_cast<double>(rep.records) / rep.wall_s);
    cpu.push_back(rep.cpu_s / static_cast<double>(rep.records) * 1e6);
    mem.push_back(rep.mem_mb);
    setup.push_back(rep.setup_s);
    restore.push_back(rep.restore_ms);
    wall.push_back(rep.wall_s);
    latency.push_back(rep.latency_ms);
  }
  for (const Rep& rep : traced) setup.push_back(rep.setup_s);
  report.metric("records_per_s", median(rate), "1/s", plain.size(),
                "backlog records per second of catch-up, median over repetitions");
  report_latency(report, latency);
  report.metric("setup_s", median(setup), "s", setup.size(),
                "pipeline threads + tailers + warm restore");
  report.metric("cpu_us_per_record", median(cpu), "us", plain.size());
  report.metric("mem_peak_mb", median(mem), "MB", plain.size());
  report.metric("ok_share", ok_share(backlog, failed), "share", backlog);
  report.set_counts(backlog, failed);

  if (options.trace) {
    const Rep& last = traced.back();
    for (const auto& m : last.layers) report.metric(m.name, m.value, m.unit, m.samples, m.note);
    std::vector<double> traced_wall;
    for (const Rep& rep : traced) traced_wall.push_back(rep.wall_s);
    const double plain_wall = median(wall);
    report.metric("harness.trace_overhead_share",
                  (median(traced_wall) - plain_wall) / plain_wall, "share", traced.size(),
                  "median traced minus untraced catch-up wall time");
    report.metric("harness.time_ordered_match", time_ordered ? 1.0 : 0.0, "bool", 1);
    report.metric("pipeline.checkpoint.restore_ms", median(restore), "ms", restore.size(),
                  "TailSessionState load + resume + interner and shard restore");
    report.metric("pipeline.checkpoint.save_ms", warm.save_ms, "ms", 1,
                  "sharded session serialize + atomic save, at the cut");
    report.metric("pipeline.checkpoint.blob_mb", warm.blob_mb, "MB", 1);
    report.metric("pipeline.sharded.sharded_wall_s", plain_wall, "s", plain.size(),
                  "median 2-shard catch-up");
    report.metric("pipeline.sharded.unsharded_wall_s", unsharded.wall_s, "s", 1,
                  "the identity check's unsharded catch-up");
    report.metric("pipeline.sharded.speedup_vs_unsharded", unsharded.wall_s / plain_wall,
                  "ratio", 1);
    report_span_closure(report, last.trace, {last.root}, last.wall_s);
    report_layers_alone(report, corpus.paths, /*in_place_join=*/false);
    save_trace(report, last.trace, options);
  }
  return report;
}

}  // namespace perfbench
