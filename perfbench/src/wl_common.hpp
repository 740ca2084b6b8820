// What the three workloads share: run options, the frozen workload
// parameters, the canonical metric lists, result-identity helpers and the
// layers-timed-alone pass of a traced run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include <functional>
#include <memory>

#include "core/joiner.hpp"
#include "measure.hpp"
#include "pipeline/multi_tailer.hpp"
#include "pipeline/sharded.hpp"
#include "util/interner.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  ///< scratch for corpora and logs; removed after
  std::string outdir;   ///< where traced runs leave their span files
};

// ---- Frozen workload parameters (see README.md for the reasons) ----------

/// analyze_alerts: amadeus_like (8 days, one vhost) at this scale.
inline constexpr double kAnalyzeScale = 0.25;
/// live_tail4 / catchup_warm4: megasite (1 day, 4 vhosts) at this scale.
inline constexpr double kMegasiteScale = 0.15;
/// catchup_warm4: the warm checkpoint is cut at this share of the day; the
/// rest of the day is the outage backlog.
inline constexpr double kCatchupCut = 0.55;
/// live_tail4: simulated seconds per wall second. The whole day plays in
/// 20 s; a longer --seconds still plays the day once.
inline constexpr double kLiveSpeedup = 4320.0;
/// live_tail4: wall-clock poll interval when caught up, in µs.
inline constexpr std::int64_t kLivePollUs = 1000;
/// live_tail4: reorder window forcing is disabled (<= 0), so the merge
/// releases records on the watermark and the CLI's idle flush only. Any
/// window in simulated time shrinks to window / speedup of wall time, and a
/// scheduler stall longer than that in the middle of one poll would force
/// records out ahead of a file not yet read in that poll, and make its
/// records merge late: failures of the host, not of the program.
inline constexpr std::int64_t kLiveReorderWindowUs = 0;
/// The CLI's sharded tail topology: 2 shards, 1 dispatcher, 1024-record
/// batches, 16k-record shard backlog.
inline constexpr std::size_t kShards = 2;
inline constexpr std::size_t kBatchRecords = 1024;
inline constexpr std::size_t kMaxBacklog = 16 * 1024;
/// Every kSampleStride-th record carries a latency sample.
inline constexpr std::uint32_t kSampleStride = 16;
/// analyze_alerts: a progress mark every kMarkEvery latency samples (4096
/// records, 10-20 ms of the job on the reference host).
inline constexpr std::size_t kMarkEvery = 256;
/// Set-ups measured per setup_s reading (median reported).
inline constexpr int kSetupRepeats = 51;

// ---- Metrics ---------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};
/// The end-to-end metrics every untraced run reports, in BENCHMARK.json order.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// The per-layer metrics every traced run reports.
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();
/// Keeps only the metrics of `wanted` (in its order), adding any missing
/// one as 0 marked "not measured on this workload".
void select_metrics(Report& report, const std::vector<MetricSpec>& wanted);

/// JointResults as bytes (its own state blob): two results are identical
/// exactly when these strings are equal.
[[nodiscard]] std::string results_blob(const divscrape::core::JointResults& r);

/// The p50 and p99 latency metrics (ms): each percentile of every
/// repetition's samples, then the median over repetitions. A percentile
/// without 10 samples beyond it fails the run's check instead of being
/// reported.
void report_latency(Report& report, const std::vector<std::vector<double>>& reps_ms);

/// A single-threaded closed workload's time metrics from its plain
/// repetitions: records_per_s, latency_p50_ms, latency_p99_ms
/// (time-to-verdict from the repetition's start) and cpu_us_per_record, each
/// from the fastest-segment composition of the repetitions
/// (fastest_segments), with the same >= 10-samples check as report_latency.
/// The per-repetition medians are printed as findings beside them. Not for
/// a multi-threaded pipeline: there a segment's time also depends on how
/// the threads interleaved, so its minimum over repetitions measures luck
/// as well as the host, and grows with the repetition count.
void report_closed_loop(Report& report, const std::vector<RepTimeline>& reps,
                        std::uint64_t records, const std::string& rate_note);

/// Accounting for one MultiTailer session, on the caller thread. Built by
/// the harness-owned batch sink and the poll loop.
struct TailCounters {
  std::uint64_t batches = 0;
  std::uint64_t batch_records = 0;
  std::uint64_t peak_buffered = 0;
  std::uint64_t polls = 0;
  std::uint64_t empty_polls = 0;
  std::vector<double> bytes_behind;  ///< per poll (traced runs)
};

class ProbedPools;

/// `tail --shards 2` as the CLI composes it: a MultiTailer in batch-sink mode
/// whose sink stamps UA tokens and hands each batch to a 2-shard,
/// 1-dispatcher ShardedPipeline. The sink is the harness's: it also stamps
/// latency samples (actor_id = record index / kSampleStride + 1 on every
/// kSampleStride-th record), counts batches and, when tracing, records a
/// span per batch with the process_batch call as its child.
class ShardedTail {
 public:
  ShardedTail(const std::vector<std::string>& paths, ProbedPools& pools,
              const divscrape::pipeline::MultiTailConfig& config, Trace& trace);
  ShardedTail(const ShardedTail&) = delete;
  ShardedTail& operator=(const ShardedTail&) = delete;

  /// Restores a TailSessionState saved in sharded mode (offsets + interner
  /// + shard states). False when anything does not restore.
  [[nodiscard]] bool restore(const std::string& session_path);

  /// One MultiTailer::poll(), traced as a span under `parent` (an empty
  /// poll folds into the "multi_tailer.poll_empty" aggregate instead).
  std::size_t poll(int parent);
  /// MultiTailer::flush() as a span under `parent`.
  void flush(int parent);
  /// ShardedPipeline::finish() as a span under `parent`.
  [[nodiscard]] divscrape::core::JointResults finish(int parent);

  [[nodiscard]] divscrape::pipeline::MultiTailer& tailer() noexcept { return *tailer_; }
  [[nodiscard]] divscrape::pipeline::ShardedPipeline& sharded() noexcept {
    return *sharded_;
  }
  [[nodiscard]] TailCounters& counters() noexcept { return counters_; }
  /// Sampled records whose log second differed from `expected_sec` (see
  /// set_expected_order): the merge emitted out of the precomputed order.
  [[nodiscard]] std::uint64_t order_mismatches() const noexcept { return mismatches_; }
  /// Traced polls sample the ingest lag: bytes written to file i (as this
  /// callback reports) minus the tailer's committed offset, summed.
  void set_written_bytes(std::function<std::uint64_t(std::size_t)> written) {
    written_ = std::move(written);
  }
  /// Expected log second (µs) of every sampled record, in merge order.
  void set_expected_order(const std::vector<std::int64_t>* expected_sec_us) {
    expected_ = expected_sec_us;
  }

 private:
  void sink(divscrape::pipeline::RecordBatch&& batch);

  Trace* trace_;
  int parent_ = Trace::kNone;
  TailCounters counters_;
  std::uint64_t next_index_ = 0;
  std::uint64_t mismatches_ = 0;
  const std::vector<std::int64_t>* expected_ = nullptr;
  std::function<std::uint64_t(std::size_t)> written_;
  divscrape::util::StringInterner ua_tokens_;
  std::unique_ptr<divscrape::pipeline::ShardedPipeline> sharded_;
  std::unique_ptr<divscrape::pipeline::MultiTailer> tailer_;
};

/// Per-layer readings of the traced MultiTailer -> ShardedPipeline caller
/// thread, from its spans and counters.
void report_tail_layers(Report& report, const Trace& trace,
                        const TailCounters& counters,
                        const divscrape::pipeline::MultiTailer& tailer,
                        std::uint64_t records, std::uint64_t peak_shard_backlog);

/// Per-layer readings of the detector pools' decorators: each detector's
/// in-place cost, the detectors' state sizes and, for `sharded` pools, the
/// shards' busy share over `wall_s` and their skew.
void report_pool_layers(Report& report, const ProbedPools& pools, double wall_s,
                        bool sharded);

/// Times the layers alone over (a prefix of) the workload's log files:
/// LineFramer, ClfParser::parse, LineDecoder::feed, StringInterner::intern,
/// Sentinel and Arcane alone, and the joiner's own work. `in_place_join`:
/// the run measured core.join_self_ns_per_record in place; skip it here.
void report_layers_alone(Report& report, const std::vector<std::string>& paths,
                         bool in_place_join);

/// Checks that the spans of the caller thread's timed regions account for
/// the measured wall time, and reports the residue as a share.
void report_span_closure(Report& report, const Trace& trace,
                         const std::vector<int>& roots, double wall_s);

/// Failed records among `attempted` written ones: every skipped line, every
/// record merged late, and every record not ingested exactly once (missing
/// or duplicated: `ingested` + `skipped` differs from `attempted`). Capped
/// at `attempted`.
[[nodiscard]] inline std::uint64_t failed_records(std::uint64_t attempted,
                                                  std::uint64_t ingested,
                                                  std::uint64_t skipped,
                                                  std::uint64_t late) {
  const std::uint64_t seen = ingested + skipped;
  const std::uint64_t not_once = seen > attempted ? seen - attempted : attempted - seen;
  const std::uint64_t failed = skipped + late + not_once;
  return failed < attempted ? failed : attempted;
}

/// The share of the attempted records that did not fail.
[[nodiscard]] inline double ok_share(std::uint64_t attempted, std::uint64_t failed) {
  return attempted == 0 ? 0.0
                        : 1.0 - static_cast<double>(failed) / static_cast<double>(attempted);
}

/// Writes the trace next to the other traced-run outputs.
void save_trace(Report& report, const Trace& trace, const Options& options);

}  // namespace perfbench
