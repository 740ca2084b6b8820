// Measurement primitives of the benchmark: clocks, process CPU and memory
// readings, the percentile estimator, the in-memory span recorder and the
// result report.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of the whole process.
[[nodiscard]] double process_cpu_s();
/// The same in ms, from the process CPU clock (cheap enough per segment).
[[nodiscard]] inline double process_cpu_ms() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}
/// User + system CPU seconds of the calling thread.
[[nodiscard]] double thread_cpu_s();
/// Resident set size now, in MiB (VmRSS).
[[nodiscard]] double rss_mb();
/// Peak resident set size since the last reset_peak_rss(), in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();
/// Returns freed heap to the OS and restarts the VmHWM high-water mark, so
/// the next peak_rss_mb() covers only what happens after this call.
void reset_peak_rss();

/// Nearest-rank percentile `p` (0 < p < 100) of `samples`. Empty unless at
/// least 10 samples lie beyond the reported one: a tail percentile read
/// off fewer samples is noise, not a measurement.
[[nodiscard]] std::optional<double> percentile(std::vector<double> samples,
                                               double p);
/// Median (middle element, upper for even counts); 0 for no samples.
[[nodiscard]] double median(std::vector<double> samples);

/// Progress of a closed-loop repetition at one sampled verdict: wall and
/// process CPU time in ms.
struct ProgressMark {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
};

/// One repetition of a closed-loop job: progress marks taken every
/// `mark_every` latency samples, in any order, relative to the
/// repetition's start; its whole wall and CPU time; its sample count.
struct RepTimeline {
  std::vector<ProgressMark> marks;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  std::size_t samples = 0;
};

/// A closed-loop job's time on a shared host. Other tenants only ever add
/// time, in bursts shorter than a repetition, so every repetition's marks
/// (sorted by wall time) cut it into the same segments of verdicts, and
/// the job's wall time is the sum over segments of the fastest
/// repetition's time for that segment; CPU time likewise. The latency
/// percentiles are read off that composed timeline at the sample's rank,
/// linearly between marks, and are empty when fewer than 10 samples lie
/// beyond the rank, as in percentile().
struct Composed {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  std::optional<double> p50_ms;
  std::optional<double> p99_ms;
};
[[nodiscard]] Composed fastest_segments(std::vector<RepTimeline> reps,
                                        std::size_t mark_every);

/// In-memory span recorder for one thread (the caller thread of the system
/// under test). Spans carry name, start, end and parent; per-call work too
/// fine to span (one record, one empty poll) is kept as an aggregate — a
/// call count plus total nanoseconds under a parent span. Nothing is written
/// until the run ends. A disabled recorder costs one branch per call.
class Trace {
 public:
  static constexpr int kNone = -1;

  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
  };
  struct Aggregate {
    const char* name;
    int parent;
    std::uint64_t calls;
    std::int64_t ns;
  };

  explicit Trace(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span now; returns its id (kNone when disabled).
  int open(const char* name, int parent) {
    if (!enabled_) return kNone;
    spans_.push_back(Span{name, now_ns(), 0, parent});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) {
    if (id != kNone) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }
  /// Replaces the most recent span, which must have no children, by one
  /// call of the aggregate `name` under that span's parent.
  void fold_last_span(const char* name) {
    const Span last = spans_.back();
    spans_.pop_back();
    aggregate(name, last.parent, 1, last.end_ns - last.start_ns);
  }
  /// Folds `calls` calls totalling `ns` into the aggregate `name` under
  /// `parent` (one aggregate per name and parent).
  void aggregate(const char* name, int parent, std::uint64_t calls,
                 std::int64_t ns);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Self time of every span: its duration minus its child spans and the
  /// aggregates recorded under it.
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;
  /// Sum of self times over `root` and all its descendants, aggregates
  /// included. Equals the root's duration when children nest properly.
  [[nodiscard]] std::int64_t subtree_self_sum_ns(int root) const;
  /// Total duration / self time of every span called `name`.
  [[nodiscard]] std::int64_t total_ns(const char* name) const;
  [[nodiscard]] std::int64_t total_self_ns(const char* name) const;
  [[nodiscard]] std::uint64_t count(const char* name) const;

  /// Writes spans then aggregates as CSV: kind,name,start_ns,end_ns,parent
  /// (aggregates: kind,name,calls,ns,parent). Returns false on I/O error.
  [[nodiscard]] bool write_csv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<Aggregate> aggregates_;
};

/// Accumulator for per-call timings kept as count + total nanoseconds.
struct CallStats {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
  [[nodiscard]] double ns_per_call() const noexcept {
    return calls == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(calls);
  }
};

/// One reported metric. `samples` is how many measurements it summarizes.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;  ///< human-readable only (how it was measured, n/a...)
};

/// Collects metrics and checks, prints them for humans, and renders the
/// final one-line JSON result.
class Report {
 public:
  void metric(std::string name, double value, std::string unit,
              std::size_t samples, std::string note = "");
  /// Records a hard output check; a failed one makes the result incorrect.
  void check(const std::string& what, bool ok);
  /// Records an informational finding (printed, never fails the run).
  void info(const std::string& line);

  void set_counts(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ = attempted;
    failed_ = failed;
  }
  [[nodiscard]] bool correct() const noexcept { return correct_; }
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
    return metrics_;
  }
  void replace_metrics(std::vector<Metric> metrics) { metrics_ = std::move(metrics); }

  /// Human-readable lines (one per metric, check and finding).
  void print_human() const;
  /// The result object: {"correct","attempted","failed","metrics"}.
  [[nodiscard]] std::string json() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> lines_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
