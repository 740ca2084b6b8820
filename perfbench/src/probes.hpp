// Pass-through detector decorators the benchmark wraps around the paper's
// detector pair inside the pool factory, so it can measure the detectors
// and the time-to-verdict from outside the library.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "detectors/detector.hpp"
#include "measure.hpp"
#include "pipeline/sharded.hpp"

namespace perfbench {

/// Times every evaluate() of the wrapped detector (count + total ns).
/// Everything else forwards unchanged, name and state blobs included.
class TimedDetector final : public divscrape::detectors::Detector {
 public:
  TimedDetector(std::unique_ptr<Detector> inner, CallStats& stats)
      : inner_(std::move(inner)), stats_(&stats) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] divscrape::detectors::Verdict evaluate(
      const divscrape::httplog::LogRecord& record) override {
    const std::int64_t t0 = now_ns();
    const auto verdict = inner_->evaluate(record);
    stats_->ns += now_ns() - t0;
    ++stats_->calls;
    return verdict;
  }
  void reset() override { inner_->reset(); }
  [[nodiscard]] bool save_state(divscrape::util::StateWriter& w) const override {
    return inner_->save_state(w);
  }
  [[nodiscard]] bool load_state(divscrape::util::StateReader& r) override {
    return inner_->load_state(r);
  }

 private:
  std::unique_ptr<Detector> inner_;
  CallStats* stats_;
};

/// Wraps the pool's last member: once it has judged a sampled record, the
/// joint verdict is complete, so the probe reads the clock and records
/// (now - due) in ms. A record is sampled when the harness stamped a
/// nonzero `actor_id` on it; the stamp indexes `due_ns` (1-based). Parsed
/// records carry actor_id 0 and no detector or result reads it. With
/// `mark_every` > 0, every mark_every-th sample also records a progress
/// mark: that sample's latency and the process CPU time then.
class LatencyProbe final : public divscrape::detectors::Detector {
 public:
  LatencyProbe(std::unique_ptr<Detector> inner,
               const std::vector<std::int64_t>& due_ns,
               std::vector<double>& samples_ms, std::vector<ProgressMark>& marks,
               std::size_t mark_every)
      : inner_(std::move(inner)),
        due_ns_(&due_ns),
        samples_ms_(&samples_ms),
        marks_(&marks),
        mark_every_(mark_every) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] divscrape::detectors::Verdict evaluate(
      const divscrape::httplog::LogRecord& record) override {
    const auto verdict = inner_->evaluate(record);
    if (record.actor_id != 0 && record.actor_id <= due_ns_->size()) {
      samples_ms_->push_back(
          static_cast<double>(now_ns() - (*due_ns_)[record.actor_id - 1]) / 1e6);
      if (mark_every_ > 0 && samples_ms_->size() % mark_every_ == 0) {
        marks_->push_back(ProgressMark{samples_ms_->back(), process_cpu_ms()});
      }
    }
    return verdict;
  }
  void reset() override { inner_->reset(); }
  [[nodiscard]] bool save_state(divscrape::util::StateWriter& w) const override {
    return inner_->save_state(w);
  }
  [[nodiscard]] bool load_state(divscrape::util::StateReader& r) override {
    return inner_->load_state(r);
  }

 private:
  std::unique_ptr<Detector> inner_;
  const std::vector<std::int64_t>* due_ns_;
  std::vector<double>* samples_ms_;
  std::vector<ProgressMark>* marks_;
  std::size_t mark_every_;
};

/// The measurements of one detector-pool instance (one per shard). Only
/// that pool's thread writes them; read them after the pipeline has joined.
struct PoolProbe {
  CallStats sentinel;
  CallStats arcane;
  std::vector<double> latency_ms;
  std::vector<ProgressMark> marks;
  /// The undecorated detectors, for state-size readings after the run.
  const divscrape::detectors::Detector* sentinel_inner = nullptr;
  const divscrape::detectors::Detector* arcane_inner = nullptr;
};

/// Builds Sentinel + Arcane pools with default configuration (what the
/// CLI's `analyze` and `tail` build without --set overrides), decorated
/// for measurement. The latency probe is always on the last member; the
/// per-call timers only when `timed`; progress marks every `mark_every`
/// samples when that is > 0. Probes live in a deque, so their addresses
/// stay valid while more pools are made.
class ProbedPools {
 public:
  ProbedPools(bool timed, const std::vector<std::int64_t>& due_ns,
              std::size_t mark_every = 0)
      : timed_(timed), due_ns_(&due_ns), mark_every_(mark_every) {}
  ProbedPools(const ProbedPools&) = delete;
  ProbedPools& operator=(const ProbedPools&) = delete;

  [[nodiscard]] std::vector<std::unique_ptr<divscrape::detectors::Detector>>
  make();
  /// A PoolFactory for ShardedPipeline that calls make().
  [[nodiscard]] divscrape::pipeline::PoolFactory factory() {
    return [this] { return make(); };
  }

  /// Forgets every pool made so far; call once those pools are destroyed.
  void clear() { probes_.clear(); }

  [[nodiscard]] const std::deque<PoolProbe>& probes() const noexcept {
    return probes_;
  }
  /// Every pool's latency samples, concatenated.
  [[nodiscard]] std::vector<double> latency_ms() const;
  /// Every pool's progress marks, concatenated.
  [[nodiscard]] std::vector<ProgressMark> marks() const;
  /// Sum over pools of the detectors' save_state() sizes, in bytes.
  [[nodiscard]] std::uint64_t sentinel_state_bytes() const;
  [[nodiscard]] std::uint64_t arcane_state_bytes() const;

 private:
  bool timed_;
  const std::vector<std::int64_t>* due_ns_;
  std::size_t mark_every_;
  std::deque<PoolProbe> probes_;
};

/// The plain, undecorated pair (reference runs).
[[nodiscard]] std::vector<std::unique_ptr<divscrape::detectors::Detector>>
plain_pool();

}  // namespace perfbench
