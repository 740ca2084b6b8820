// Experiment runner: the one-call entry point that generates a scenario
// spec through the WorkloadEngine, streams it through a detector pool via
// the AlertJoiner, and returns the accumulated JointResults. Every table
// bench, the CLI's tables/export commands and most examples sit on top of
// this.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/joiner.hpp"
#include "detectors/detector.hpp"
#include "ml/dataset.hpp"
#include "workload/scenario_spec.hpp"

namespace divscrape::workload {

/// What happened.
struct ExperimentOutput {
  core::JointResults results;
  std::uint64_t records = 0;
  double wall_seconds = 0.0;  ///< generation + detection

  [[nodiscard]] double throughput_rps() const noexcept {
    return wall_seconds <= 0.0 ? 0.0
                               : static_cast<double>(records) / wall_seconds;
  }
};

/// Streams the spec through the given pool (pool order defines result
/// indices). The pool is reset first.
[[nodiscard]] ExperimentOutput run_experiment(
    const ScenarioSpec& spec,
    const std::vector<std::unique_ptr<detectors::Detector>>& pool);

/// Convenience: the paper deployment {Sentinel, Arcane} on the spec.
/// Index 0 = Sentinel (Distil role), 1 = Arcane.
[[nodiscard]] ExperimentOutput run_paper_experiment(const ScenarioSpec& spec);

/// The labelled session dataset of `spec`'s stream (sessions labelled by
/// majority ground truth, which stands in for the paper's "Amadeus team is
/// currently labelling the dataset" step) — what the learned detectors
/// train on.
[[nodiscard]] ml::Dataset session_dataset(const ScenarioSpec& spec);

/// Full pool: Sentinel, Arcane, rate-limit, trap, naive-Bayes, decision
/// tree. Learned members are trained on a scaled-down sibling of `spec`
/// with a different seed (no training-on-test leakage).
[[nodiscard]] std::vector<std::unique_ptr<detectors::Detector>> make_full_pool(
    const ScenarioSpec& spec);

}  // namespace divscrape::workload
