// Detector factories: the reproduced two-tool deployment and the trained
// learning-based members of the wider six-detector pool (assembled by
// workload::make_full_pool, which owns the training traffic).
#pragma once

#include <memory>
#include <vector>

#include "detectors/detector.hpp"
#include "ml/dataset.hpp"

namespace divscrape::detectors {

/// The paper's deployment: {Sentinel (Distil role), Arcane}, in that order.
[[nodiscard]] std::vector<std::unique_ptr<Detector>> make_paper_pair();

/// Trains the learning-based related-work detectors {naive-Bayes, decision
/// tree} on a labelled session dataset (see workload::session_dataset).
[[nodiscard]] std::vector<std::unique_ptr<Detector>> make_learned_detectors(
    const ml::Dataset& training);

}  // namespace divscrape::detectors
