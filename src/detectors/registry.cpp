#include "detectors/registry.hpp"

#include <utility>

#include "detectors/arcane.hpp"
#include "detectors/learned.hpp"
#include "detectors/sentinel.hpp"
#include "ml/decision_tree.hpp"
#include "ml/naive_bayes.hpp"

namespace divscrape::detectors {

std::vector<std::unique_ptr<Detector>> make_paper_pair() {
  std::vector<std::unique_ptr<Detector>> pool;
  pool.push_back(std::make_unique<SentinelDetector>());
  pool.push_back(std::make_unique<ArcaneDetector>());
  return pool;
}

std::vector<std::unique_ptr<Detector>> make_learned_detectors(
    const ml::Dataset& training) {
  std::vector<std::unique_ptr<Detector>> out;
  out.push_back(std::make_unique<LearnedDetector>(
      "naive-bayes",
      std::make_shared<ml::NaiveBayes>(ml::NaiveBayes::train(training))));
  out.push_back(std::make_unique<LearnedDetector>(
      "decision-tree",
      std::make_shared<ml::DecisionTree>(ml::DecisionTree::train(training))));
  return out;
}

}  // namespace divscrape::detectors
