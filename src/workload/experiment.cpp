#include "workload/experiment.hpp"

#include <algorithm>
#include <chrono>

#include "detectors/baselines.hpp"
#include "detectors/registry.hpp"
#include "httplog/session.hpp"
#include "ml/features.hpp"
#include "stats/rng.hpp"
#include "workload/engine.hpp"

namespace divscrape::workload {

ExperimentOutput run_experiment(
    const ScenarioSpec& spec,
    const std::vector<std::unique_ptr<detectors::Detector>>& pool) {
  for (const auto& d : pool) d->reset();
  core::AlertJoiner joiner(pool);

  const auto t0 = std::chrono::steady_clock::now();
  WorkloadEngine engine(spec);
  const std::uint64_t count = engine.run(
      [&joiner](httplog::LogRecord&& record) { (void)joiner.process(record); });
  const auto t1 = std::chrono::steady_clock::now();

  return ExperimentOutput{joiner.results(), count,
                          std::chrono::duration<double>(t1 - t0).count()};
}

ExperimentOutput run_paper_experiment(const ScenarioSpec& spec) {
  const auto pool = detectors::make_paper_pair();
  return run_experiment(spec, pool);
}

ml::Dataset session_dataset(const ScenarioSpec& spec) {
  std::vector<httplog::Session> sessions;
  httplog::Sessionizer sessionizer(
      1800.0,
      [&sessions](httplog::Session&& s) { sessions.push_back(std::move(s)); });
  WorkloadEngine engine(spec);
  (void)engine.run(
      [&sessionizer](httplog::LogRecord&& record) { sessionizer.add(record); });
  sessionizer.flush_all();
  return ml::build_session_dataset(sessions);
}

std::vector<std::unique_ptr<detectors::Detector>> make_full_pool(
    const ScenarioSpec& spec) {
  auto pool = detectors::make_paper_pair();
  pool.push_back(std::make_unique<detectors::RateLimitDetector>());
  pool.push_back(std::make_unique<detectors::TrapDetector>());

  ScenarioSpec training = spec;
  training.seed = stats::mix_seed(spec.seed, 0x7261696eULL);
  training.scale = std::min(spec.scale, 0.02);
  for (auto& d : detectors::make_learned_detectors(session_dataset(training)))
    pool.push_back(std::move(d));
  return pool;
}

}  // namespace divscrape::workload
