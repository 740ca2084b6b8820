#include "probes.hpp"

#include "detectors/arcane.hpp"
#include "detectors/sentinel.hpp"
#include "util/state.hpp"

namespace perfbench {

using divscrape::detectors::ArcaneConfig;
using divscrape::detectors::ArcaneDetector;
using divscrape::detectors::Detector;
using divscrape::detectors::SentinelConfig;
using divscrape::detectors::SentinelDetector;

std::vector<std::unique_ptr<Detector>> plain_pool() {
  std::vector<std::unique_ptr<Detector>> pool;
  pool.push_back(std::make_unique<SentinelDetector>(SentinelConfig{}));
  pool.push_back(std::make_unique<ArcaneDetector>(ArcaneConfig{}));
  return pool;
}

std::vector<std::unique_ptr<Detector>> ProbedPools::make() {
  PoolProbe& probe = probes_.emplace_back();
  auto pool = plain_pool();
  probe.sentinel_inner = pool[0].get();
  probe.arcane_inner = pool[1].get();
  if (timed_) {
    pool[0] = std::make_unique<TimedDetector>(std::move(pool[0]), probe.sentinel);
    pool[1] = std::make_unique<TimedDetector>(std::move(pool[1]), probe.arcane);
  }
  pool[1] = std::make_unique<LatencyProbe>(std::move(pool[1]), *due_ns_,
                                           probe.latency_ms, probe.marks, mark_every_);
  return pool;
}

std::vector<ProgressMark> ProbedPools::marks() const {
  std::vector<ProgressMark> all;
  for (const auto& p : probes_) all.insert(all.end(), p.marks.begin(), p.marks.end());
  return all;
}

std::vector<double> ProbedPools::latency_ms() const {
  std::vector<double> all;
  for (const auto& p : probes_) {
    all.insert(all.end(), p.latency_ms.begin(), p.latency_ms.end());
  }
  return all;
}

namespace {
std::uint64_t state_bytes(const Detector* d) {
  divscrape::util::StateWriter w;
  if (d == nullptr || !d->save_state(w)) return 0;
  return w.take().size();
}
}  // namespace

std::uint64_t ProbedPools::sentinel_state_bytes() const {
  std::uint64_t total = 0;
  for (const auto& p : probes_) total += state_bytes(p.sentinel_inner);
  return total;
}

std::uint64_t ProbedPools::arcane_state_bytes() const {
  std::uint64_t total = 0;
  for (const auto& p : probes_) total += state_bytes(p.arcane_inner);
  return total;
}

}  // namespace perfbench
