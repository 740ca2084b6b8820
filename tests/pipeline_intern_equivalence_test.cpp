// Interned-token equivalence: the tentpole claim of the interning PR is
// that keying detector state by interned u32 tokens changes *nothing*
// observable — JointResults must be byte-identical to the seed's
// string-keyed path, for stamped and unstamped records, sequential and
// sharded.
//
// Three proofs:
//   1. Golden parity: tests/data/golden_amadeus_s005_paper_pair.json was
//      captured by `divscrape_cli export amadeus_like --scale 0.05` (the
//      catalog stream) and cross-checked byte for byte against the
//      previous tree's detectors over the same stream. The same run today
//      must serialize to the identical bytes. (The first golden came from
//      the pre-interning, string-keyed tree on the retired single-site
//      generator; the test name keeps that lineage.)
//   2. Stamped vs unstamped: scrubbing ua_token (forcing every detector
//      through its local-interner fallback) must not change results.
//   3. Sharded vs sequential at 1/2/8 shards, with records copied or moved
//      into the batch seam, and straight from the engine's batch mode.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/export.hpp"
#include "detectors/arcane.hpp"
#include "detectors/sentinel.hpp"
#include "pipeline/sharded.hpp"
#include "workload/catalog.hpp"
#include "workload/engine.hpp"
#include "workload/experiment.hpp"

namespace {

using namespace divscrape;

std::vector<std::unique_ptr<detectors::Detector>> paper_pair() {
  std::vector<std::unique_ptr<detectors::Detector>> pool;
  pool.push_back(std::make_unique<detectors::SentinelDetector>());
  pool.push_back(std::make_unique<detectors::ArcaneDetector>());
  return pool;
}

workload::ScenarioSpec amadeus_like(double scale) {
  return *workload::catalog_entry("amadeus_like", scale);
}

std::vector<httplog::LogRecord> materialize(double scale) {
  return workload::generate(amadeus_like(scale));
}

/// Feeds `records` into the pipeline's batch seam in pool batches of the
/// pipeline's batch size; `move` moves each record into its slot instead
/// of copy-assigning it.
template <typename Records>
void feed_batches(pipeline::ShardedPipeline& pipeline, Records&& records,
                  bool move) {
  pipeline::RecordBatch batch = pipeline.batch_pool().acquire();
  for (auto& r : records) {
    if (move) {
      batch.append_slot() = std::move(r);
    } else {
      batch.append_slot() = r;
    }
    if (batch.size() == pipeline.batch_size()) {
      pipeline.process_batch(std::move(batch));
      batch = pipeline.batch_pool().acquire();
    }
  }
  if (!batch.empty()) pipeline.process_batch(std::move(batch));
}

core::JointResults run_pool(const std::vector<httplog::LogRecord>& records) {
  const auto pool = paper_pair();
  core::AlertJoiner joiner(pool);
  for (const auto& r : records) (void)joiner.process(r);
  return joiner.results();
}

TEST(InternEquivalence, GoldenParityWithSeedStringKeyedPath) {
  // Byte-for-byte comparison against the committed export of this exact
  // configuration.
  std::ifstream golden_file(std::string(DIVSCRAPE_TEST_DATA_DIR) +
                            "/golden_amadeus_s005_paper_pair.json");
  ASSERT_TRUE(golden_file) << "golden file missing";
  std::stringstream golden;
  golden << golden_file.rdbuf();
  std::string expected = golden.str();
  // The CLI appended one newline after the document.
  while (!expected.empty() &&
         (expected.back() == '\n' || expected.back() == '\r'))
    expected.pop_back();

  const auto pool = paper_pair();
  const auto out = workload::run_experiment(amadeus_like(0.05), pool);
  EXPECT_EQ(core::to_json(out.results), expected);
}

TEST(InternEquivalence, StampedAndUnstampedRunsAreIdentical) {
  auto stamped = materialize(0.02);
  auto unstamped = stamped;
  for (auto& r : unstamped) r.ua_token = 0;  // force local-intern fallback

  const auto a = run_pool(stamped);
  const auto b = run_pool(unstamped);
  EXPECT_EQ(core::to_json(a), core::to_json(b));
}

TEST(InternEquivalence, ShardedMatchesSequentialCopyAndMove) {
  const auto records = materialize(0.02);
  const std::string sequential = core::to_json(run_pool(records));

  for (const std::size_t shards : {1u, 2u, 8u}) {
    // Copying dispatch.
    {
      pipeline::ShardedPipeline pipeline([] { return paper_pair(); }, shards);
      feed_batches(pipeline, records, /*move=*/false);
      EXPECT_EQ(core::to_json(pipeline.finish()), sequential)
          << "copy dispatch, shards=" << shards;
    }
    // Moving dispatch.
    {
      pipeline::ShardedPipeline pipeline([] { return paper_pair(); }, shards);
      auto working = records;
      feed_batches(pipeline, working, /*move=*/true);
      EXPECT_EQ(core::to_json(pipeline.finish()), sequential)
          << "move dispatch, shards=" << shards;
    }
  }
}

TEST(InternEquivalence, EngineBatchSeamShardedMatchesSequential) {
  // End-to-end: the engine's batch mode hands whole merge-window batches
  // (engine-stamped tokens) straight into the shard rings; results must
  // still match a sequential run of the same spec.
  const auto spec = amadeus_like(0.02);
  const auto pool = paper_pair();
  const auto sequential = workload::run_experiment(spec, pool);

  // 5 shards: an odd count really splits the stream (see shard_of).
  pipeline::ShardedPipeline pipeline([] { return paper_pair(); }, 5);
  workload::WorkloadEngine engine(spec);
  (void)engine.run_batched(
      [&pipeline](pipeline::RecordBatch&& batch) {
        pipeline.process_batch(std::move(batch));
      },
      pipeline.batch_size(), &pipeline.batch_pool());
  EXPECT_EQ(core::to_json(pipeline.finish()),
            core::to_json(sequential.results));
}

}  // namespace
