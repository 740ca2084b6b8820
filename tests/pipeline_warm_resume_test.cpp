// Warm-resume byte-identity: the schema-v3 checkpoint contract from
// checkpoint.hpp, proven end to end. A tail process killed at an arbitrary
// record index — including mid-torn-write and straddling a rotation — and
// resumed from its checkpoint (ingest offset + detection-state blob,
// committed atomically) must finish with JointResults *byte-identical* to
// an uninterrupted run over the same stream: single-file through
// LogTailer, multi-file through pipeline::TailSession (the session the
// tail CLI runs, sequential and sharded), and sharded with batches in
// flight. The regression test comes first: it demonstrates the
// divergence a state-less (pre-v3, cold) resume produces, i.e. the bug the
// blob exists to fix.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/export.hpp"
#include "detectors/registry.hpp"
#include "httplog/clf.hpp"
#include "pipeline/checkpoint.hpp"
#include "pipeline/multi_tailer.hpp"
#include "pipeline/replay.hpp"
#include "pipeline/sharded.hpp"
#include "pipeline/tail_session.hpp"
#include "pipeline/tailer.hpp"
#include "stats/rng.hpp"
#include "workload/catalog.hpp"
#include "workload/engine.hpp"
#include "traffic/stream_writer.hpp"
#include "util/interner.hpp"
#include "util/state.hpp"

namespace {

using namespace divscrape;

constexpr std::size_t kFiles = 3;   // multi-file fan-out
constexpr std::size_t kShards = 2;  // sharded consumption

// Process-unique paths: ctest runs each test case as its own process, and
// several of them materialize the shared baseline concurrently.
std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "divscrape_warm_" + std::to_string(::getpid()) +
         "_" + name;
}

// The full smoke-scenario stream: mixed benign/scraper traffic with
// time-ordered records — enough to populate windows, reputation entries
// and template tables in both detectors.
const std::vector<httplog::LogRecord>& records() {
  static const std::vector<httplog::LogRecord> all =
      workload::generate(*workload::catalog_entry("smoke"));
  return all;
}

// Uninterrupted single-file reference: every record written once, tailed
// once, by one engine incarnation.
const std::string& uninterrupted_single_file() {
  static const std::string json = [] {
    const auto log = temp_path("baseline.log");
    traffic::StreamWriter writer(log);
    const auto pool = detectors::make_paper_pair();
    pipeline::ReplayEngine engine(pool);
    pipeline::LogTailer tailer(log, engine);
    for (const auto& r : records()) writer.write(r);
    (void)tailer.poll();
    EXPECT_EQ(engine.stats().parsed, records().size());
    std::remove(log.c_str());
    return core::to_json(engine.results());
  }();
  return json;
}

// Serializes the engine's detection state into the checkpoint, then pushes
// the pair through the JSON wire — exactly what a real restart reads back.
pipeline::Checkpoint committed_checkpoint(const pipeline::LogTailer& tailer,
                                          const pipeline::ReplayEngine& engine) {
  pipeline::Checkpoint cp = tailer.checkpoint();
  util::StateWriter w;
  EXPECT_TRUE(engine.save_state(w));
  cp.state = w.take();
  const auto wire = pipeline::Checkpoint::from_json(cp.to_json());
  EXPECT_TRUE(wire.has_value());
  return *wire;
}

// The pre-v3 failure mode, demonstrated: resuming the ingest offset
// without the detection state loses every open window and accumulated
// count, so the resumed run's results CANNOT match the uninterrupted run.
// This is the divergence the state blob exists to close.
TEST(WarmResumeRegression, ColdResumeDivergesFromUninterruptedRun) {
  const auto& all = records();
  ASSERT_GT(all.size(), 400u);
  const std::size_t kill_at = all.size() / 2;
  const auto log = temp_path("cold_regression.log");
  traffic::StreamWriter writer(log);

  pipeline::Checkpoint saved;
  {
    const auto pool = detectors::make_paper_pair();
    pipeline::ReplayEngine engine(pool);
    pipeline::LogTailer tailer(log, engine);
    for (std::size_t i = 0; i < kill_at; ++i) writer.write(all[i]);
    (void)tailer.poll();
    saved = tailer.checkpoint();  // offset only: no state blob
  }
  {
    const auto pool = detectors::make_paper_pair();
    pipeline::ReplayEngine engine(pool);
    pipeline::LogTailer tailer(log, engine);
    ASSERT_TRUE(tailer.resume(saved));
    for (std::size_t i = kill_at; i < all.size(); ++i) writer.write(all[i]);
    (void)tailer.poll();
    EXPECT_EQ(tailer.checkpoint().parsed, all.size());
    EXPECT_NE(core::to_json(engine.results()), uninterrupted_single_file())
        << "a cold resume should NOT reproduce the uninterrupted results — "
           "if it does, this regression fixture has lost its teeth";
  }
  std::remove(log.c_str());
}

// Kill at random record indices; resume warm; require byte-identity.
TEST(WarmResumeSingleFile, KillAnywhereIsByteIdentical) {
  const auto& all = records();
  ASSERT_GT(all.size(), 400u);
  stats::Rng rng(42);
  for (int round = 0; round < 4; ++round) {
    const auto kill_at = static_cast<std::size_t>(rng.uniform_int(
        1, static_cast<std::int64_t>(all.size()) - 2));
    const auto log =
        temp_path("kill_" + std::to_string(round) + ".log");
    traffic::StreamWriter writer(log);

    pipeline::Checkpoint saved;
    {
      const auto pool = detectors::make_paper_pair();
      pipeline::ReplayEngine engine(pool);
      pipeline::LogTailer tailer(log, engine);
      for (std::size_t i = 0; i < kill_at; ++i) {
        writer.write(all[i]);
        if (rng.bernoulli(0.3)) (void)tailer.poll();
      }
      (void)tailer.poll();
      saved = committed_checkpoint(tailer, engine);
    }  // the kill

    {
      const auto pool = detectors::make_paper_pair();
      pipeline::ReplayEngine engine(pool);
      pipeline::LogTailer tailer(log, engine);
      ASSERT_TRUE(tailer.resume(saved));
      util::StateReader r(saved.state);
      ASSERT_TRUE(engine.load_state(r));
      EXPECT_TRUE(r.at_end());
      for (std::size_t i = kill_at; i < all.size(); ++i) {
        writer.write(all[i]);
        if (rng.bernoulli(0.3)) (void)tailer.poll();
      }
      (void)tailer.poll();
      EXPECT_EQ(tailer.checkpoint().parsed, all.size());
      EXPECT_EQ(core::to_json(engine.results()), uninterrupted_single_file())
          << "kill at record " << kill_at << " (round " << round << ")";
    }
    std::remove(log.c_str());
  }
}

// Kill while a torn write is in flight: the blob covers exactly the
// records below the committed offset; the torn prefix is re-read from the
// file by the resumed incarnation and its record is scored exactly once.
TEST(WarmResumeSingleFile, KillMidTornWriteIsByteIdentical) {
  const auto& all = records();
  const std::size_t kill_at = all.size() / 3;
  const auto log = temp_path("torn.log");
  traffic::StreamWriter writer(log);
  const std::string torn = httplog::format_clf(all[kill_at]) + "\n";

  pipeline::Checkpoint saved;
  {
    const auto pool = detectors::make_paper_pair();
    pipeline::ReplayEngine engine(pool);
    pipeline::LogTailer tailer(log, engine);
    for (std::size_t i = 0; i < kill_at; ++i) writer.write(all[i]);
    (void)tailer.poll();
    writer.write_bytes(std::string_view(torn).substr(0, torn.size() / 2));
    (void)tailer.poll();  // the torn prefix is buffered, not ingested
    EXPECT_TRUE(engine.has_partial_line());
    saved = committed_checkpoint(tailer, engine);
    EXPECT_EQ(saved.parsed, kill_at);
  }

  {
    const auto pool = detectors::make_paper_pair();
    pipeline::ReplayEngine engine(pool);
    pipeline::LogTailer tailer(log, engine);
    ASSERT_TRUE(tailer.resume(saved));
    util::StateReader r(saved.state);
    ASSERT_TRUE(engine.load_state(r));
    writer.write_bytes(std::string_view(torn).substr(torn.size() / 2));
    for (std::size_t i = kill_at + 1; i < all.size(); ++i) {
      writer.write(all[i]);
    }
    (void)tailer.poll();
    EXPECT_EQ(tailer.checkpoint().parsed, all.size());
    EXPECT_EQ(core::to_json(engine.results()), uninterrupted_single_file());
  }
  std::remove(log.c_str());
}

// The kill straddles a rotation: the log rotates while the first
// incarnation is up (so the checkpoint names the new file incarnation),
// then the process dies. The resumed run must honor the post-rotation
// offset AND the warm state that covers records from both incarnations.
TEST(WarmResumeSingleFile, KillAfterRotationIsByteIdentical) {
  const auto& all = records();
  const std::size_t rotate_at = all.size() / 3;
  const std::size_t kill_at = all.size() / 2;
  const auto log = temp_path("rotated.log");
  const auto rotated = log + ".1";
  traffic::StreamWriter writer(log);

  pipeline::Checkpoint saved;
  {
    const auto pool = detectors::make_paper_pair();
    pipeline::ReplayEngine engine(pool);
    pipeline::LogTailer tailer(log, engine);
    for (std::size_t i = 0; i < rotate_at; ++i) writer.write(all[i]);
    (void)tailer.poll();
    writer.rotate(rotated);
    for (std::size_t i = rotate_at; i < kill_at; ++i) writer.write(all[i]);
    (void)tailer.poll();  // follows the rotation
    EXPECT_EQ(tailer.rotations(), 1u);
    saved = committed_checkpoint(tailer, engine);
    EXPECT_EQ(saved.rotations, 1u);
  }

  {
    const auto pool = detectors::make_paper_pair();
    pipeline::ReplayEngine engine(pool);
    pipeline::LogTailer tailer(log, engine);
    ASSERT_TRUE(tailer.resume(saved));
    util::StateReader r(saved.state);
    ASSERT_TRUE(engine.load_state(r));
    for (std::size_t i = kill_at; i < all.size(); ++i) writer.write(all[i]);
    (void)tailer.poll();
    EXPECT_EQ(tailer.checkpoint().parsed, all.size());
    EXPECT_EQ(core::to_json(engine.results()), uninterrupted_single_file());
  }
  std::remove(log.c_str());
  std::remove(rotated.c_str());
}

// ---------------------------------------------------------------------------
// Multi-file: kFiles logs, records fanned out round-robin (each per-file
// stream stays time-ordered). Runs that write, poll and flush at the same
// phase boundary decode and emit the same record sequence — the merge
// layer's determinism contract.

struct MultiLogs {
  std::vector<std::string> paths;
  std::vector<std::unique_ptr<traffic::StreamWriter>> writers;

  explicit MultiLogs(const std::string& tag) {
    for (std::size_t i = 0; i < kFiles; ++i) {
      paths.push_back(temp_path(tag + "." + std::to_string(i) + ".log"));
      writers.push_back(std::make_unique<traffic::StreamWriter>(paths.back()));
    }
  }
  ~MultiLogs() {
    for (const auto& p : paths) std::remove(p.c_str());
  }
  void write_range(std::size_t begin, std::size_t end) {
    const auto& all = records();
    for (std::size_t i = begin; i < end; ++i) {
      writers[i % kFiles]->write(all[i]);
    }
  }
};

// ---------------------------------------------------------------------------
// TailSession: the session `divscrape tail --checkpoint-dir` and the chaos
// soak run, at shards 1 (ReplayEngine) and 3 (ShardedPipeline behind the
// dispatch interner). A kill is "destroy the session, construct a new one,
// resume()" — the same code path a restarted CLI takes.

// A checkpoint directory that resume() creates and the test removes.
struct SessionDir {
  std::string path;
  std::vector<std::string> logs;

  SessionDir(const std::string& tag, std::vector<std::string> log_paths)
      : path(temp_path(tag)), logs(std::move(log_paths)) {}
  ~SessionDir() {
    for (const auto& log : logs)
      std::remove(pipeline::checkpoint_file_for(path, log).c_str());
    std::remove(session_file().c_str());
    ::rmdir(path.c_str());
  }
  std::string session_file() const {
    return path + "/tail_session.state.json";
  }
};

class WarmResumeSession : public ::testing::TestWithParam<std::size_t> {
 protected:
  std::string tag(const std::string& name) const {
    return name + "_s" + std::to_string(GetParam());
  }
  std::unique_ptr<pipeline::TailSession> open(
      const MultiLogs& logs, const std::string& checkpoint_dir) const {
    return std::make_unique<pipeline::TailSession>(
        logs.paths, [] { return detectors::make_paper_pair(); }, GetParam(),
        /*dispatchers=*/1, /*reorder_window_us=*/2 * httplog::kMicrosPerSecond,
        checkpoint_dir);
  }
  // Phase one into a fresh checkpoint dir, persisted, then the kill.
  void run_first_phase(MultiLogs& logs, const SessionDir& dir,
                       std::size_t split) const {
    auto session = open(logs, dir.path);
    const auto resumed = session->resume();
    EXPECT_EQ(resumed.dir_errno, 0);
    EXPECT_EQ(resumed.session, pipeline::TailSession::SessionBlob::kAbsent);
    logs.write_range(0, split);
    (void)session->tailer().poll();
    EXPECT_TRUE(session->persist().empty());
  }
};

TEST_P(WarmResumeSession, KillAtPhaseBoundaryIsByteIdentical) {
  const auto& all = records();
  const std::size_t split = all.size() / 2;
  std::string baseline;
  {
    MultiLogs logs(tag("sess_base"));
    auto session = open(logs, "");
    logs.write_range(0, split);
    (void)session->tailer().poll();
    EXPECT_TRUE(session->persist().empty());
    logs.write_range(split, all.size());
    (void)session->tailer().poll();
    EXPECT_TRUE(session->persist().empty());
    EXPECT_EQ(session->tailer().stats().parsed, all.size());
    baseline = core::to_json(session->finish());
  }

  MultiLogs logs(tag("sess_kill"));
  SessionDir dir(tag("sess_kill_cp"), logs.paths);
  run_first_phase(logs, dir, split);  // ends in the kill

  auto session = open(logs, dir.path);
  const auto resumed = session->resume();
  EXPECT_TRUE(resumed.warm());
  ASSERT_EQ(resumed.logs.size(), kFiles);
  for (const auto& log : resumed.logs) {
    EXPECT_TRUE(log.honored);
    EXPECT_EQ(log.from, dir.session_file());
  }
  logs.write_range(split, all.size());
  (void)session->tailer().poll();
  EXPECT_TRUE(session->persist().empty());
  EXPECT_EQ(core::to_json(session->finish()), baseline);
}

// A blob that loads component by component but is not fully consumed must
// not leave any of it behind: the session restarts exactly as cold as one
// that never saw the blob, from the same per-log offsets.
TEST_P(WarmResumeSession, RejectedBlobRestartsFullyCold) {
  const auto& all = records();
  const std::size_t split = all.size() / 2;
  MultiLogs logs(tag("sess_reject"));
  SessionDir dir(tag("sess_reject_cp"), logs.paths);
  run_first_phase(logs, dir, split);

  auto saved = pipeline::TailSessionState::load(dir.session_file());
  ASSERT_TRUE(saved.has_value());
  saved->state.push_back('\0');  // one trailing byte past the last component
  ASSERT_TRUE(saved->save(dir.session_file()));
  logs.write_range(split, all.size());

  std::string rejected;
  {
    auto session = open(logs, dir.path);
    const auto resumed = session->resume();
    EXPECT_EQ(resumed.session, pipeline::TailSession::SessionBlob::kRejected);
    ASSERT_EQ(resumed.logs.size(), kFiles);
    for (const auto& log : resumed.logs) {
      EXPECT_TRUE(log.honored);
      EXPECT_EQ(log.from,
                pipeline::checkpoint_file_for(dir.path, logs.paths[log.file]));
    }
    (void)session->tailer().poll();
    (void)session->tailer().flush();
    rejected = core::to_json(session->finish());
  }

  // Reference: a session that finds no session file at all.
  std::remove(dir.session_file().c_str());
  auto cold = open(logs, dir.path);
  const auto resumed = cold->resume();
  EXPECT_EQ(resumed.session, pipeline::TailSession::SessionBlob::kAbsent);
  EXPECT_EQ(resumed.logs.size(), kFiles);
  (void)cold->tailer().poll();
  (void)cold->tailer().flush();
  const auto results = cold->finish();
  EXPECT_EQ(results.total_requests(), all.size() - split);
  EXPECT_EQ(rejected, core::to_json(results));
}

// Layout pin: checkpoint directories outlive binaries, so the session blob
// is decoded here by its documented layout — mode byte, then the dispatch
// interner and the sharded state (mode 1) or the engine state (mode 0).
TEST_P(WarmResumeSession, SessionBlobLayoutIsModeByteThenComponents) {
  const auto& all = records();
  const std::size_t split = all.size() / 2;
  MultiLogs logs(tag("sess_layout"));
  SessionDir dir(tag("sess_layout_cp"), logs.paths);
  run_first_phase(logs, dir, split);

  const auto saved = pipeline::TailSessionState::load(dir.session_file());
  ASSERT_TRUE(saved.has_value());
  ASSERT_EQ(saved->logs.size(), kFiles);
  for (std::size_t i = 0; i < kFiles; ++i) {
    EXPECT_EQ(saved->logs[i].first, logs.paths[i]);
    const auto per_log = pipeline::Checkpoint::load(
        pipeline::checkpoint_file_for(dir.path, logs.paths[i]));
    ASSERT_TRUE(per_log.has_value());
    EXPECT_EQ(saved->logs[i].second, *per_log);
    EXPECT_TRUE(per_log->state.empty());
  }

  util::StateReader r(saved->state);
  const std::uint8_t mode = r.u8();
  std::uint64_t restored_requests = 0;
  if (GetParam() > 1) {
    EXPECT_EQ(mode, 1u);
    util::StringInterner ua_tokens;
    ASSERT_TRUE(ua_tokens.load_state(r));
    pipeline::ShardedPipeline sharded(
        [] { return detectors::make_paper_pair(); }, GetParam());
    ASSERT_TRUE(sharded.load_state(r));
    restored_requests = sharded.finish().total_requests();
  } else {
    EXPECT_EQ(mode, 0u);
    const auto pool = detectors::make_paper_pair();
    pipeline::ReplayEngine engine(pool);
    ASSERT_TRUE(engine.load_state(r));
    restored_requests = engine.results().total_requests();
  }
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(restored_requests, split);
}

INSTANTIATE_TEST_SUITE_P(
    TailSession, WarmResumeSession, ::testing::Values(1, 3),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return "shards" + std::to_string(info.param);
    });

// resume() creates a missing checkpoint dir, and reports (errno) one it
// cannot create, or a path that is not a directory, instead of tailing with
// nowhere to persist.
TEST(WarmResumeSessionDir, MissingDirIsCreatedAndUncreatableIsReported) {
  MultiLogs logs("dir_logs");
  logs.write_range(0, 100);
  {
    SessionDir dir("dir_made_cp", logs.paths);
    pipeline::TailSession session(
        logs.paths, [] { return detectors::make_paper_pair(); }, 1, 1, 0,
        dir.path);
    const auto resumed = session.resume();
    EXPECT_EQ(resumed.dir_errno, 0);
    EXPECT_TRUE(resumed.logs.empty());
    (void)session.tailer().poll();
    EXPECT_TRUE(session.persist().empty());
    EXPECT_TRUE(pipeline::TailSessionState::load(dir.session_file()));
  }
  pipeline::TailSession session(
      logs.paths, [] { return detectors::make_paper_pair(); }, 1, 1, 0,
      logs.paths[0] + "/cp");  // under a regular file
  EXPECT_EQ(session.resume().dir_errno, ENOTDIR);
  pipeline::TailSession on_file(
      logs.paths, [] { return detectors::make_paper_pair(); }, 1, 1, 0,
      logs.paths[1]);  // a regular file itself: mkdir says EEXIST
  EXPECT_EQ(on_file.resume().dir_errno, ENOTDIR);
}

// A session file written for another set of logs restores nothing; every
// log that has a per-log checkpoint still resumes its offset cold.
TEST(WarmResumeSessionDir, OtherLogSetResumesCold) {
  MultiLogs logs("other_logs");
  logs.write_range(0, 300);
  SessionDir dir("other_cp", logs.paths);
  {
    pipeline::TailSession session(
        logs.paths, [] { return detectors::make_paper_pair(); }, 1, 1, 0,
        dir.path);
    (void)session.resume();
    (void)session.tailer().poll();
    ASSERT_TRUE(session.persist().empty());
  }
  const std::vector<std::string> subset(logs.paths.begin(),
                                        logs.paths.begin() + 2);
  pipeline::TailSession session(
      subset, [] { return detectors::make_paper_pair(); }, 1, 1, 0, dir.path);
  const auto resumed = session.resume();
  EXPECT_EQ(resumed.session,
            pipeline::TailSession::SessionBlob::kOtherLogSet);
  ASSERT_EQ(resumed.logs.size(), subset.size());
  for (const auto& log : resumed.logs) EXPECT_TRUE(log.honored);
}

// ---------------------------------------------------------------------------
// Sharded: the same fan-out consumed by a ShardedPipeline behind the
// dispatch interner, with the drain() barrier making the queues empty (and
// the workers' joiner writes visible) before every state commit.

// The sharded consumer: MultiTailer frames the merged stream into batches
// of the pipeline's batch size, the dispatch-side interner stamps their
// tokens, and the batches enter the pipeline's batch seam with the recycle
// loop closed.
pipeline::MultiTailer sharded_tailer(const std::vector<std::string>& paths,
                                     pipeline::ShardedPipeline& sharded,
                                     util::StringInterner& ua_tokens) {
  return pipeline::MultiTailer(
      paths,
      pipeline::MultiTailer::BatchSink([&tokens = ua_tokens, &pipe = sharded](
                                           pipeline::RecordBatch&& batch) {
        for (auto& record : batch)
          record.ua_token = tokens.intern(record.user_agent);
        pipe.process_batch(std::move(batch));
      }),
      sharded.batch_size(), pipeline::MultiTailConfig{}, &sharded.batch_pool());
}

std::string uninterrupted_sharded(const std::string& tag,
                                  std::size_t phase_split) {
  MultiLogs logs(tag);
  pipeline::ShardedPipeline sharded([] { return detectors::make_paper_pair(); },
                                    kShards);
  util::StringInterner ua_tokens;
  auto tailer = sharded_tailer(logs.paths, sharded, ua_tokens);
  logs.write_range(0, phase_split);
  (void)tailer.poll();
  (void)tailer.flush();
  logs.write_range(phase_split, records().size());
  (void)tailer.poll();
  (void)tailer.flush();
  EXPECT_EQ(tailer.stats().parsed, records().size());
  return core::to_json(sharded.finish());
}

// The batch seam under kill: records travel as RecordBatches through the
// dispatcher and shard rings. After the committed checkpoint, the first
// incarnation keeps feeding — those batches are in flight inside the rings
// when the destructor abort fires (the crash). Nothing past the commit
// point was checkpointed, so the resumed incarnation re-reads those
// records from the files and the result is byte-identical. The resume
// deliberately uses a DIFFERENT batch size and dispatcher count: both are
// execution knobs, not state, and must not be observable across a resume.
TEST(WarmResumeSharded, BatchedKillWithInFlightBatchesIsByteIdentical) {
  const auto& all = records();
  const std::size_t phase_split = all.size() / 2;
  const std::size_t in_flight_end = phase_split + 90;
  ASSERT_LT(in_flight_end, all.size());
  const std::string baseline = uninterrupted_sharded("batch_base", phase_split);

  MultiLogs logs("batch_kill");
  pipeline::TailSessionState session;
  {
    pipeline::ShardedPipeline sharded(
        [] { return detectors::make_paper_pair(); }, kShards,
        /*batch_size=*/7, /*max_backlog=*/16 * 1024, /*dispatchers=*/2);
    util::StringInterner ua_tokens;
    auto tailer = sharded_tailer(logs.paths, sharded, ua_tokens);
    logs.write_range(0, phase_split);
    (void)tailer.poll();
    (void)tailer.flush();
    // Commit: save_state drains, so the blob covers exactly the records
    // the offsets below cover — none of them hiding in a batch or a ring.
    util::StateWriter w;
    ua_tokens.save_state(w);
    ASSERT_TRUE(sharded.save_state(w));
    for (std::size_t i = 0; i < tailer.files(); ++i) {
      session.logs.emplace_back(tailer.path(i), tailer.checkpoint(i));
    }
    session.state = w.take();
    const auto wire = pipeline::TailSessionState::from_json(session.to_json());
    ASSERT_TRUE(wire.has_value());
    session = *wire;
    // Keep feeding PAST the committed checkpoint without draining: these
    // batches are in the rings when the abort fires below.
    logs.write_range(phase_split, in_flight_end);
    (void)tailer.poll();
  }  // the kill, with batches in flight

  {
    pipeline::ShardedPipeline sharded(
        [] { return detectors::make_paper_pair(); }, kShards,
        /*batch_size=*/64, /*max_backlog=*/16 * 1024, /*dispatchers=*/1);
    util::StringInterner ua_tokens;
    auto tailer = sharded_tailer(logs.paths, sharded, ua_tokens);
    util::StateReader r(session.state);
    ASSERT_TRUE(ua_tokens.load_state(r));
    ASSERT_TRUE(sharded.load_state(r));
    EXPECT_TRUE(r.at_end());
    ASSERT_EQ(session.logs.size(), tailer.files());
    for (std::size_t i = 0; i < tailer.files(); ++i) {
      ASSERT_TRUE(tailer.resume(i, session.logs[i].second));
    }
    // The in-flight range is already on disk (written by the dead
    // incarnation past its commit point); only the rest is written here.
    logs.write_range(in_flight_end, all.size());
    (void)tailer.poll();
    (void)tailer.flush();
    EXPECT_EQ(core::to_json(sharded.finish()), baseline);
  }
}

// A sharded blob must not restore into a pipeline with a different shard
// count — per-/24 state would land on the wrong workers.
TEST(WarmResumeSharded, ShardCountMismatchFallsBackCold) {
  pipeline::ShardedPipeline two([] { return detectors::make_paper_pair(); },
                                2);
  util::StateWriter w;
  ASSERT_TRUE(two.save_state(w));
  const std::string blob = w.take();

  pipeline::ShardedPipeline three([] { return detectors::make_paper_pair(); },
                                  3);
  util::StateReader r(blob);
  EXPECT_FALSE(three.load_state(r));
  EXPECT_EQ(three.dispatched(), 0u);
}

}  // namespace
