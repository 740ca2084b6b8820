#include "pipeline/tail_session.hpp"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <utility>

#include "pipeline/checkpoint.hpp"
#include "util/hash.hpp"
#include "util/state.hpp"

namespace divscrape::pipeline {

namespace {
/// Records per handoff batch, in both modes (and the shard batch size).
constexpr std::size_t kBatchRecords = 1024;
/// The session blob's leading mode byte.
constexpr std::uint8_t kModeSequential = 0, kModeSharded = 1;
}  // namespace

std::string checkpoint_file_for(const std::string& dir,
                                const std::string& log_path) {
  std::string name = log_path;
  for (char& c : name) {
    if (c == '/' || c == '\\') c = '_';
  }
  char hash[16];
  std::snprintf(hash, sizeof hash, ".%08x", util::fnv1a32(log_path));
  return dir + "/" + name + hash + ".cp.json";
}

TailSession::TailSession(std::vector<std::string> paths, PoolFactory make_pool,
                         std::size_t shards, std::size_t dispatchers,
                         std::int64_t reorder_window_us,
                         std::string checkpoint_dir)
    : paths_(std::move(paths)),
      make_pool_(std::move(make_pool)),
      shards_(shards),
      dispatchers_(dispatchers),
      checkpoint_dir_(std::move(checkpoint_dir)) {
  tail_config_.reorder_window_us = reorder_window_us;
  if (!checkpoint_dir_.empty())
    session_path_ = checkpoint_dir_ + "/tail_session.state.json";
  build();
}

void TailSession::build() {
  tailer_.reset();
  sharded_.reset();
  engine_.reset();
  pool_.clear();
  ua_tokens_.clear();
  MultiTailer::BatchSink sink;
  BatchPool* recycle = &batches_;
  if (shards_ > 1) {
    sharded_ = std::make_unique<ShardedPipeline>(
        make_pool_, shards_, kBatchRecords, /*max_backlog=*/16 * 1024,
        dispatchers_);
    sink = [this](RecordBatch&& batch) {
      for (auto& record : batch)
        record.ua_token = ua_tokens_.intern(record.user_agent);
      sharded_->process_batch(std::move(batch));
    };
    recycle = &sharded_->batch_pool();
  } else {
    pool_ = make_pool_();
    engine_ = std::make_unique<ReplayEngine>(pool_);
    sink = [this](RecordBatch&& batch) {
      engine_->process_batch(batch);
      batches_.recycle(std::move(batch));
    };
  }
  tailer_ = std::make_unique<MultiTailer>(paths_, std::move(sink),
                                          kBatchRecords, tail_config_,
                                          recycle);
}

bool TailSession::restore(const std::string& blob) {
  util::StateReader r(blob);
  const std::uint8_t mode = r.u8();
  if (!r.ok() || mode != (sharded_ ? kModeSharded : kModeSequential))
    return false;
  if (sharded_) {
    if (!ua_tokens_.load_state(r) || !sharded_->load_state(r)) return false;
  } else if (!engine_->load_state(r)) {
    return false;
  }
  return r.at_end();
}

TailSession::ResumeReport TailSession::resume() {
  ResumeReport report;
  if (checkpoint_dir_.empty()) return report;
  if (::mkdir(checkpoint_dir_.c_str(), 0755) != 0 && errno != EEXIST) {
    report.dir_errno = errno;
    return report;
  }
  if (const auto session = TailSessionState::load(session_path_)) {
    std::vector<const Checkpoint*> embedded(paths_.size(), nullptr);
    bool same_logs = session->logs.size() == paths_.size();
    for (std::size_t i = 0; same_logs && i < paths_.size(); ++i) {
      for (const auto& [path, cp] : session->logs) {
        if (path == paths_[i]) {
          embedded[i] = &cp;
          break;
        }
      }
      same_logs = embedded[i] != nullptr;
    }
    if (!same_logs) {
      report.session = SessionBlob::kOtherLogSet;
    } else {
      // Honor the offsets embedded beside the blob, never the per-log
      // files (they may describe a newer cut): state and offsets must
      // name the same point in every stream.
      bool all_honored = true;
      for (std::size_t i = 0; i < paths_.size(); ++i) {
        const bool honored = tailer_->resume(i, *embedded[i]);
        all_honored &= honored;
        report.logs.push_back({i, session_path_, embedded[i]->offset,
                               embedded[i]->parsed, honored});
      }
      if (all_honored && restore(session->state)) {
        report.session = SessionBlob::kRestored;
        return report;
      }
      report.session = SessionBlob::kRejected;
      report.logs.clear();
      build();  // keep nothing of the embedded offsets or a partial load
    }
  }
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    const auto cp_path = checkpoint_file_for(checkpoint_dir_, paths_[i]);
    if (const auto cp = Checkpoint::load(cp_path)) {
      report.logs.push_back(
          {i, cp_path, cp->offset, cp->parsed, tailer_->resume(i, *cp)});
    }
  }
  return report;
}

std::vector<std::string> TailSession::persist() {
  // Offsets cover every decoded record, so each one must be processed
  // before they are written: flush the reorder heap into the consumer and
  // drain the shard queues (a crash after the save would otherwise lose
  // queued records that resume then skips).
  (void)tailer_->flush();
  if (sharded_) sharded_->drain();
  std::vector<std::string> failed;
  if (checkpoint_dir_.empty()) return failed;
  TailSessionState session;
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    const auto cp_path = checkpoint_file_for(checkpoint_dir_, paths_[i]);
    const Checkpoint cp = tailer_->checkpoint(i);
    if (!cp.save(cp_path)) failed.push_back(cp_path);
    session.logs.emplace_back(paths_[i], cp);
  }
  util::StateWriter w;
  w.u8(sharded_ ? kModeSharded : kModeSequential);
  bool have_state;
  if (sharded_) {
    ua_tokens_.save_state(w);
    have_state = sharded_->save_state(w);
  } else {
    have_state = engine_->save_state(w);
  }
  if (have_state) {
    session.state = w.take();
    if (!session.save(session_path_)) failed.push_back(session_path_);
  }
  return failed;
}

core::JointResults TailSession::finish() {
  return sharded_ ? sharded_->finish() : engine_->results();
}

}  // namespace divscrape::pipeline
