// TailSession: one `divscrape tail` deployment as a library object — the
// MultiTailer over the input logs, the detection consumer behind it, and
// the checkpoint directory a restart resumes from. The CLI's `tail` and
// the chaos soak both run it.
//
// Consumer: a ReplayEngine when `shards <= 1`, else a ShardedPipeline fed
// through a dispatch-side UA interner. Either way the merged stream leaves
// the MultiTailer as RecordBatches, handed off at every poll()/flush().
//
// persist() writes one Checkpoint per log (checkpoint_file_for), then
// `tail_session.state.json` (TailSessionState) last: the same offsets
// plus one detection-state blob covering exactly the records below them.
// Blob layout (util/state.hpp encoding): a mode byte (0 = sequential,
// 1 = sharded), then ReplayEngine::save_state for mode 0, or the dispatch
// interner's save_state followed by ShardedPipeline::save_state for
// mode 1.
//
// resume() restores warm only if the session file names exactly this set
// of logs, every embedded offset is honored (a replaced file restarts at
// 0 and would replay records the blob already counted), and the whole
// blob loads to its end. Anything less rebuilds the tailer and consumer
// cold — nothing of a half-loaded blob is kept — and resumes each log
// from its per-log file.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/joiner.hpp"
#include "pipeline/multi_tailer.hpp"
#include "pipeline/record_batch.hpp"
#include "pipeline/replay.hpp"
#include "pipeline/sharded.hpp"
#include "util/interner.hpp"

namespace divscrape::pipeline {

/// Per-log checkpoint file inside a checkpoint directory: the log's path
/// with every separator flattened for readability, plus a hash of the
/// exact path so distinct logs can never collide ("/logs/a/b.log" vs
/// "/logs/a_b.log" flatten identically). Stable across invocations.
[[nodiscard]] std::string checkpoint_file_for(const std::string& dir,
                                              const std::string& log_path);

class TailSession {
 public:
  /// What resume() found for the session file.
  enum class SessionBlob {
    kAbsent,       ///< no readable session file
    kOtherLogSet,  ///< it names a different set of logs
    kRejected,     ///< an embedded offset was not honored, or the blob
                   ///< failed to load: detection restarts cold
    kRestored,     ///< warm: detector state restored behind its offsets
  };

  /// Where one log's ingest resumed from.
  struct ResumedLog {
    std::size_t file = 0;
    std::string from;  ///< the checkpoint file the offset came from
    std::uint64_t offset = 0;
    std::uint64_t parsed = 0;  ///< records ingested before the cut
    bool honored = false;      ///< false: file replaced, ingest from 0
  };

  struct ResumeReport {
    /// Nonzero: the checkpoint directory could not be created (errno);
    /// nothing was resumed.
    int dir_errno = 0;
    SessionBlob session = SessionBlob::kAbsent;
    std::vector<ResumedLog> logs;

    [[nodiscard]] bool warm() const noexcept {
      return session == SessionBlob::kRestored;
    }
  };

  /// `make_pool` builds one detector pool (called once, or once per shard).
  /// An empty `checkpoint_dir` means nothing is resumed or written.
  TailSession(std::vector<std::string> paths, PoolFactory make_pool,
              std::size_t shards, std::size_t dispatchers,
              std::int64_t reorder_window_us, std::string checkpoint_dir);

  TailSession(const TailSession&) = delete;
  TailSession& operator=(const TailSession&) = delete;

  /// Call once, before the first poll (see the header comment).
  [[nodiscard]] ResumeReport resume();

  /// Flushes the merge heap, drains the shards, then writes the per-log
  /// checkpoints and the session file last. Returns the paths that could
  /// not be written (empty on success or without a checkpoint dir).
  [[nodiscard]] std::vector<std::string> persist();

  [[nodiscard]] MultiTailer& tailer() noexcept { return *tailer_; }

  /// Sequential mode's running results; nullptr when sharded (per-shard
  /// results merge only in finish()).
  [[nodiscard]] const core::JointResults* live_results() const noexcept {
    return engine_ ? &engine_->results() : nullptr;
  }

  /// The session's results. Sharded mode joins its threads here, so call
  /// it once, after the last poll.
  [[nodiscard]] core::JointResults finish();

  [[nodiscard]] const std::string& session_path() const noexcept {
    return session_path_;
  }

 private:
  /// (Re)creates the consumer and the tailer feeding it, cold.
  void build();
  /// Loads a session blob into the consumer; false on any layout error.
  [[nodiscard]] bool restore(const std::string& blob);

  std::vector<std::string> paths_;
  PoolFactory make_pool_;
  std::size_t shards_;
  std::size_t dispatchers_;
  MultiTailConfig tail_config_;
  std::string checkpoint_dir_;
  std::string session_path_;

  // Consumer before tailer: the tailer's sink points into it.
  std::vector<std::unique_ptr<detectors::Detector>> pool_;
  std::unique_ptr<ReplayEngine> engine_;
  BatchPool batches_;  ///< sequential mode's batch recycle loop
  std::unique_ptr<ShardedPipeline> sharded_;
  util::StringInterner ua_tokens_;  ///< sharded dispatch stamps here
  std::unique_ptr<MultiTailer> tailer_;
};

}  // namespace divscrape::pipeline
