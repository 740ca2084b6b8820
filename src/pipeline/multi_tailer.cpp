#include "pipeline/multi_tailer.hpp"

#include <algorithm>
#include <utility>

namespace divscrape::pipeline {

namespace {
/// Granularity of each file's decode batches. Not observable: the decoder
/// flushes at every feed() boundary and the records enter the merge one at
/// a time, in file order, so the sequence of enqueue() calls is the same
/// for any value. Kept small because the records are moved out at once —
/// a larger batch only grows the two slot arrays each file keeps alive.
constexpr std::size_t kDecodeBatchRecords = 64;
}  // namespace

MultiTailer::Input::Input(MultiTailer* owner, std::uint32_t index,
                          std::string file_path,
                          const TailConfig& tail_config)
    : decoder(
          [this, owner, index](RecordBatch&& batch) {
            for (auto& record : batch) owner->enqueue(index, std::move(record));
            pool.recycle(std::move(batch));
          },
          kDecodeBatchRecords, &pool),
      tailer(std::move(file_path), decoder, tail_config) {}

MultiTailer::MultiTailer(std::vector<std::string> paths, RecordSink sink,
                         Config config)
    : config_(config), sink_(std::move(sink)) {
  inputs_.reserve(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    inputs_.push_back(std::make_unique<Input>(
        this, static_cast<std::uint32_t>(i), std::move(paths[i]),
        config_.tail));
  }
}

MultiTailer::MultiTailer(std::vector<std::string> paths, BatchSink sink,
                         std::size_t batch_records, Config config,
                         BatchPool* pool)
    : config_(config),
      batch_sink_(std::move(sink)),
      batch_records_(batch_records == 0 ? 1 : batch_records),
      batch_pool_(pool) {
  inputs_.reserve(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    inputs_.push_back(std::make_unique<Input>(
        this, static_cast<std::uint32_t>(i), std::move(paths[i]),
        config_.tail));
  }
}

void MultiTailer::flush_out_batch() {
  if (out_batch_.empty()) return;
  RecordBatch full = std::move(out_batch_);
  out_batch_ = batch_pool_ ? batch_pool_->acquire() : RecordBatch{};
  batch_sink_(std::move(full));
}

void MultiTailer::enqueue(std::uint32_t file, httplog::LogRecord&& record) {
  Input& input = *inputs_[file];
  const MergeKey key{record.time.micros(), file, input.seq++};
  // Real access logs are time-ordered per file; tolerate a misordered
  // record by keeping the frontier monotone (max), so the watermark never
  // runs backwards.
  if (!input.has_frontier || input.frontier < key) {
    input.frontier = key;
    input.has_frontier = true;
  }
  heap_.push_back(Pending{key, std::move(record)});
  std::push_heap(heap_.begin(), heap_.end(), PendingAfter{});
  if (config_.max_buffered_records > 0 &&
      heap_.size() >= config_.max_buffered_records) {
    // Memory backstop mid-drain (a huge pre-existing backlog): release
    // what the watermark allows, then force the oldest out if the heap is
    // still at the cap — bounded memory beats exact cross-file order on
    // catch-up, and forced/late emissions stay accounted.
    emit_ready();
    while (heap_.size() >= config_.max_buffered_records) {
      ++forced_emits_;
      emit_top();
    }
  }
}

void MultiTailer::emit_top() {
  std::pop_heap(heap_.begin(), heap_.end(), PendingAfter{});
  Pending pending = std::move(heap_.back());
  heap_.pop_back();
  if (emitted_any_ && pending.key.time_us < last_emitted_us_) {
    ++late_records_;  // arrived below the emission front (see header)
  } else {
    last_emitted_us_ = pending.key.time_us;
  }
  emitted_any_ = true;
  if (batch_sink_) {
    // Copy-assign into a warm slot (arena contract) instead of moving —
    // a move would strip the slot's warm string buffers.
    out_batch_.append_slot() = pending.record;
    if (out_batch_.size() >= batch_records_) flush_out_batch();
    return;
  }
  sink_(std::move(pending.record));
}

void MultiTailer::emit_ready() {
  // Watermark: the minimum frontier over every file that has produced at
  // least one record. Anything at or below it cannot be preceded by
  // not-yet-decoded data (per-file monotonicity), so emitting is exact.
  bool have_watermark = false;
  MergeKey watermark;
  std::int64_t newest_frontier_us =
      std::numeric_limits<std::int64_t>::min();
  for (const auto& input : inputs_) {
    if (!input->has_frontier) continue;
    if (!have_watermark || input->frontier < watermark)
      watermark = input->frontier;
    have_watermark = true;
    newest_frontier_us = std::max(newest_frontier_us,
                                  input->frontier.time_us);
  }
  while (!heap_.empty()) {
    const MergeKey& top = heap_.front().key;
    if (have_watermark && top <= watermark) {
      emit_top();
      continue;
    }
    if (config_.reorder_window_us > 0 &&
        newest_frontier_us - top.time_us > config_.reorder_window_us) {
      // Bounded reorder window: a lagging file may not stall the stream
      // beyond the window. The laggard's eventual records emit late.
      ++forced_emits_;
      emit_top();
      continue;
    }
    break;
  }
}

std::size_t MultiTailer::poll() {
  std::size_t total = 0;
  for (auto& input : inputs_) total += input->tailer.poll();
  emit_ready();
  // Batch-mode invariant: released records never sit in a partial batch
  // across calls (alert latency + checkpoint coverage).
  if (batch_sink_) flush_out_batch();
  return total;
}

std::uint64_t MultiTailer::flush() {
  std::uint64_t emitted = 0;
  while (!heap_.empty()) {
    emit_top();
    ++emitted;
  }
  if (batch_sink_) flush_out_batch();
  return emitted;
}

bool MultiTailer::resume(std::size_t file, const Checkpoint& cp) {
  return inputs_.at(file)->tailer.resume(cp);
}

Checkpoint MultiTailer::checkpoint(std::size_t file) const {
  return inputs_.at(file)->tailer.checkpoint();
}

ReplayStats MultiTailer::stats() const {
  ReplayStats total;
  for (const auto& input : inputs_) {
    const ReplayStats& s = input->decoder.stats();
    total.lines += s.lines;
    total.parsed += s.parsed;
    total.skipped += s.skipped;
  }
  return total;
}

std::uint64_t MultiTailer::rotations() const noexcept {
  std::uint64_t total = 0;
  for (const auto& input : inputs_) total += input->tailer.rotations();
  return total;
}

std::uint64_t MultiTailer::truncations() const noexcept {
  std::uint64_t total = 0;
  for (const auto& input : inputs_) total += input->tailer.truncations();
  return total;
}

std::uint64_t MultiTailer::lost_incarnations() const noexcept {
  std::uint64_t total = 0;
  for (const auto& input : inputs_)
    total += input->tailer.lost_incarnations();
  return total;
}

std::uint64_t MultiTailer::read_errors() const noexcept {
  std::uint64_t total = 0;
  for (const auto& input : inputs_) total += input->tailer.read_errors();
  return total;
}

}  // namespace divscrape::pipeline
