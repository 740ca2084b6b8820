// Benchmark inputs: a catalog scenario generated through WorkloadEngine and
// written as one CLF log per vhost, plus the reference replays the output
// checks compare against. The system under test only ever sees the bytes
// of these files.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "httplog/record.hpp"
#include "workload/scenario_spec.hpp"

namespace perfbench {

/// One generated line: its generator timestamp (µs; the log keeps only
/// whole seconds), its vhost file and its length including the newline.
struct Line {
  std::int64_t time_us;
  std::uint32_t vhost;
  std::uint32_t len;
};

struct Corpus {
  std::vector<std::string> paths;     ///< per-vhost CLF files, vhost order
  std::vector<std::uint64_t> bytes;   ///< size of each file
  std::vector<Line> lines;            ///< generator order (time order)
  std::int64_t start_us = 0;          ///< scenario start
  std::int64_t end_us = 0;            ///< scenario end
  double gen_s = 0.0;                 ///< wall time of generate()

  /// Per-file byte offset of the first line stamped at or after `t_us`.
  [[nodiscard]] std::vector<std::uint64_t> offsets_before(std::int64_t t_us) const;
  /// Lines stamped before `t_us`.
  [[nodiscard]] std::uint64_t lines_before(std::int64_t t_us) const;
};

/// The catalog entry `name` at `scale`, re-seeded with `seed`.
[[nodiscard]] divscrape::workload::ScenarioSpec catalog_spec(const char* name,
                                                             double scale,
                                                             std::uint64_t seed);

/// Generates `spec` and writes `<dir>/src_v<i>.log` per vhost. With
/// `stop_us` > 0, generation stops at the first record stamped at or after
/// it (that record is not written).
[[nodiscard]] Corpus generate(divscrape::workload::ScenarioSpec spec,
                              const std::string& dir, std::int64_t stop_us = 0);

/// Appends bytes [begin, end) of file `from` to file `to` (created if
/// missing). Returns false on I/O error.
[[nodiscard]] bool append_bytes(const std::string& from, std::uint64_t begin,
                                std::uint64_t end, const std::string& to);

/// The time-ordered reference stream: the records of `paths` merged by
/// (timestamp, file index), each file read in file order — the merge key
/// MultiTailer documents as its contract. Calls `sink` per record until it
/// returns false; unparseable lines are skipped.
using RecordSink = std::function<bool(divscrape::httplog::LogRecord&)>;
void merge_files(const std::vector<std::string>& paths, const RecordSink& sink);

}  // namespace perfbench
