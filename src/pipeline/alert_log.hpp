// Structured alert logging: the operational output of a deployment.
// Alerts are written as JSON Lines (one object per alerted request) so
// SOC tooling can tail, filter and aggregate them; a reader parses the
// format back for the round-trip tests and offline analysis.
#pragma once

#include <array>
#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <string>

#include "detectors/detector.hpp"
#include "httplog/record.hpp"

namespace divscrape::pipeline {

/// One emitted alert.
struct AlertEvent {
  std::string detector;
  httplog::Ipv4 ip;
  httplog::Timestamp time;
  std::string target;
  int status = 0;
  double score = 0.0;
  std::string reason;
};

/// Writes alerts as JSONL, one flat object per alert:
///
///   {"detector":"sentinel","ip":"45.140.0.17","time":"2018-03-12T10:30:00Z",
///    "time_us":1520850600000000,"target":"/offers/1","status":200,
///    "score":0.95,"reason":"ip-reputation"}
///
/// (on one line). The bytes are those core::JsonWriter produces for the same
/// members: strings escaped by core::json_escape, integers in decimal, the
/// score as printf("%.12g") in the "C" locale, and `null` for a NaN or
/// infinite score.
///
/// Each line is assembled in a reused buffer and handed to the stream in a
/// single write(); the writer holds no bytes between calls, so closing or
/// flushing the stream after the last write() loses nothing. Batching of the
/// underlying syscalls is left to the stream's own buffer.
class AlertLogWriter {
 public:
  /// Allocates nothing; the line buffer grows on the first write().
  explicit AlertLogWriter(std::ostream& os) : os_(&os) {}

  /// Emits one line if the verdict is an alert; no-op otherwise.
  /// Returns whether a line was written.
  bool write(std::string_view detector, const httplog::LogRecord& record,
             const detectors::Verdict& verdict);

  [[nodiscard]] std::uint64_t written() const noexcept { return written_; }

 private:
  void append_score(double score);

  std::ostream* os_;
  std::uint64_t written_ = 0;
  std::string line_;  ///< the line being built, reused across calls
  /// ISO-8601 text of the second `iso_second_` (floor of micros / 1e6).
  /// Keyed on the exact second, not on time growing: %t is not monotone.
  std::string iso_;
  std::int64_t iso_second_ = INT64_MIN;
  /// Score text by the score's bit pattern, direct-mapped: a detector emits
  /// few distinct scores. Only finite scores are looked up, so the +Inf
  /// pattern marks an empty slot.
  struct ScoreText {
    std::uint64_t bits = 0x7ff0000000000000;
    std::uint8_t size = 0;
    char text[23] = {};
  };
  std::array<ScoreText, 8> scores_{};
};

/// Parses the JSONL alert log back. The parser handles exactly the subset
/// of JSON the writer produces (flat objects, string/number members) and
/// skips malformed lines, mirroring LogReader's tolerance.
class AlertLogReader {
 public:
  explicit AlertLogReader(std::istream& in) : in_(&in) {}

  [[nodiscard]] bool next(AlertEvent& out);

  [[nodiscard]] std::uint64_t lines_read() const noexcept { return lines_; }
  [[nodiscard]] std::uint64_t lines_skipped() const noexcept {
    return skipped_;
  }

 private:
  std::istream* in_;
  std::string line_;
  std::uint64_t lines_ = 0;
  std::uint64_t skipped_ = 0;
};

/// Parses one alert-log line (exposed for tests).
[[nodiscard]] std::optional<AlertEvent> parse_alert_line(
    std::string_view line);

}  // namespace divscrape::pipeline
