// Differential fuzz for the alert-log fast path: AlertLogWriter (one reused
// line buffer, to_chars numbers, per-second ISO-8601 memo, escape-free fast
// lane) must emit exactly the bytes of reference_write() below — the
// JsonWriter-based writer it replaced, kept here as the oracle. Random
// alerts cover every byte value in detector names and targets, non-finite,
// subnormal, signed and huge scores, every AlertReason, and times before
// 1970 that step backward within a second and across seconds (the memo is
// keyed on the exact second, never on time growing). A second case runs the
// smoke catalog stream through the paper pair. CI also runs it under
// ASan/UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/json.hpp"
#include "detectors/registry.hpp"
#include "httplog/record.hpp"
#include "pipeline/alert_log.hpp"
#include "stats/rng.hpp"
#include "workload/catalog.hpp"
#include "workload/engine.hpp"

namespace {

using divscrape::detectors::AlertReason;
using divscrape::detectors::Verdict;
using divscrape::httplog::Ipv4;
using divscrape::httplog::LogRecord;
using divscrape::httplog::Timestamp;
using divscrape::pipeline::AlertLogWriter;
using divscrape::stats::Rng;

/// The alert line as core::JsonWriter writes it: the writer's original
/// body, and the definition of the format.
bool reference_write(std::ostream& os, std::string_view detector,
                     const LogRecord& record, const Verdict& verdict) {
  if (!verdict.alert) return false;
  divscrape::core::JsonWriter json(os);
  json.begin_object();
  json.key("detector").value(detector);
  json.key("ip").value(record.ip.to_string());
  json.key("time").value(record.time.to_iso8601());
  json.key("time_us").value(record.time.micros());
  json.key("target").value(record.target);
  json.key("status").value(record.status);
  json.key("score").value(verdict.score);
  json.key("reason").value(to_string(verdict.reason));
  json.end_object();
  os << '\n';
  return true;
}

/// Feeds alerts to the fast writer and the reference side by side and
/// compares their output every `kChunk` calls, naming the first line that
/// differs.
class Differential {
 public:
  void write(std::string_view detector, const LogRecord& record,
             const Verdict& verdict) {
    const bool fast_wrote = fast_.write(detector, record, verdict);
    const bool ref_wrote = reference_write(ref_os_, detector, record, verdict);
    ASSERT_EQ(fast_wrote, ref_wrote);
    reference_written_ += ref_wrote;
    if (++calls_ % kChunk == 0) compare();
  }

  /// Compares what is pending; returns the number of lines both wrote.
  std::uint64_t finish() {
    compare();
    EXPECT_EQ(fast_.written(), reference_written_);
    return reference_written_;
  }

 private:
  static constexpr std::uint64_t kChunk = 4096;

  void compare() {
    const std::string fast = fast_os_.str();
    const std::string ref = ref_os_.str();
    if (fast != ref) {
      std::size_t at = 0;
      while (at < fast.size() && at < ref.size() && fast[at] == ref[at]) ++at;
      const std::size_t newline = at == 0 ? std::string::npos
                                          : ref.rfind('\n', at - 1);
      const std::size_t line_start =
          newline == std::string::npos ? 0 : newline + 1;
      ADD_FAILURE() << "first difference at byte " << at << "\n  fast: "
                    << fast.substr(line_start, fast.find('\n', at) - line_start)
                    << "\n  ref:  "
                    << ref.substr(line_start, ref.find('\n', at) - line_start);
    }
    fast_os_.str({});
    ref_os_.str({});
  }

  std::ostringstream fast_os_;
  std::ostringstream ref_os_;
  AlertLogWriter fast_{fast_os_};
  std::uint64_t calls_ = 0;
  std::uint64_t reference_written_ = 0;
};

// Refills `out` with up to `max_len` bytes: mostly path characters, with
// quotes, backslashes and arbitrary bytes (controls and high bytes) mixed in.
void random_bytes(Rng& rng, std::size_t max_len, std::string& out) {
  static constexpr char kPathChars[] =
      "abcdefghijklmnopqrstuvwxyz0123456789/?&=.-_%+";
  out.resize(rng() % (max_len + 1));
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i % 4 == 0) bits = rng();
    const auto pick = static_cast<unsigned>(bits & 0xff);
    const auto byte = static_cast<unsigned>((bits >> 8) & 0xff);
    bits >>= 16;
    if (pick < 160) {
      out[i] = kPathChars[byte % (sizeof kPathChars - 1)];
    } else if (pick < 190) {
      out[i] = byte & 1 ? '"' : '\\';
    } else {
      out[i] = static_cast<char>(byte);
    }
  }
}

double random_score(Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Scores a detector repeats: the writer's score memo hits and evicts.
  static constexpr double kRepeated[] = {1.0, 0.85, 0.9, 0.95, 0.75, 0.6,
                                         0.1 + 0.2, 1.0 / 3.0, -0.0, 1e-7};
  switch (rng.uniform_int(0, 12)) {
    case 0: return std::numeric_limits<double>::quiet_NaN();
    case 1: return rng.bernoulli(0.5) ? kInf : -kInf;
    case 2:  // subnormal
      return std::numeric_limits<double>::denorm_min() *
             static_cast<double>(rng.uniform_int(1, 1'000'000));
    case 3: return -rng.uniform(0.0, 1000.0);
    case 4: return rng.uniform(1.0, 10.0) * 1e100;
    case 5: return rng.uniform(1.0, 10.0) * 1e-100;
    case 6: return rng.bernoulli(0.5) ? 0.0 : -0.0;
    case 7: return static_cast<double>(rng.uniform_int(-100'000, 100'000));
    case 8: {  // any finite bit pattern
      double d = 0.0;
      do {
        const std::uint64_t bits = rng();
        std::memcpy(&d, &bits, sizeof d);
      } while (!std::isfinite(d));
      return d;
    }
    case 9: return rng.uniform(0.0, 1.0) * 1e12;  // around the %.12g cutover
    case 10: return kRepeated[rng.uniform_int(0, std::size(kRepeated) - 1)];
    default: return rng.uniform();
  }
}

// Years 1..9999, so times before 1970 are common.
constexpr std::int64_t kMinMicros = -62'135'596'800'000'000;
constexpr std::int64_t kMaxMicros = 253'402'300'799'000'000;

std::int64_t next_time(Rng& rng, std::int64_t prev) {
  std::int64_t t = prev;
  switch (rng.uniform_int(0, 9)) {
    case 0: t = rng.uniform_int(kMinMicros, kMaxMicros); break;
    case 1: t -= rng.uniform_int(1'000'000, 100'000'000); break;  // back seconds
    case 2: t = t - t % 1'000'000 + (rng.bernoulli(0.5) ? 0 : -1); break;
    case 3: t -= rng.uniform_int(0, 999'999); break;  // back, maybe same second
    default: t += rng.uniform_int(0, 1'500'000); break;
  }
  return std::clamp(t, kMinMicros, kMaxMicros);
}

TEST(AlertLogFuzz, RandomAlertsMatchReference) {
  Rng rng(0xa1e27109);
  Differential diff;
  LogRecord record;
  std::int64_t time = 1'520'800'000'000'000;
  // Sized so the ASan/UBSan job runs it in seconds; the reference writer
  // is the slow half.
  constexpr int kAlerts = 1 << 18;
  std::string detector;
  for (int i = 0; i < kAlerts; ++i) {
    if (i < 256) {
      // Every byte value, in the detector name and the target.
      detector = std::string("d") + static_cast<char>(255 - i);
      record.target = "/a" + std::string(1, static_cast<char>(i)) + "b";
    } else {
      if (rng.bernoulli(0.8)) {
        detector = rng.bernoulli(0.5) ? "sentinel" : "arcane";
      } else {
        random_bytes(rng, 12, detector);
      }
      random_bytes(rng, 48, record.target);
    }
    record.ip = Ipv4(static_cast<std::uint32_t>(rng()));
    time = next_time(rng, time);
    record.time = Timestamp(time);
    record.status = rng.bernoulli(0.95)
                        ? static_cast<int>(rng.uniform_int(-999, 999))
                        : (rng.bernoulli(0.5) ? std::numeric_limits<int>::min()
                                              : std::numeric_limits<int>::max());
    Verdict verdict;
    verdict.alert = rng.bernoulli(0.8);
    verdict.score = random_score(rng);
    verdict.reason = static_cast<AlertReason>(rng.uniform_int(0, 12));
    diff.write(detector, record, verdict);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(diff.finish(), kAlerts / 2u);
}

TEST(AlertLogFuzz, SmokeStreamThroughPaperPairMatchesReference) {
  const auto records = divscrape::workload::generate(
      *divscrape::workload::catalog_entry("smoke"));
  ASSERT_FALSE(records.empty());
  auto pool = divscrape::detectors::make_paper_pair();
  Differential diff;
  for (const auto& record : records) {
    for (auto& detector : pool) {
      diff.write(detector->name(), record, detector->evaluate(record));
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(diff.finish(), 0u);
}

}  // namespace
