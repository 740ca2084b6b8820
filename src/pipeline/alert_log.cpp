#include "pipeline/alert_log.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>

#include "core/json.hpp"
#include "httplog/ip.hpp"
#include "httplog/timestamp.hpp"

namespace divscrape::pipeline {

namespace {

// Appends `text` JSON-escaped. Clean runs go in raw; each byte that needs an
// escape (`"`, `\`, below 0x20) goes through core::json_escape, so the
// escaping rules live in one place.
void append_escaped(std::string& out, std::string_view text) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text, run, i - run);
    out += core::json_escape(text.substr(i, 1));
    run = i + 1;
  }
  out.append(text, run, std::string_view::npos);
}

template <typename Int>
void append_int(std::string& out, Int value) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, res.ptr);
}

void append_ip(std::string& out, httplog::Ipv4 ip) {
  const std::uint32_t v = ip.value();
  for (int shift = 24; shift >= 0; shift -= 8) {
    append_int(out, (v >> shift) & 0xffu);
    if (shift != 0) out += '.';
  }
}

}  // namespace

void AlertLogWriter::append_score(double score) {
  if (!std::isfinite(score)) {
    line_ += "null";  // JSON has no NaN/Inf
    return;
  }
  std::uint64_t bits = 0;
  std::memcpy(&bits, &score, sizeof bits);
  ScoreText& slot = scores_[(bits * 0x9e3779b97f4a7c15) >> 61];
  if (slot.bits != bits) {
    // Precision 12 in general format is printf("%.12g") in the "C" locale.
    const auto res = std::to_chars(slot.text, slot.text + sizeof slot.text,
                                   score, std::chars_format::general, 12);
    slot.size = static_cast<std::uint8_t>(res.ptr - slot.text);
    slot.bits = bits;
  }
  line_.append(slot.text, slot.size);
}

bool AlertLogWriter::write(std::string_view detector,
                           const httplog::LogRecord& record,
                           const detectors::Verdict& verdict) {
  if (!verdict.alert) return false;
  const std::int64_t micros = record.time.micros();
  const std::int64_t second =
      micros / 1'000'000 - (micros % 1'000'000 < 0 ? 1 : 0);
  if (second != iso_second_) {
    iso_ = record.time.to_iso8601();
    iso_second_ = second;
  }
  line_.clear();
  line_ += "{\"detector\":\"";
  append_escaped(line_, detector);
  line_ += "\",\"ip\":\"";
  append_ip(line_, record.ip);
  line_ += "\",\"time\":\"";
  line_ += iso_;
  line_ += "\",\"time_us\":";
  append_int(line_, micros);
  line_ += ",\"target\":\"";
  append_escaped(line_, record.target);
  line_ += "\",\"status\":";
  append_int(line_, record.status);
  line_ += ",\"score\":";
  append_score(verdict.score);
  line_ += ",\"reason\":\"";
  append_escaped(line_, to_string(verdict.reason));
  line_ += "\"}\n";
  os_->write(line_.data(), static_cast<std::streamsize>(line_.size()));
  ++written_;
  return true;
}

namespace {

int hex_digit(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// Decodes the JSON string body starting at line[i] (just past the opening
// quote) into `out`, undoing every escape core::json_escape emits, plus `\/`.
// Returns the index past the closing quote, or npos when the string is
// unterminated or holds an escape the writer cannot produce (a malformed
// one, or `\u` above 0x7f).
std::size_t decode_string(std::string_view line, std::size_t i,
                          std::string& out) {
  out.clear();
  while (i < line.size()) {
    const char c = line[i];
    if (c == '"') return i + 1;
    if (c != '\\') {
      out += c;
      ++i;
      continue;
    }
    if (i + 1 >= line.size()) return std::string_view::npos;
    switch (line[i + 1]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (i + 6 > line.size()) return std::string_view::npos;
        unsigned cp = 0;
        for (std::size_t k = i + 2; k < i + 6; ++k) {
          const int digit = hex_digit(line[k]);
          if (digit < 0) return std::string_view::npos;
          cp = cp * 16 + static_cast<unsigned>(digit);
        }
        if (cp > 0x7f) return std::string_view::npos;
        out += static_cast<char>(cp);
        i += 6;
        continue;
      }
      default: return std::string_view::npos;
    }
    i += 2;
  }
  return std::string_view::npos;
}

template <typename Number>
bool parse_number(std::string_view text, Number& out) {
  return std::from_chars(text.data(), text.data() + text.size(), out).ec ==
         std::errc{};
}

}  // namespace

std::optional<AlertEvent> parse_alert_line(std::string_view line) {
  if (line.empty() || line.front() != '{') return std::nullopt;
  enum : unsigned {
    kDetector = 1u << 0,
    kIp = 1u << 1,
    kTimeUs = 1u << 2,
    kTarget = 1u << 3,
    kStatus = 1u << 4,
    kScore = 1u << 5,
    kReason = 1u << 6,
    kAll = (1u << 7) - 1,
  };
  AlertEvent event;
  unsigned seen = 0;
  std::string text;  // the decoded current string value
  constexpr auto npos = std::string_view::npos;

  // One pass over the flat object's members: `"key":` then a string or a
  // bare token (number / true / false / null).
  std::size_t i = line.find('"', 1);
  while (i != npos) {
    const std::size_t key_end = line.find('"', i + 1);
    if (key_end == npos || key_end + 2 >= line.size() ||
        line[key_end + 1] != ':')
      return std::nullopt;
    const std::string_view key = line.substr(i + 1, key_end - i - 1);
    i = key_end + 2;
    std::string_view value;
    if (line[i] == '"') {
      i = decode_string(line, i + 1, text);
      if (i == npos) return std::nullopt;
      value = text;
    } else {
      const std::size_t end = std::min(line.find_first_of(",}", i), line.size());
      value = line.substr(i, end - i);
      i = end;
    }

    if (key == "detector") {
      event.detector.assign(value);
      seen |= kDetector;
    } else if (key == "ip") {
      const auto ip = httplog::parse_ipv4(value);
      if (!ip) return std::nullopt;
      event.ip = *ip;
      seen |= kIp;
    } else if (key == "time_us") {
      std::int64_t micros = 0;
      if (!parse_number(value, micros)) return std::nullopt;
      event.time = httplog::Timestamp(micros);
      seen |= kTimeUs;
    } else if (key == "target") {
      event.target.assign(value);
      seen |= kTarget;
    } else if (key == "status") {
      if (!parse_number(value, event.status)) return std::nullopt;
      seen |= kStatus;
    } else if (key == "score") {
      // `null` (a non-finite score) reads back as 0, as atof would give.
      if (!parse_number(value, event.score)) event.score = 0.0;
      seen |= kScore;
    } else if (key == "reason") {
      event.reason.assign(value);
      seen |= kReason;
    }
    i = line.find('"', i);
  }
  if (seen != kAll) return std::nullopt;
  return event;
}

bool AlertLogReader::next(AlertEvent& out) {
  while (std::getline(*in_, line_)) {
    ++lines_;
    auto event = parse_alert_line(line_);
    if (event) {
      out = std::move(*event);
      return true;
    }
    ++skipped_;
  }
  return false;
}

}  // namespace divscrape::pipeline
