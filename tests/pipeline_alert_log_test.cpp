// JSONL alert-log round-trip tests.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "pipeline/alert_log.hpp"

namespace {

using divscrape::detectors::AlertReason;
using divscrape::detectors::Verdict;
using divscrape::httplog::Ipv4;
using divscrape::httplog::LogRecord;
using divscrape::httplog::Timestamp;
using divscrape::pipeline::AlertEvent;
using divscrape::pipeline::AlertLogReader;
using divscrape::pipeline::AlertLogWriter;
using divscrape::pipeline::parse_alert_line;

LogRecord sample_record() {
  LogRecord r;
  r.ip = Ipv4(45, 140, 0, 17);
  r.time = Timestamp::from_civil(2018, 3, 12, 10, 30, 0);
  r.target = "/offers/123?x=\"quoted\"";
  r.status = 200;
  return r;
}

TEST(AlertLog, NonAlertsAreSkipped) {
  std::ostringstream os;
  AlertLogWriter writer(os);
  EXPECT_FALSE(writer.write("sentinel", sample_record(),
                            {false, 0.3, AlertReason::kNone}));
  EXPECT_EQ(writer.written(), 0u);
  EXPECT_TRUE(os.str().empty());
}

TEST(AlertLog, WriteParseRoundTrip) {
  std::ostringstream os;
  AlertLogWriter writer(os);
  const auto record = sample_record();
  ASSERT_TRUE(writer.write("sentinel", record,
                           {true, 0.95, AlertReason::kIpReputation}));
  const auto event = parse_alert_line(os.str());
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->detector, "sentinel");
  EXPECT_EQ(event->ip, record.ip);
  EXPECT_EQ(event->time, record.time);
  EXPECT_EQ(event->target, record.target);
  EXPECT_EQ(event->status, 200);
  EXPECT_NEAR(event->score, 0.95, 1e-9);
  EXPECT_EQ(event->reason, "ip-reputation");
}

TEST(AlertLog, ReaderStreamsManyEvents) {
  std::ostringstream os;
  AlertLogWriter writer(os);
  for (int i = 0; i < 25; ++i) {
    auto record = sample_record();
    record.time = record.time + i * 1'000'000;
    record.status = i % 2 == 0 ? 200 : 302;
    writer.write(i % 2 == 0 ? "sentinel" : "arcane", record,
                 {true, 1.0, AlertReason::kRateLimit});
  }
  std::istringstream in(os.str());
  AlertLogReader reader(in);
  AlertEvent event;
  int count = 0;
  int sentinel_events = 0;
  while (reader.next(event)) {
    ++count;
    sentinel_events += event.detector == "sentinel";
  }
  EXPECT_EQ(count, 25);
  EXPECT_EQ(sentinel_events, 13);
  EXPECT_EQ(reader.lines_skipped(), 0u);
}

TEST(AlertLog, ReaderSkipsGarbage) {
  std::istringstream in(
      "not json\n"
      "{\"detector\":\"x\"}\n"  // missing members
      "{\"detector\":\"sentinel\",\"ip\":\"1.2.3.4\",\"time\":\"t\","
      "\"time_us\":123,\"target\":\"/a\",\"status\":200,\"score\":0.5,"
      "\"reason\":\"trap\"}\n");
  AlertLogReader reader(in);
  AlertEvent event;
  int count = 0;
  while (reader.next(event)) ++count;
  EXPECT_EQ(count, 1);
  EXPECT_EQ(reader.lines_skipped(), 2u);
}

// The reader inverts the writer for every byte json_escape touches: the
// short escapes (\b \f \n \r \t \" \\), \u00XX for the other control
// bytes, and the raw bytes 0x7f..0xff.
TEST(AlertLog, EscapedBytesRoundTrip) {
  std::string all;
  for (int c = 0x01; c <= 0x1f; ++c) all += static_cast<char>(c);
  for (int c = 0x7f; c <= 0xff; ++c) all += static_cast<char>(c);
  const std::string short_escapes("/a\x01" "b\bc\fd\\e\"f");
  ASSERT_EQ(short_escapes.size(), 12u);
  for (const std::string& target : {short_escapes, "/" + all + "\"\\"}) {
    std::ostringstream os;
    AlertLogWriter writer(os);
    auto record = sample_record();
    record.target = target;
    ASSERT_TRUE(writer.write("d" + all, record,
                             {true, 0.5, AlertReason::kTrap}));
    const auto event = parse_alert_line(os.str());
    ASSERT_TRUE(event.has_value()) << os.str();
    EXPECT_EQ(event->target, target);
    EXPECT_EQ(event->detector, "d" + all);
    EXPECT_EQ(event->reason, "trap");
  }
}

TEST(AlertLog, UnicodeEscapesDecodeAndForeignEscapesReject) {
  const std::string head =
      "{\"detector\":\"d\",\"ip\":\"1.2.3.4\",\"time_us\":1,\"status\":200,"
      "\"score\":null,\"reason\":\"r\",\"target\":\"";
  const auto event = parse_alert_line(head + "\\u0041\\u007f\\/\"}");
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->target, "A\x7f/");
  EXPECT_EQ(event->score, 0.0);  // a non-finite score is written as null
  // json_escape writes \u only for control bytes; a wider code point, like
  // a malformed escape, is not this writer's output.
  EXPECT_FALSE(parse_alert_line(head + "\\u00e9\"}").has_value());
  EXPECT_FALSE(parse_alert_line(head + "\\x41\"}").has_value());
  EXPECT_FALSE(parse_alert_line(head + "\\u00g1\"}").has_value());
  EXPECT_FALSE(parse_alert_line(head + "\\u00").has_value());
  EXPECT_FALSE(parse_alert_line(head + "unterminated").has_value());
}

TEST(AlertLog, BadIpRejected) {
  EXPECT_FALSE(parse_alert_line(
                   "{\"detector\":\"d\",\"ip\":\"999.1.1.1\",\"time_us\":1,"
                   "\"target\":\"/\",\"status\":200,\"score\":1,"
                   "\"reason\":\"r\"}")
                   .has_value());
}

}  // namespace
