// Tests of the benchmark's own measuring code:
//   - the latency decorator leaves JointResults byte-identical;
//   - the percentile estimator reports a percentile only with at least 10
//     samples beyond it;
//   - the fastest-segment composition takes each segment's fastest
//     repetition and reads latency percentiles off the composed timeline;
//   - failed-record accounting on a synthetic tailed stream holding a late,
//     a skipped and a duplicated record;
//   - the metric lists perfbench prints match BENCHMARK.json.
// Build and run from the repository root:
//   cmake -S perfbench -B .bench_build -DCMAKE_BUILD_TYPE=Release
//   cmake --build .bench_build --target perfbench_tests && .bench_build/perfbench_tests
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/joiner.hpp"
#include "corpus.hpp"
#include "measure.hpp"
#include "pipeline/multi_tailer.hpp"
#include "pipeline/replay.hpp"
#include "probes.hpp"
#include "util/interner.hpp"
#include "wl_common.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

std::string temp_dir() {
  const auto dir = std::filesystem::path(".bench_work") /
                   ("perfbench_tests_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  return dir.string();
}

void latency_probe_keeps_results_identical(const std::string& dir) {
  using namespace perfbench;
  const Corpus corpus = generate(catalog_spec("smoke", 1.0, 7), dir);
  std::vector<divscrape::httplog::LogRecord> records;
  merge_files(corpus.paths,
                    [&](divscrape::httplog::LogRecord& r) {
                      records.push_back(r);
                      return true;
                    });

  const auto run = [&](auto pool) {
    divscrape::core::AlertJoiner joiner(pool);
    divscrape::util::StringInterner tokens;
    std::uint64_t i = 0;
    for (auto r : records) {
      r.ua_token = tokens.intern(r.user_agent);
      r.actor_id = i++ % kSampleStride == 0 ? 1 : 0;  // what the harness stamps
      (void)joiner.process(r);
    }
    return results_blob(joiner.results());
  };
  std::vector<std::int64_t> due(1, now_ns());
  ProbedPools untimed(false, due), timed(true, due);
  const std::string plain = run(plain_pool());
  expect(!records.empty() && plain == run(untimed.make()),
         "latency probe leaves JointResults byte-identical (" +
             std::to_string(records.size()) + " records)");
  expect(plain == run(timed.make()),
         "latency probe + call timers leave JointResults byte-identical");
  expect(untimed.latency_ms().size() == (records.size() + kSampleStride - 1) / kSampleStride,
         "one latency sample per stamped record");
}

void percentile_needs_ten_beyond() {
  using perfbench::percentile;
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  // Nearest rank of p99 over 1000 samples is 990: 10 samples lie beyond it.
  expect(percentile(v, 99.0) == 990.0, "p99 of 1000 samples reported (10 beyond)");
  v.pop_back();
  expect(!percentile(v, 99.0).has_value(), "p99 of 999 samples refused (9 beyond)");
  std::vector<double> small = {3, 1, 2};
  expect(!percentile(small, 50.0).has_value(), "p50 of 3 samples refused");
  std::vector<double> twenty_one;
  for (int i = 0; i < 21; ++i) twenty_one.push_back(20 - i);
  expect(percentile(twenty_one, 50.0) == 10.0, "p50 of 21 samples reported");
}

void fastest_segments_take_each_segments_minimum() {
  using perfbench::ProgressMark;
  using perfbench::RepTimeline;
  // 1000 samples, a mark every 100: marks at samples 100..900, then the end.
  // Every segment takes 1 ms, except one slow 5 ms segment per repetition,
  // a different one in each; the marks are given out of order.
  const auto rep = [](std::size_t slow, std::size_t samples) {
    RepTimeline r;
    double t = 0.0;
    for (std::size_t b = 1; b <= 10; ++b) {
      t += b == slow ? 5.0 : 1.0;
      if (b < 10) r.marks.push_back(ProgressMark{t, 2.0 * t});
    }
    std::reverse(r.marks.begin(), r.marks.end());
    r.wall_ms = t;
    r.cpu_ms = 2.0 * t;
    r.samples = samples;
    return r;
  };
  const auto one = perfbench::fastest_segments({rep(4, 1000)}, 100);
  expect(one.wall_ms == 14.0 && one.cpu_ms == 28.0, "one repetition composes to itself");
  const auto two = perfbench::fastest_segments({rep(4, 1000), rep(8, 1000)}, 100);
  expect(two.wall_ms == 10.0 && two.cpu_ms == 20.0,
         "each segment takes its fastest repetition (wall and CPU)");
  expect(two.p50_ms == 5.0, "p50 read off the composed timeline at rank 500");
  expect(two.p99_ms.has_value() && std::abs(*two.p99_ms - 9.9) < 1e-9,
         "p99 interpolated between the last mark and the end");
  const auto short_rep = perfbench::fastest_segments({rep(4, 1000), rep(8, 995)}, 100);
  expect(!short_rep.p99_ms.has_value(),
         "p99 refused when the shortest repetition has 9 samples beyond it");
}

void append_line(const std::string& path, const std::string& line) {
  std::ofstream(path, std::ios::app) << line << "\n";
}

std::string clf(const char* ip, int second) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%s - - [11/Mar/2018:00:00:%02d +0000] \"GET /a HTTP/1.1\" 200 10 \"-\" "
                "\"Mozilla/5.0\"",
                ip, second);
  return buf;
}

void error_share_accounting(const std::string& dir) {
  using namespace perfbench;
  const std::vector<std::string> paths = {dir + "/a.log", dir + "/b.log"};
  for (const auto& p : paths) std::remove(p.c_str());
  // File a: three records, a garbage line, and its last record written twice
  // (a duplicate). File b: one record older than everything a emitted, so
  // it merges late.
  append_line(paths[0], clf("10.0.0.1", 10));
  append_line(paths[0], clf("10.0.0.1", 11));
  append_line(paths[0], clf("10.0.0.1", 12));
  append_line(paths[0], "this is not a log line");
  append_line(paths[0], clf("10.0.0.1", 12));
  const std::uint64_t attempted = 5;  // distinct lines the benchmark "wrote"

  auto pool = plain_pool();
  divscrape::pipeline::ReplayEngine engine(pool);
  divscrape::pipeline::MultiTailer tailer(
      paths, [&](divscrape::httplog::LogRecord&& r) { engine.process_record(std::move(r)); });
  while (tailer.poll() != 0) {
  }
  append_line(paths[1], clf("10.0.0.2", 5));
  while (tailer.poll() != 0) {
  }
  (void)tailer.flush();

  const std::uint64_t ingested = engine.results().total_requests();
  const std::uint64_t skipped = tailer.stats().skipped;
  const std::uint64_t late = tailer.late_records();
  expect(ingested == 5 && skipped == 1 && late == 1,
         "synthetic stream: 5 ingested, 1 skipped, 1 late (got " +
             std::to_string(ingested) + ", " + std::to_string(skipped) + ", " +
             std::to_string(late) + ")");
  const std::uint64_t failed = failed_records(attempted, ingested, skipped, late);
  expect(failed == 3, "late, skipped and duplicated records each fail once (got " +
                          std::to_string(failed) + ")");
  expect(ok_share(attempted, failed) == 1.0 - 3.0 / 5.0, "ok_share = 1 - error_share");
  expect(failed_records(10, 10, 0, 0) == 0, "a clean stream fails nothing");
  expect(failed_records(10, 0, 0, 0) == 10, "a lost stream fails every record");
  expect(failed_records(4, 9, 0, 3) == 4, "failures are capped at the attempted count");
}

/// Every metric perfbench prints is declared in BENCHMARK.json with the
/// same unit, in the same section, and nothing else is declared there.
void metric_lists_match_benchmark_json() {
  std::ifstream in("BENCHMARK.json");
  const std::string json((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const auto per_layer_at = json.find("\"per_layer\"");
  expect(!json.empty() && per_layer_at != std::string::npos,
         "BENCHMARK.json readable from the repository root");
  std::size_t declared = 0;
  for (std::size_t at = json.find("\"unit\""); at != std::string::npos;
       at = json.find("\"unit\"", at + 1)) {
    ++declared;
  }
  const auto check = [&](const std::vector<perfbench::MetricSpec>& list, bool per_layer) {
    for (const auto& m : list) {
      const std::string entry = std::string("{\"name\": \"") + m.name +
                                "\", \"unit\": \"" + m.unit + "\"";
      const auto at = json.find(entry);
      expect(at != std::string::npos && (at > per_layer_at) == per_layer,
             std::string("BENCHMARK.json declares ") + m.name + " [" + m.unit + "]");
    }
  };
  check(perfbench::end_to_end_metrics(), false);
  check(perfbench::per_layer_metrics(), true);
  expect(declared == perfbench::end_to_end_metrics().size() +
                         perfbench::per_layer_metrics().size(),
         "BENCHMARK.json declares no metric perfbench does not print");
}

}  // namespace

int main() {
  const std::string dir = temp_dir();
  latency_probe_keeps_results_identical(dir);
  percentile_needs_ten_beyond();
  fastest_segments_take_each_segments_minimum();
  error_share_accounting(dir);
  metric_lists_match_benchmark_json();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::printf("%s (%d failed)\n", g_failures == 0 ? "ALL PASS" : "FAILURES", g_failures);
  return g_failures == 0 ? 0 : 1;
}
