#include "measure.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

namespace perfbench {
namespace {

double cpu_seconds(int who) {
  rusage ru{};
  if (::getrusage(who, &ru) != 0) return 0.0;
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Reads a "Key:   <n> kB" line of /proc/self/status, in MiB.
double status_mb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

double process_cpu_s() { return cpu_seconds(RUSAGE_SELF); }
double thread_cpu_s() { return cpu_seconds(RUSAGE_THREAD); }
double rss_mb() { return status_mb("VmRSS"); }
double peak_rss_mb() { return status_mb("VmHWM"); }

void reset_peak_rss() {
  ::malloc_trim(0);
  // "5" resets the peak RSS (VmHWM) to the current RSS (Linux >= 4.0).
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::optional<double> percentile(std::vector<double> samples, double p) {
  const std::size_t n = samples.size();
  if (n == 0 || p <= 0.0 || p >= 100.0) return std::nullopt;
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < 10) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const auto mid = samples.begin() + static_cast<std::ptrdiff_t>(samples.size() / 2);
  std::nth_element(samples.begin(), mid, samples.end());
  return *mid;
}

Composed fastest_segments(std::vector<RepTimeline> reps, std::size_t mark_every) {
  Composed out;
  if (reps.empty() || mark_every == 0) return out;
  std::size_t marks = reps.front().marks.size();
  std::size_t samples = reps.front().samples;
  for (auto& rep : reps) {
    std::sort(rep.marks.begin(), rep.marks.end(),
              [](const ProgressMark& a, const ProgressMark& b) { return a.wall_ms < b.wall_ms; });
    marks = std::min(marks, rep.marks.size());
    samples = std::min(samples, rep.samples);
  }
  marks = std::min(marks, samples / mark_every);
  // Boundary b: 0 is the start, 1..marks the marks, marks + 1 the end.
  const auto at = [&](const RepTimeline& rep, std::size_t b) {
    if (b == 0) return ProgressMark{};
    if (b > marks) return ProgressMark{rep.wall_ms, rep.cpu_ms};
    return rep.marks[b - 1];
  };
  std::vector<double> prefix(marks + 2, 0.0);
  for (std::size_t b = 1; b <= marks + 1; ++b) {
    double wall = HUGE_VAL;
    double cpu = HUGE_VAL;
    for (const auto& rep : reps) {
      const ProgressMark from = at(rep, b - 1);
      const ProgressMark to = at(rep, b);
      wall = std::min(wall, to.wall_ms - from.wall_ms);
      cpu = std::min(cpu, to.cpu_ms - from.cpu_ms);
    }
    prefix[b] = prefix[b - 1] + wall;
    out.cpu_ms += cpu;
  }
  out.wall_ms = prefix.back();
  const auto at_rank = [&](double p) -> std::optional<double> {
    if (samples == 0) return std::nullopt;
    auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(samples)));
    rank = std::clamp<std::size_t>(rank, 1, samples);
    if (samples - rank < 10) return std::nullopt;
    const std::size_t b = std::min(rank / mark_every, marks);
    const std::size_t lo = b * mark_every;
    const std::size_t hi = b < marks ? lo + mark_every : samples;
    const double frac =
        hi > lo ? static_cast<double>(rank - lo) / static_cast<double>(hi - lo) : 0.0;
    return prefix[b] + frac * (prefix[b + 1] - prefix[b]);
  };
  out.p50_ms = at_rank(50.0);
  out.p99_ms = at_rank(99.0);
  return out;
}

void Trace::aggregate(const char* name, int parent, std::uint64_t calls,
                      std::int64_t ns) {
  if (!enabled_) return;
  for (auto& a : aggregates_) {
    if (a.parent == parent && std::string_view(a.name) == name) {
      a.calls += calls;
      a.ns += ns;
      return;
    }
  }
  aggregates_.push_back(Aggregate{name, parent, calls, ns});
}

std::vector<std::int64_t> Trace::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const auto& s : spans_) {
    if (s.parent != kNone) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  for (const auto& a : aggregates_) {
    if (a.parent != kNone) self[static_cast<std::size_t>(a.parent)] -= a.ns;
  }
  return self;
}

std::int64_t Trace::subtree_self_sum_ns(int root) const {
  // Spans are recorded in open order, so a descendant always follows its
  // ancestor: one forward pass marks the subtree.
  std::vector<char> in(spans_.size(), 0);
  in[static_cast<std::size_t>(root)] = 1;
  for (std::size_t i = static_cast<std::size_t>(root) + 1; i < spans_.size(); ++i) {
    const int p = spans_[i].parent;
    if (p != kNone && in[static_cast<std::size_t>(p)]) in[i] = 1;
  }
  const auto self = self_ns();
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (in[i]) sum += self[i];
  }
  for (const auto& a : aggregates_) {
    if (a.parent != kNone && in[static_cast<std::size_t>(a.parent)]) sum += a.ns;
  }
  return sum;
}

std::int64_t Trace::total_ns(const char* name) const {
  std::int64_t t = 0;
  for (const auto& s : spans_) {
    if (std::string_view(s.name) == name) t += s.end_ns - s.start_ns;
  }
  for (const auto& a : aggregates_) {
    if (std::string_view(a.name) == name) t += a.ns;
  }
  return t;
}

std::int64_t Trace::total_self_ns(const char* name) const {
  const auto self = self_ns();
  std::int64_t t = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (std::string_view(spans_[i].name) == name) t += self[i];
  }
  return t;
}

std::uint64_t Trace::count(const char* name) const {
  std::uint64_t c = 0;
  for (const auto& s : spans_) {
    if (std::string_view(s.name) == name) ++c;
  }
  for (const auto& a : aggregates_) {
    if (std::string_view(a.name) == name) c += a.calls;
  }
  return c;
}

bool Trace::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "kind,name,start_ns_or_calls,end_ns_or_ns,parent\n");
  for (const auto& s : spans_) {
    std::fprintf(f, "span,%s,%lld,%lld,%d\n", s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent);
  }
  for (const auto& a : aggregates_) {
    std::fprintf(f, "aggregate,%s,%llu,%lld,%d\n", a.name,
                 static_cast<unsigned long long>(a.calls),
                 static_cast<long long>(a.ns), a.parent);
  }
  return std::fclose(f) == 0;
}

void Report::metric(std::string name, double value, std::string unit,
                    std::size_t samples, std::string note) {
  metrics_.push_back(Metric{std::move(name), value, std::move(unit), samples,
                            std::move(note)});
}

void Report::check(const std::string& what, bool ok) {
  lines_.push_back(std::string(ok ? "check ok:     " : "CHECK FAILED: ") + what);
  if (!ok) correct_ = false;
}

void Report::info(const std::string& line) { lines_.push_back("finding:      " + line); }

void Report::print_human() const {
  for (const auto& line : lines_) std::printf("%s\n", line.c_str());
  for (const auto& m : metrics_) {
    std::printf("metric %-52s %16.6g %-6s n=%zu%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.note.empty() ? "" : "  ",
                m.note.c_str());
  }
  std::fflush(stdout);
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i != 0) out += ", ";
    out += json_string(metrics_[i].name) + ": {\"value\": " +
           json_number(metrics_[i].value) +
           ", \"unit\": " + json_string(metrics_[i].unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
