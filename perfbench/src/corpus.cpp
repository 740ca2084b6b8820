#include "corpus.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "httplog/clf.hpp"
#include "httplog/io.hpp"
#include "measure.hpp"
#include "workload/catalog.hpp"
#include "workload/engine.hpp"

namespace perfbench {

using divscrape::httplog::LogRecord;

std::vector<std::uint64_t> Corpus::offsets_before(std::int64_t t_us) const {
  std::vector<std::uint64_t> off(paths.size(), 0);
  for (const Line& l : lines) {
    if (l.time_us >= t_us) break;
    off[l.vhost] += l.len;
  }
  return off;
}

std::uint64_t Corpus::lines_before(std::int64_t t_us) const {
  std::uint64_t n = 0;
  for (const Line& l : lines) {
    if (l.time_us >= t_us) break;
    ++n;
  }
  return n;
}

divscrape::workload::ScenarioSpec catalog_spec(const char* name, double scale,
                                               std::uint64_t seed) {
  auto spec = divscrape::workload::catalog_entry(name, scale);
  if (!spec) throw std::runtime_error(std::string("unknown catalog entry ") + name);
  spec->seed = seed;
  return *spec;
}

Corpus generate(divscrape::workload::ScenarioSpec spec, const std::string& dir,
                std::int64_t stop_us) {
  const std::int64_t t0 = now_ns();
  Corpus c;
  c.start_us = spec.start.micros();
  c.end_us = spec.end().micros();
  const std::size_t vhosts = spec.vhosts.size();

  struct Out {
    std::FILE* file = nullptr;
    std::string buf;
    divscrape::httplog::ClfFormatter formatter;
  };
  std::vector<Out> outs(vhosts);
  for (std::size_t v = 0; v < vhosts; ++v) {
    c.paths.push_back(dir + "/src_v" + std::to_string(v) + ".log");
    outs[v].file = std::fopen(c.paths.back().c_str(), "wb");
    if (outs[v].file == nullptr) throw std::runtime_error("cannot create " + c.paths.back());
  }
  c.bytes.assign(vhosts, 0);

  divscrape::workload::EngineConfig config;
  config.gen_threads = 2;
  // As `divscrape simulate` decides: megasite-class populations only fit
  // in memory with lazily materialized actors.
  config.lazy_actors = divscrape::workload::static_population(spec) >= 200'000;
  divscrape::workload::WorkloadEngine engine(std::move(spec), config);
  bool stopped = false;
  engine.run([&](LogRecord&& record) {
    if (stopped) return;
    const std::int64_t t = record.time.micros();
    if (stop_us > 0 && t >= stop_us) {
      stopped = true;
      engine.request_stop();
      return;
    }
    const std::uint32_t v = record.vhost < vhosts ? record.vhost : 0;
    Out& out = outs[v];
    const std::size_t before = out.buf.size();
    out.formatter.append(record, out.buf);
    out.buf.push_back('\n');
    const auto len = static_cast<std::uint32_t>(out.buf.size() - before);
    c.lines.push_back(Line{t, v, len});
    c.bytes[v] += len;
    if (out.buf.size() >= (1u << 20)) {
      std::fwrite(out.buf.data(), 1, out.buf.size(), out.file);
      out.buf.clear();
    }
  });
  for (Out& out : outs) {
    std::fwrite(out.buf.data(), 1, out.buf.size(), out.file);
    if (std::fclose(out.file) != 0) throw std::runtime_error("write failed under " + dir);
  }
  c.gen_s = static_cast<double>(now_ns() - t0) / 1e9;
  return c;
}

bool append_bytes(const std::string& from, std::uint64_t begin, std::uint64_t end,
                  const std::string& to) {
  const int in = ::open(from.c_str(), O_RDONLY);
  const int out = ::open(to.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  bool ok = in >= 0 && out >= 0;
  std::vector<char> buf(1 << 20);
  while (ok && begin < end) {
    const std::size_t want = std::min<std::uint64_t>(buf.size(), end - begin);
    const ssize_t got = ::pread(in, buf.data(), want, static_cast<off_t>(begin));
    ok = got > 0 && ::write(out, buf.data(), static_cast<std::size_t>(got)) == got;
    begin += got > 0 ? static_cast<std::uint64_t>(got) : 0;
  }
  if (in >= 0) ::close(in);
  if (out >= 0) ok = (::close(out) == 0) && ok;
  return ok;
}

void merge_files(const std::vector<std::string>& paths, const RecordSink& sink) {
  struct Input {
    std::ifstream in;
    std::unique_ptr<divscrape::httplog::LogReader> reader;
    LogRecord head;
    bool live = false;
  };
  std::vector<Input> inputs(paths.size());
  for (std::size_t f = 0; f < paths.size(); ++f) {
    inputs[f].in.open(paths[f], std::ios::binary);
    inputs[f].reader = std::make_unique<divscrape::httplog::LogReader>(inputs[f].in);
    inputs[f].live = inputs[f].reader->next(inputs[f].head);
  }
  for (;;) {
    // A handful of files: a linear scan for the smallest (time, file).
    Input* best = nullptr;
    for (Input& in : inputs) {
      if (in.live && (best == nullptr || in.head.time.micros() < best->head.time.micros())) {
        best = &in;
      }
    }
    if (best == nullptr || !sink(best->head)) break;
    best->live = best->reader->next(best->head);
  }
}

}  // namespace perfbench
