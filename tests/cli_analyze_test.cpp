// divscrape_cli analyze: the alert log is the command's output, so a write
// that fails (a full disk) must fail the command, not leave a truncated log
// behind an exit status of 0.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <string>

#include "cli_run.hpp"

namespace {

using divscrape::cli_test::cli_temp_path;
using divscrape::cli_test::run_cli;

TEST(CliAnalyze, AlertLogWriteFailureExitsOne) {
  struct stat st {};
  if (::stat("/dev/full", &st) != 0) GTEST_SKIP() << "no /dev/full";
  const std::string log = cli_temp_path(".log");
  const std::string alerts = cli_temp_path(".jsonl");
  ASSERT_EQ(run_cli("simulate smoke --out " + log).exit_code, 0);

  // The same log into a writable file alerts, so /dev/full has bytes to
  // refuse.
  const auto ok = run_cli("analyze " + log + " --alerts " + alerts);
  EXPECT_EQ(ok.exit_code, 0) << ok.err;
  EXPECT_EQ(::stat(alerts.c_str(), &st), 0);
  EXPECT_GT(st.st_size, 0);

  const auto full = run_cli("analyze " + log + " --alerts /dev/full");
  EXPECT_EQ(full.exit_code, 1);
  EXPECT_NE(full.err.find("cannot write /dev/full"), std::string::npos)
      << full.err;
  std::remove(log.c_str());
  std::remove(alerts.c_str());
}

}  // namespace
