// Runs the divscrape_cli binary (DIVSCRAPE_CLI_PATH, set by the build) as a
// child process for the CLI contract tests.
#pragma once

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace divscrape::cli_test {

struct CliRun {
  int exit_code = -1;
  std::string err;
};

/// A temp-dir path unique to the running test case and process: ctest runs
/// each case as its own process, possibly in parallel, and a shared file
/// would be truncated under a case that is reading it.
inline std::string cli_temp_path(const std::string& suffix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "cli." + info->test_suite_name() + "." +
         info->name() + "." + std::to_string(::getpid()) + suffix;
}

/// Runs divscrape_cli with `args` (stdout discarded) and captures its exit
/// status and stderr.
inline CliRun run_cli(const std::string& args) {
  const std::string err_path = cli_temp_path(".err");
  const std::string command = std::string(DIVSCRAPE_CLI_PATH) + " " + args +
                              " >/dev/null 2>" + err_path;
  const int status = std::system(command.c_str());
  CliRun run;
  if (status != -1 && WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  {
    std::ifstream in(err_path);
    std::ostringstream text;
    text << in.rdbuf();
    run.err = text.str();
  }
  std::remove(err_path.c_str());
  return run;
}

}  // namespace divscrape::cli_test
