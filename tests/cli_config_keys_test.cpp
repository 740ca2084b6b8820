// divscrape_cli config-key contract: a --config/--set key that no applier
// of the command reads is a usage error — exit 2, with the key named on
// stderr — checked before the command runs.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

struct CliRun {
  int exit_code = -1;
  std::string err;
};

/// Runs divscrape_cli with `args` (stdout discarded) and captures its exit
/// status and stderr. The stderr file is named after the running test and
/// the pid: ctest runs each case as its own process, possibly in parallel,
/// and a shared file would be truncated under a case that is reading it.
CliRun run_cli(const std::string& args) {
  const std::string err_path =
      ::testing::TempDir() + "cli_config_keys." +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "." +
      std::to_string(::getpid()) + ".err";
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

TEST(CliConfigKeys, TablesRejectsRetiredScenarioKey) {
  const auto run = run_cli("tables --set scenario.campaigns=5");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.err.find("\"scenario.campaigns\""), std::string::npos)
      << run.err;
}

TEST(CliConfigKeys, AnalyzeRejectsMistypedDetectorKey) {
  // The log need not exist: the key check runs before the command opens it.
  const auto run = run_cli("analyze missing.log --set sentinel.burst_limt=5");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.err.find("\"sentinel.burst_limt\""), std::string::npos)
      << run.err;
}

TEST(CliConfigKeys, CommandWithoutDetectorsRejectsDetectorKey) {
  // simulate reads detector keys only with --detect.
  const auto run =
      run_cli("simulate smoke --dump-spec --set sentinel.burst_limit=5");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.err.find("\"sentinel.burst_limit\""), std::string::npos)
      << run.err;
}

TEST(CliConfigKeys, KeysTheCommandReadsAreAccepted) {
  EXPECT_EQ(run_cli("simulate smoke --dump-spec --scale 0.5").exit_code, 0);
  const auto run = run_cli(
      "analyze /dev/null --set sentinel.burst_limit=5 "
      "--set arcane.window_s=30");
  EXPECT_EQ(run.exit_code, 0) << run.err;
}

}  // namespace
