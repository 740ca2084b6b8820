// divscrape_cli config-key contract: a --config/--set key that no applier
// of the command reads is a usage error — exit 2, with the key named on
// stderr — checked before the command runs.
#include <gtest/gtest.h>

#include <string>

#include "cli_run.hpp"

namespace {

using divscrape::cli_test::run_cli;

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
