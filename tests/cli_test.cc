// End-to-end tests of the command-line frontends: the `mumak` driver and
// the `mumak-inspect` offline trace analyser are run as real child
// processes (the deployment mode the paper's driver script uses) and their
// exit codes and output are checked. Binary paths are injected by CMake.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "tests/mini_json.h"

#ifndef MUMAK_CLI_PATH
#error "MUMAK_CLI_PATH must be defined by the build"
#endif
#ifndef MUMAK_INSPECT_PATH
#error "MUMAK_INSPECT_PATH must be defined by the build"
#endif

namespace mumak {
namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

// Runs a command, capturing stdout+stderr (stdout alone when
// `with_stderr` is false) into a temp file.
RunResult RunCommand(const std::string& command, bool with_stderr = true) {
  const std::string capture =
      ::testing::TempDir() + "/cli_capture_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
      ".txt";
  const std::string full =
      command + " > " + capture + (with_stderr ? " 2>&1" : " 2>/dev/null");
  const int status = std::system(full.c_str());
  RunResult result;
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::ifstream in(capture);
  std::ostringstream text;
  text << in.rdbuf();
  result.output = text.str();
  std::remove(capture.c_str());
  return result;
}

const std::string kCli = MUMAK_CLI_PATH;
const std::string kInspect = MUMAK_INSPECT_PATH;

TEST(MumakCli, HelpExitsZero) {
  const RunResult result = RunCommand(kCli + " --help");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("usage: mumak"), std::string::npos);
}

TEST(MumakCli, MissingTargetIsUsageError) {
  const RunResult result = RunCommand(kCli);
  EXPECT_EQ(result.exit_code, 2);
}

TEST(MumakCli, UnknownTargetIsUsageError) {
  const RunResult result = RunCommand(kCli + " --target no_such_thing");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unknown target"), std::string::npos);
}

TEST(MumakCli, UnknownFlagIsUsageError) {
  const RunResult result = RunCommand(kCli + " --target btree --frobnicate");
  EXPECT_EQ(result.exit_code, 2);
}

TEST(MumakCli, BadMixIsRejected) {
  const RunResult result =
      RunCommand(kCli + " --target btree --mix 50,50,50");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--mix"), std::string::npos);
}

TEST(MumakCli, ListTargetsNamesTheBuiltins) {
  const RunResult result = RunCommand(kCli + " --list-targets");
  EXPECT_EQ(result.exit_code, 0);
  for (const char* target : {"btree", "rbtree", "hashmap_atomic",
                             "level_hashing", "cceh", "redis"}) {
    EXPECT_NE(result.output.find(target), std::string::npos) << target;
  }
}

TEST(MumakCli, ListBugsFiltersByTarget) {
  const RunResult all = RunCommand(kCli + " --list-bugs");
  EXPECT_EQ(all.exit_code, 0);
  EXPECT_NE(all.output.find("btree."), std::string::npos);
  EXPECT_NE(all.output.find("rbtree."), std::string::npos);

  const RunResult filtered = RunCommand(kCli + " --list-bugs --target btree");
  EXPECT_EQ(filtered.exit_code, 0);
  EXPECT_NE(filtered.output.find("btree."), std::string::npos);
  EXPECT_EQ(filtered.output.find("rbtree."), std::string::npos);
}

TEST(MumakCli, CleanTargetExitsZero) {
  const RunResult result =
      RunCommand(kCli + " --target btree --ops 250 --keys 40");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("0 bug(s)"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("failure points"), std::string::npos);
}

TEST(MumakCli, SeededBugExitsOneWithAStack) {
  const RunResult result =
      RunCommand(kCli +
          " --target btree --ops 300 --keys 50 --bug btree.split_unlogged");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("[BUG"), std::string::npos);
  // Ergonomics (Table 3): the finding carries a resolved stack.
  EXPECT_NE(result.output.find("<-"), std::string::npos);
}

TEST(MumakCli, ParallelJobsFindTheSameBug) {
  const RunResult result =
      RunCommand(kCli + " --target btree --ops 300 --keys 50 --jobs 4 " +
          "--bug btree.split_unlogged");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("[BUG"), std::string::npos);
}

TEST(MumakCli, NoWarningsSilencesWarningLines) {
  const std::string base =
      " --target btree --ops 300 --keys 50 --bug btree.transient_stats";
  const RunResult with = RunCommand(kCli + base);
  const RunResult without = RunCommand(kCli + base + " --no-warnings");
  EXPECT_NE(with.output.find("[WARN"), std::string::npos) << with.output;
  EXPECT_EQ(without.output.find("[WARN"), std::string::npos)
      << without.output;
}

TEST(MumakCli, SaveTraceAndInspectRoundTrip) {
  const std::string trace = ::testing::TempDir() + "/cli_trace.bin";
  const RunResult save =
      RunCommand(kCli + " --target btree --ops 250 --keys 40 --save-trace " + trace);
  EXPECT_EQ(save.exit_code, 0) << save.output;
  EXPECT_NE(save.output.find("trace saved"), std::string::npos);

  const RunResult inspect = RunCommand(kInspect + " " + trace);
  EXPECT_EQ(inspect.exit_code, 0) << inspect.output;
  // The inspector prints per-instruction-class statistics and resolves the
  // footer's site names.
  EXPECT_NE(inspect.output.find("store"), std::string::npos);
  EXPECT_NE(inspect.output.find("fence"), std::string::npos);
  std::remove(trace.c_str());
}

// --json stdout stays one JSON object when --save-trace also runs: the
// save's status line goes to stderr with every other "mumak:" line.
TEST(MumakCli, JsonStdoutWithSaveTraceIsOneJsonObject) {
  const std::string trace = ::testing::TempDir() + "/cli_json_trace.bin";
  const RunResult result = RunCommand(
      kCli + " --target btree --ops 250 --keys 40 --bug btree.rf_get --json"
             " --save-trace " + trace,
      /*with_stderr=*/false);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  testjson::Value report;
  ASSERT_TRUE(testjson::ParseJson(result.output, &report)) << result.output;
  ASSERT_EQ(report.type, testjson::Value::Type::kObject);
  EXPECT_NE(report.Find("findings"), nullptr);
  std::remove(trace.c_str());
}

TEST(MumakInspect, MissingFileFails) {
  const RunResult result = RunCommand(kInspect + " /no/such/trace.bin");
  EXPECT_NE(result.exit_code, 0);
}

TEST(MumakInspect, GarbageFileFails) {
  const std::string garbage = ::testing::TempDir() + "/garbage.bin";
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "this is not a mumak trace";
  }
  const RunResult result = RunCommand(kInspect + " " + garbage);
  EXPECT_NE(result.exit_code, 0);
  std::remove(garbage.c_str());
}

TEST(MumakCli, EadrModeFlagsAdrFlushesAsRedundant) {
  // §4.3: on an eADR machine the caches are in the persistence domain, so
  // every flush an ADR-designed target issues is a performance bug. The
  // clean btree therefore exits 1 under --eadr, with only redundant-flush
  // findings (no correctness bugs).
  const RunResult result =
      RunCommand(kCli + " --target btree --ops 250 --keys 40 --eadr");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("redundant-flush"), std::string::npos);
  EXPECT_NE(result.output.find("eADR"), std::string::npos);
  EXPECT_EQ(result.output.find("unrecoverable"), std::string::npos);
  EXPECT_EQ(result.output.find("unflushed-store"), std::string::npos);
}

TEST(MumakCli, StoreGranularityReportsMoreFailurePoints) {
  auto failure_points = [](const std::string& extra) -> long {
    const RunResult result =
        RunCommand(kCli + " --target btree --ops 200 --keys 30 " + extra);
    const size_t at = result.output.find(" failure points");
    if (at == std::string::npos) {
      return -1;
    }
    size_t begin = result.output.rfind('|', at);
    return std::strtol(result.output.c_str() + begin + 1, nullptr, 10);
  };
  const long instruction_level = failure_points("");
  const long store_level = failure_points("--store-granularity");
  ASSERT_GT(instruction_level, 0);
  ASSERT_GT(store_level, 0);
  // Figure 3: the store-level space is several times larger.
  EXPECT_GT(store_level, 2 * instruction_level);
}

TEST(MumakCli, JsonOutputIsMachineReadable) {
  const RunResult result = RunCommand(
      kCli + " --target btree --ops 250 --keys 40 --bug btree.rf_get --json");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  // The whole stdout is one JSON object (no human banner mixed in).
  ASSERT_FALSE(result.output.empty());
  EXPECT_EQ(result.output.front(), '{');
  EXPECT_NE(result.output.find("\"bugs\": "), std::string::npos);
  EXPECT_NE(result.output.find("\"findings\": ["), std::string::npos);
  EXPECT_EQ(result.output.find("mumak: analysing"), std::string::npos);
}

TEST(MumakCli, MalformedNumericFlagsAreRejectedWithTheValue) {
  // Each bad value must exit 2 and echo the offending token so the user
  // can see *what* was rejected, not just which flag.
  const struct {
    const char* args;
    const char* token;
  } kCases[] = {
      {"--jobs -1", "-1"},          {"--jobs abc", "abc"},
      {"--jobs 4x", "4x"},          {"--ops 12x", "12x"},
      {"--ops= --keys 4", ""},      {"--keys +7", "+7"},
      {"--recovery-timeout-ms 0", "0"},
      {"--recovery-timeout-ms 9999999999", "9999999999"},
      {"--checks-per-fork nope", "nope"},
      {"--sandbox-mem-mb 12mb", "12mb"},
  };
  for (const auto& c : kCases) {
    const RunResult result =
        RunCommand(kCli + " --target btree " + c.args);
    EXPECT_EQ(result.exit_code, 2) << c.args << "\n" << result.output;
    if (c.token[0] != '\0') {
      EXPECT_NE(result.output.find(std::string("'") + c.token + "'"),
                std::string::npos)
          << c.args << "\n" << result.output;
    }
  }
}

TEST(MumakCli, UnknownSandboxPolicyIsUsageError) {
  const RunResult result =
      RunCommand(kCli + " --target btree --sandbox bogus");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--sandbox"), std::string::npos);
}

TEST(MumakCli, ListBugsIncludesRecoveryHazards) {
  const RunResult result = RunCommand(kCli + " --list-bugs --target btree");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("btree.recovery_wild_deref"),
            std::string::npos);
  EXPECT_NE(result.output.find("btree.recovery_spin"), std::string::npos);
}

TEST(MumakCli, SandboxedCampaignOverASegfaultingRecoveryCompletes) {
  // Without the sandbox this recovery path would SIGSEGV the driver
  // itself; under strict isolation (a fresh worker per check) the campaign
  // must finish and report the crash as a finding (exit 1 = bugs found).
  const RunResult result = RunCommand(
      kCli + " --target btree --ops 120 --keys 24 --strategy replay"
             " --sandbox forkserver --checks-per-fork 1"
             " --bug btree.recovery_wild_deref --no-trace-analysis --json");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("\"kind\": \"recovery-crash\""),
            std::string::npos)
      << result.output;
}

TEST(MumakCli, FlagEqualsValueFormIsAccepted) {
  const RunResult result = RunCommand(
      kCli + " --target=btree --ops=80 --keys=16 --jobs=2"
             " --sandbox=forkserver --recovery-timeout-ms=5000"
             " --no-trace-analysis");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("fork-server pool"), std::string::npos)
      << result.output;
}

}  // namespace
}  // namespace mumak
