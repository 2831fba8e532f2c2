// The qoslb command line and the bench binaries, driven as processes: flags
// that no in-process test reaches because each binary parses them itself.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <string>

namespace {

struct CliRun {
  int status = -1;
  std::string output;  // stdout and stderr, interleaved
};

CliRun run_binary(const std::string& binary, const std::string& flags) {
  const std::string command = binary + " " + flags + " 2>&1";
  CliRun run;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  std::array<char, 256> chunk;
  while (const std::size_t got = fread(chunk.data(), 1, chunk.size(), pipe))
    run.output.append(chunk.data(), got);
  const int raw = pclose(pipe);
  run.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  return run;
}

// A negative count must fail naming its flag, not wrap into a huge unsigned
// one (--extra-edges=-1 would give every user every resource).
TEST(Cli, NegativeCountFlagsFailNamingTheFlag) {
  const std::string gen = "--mode=gen --rate-model=bipartite ";
  const struct {
    std::string flags;
    std::string message;
  } cases[] = {
      {gen + "--n=20 --m=8 --extra-edges=-1",
       "qoslb: --extra-edges must be non-negative, got -1"},
      {gen + "--n=-1 --m=8", "qoslb: --n must be non-negative, got -1"},
      {gen + "--n=20 --m=-3", "qoslb: --m must be non-negative, got -3"},
  };
  for (const auto& c : cases) {
    const CliRun run = run_binary(QOSLB_CLI_PATH, c.flags);
    EXPECT_EQ(run.status, 1) << c.flags << '\n' << run.output;
    EXPECT_NE(run.output.find(c.message), std::string::npos)
        << c.flags << '\n' << run.output;
  }
}

// --probes is a count in [1, INT_MAX] whose refusal names the flag. It was
// read as a 64-bit integer and cast to int, so --probes=4294967297 ran one
// probe and exited 0, and --probes=0 failed naming a source line.
TEST(Cli, ProbeCountOutOfRangeFailsNamingTheFlag) {
  const std::string run = "--n=50 --m=4 --reps=1 ";
  const struct {
    std::string flags;
    std::string message;
  } cases[] = {
      {run + "--probes=0", "qoslb: --probes must be in [1, 2147483647], got 0"},
      {run + "--probes=-1", "qoslb: --probes must be non-negative, got -1"},
      {run + "--probes=4294967297",
       "qoslb: --probes must be in [1, 2147483647], got 4294967297"},
  };
  for (const auto& c : cases) {
    const CliRun result = run_binary(QOSLB_CLI_PATH, c.flags);
    EXPECT_EQ(result.status, 1) << c.flags << '\n' << result.output;
    EXPECT_NE(result.output.find(c.message), std::string::npos)
        << c.flags << '\n' << result.output;
  }
  EXPECT_EQ(run_binary(QOSLB_CLI_PATH, run + "--probes=3").status, 0);
}

// qoslb-chaos reads its --threads list through ArgParser::get_count_list,
// so a bad entry names the flag (it printed a bare "bad integer in list").
// It refuses before writing anything, and exits 2 on every error.
TEST(Cli, ChaosThreadListNamesTheFlag) {
  const struct {
    std::string flags;
    std::string message;
  } cases[] = {
      {"--threads=abc",
       "qoslb-chaos: --threads expects a comma-separated list of integers, "
       "got 'abc'"},
      {"--threads=1,-2",
       "qoslb-chaos: --threads entries must be non-negative, got -2"},
  };
  for (const auto& c : cases) {
    const CliRun run = run_binary(QOSLB_CHAOS_PATH, c.flags);
    EXPECT_EQ(run.status, 2) << c.flags << '\n' << run.output;
    EXPECT_NE(run.output.find(c.message), std::string::npos)
        << c.flags << '\n' << run.output;
  }
}

// The list specs (--kill, --fail, --recover, --crash) go through one strict
// parser (tools/list_specs.hpp): each bad number names its flag and its
// raw text. Before it, --kill=99999999999999999999999 printed a bare
// "stoull", --fail=abc:3 "stoul" and --crash=1:abc:3 "stod"; --kill=2x
// killed at round 2, --kill=-1 wrapped to 2^64-1 and exited 0, and
// --fail=1x:3 failed resource 1. qoslb exits 1 and qoslb-chaos 2, as on
// every other bad flag.
TEST(Cli, ListSpecsNameTheFlagAndTheRawText) {
  const std::string chaos = "--n=200 --m=8 --rounds=20 --threads=1 "
                            "--modes=dense --protocols=uniform ";
  const struct {
    const char* binary;
    std::string flags;
    int status;
    std::string message;
  } cases[] = {
      {QOSLB_CHAOS_PATH, chaos + "--kill=99999999999999999999999", 2,
       "qoslb-chaos: --kill is out of range, got '99999999999999999999999'"},
      {QOSLB_CHAOS_PATH, chaos + "--fail=abc:3", 2,
       "qoslb-chaos: --fail expects a resource, got 'abc'"},
      {QOSLB_CHAOS_PATH, chaos + "--kill=2x", 2,
       "qoslb-chaos: --kill expects a round, got '2x'"},
      {QOSLB_CHAOS_PATH, chaos + "--kill=-1", 2,
       "qoslb-chaos: --kill expects a round, got '-1'"},
      {QOSLB_CHAOS_PATH, chaos + "--recover=3:1:2", 2,
       "qoslb-chaos: --recover expects R:ROUND, got '3:1:2'"},
      {QOSLB_CLI_PATH, "--mode=async --n=50 --m=4 --crash=1:abc:3", 1,
       "qoslb: --crash expects a time, got 'abc'"},
      {QOSLB_CLI_PATH, "--mode=async --n=50 --m=4 --crash=1:1e999:3", 1,
       "qoslb: --crash is out of range, got '1e999'"},
      {QOSLB_CLI_PATH, "--mode=async --n=50 --m=4 --crash=+1:0:3", 1,
       "qoslb: --crash expects an agent, got '+1'"},
      {QOSLB_CLI_PATH, "--n=50 --m=4 --reps=1 --fail=1x:3", 1,
       "qoslb: --fail expects a resource, got '1x'"},
  };
  for (const auto& c : cases) {
    const CliRun run = run_binary(c.binary, c.flags);
    EXPECT_EQ(run.status, c.status) << c.flags << '\n' << run.output;
    EXPECT_NE(run.output.find(c.message), std::string::npos)
        << c.flags << '\n' << run.output;
  }
}

// An async crash window must name one of the run's m + n agents. Before the
// check, a window for an agent that does not exist (here 4294967295 is
// kNoAgent) could never fire but still armed the loss-tolerant protocol:
// the first command exited 0 with 159 events against 105 without the flag.
TEST(Cli, AsyncCrashWindowForAMissingAgentFails) {
  const struct {
    std::string flags;
    std::string message;
  } cases[] = {
      {"--mode=async --n=50 --m=4 --crash=99999:0:3",
       "crash window for agent 99999, but the run has 54 agents"},
      {"--mode=async --n=50 --m=4 --crash=4294967295:0:3",
       "crash window for agent 4294967295, but the run has 54 agents"},
  };
  for (const auto& c : cases) {
    const CliRun run = run_binary(QOSLB_CLI_PATH, c.flags);
    EXPECT_EQ(run.status, 1) << c.flags << '\n' << run.output;
    EXPECT_NE(run.output.find("qoslb: "), std::string::npos) << run.output;
    EXPECT_NE(run.output.find(c.message), std::string::npos)
        << c.flags << '\n' << run.output;
  }
  // The last user, agent m + n - 1 = 53, is a valid target.
  EXPECT_EQ(run_binary(QOSLB_CLI_PATH, "--mode=async --n=50 --m=4 "
                                       "--crash=53:0:3").status,
            0);
}

// The benches read every count flag through ArgParser::get_count, and
// report a bad flag instead of aborting.
TEST(BenchCli, NegativeCountFlagsFailNamingTheFlag) {
  const struct {
    const char* binary;
    std::string flags;
    std::string message;
  } cases[] = {
      {QOSLB_E13_PATH, "--n=-1", "e13_weighted: --n must be non-negative, got -1"},
      {QOSLB_E13_PATH, "--m=-1", "e13_weighted: --m must be non-negative, got -1"},
      {QOSLB_E22_PATH, "--n=-1",
       "e22_active_set: --n must be non-negative, got -1"},
  };
  for (const auto& c : cases) {
    const CliRun run = run_binary(c.binary, c.flags);
    EXPECT_EQ(run.status, 1) << c.binary << ' ' << c.flags << '\n' << run.output;
    EXPECT_NE(run.output.find(c.message), std::string::npos)
        << c.binary << ' ' << c.flags << '\n' << run.output;
  }
}

// A malformed or out-of-range number, and e1's zero load factor (a
// divisor), exit 1 naming the flag: no bare "stoll", no abort on an
// escaped std::out_of_range (exit 134) and no SIGFPE (exit 136).
TEST(BenchCli, BadNumbersFailNamingTheFlag) {
  const struct {
    const char* binary;
    std::string flags;
    std::string message;
  } cases[] = {
      {QOSLB_E13_PATH, "--n=abc",
       "e13_weighted: --n expects an integer, got 'abc'"},
      {QOSLB_E13_PATH, "--n=99999999999999999999999",
       "e13_weighted: --n is out of range, got '99999999999999999999999'"},
      {QOSLB_E13_PATH, "--slack=1e999",
       "e13_weighted: --slack is out of range, got '1e999'"},
      {QOSLB_E1_PATH, "--sizes=abc",
       "e1_convergence_n: --sizes expects a comma-separated list of "
       "integers, got 'abc'"},
      {QOSLB_E1_PATH, "--load-factor=0 --sizes=256 --reps=1",
       "e1_convergence_n: --load-factor must be positive, got 0"},
  };
  for (const auto& c : cases) {
    const CliRun run = run_binary(c.binary, c.flags);
    EXPECT_EQ(run.status, 1) << c.binary << ' ' << c.flags << '\n' << run.output;
    EXPECT_NE(run.output.find(c.message), std::string::npos)
        << c.binary << ' ' << c.flags << '\n' << run.output;
  }
}

}  // namespace
