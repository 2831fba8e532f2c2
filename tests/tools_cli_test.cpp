// The qoslb command line, driven as a process: flags that no in-process test
// reaches because the CLI parses them itself.

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

CliRun run_cli(const std::string& flags) {
  const std::string command = std::string(QOSLB_CLI_PATH) + " " + flags + " 2>&1";
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
    const CliRun run = run_cli(c.flags);
    EXPECT_EQ(run.status, 1) << c.flags << '\n' << run.output;
    EXPECT_NE(run.output.find(c.message), std::string::npos)
        << c.flags << '\n' << run.output;
  }
}

}  // namespace
