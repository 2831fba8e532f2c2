#pragma once

// Shared plumbing for the experiment binaries (DESIGN.md §3): argument
// handling, replication helpers, and consistent table/CSV output. Every bench
// accepts --reps, --seed, and --csv; experiment-specific knobs are documented
// in each main().

#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "core/generators.hpp"
#include "core/protocols/registry.hpp"
#include "core/state.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace qoslb::bench {

struct CommonArgs {
  std::size_t reps = 10;
  std::uint64_t seed = 0xC0FFEE;
  bool csv = false;
};

inline CommonArgs read_common(ArgParser& args, std::size_t default_reps = 10) {
  CommonArgs common;
  common.reps = static_cast<std::size_t>(args.get_count("reps", default_reps));
  common.seed = static_cast<std::uint64_t>(args.get_int("seed", 0xC0FFEE));
  common.csv = args.get_flag("csv");
  return common;
}

/// A bench's entry point: runs `body`, and turns a bad flag (a negative
/// count, a malformed number, an unknown name — ArgParser throws
/// std::invalid_argument, as does every rejected precondition) into
/// "<program>: <why>" on stderr and exit status 1 instead of an abort.
inline int run_bench(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const std::invalid_argument& error) {
    const std::string_view program(argv[0]);
    std::cerr << program.substr(program.find_last_of('/') + 1) << ": "
              << error.what() << '\n';
    return 1;
  }
}

inline void emit(const TablePrinter& table, const CommonArgs& common) {
  if (common.csv)
    table.print_csv(std::cout);
  else
    table.print(std::cout);
}

/// One replication of `kind` on a fresh uniform-feasible instance. The
/// default start is the all-on-one worst case: a random start on a slack
/// instance is typically already satisfied, so the convergence claims are
/// measured as recovery from the adversarial initial state (pass
/// start="random" for the easy regime).
inline ReplicatedRun run_uniform_feasible_once(
    const std::string& kind, double lambda, std::size_t n, std::size_t m,
    double slack, double heterogeneity, std::uint64_t seed,
    std::uint64_t max_rounds = 1u << 20, const std::string& start = "all0") {
  Xoshiro256 rng(seed);
  const Instance instance = make_uniform_feasible(n, m, slack, heterogeneity, rng);
  State state = start == "random" ? State::random(instance, rng)
                                  : State::all_on(instance, 0);
  ProtocolSpec spec;
  spec.kind = kind;
  spec.lambda = lambda;
  const auto protocol = make_protocol(spec);
  EngineConfig config;
  config.max_rounds = max_rounds;
  ReplicatedRun run;
  run.result = Engine(config).run(*protocol, state, rng);
  run.num_users = instance.num_users();
  return run;
}

}  // namespace qoslb::bench
