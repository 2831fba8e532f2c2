#pragma once

#include <iosfwd>
#include <vector>

#include "core/instance.hpp"
#include "core/state.hpp"

namespace qoslb {

class TextReader;
class TextWriter;

/// Plain-text serialization for instances and states, so the CLI can save a
/// generated workload and replay it later (or exchange it with other tools).
/// Every reader and writer goes through the one line codec of
/// core/io/text_codec.hpp.
///
/// Format (line-oriented, '#' comments allowed between sections):
///
///   qoslb-instance v2
///   resources <m>
///   <m capacity lines>
///   users <n>
///   <n requirement lines>
///   rate_model uniform | matrix | bipartite
///   [rates <n·m> + value lines]            (matrix)
///   [edges <E> + "<u> <r> <rate>" lines]   (bipartite)
///
///   qoslb-state v1
///   users <n>
///   <n resource-id lines>
///
/// The writer always emits the newest version; the reader also accepts the
/// pre-rate-model `qoslb-instance v1` (read back as the uniform model).
/// Numbers are written with 17 significant digits so the round trip is
/// value-exact for doubles.

void write_instance(std::ostream& out, const Instance& instance);

/// Throws std::invalid_argument on malformed input.
Instance read_instance(std::istream& in);

void write_state(std::ostream& out, const State& state);

/// The instance must match the state being read (user count, resource
/// range); throws std::invalid_argument otherwise.
State read_state(std::istream& in, const Instance& instance);

/// The model section: the `resources`, `users` and `rate_model` blocks, that
/// is s_r, q_u and the rate structure. It is the body of an instance file
/// and the middle of a checkpoint (core/snapshot.hpp), which both write and
/// read it through these two functions.
struct ModelSection {
  std::vector<double> capacities;
  std::vector<double> requirements;
  RateModel rates;
};

void write_model(TextWriter& out, const std::vector<double>& capacities,
                 const std::vector<double>& requirements,
                 const RateModel& rates);

/// `with_rates` false reads the layout that predates the rate_model block
/// (instance v1, checkpoint v1), whose rates are uniform.
ModelSection read_model(TextReader& in, bool with_rates);

}  // namespace qoslb
