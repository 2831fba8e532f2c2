#include "core/io/instance_io.hpp"

#include <sstream>
#include <stdexcept>
#include <string>

#include "core/io/text_codec.hpp"

namespace qoslb {
namespace {

constexpr char kInstanceV1[] = "qoslb-instance v1";
constexpr char kInstanceV2[] = "qoslb-instance v2";
constexpr char kStateV1[] = "qoslb-state v1";

}  // namespace

void write_model(TextWriter& out, const std::vector<double>& capacities,
                 const std::vector<double>& requirements,
                 const RateModel& rates) {
  out.block("resources", capacities);
  out.block("users", requirements);
  switch (rates.kind()) {
    case RateModelKind::kUniform:
      out.field("rate_model", "uniform");
      break;
    case RateModelKind::kMatrix:
      out.field("rate_model", "matrix");
      out.block("rates", rates.matrix_rates());
      break;
    case RateModelKind::kBipartite:
      out.field("rate_model", "bipartite");
      out.block("edges", rates.edges(), [](std::ostream& line, const RateEdge& e) {
        line << e.user << ' ' << e.resource << ' ' << e.rate;
      });
      break;
  }
}

ModelSection read_model(TextReader& in, bool with_rates) {
  ModelSection model;
  model.capacities =
      in.block<double>("resources", [&in] { return in.number("a capacity"); });
  model.requirements =
      in.block<double>("users", [&in] { return in.number("a requirement"); });
  if (!with_rates) return model;
  const std::size_t n = model.requirements.size();
  const std::size_t m = model.capacities.size();
  const std::string kind = in.word("rate_model");
  if (kind == "uniform") return model;
  if (kind == "matrix") {
    std::vector<double> rates = in.block<double>(
        "rates", [&in] { return in.number("a rate"); }, n * m);
    try {
      model.rates = RateModel::matrix(n, m, std::move(rates));
    } catch (const std::invalid_argument& error) {
      in.fail(std::string("invalid rate matrix: ") + error.what());
    }
    return model;
  }
  if (kind != "bipartite") in.fail("unknown rate model kind '" + kind + "'");
  std::vector<RateEdge> edges = in.block<RateEdge>("edges", [&] {
    const std::string line = in.next_line("an access-graph edge");
    std::istringstream parts(line);
    std::string user, resource, rate, extra;
    if (!(parts >> user >> resource >> rate) || (parts >> extra))
      in.fail("expected '<user> <resource> <rate>', got '" + line + "'");
    return RateEdge{static_cast<UserId>(in.to_id(user, n, line)),
                    static_cast<ResourceId>(in.to_id(resource, m, line)),
                    in.to_number(rate, line)};
  });
  try {
    model.rates = RateModel::bipartite(n, m, std::move(edges));
  } catch (const std::invalid_argument& error) {
    in.fail(std::string("invalid access graph: ") + error.what());
  }
  return model;
}

void write_instance(std::ostream& out, const Instance& instance) {
  TextWriter text(out);
  text.line(kInstanceV2);
  write_model(text, instance.capacities(), instance.requirements(),
              instance.rate_model());
}

Instance read_instance(std::istream& stream) {
  TextReader in(stream, "qoslb io");
  const bool v2 = in.magic({kInstanceV1, kInstanceV2}) == 1;
  ModelSection model = read_model(in, v2);
  try {
    return Instance(std::move(model.capacities), std::move(model.requirements),
                    std::move(model.rates));
  } catch (const std::invalid_argument& error) {
    in.fail(std::string("invalid instance data: ") + error.what());
  }
}

void write_state(std::ostream& out, const State& state) {
  TextWriter text(out);
  text.line(kStateV1);
  text.block("users", state.assignment());
}

State read_state(std::istream& stream, const Instance& instance) {
  TextReader in(stream, "qoslb io");
  in.magic({kStateV1});
  const std::size_t n = instance.num_users();
  const std::size_t m = instance.num_resources();
  std::vector<ResourceId> assignment = in.block<ResourceId>(
      "users",
      [&in, m] { return static_cast<ResourceId>(in.id("a resource id", m)); },
      n);
  return State(instance, std::move(assignment));
}

}  // namespace qoslb
