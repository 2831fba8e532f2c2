#include "core/protocols/registry.hpp"

#include <functional>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "core/protocols/berenbrink.hpp"
#include "core/protocols/cached_sampling.hpp"
#include "core/protocols/sampling.hpp"
#include "core/protocols/sequential_best_response.hpp"

namespace qoslb {

namespace {

struct Entry {
  ProtocolInfo info;
  std::function<std::unique_ptr<Protocol>(const ProtocolSpec&)> build;
};

/// One registry row. Its traits are the kTraits of the class `build`
/// returns, read off the builder's std::unique_ptr<P> return type, so a
/// row cannot advertise one class and build another.
template <typename Build>
Entry row(const char* name, const char* description, Build build) {
  using Built =
      typename std::invoke_result_t<Build, const ProtocolSpec&>::element_type;
  return {{name, description, Built::kTraits}, std::move(build)};
}

/// The builder of a sampling kind: its request rule, and whether its
/// candidates are the neighbours on the spec's resource graph. Only the
/// lambda rule reads spec.lambda.
auto sampling_kind(SamplingProtocol::Rule rule, bool on_graph) {
  return [rule, on_graph](const ProtocolSpec& spec) {
    if (on_graph && spec.graph == nullptr)
      throw std::invalid_argument("protocol kind '" + spec.kind +
                                  "' needs a resource graph");
    return std::make_unique<SamplingProtocol>(
        rule, rule == SamplingProtocol::Rule::kLambda ? spec.lambda : 1.0,
        spec.probes, on_graph ? spec.graph : nullptr);
  };
}

const std::vector<Entry>& entries() {
  static const std::vector<Entry> kEntries = {
      row("seq-br", "sequential best response, random user order (P1)",
          [](const ProtocolSpec&) {
            return std::make_unique<SequentialBestResponse>(
                SequentialBestResponse::Order::kRandom);
          }),
      row("seq-br-rr", "sequential best response, round-robin user order",
          [](const ProtocolSpec&) {
            return std::make_unique<SequentialBestResponse>(
                SequentialBestResponse::Order::kRoundRobin);
          }),
      row("uniform",
          "uniform sampling with lambda-damped optimistic migration (P2)",
          sampling_kind(SamplingProtocol::Rule::kLambda, false)),
      row("adaptive",
          "contention-adaptive migration probability slack/intents (P3)",
          sampling_kind(SamplingProtocol::Rule::kAdaptive, false)),
      row("admission",
          "resource-gated admission: REQUEST/GRANT commit, monotone (P4)",
          sampling_kind(SamplingProtocol::Rule::kAdmission, false)),
      row("nbr-uniform",
          "neighborhood-restricted optimistic sampling on a resource graph "
          "(P5)",
          sampling_kind(SamplingProtocol::Rule::kLambda, true)),
      row("nbr-admission",
          "neighborhood-restricted sampling with admission commit (P5)",
          sampling_kind(SamplingProtocol::Rule::kAdmission, true)),
      row("berenbrink",
          "classic selfish load balancing, QoS-oblivious baseline (P6)",
          [](const ProtocolSpec&) {
            return std::make_unique<BerenbrinkBalancing>();
          }),
      row("cached",
          "uniform sampling against a shared load cache with ttl rounds (E17)",
          [](const ProtocolSpec& spec) {
            return std::make_unique<CachedSampling>(spec.lambda, spec.ttl);
          }),
  };
  return kEntries;
}

}  // namespace

const std::vector<ProtocolInfo>& protocol_registry() {
  static const std::vector<ProtocolInfo> kInfos = [] {
    std::vector<ProtocolInfo> infos;
    infos.reserve(entries().size());
    for (const Entry& entry : entries()) infos.push_back(entry.info);
    return infos;
  }();
  return kInfos;
}

std::vector<std::string> protocol_kinds() {
  std::vector<std::string> kinds;
  kinds.reserve(entries().size());
  for (const Entry& entry : entries()) kinds.push_back(entry.info.name);
  return kinds;
}

std::unique_ptr<Protocol> make_protocol(const ProtocolSpec& spec) {
  for (const Entry& entry : entries())
    if (entry.info.name == spec.kind) return entry.build(spec);
  throw std::invalid_argument("unknown protocol kind '" + spec.kind + "'");
}

}  // namespace qoslb
