#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "net/graph.hpp"

namespace qoslb {

/// Declarative protocol construction for the CLI, benches, and examples.
struct ProtocolSpec {
  std::string kind;            // one of protocol_kinds()
  double lambda = 1.0;         // migration probability (optimistic protocols)
  int probes = 1;              // probes per round
  const Graph* graph = nullptr;  // resource graph (nbr-* kinds only)
  std::uint32_t ttl = 0;       // load-cache time-to-live ("cached" kind)
};

/// One registry row: the spec kind, a human-readable one-liner for
/// `--list-protocols`-style discovery, and the kTraits of the class the
/// row's builder returns.
struct ProtocolInfo {
  std::string name;
  std::string description;
  ProtocolTraits traits;
};

/// Every registered kind, in presentation order. This is the single source
/// of truth: protocol_kinds() and make_protocol() are derived from it.
const std::vector<ProtocolInfo>& protocol_registry();

/// Kind names only, in registry order.
std::vector<std::string> protocol_kinds();

/// Builds the protocol described by `spec`; throws std::invalid_argument for
/// unknown kinds or missing graphs.
std::unique_ptr<Protocol> make_protocol(const ProtocolSpec& spec);

}  // namespace qoslb
