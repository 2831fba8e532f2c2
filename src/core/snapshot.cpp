#include "core/snapshot.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/io/instance_io.hpp"
#include "core/io/text_codec.hpp"
#include "core/protocol.hpp"
#include "rng/splitmix64.hpp"
#include "util/check.hpp"

namespace qoslb {
namespace {

constexpr char kMagicV1[] = "qoslb-snapshot v1";
constexpr char kMagicV2[] = "qoslb-snapshot v2";

}  // namespace

void write_snapshot(std::ostream& stream, const SnapshotV1& snapshot) {
  TextWriter out(stream);
  out.line(kMagicV2);
  out.field("protocol", snapshot.protocol);
  out.field("next_round", snapshot.next_round);
  out.field("master_seed", snapshot.master_seed);
  write_model(out, snapshot.capacities, snapshot.requirements,
              snapshot.rate_model);
  out.block("assignment", snapshot.assignment);
  out.block("live", snapshot.live);
  out.record("counters", snapshot.counters);
  out.record("churn", snapshot.churn);
  out.field("protocol_state", std::count(snapshot.protocol_state.begin(),
                                         snapshot.protocol_state.end(), '\n'));
  stream << snapshot.protocol_state;
}

SnapshotV1 read_snapshot(std::istream& stream) {
  TextReader in(stream, "qoslb snapshot");
  // v1 predates the rate-model block; its absence means uniform rates.
  const bool v2 = in.magic({kMagicV1, kMagicV2}) == 1;
  SnapshotV1 snapshot;
  snapshot.protocol = in.rest("protocol");
  in.field("next_round", snapshot.next_round);
  in.field("master_seed", snapshot.master_seed);
  ModelSection model = read_model(in, v2);
  snapshot.capacities = std::move(model.capacities);
  snapshot.requirements = std::move(model.requirements);
  snapshot.rate_model = std::move(model.rates);
  const std::size_t n = snapshot.requirements.size();
  const std::size_t m = snapshot.capacities.size();
  snapshot.assignment = in.block<ResourceId>(
      "assignment",
      [&in, m] { return static_cast<ResourceId>(in.id("an assignment", m)); },
      n);
  snapshot.live = in.block<std::uint8_t>(
      "live",
      [&in] { return static_cast<std::uint8_t>(in.id("a live bit", 2)); }, m);
  in.record("counters", snapshot.counters);
  in.record("churn", snapshot.churn);
  const std::uint64_t state_lines = in.integer("protocol_state");
  for (std::uint64_t i = 0; i < state_lines; ++i) {
    // Verbatim payload: raw getline, no blank/comment skipping.
    std::string line;
    if (!std::getline(stream, line)) in.fail("truncated protocol state block");
    snapshot.protocol_state += line;
    snapshot.protocol_state += '\n';
  }
  return snapshot;
}

Instance SnapshotV1::make_instance() const {
  try {
    return Instance(capacities, requirements, rate_model);
  } catch (const std::invalid_argument& error) {
    throw std::invalid_argument(
        std::string("qoslb snapshot: invalid instance data: ") + error.what());
  }
}

State SnapshotV1::make_state(const Instance& instance) const {
  QOSLB_REQUIRE(instance.num_resources() == capacities.size() &&
                    instance.num_users() == requirements.size(),
                "instance does not match the checkpoint dimensions");
  for (const ResourceId r : assignment)
    QOSLB_REQUIRE(r < live.size() && live[r] != 0,
                  "checkpointed user resides on a dead resource");
  State state(instance, assignment);
  for (ResourceId r = 0; r < live.size(); ++r)
    if (live[r] == 0) state.set_resource_live(r, false);
  return state;
}

SnapshotV1 capture_snapshot(const Protocol& protocol, const State& state,
                            std::uint64_t master_seed,
                            std::uint64_t next_round, const Counters& counters,
                            const ChurnTracker& churn) {
  SnapshotV1 snapshot;
  snapshot.protocol = protocol.name();
  snapshot.next_round = next_round;
  snapshot.master_seed = master_seed;
  const Instance& instance = state.instance();
  snapshot.capacities = instance.capacities();
  snapshot.requirements = instance.requirements();
  snapshot.rate_model = instance.rate_model();
  snapshot.assignment = state.assignment();
  snapshot.live.reserve(state.num_resources());
  for (ResourceId r = 0; r < state.num_resources(); ++r)
    snapshot.live.push_back(state.resource_live(r) ? 1 : 0);
  snapshot.counters = counters;
  snapshot.churn = churn;
  std::ostringstream protocol_state;
  protocol.snapshot_write(protocol_state);
  snapshot.protocol_state = protocol_state.str();
  QOSLB_CHECK(snapshot.protocol_state.empty() ||
                  snapshot.protocol_state.back() == '\n',
              "protocol snapshot state must be newline-terminated");
  return snapshot;
}

std::uint64_t state_hash(const State& state) {
  std::uint64_t h = mix64(0xC0DE'5EED'5EED'C0DEULL);
  h = mix64(h ^ state.num_users());
  h = mix64(h ^ state.num_resources());
  for (UserId u = 0; u < state.num_users(); ++u)
    h = mix64(h ^ (state.resource_of(u) + 0x9E3779B97F4A7C15ULL));
  for (ResourceId r = 0; r < state.num_resources(); ++r)
    h = mix64(h ^ (state.resource_live(r) ? 2 : 1));
  return h;
}

}  // namespace qoslb
