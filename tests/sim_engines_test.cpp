#include <gtest/gtest.h>

#include <vector>

#include "core/accounting.hpp"
#include "sim/des.hpp"

namespace qoslb {
namespace {

// ---- counters ----

TEST(Counters, MessageCostModel) {
  Counters c;
  c.probes = 3;            // 3 round trips = 6 messages
  c.migrate_requests = 2;  // 2
  c.grants = 1;            // 1
  c.rejects = 1;           // 1
  c.migrations = 1;        // 1
  EXPECT_EQ(c.messages(), 11u);
}

TEST(Counters, Accumulate) {
  Counters a, b;
  a.probes = 1;
  a.rounds = 2;
  b.probes = 3;
  b.migrations = 4;
  a += b;
  EXPECT_EQ(a.probes, 4u);
  EXPECT_EQ(a.rounds, 2u);
  EXPECT_EQ(a.migrations, 4u);
}

// ---- discrete-event engine ----

/// Records every delivery (time, src) it sees.
class RecorderAgent : public DesAgent {
 public:
  void on_message(const Message& msg, DesEngine& engine) override {
    deliveries.emplace_back(engine.now(), msg.src);
  }
  std::vector<std::pair<double, AgentId>> deliveries;
};

/// Replies to every probe with a kLoadReply.
class EchoAgent : public DesAgent {
 public:
  void on_message(const Message& msg, DesEngine& engine) override {
    ++received;
    if (msg.type == MsgType::kProbe) {
      Message reply;
      reply.type = MsgType::kLoadReply;
      reply.src = msg.dst;
      reply.dst = msg.src;
      engine.send(reply, 1.0);
    }
  }
  int received = 0;
};

TEST(DesEngine, DeliversInTimeOrder) {
  DesEngine engine(1);
  RecorderAgent recorder;
  const AgentId id = engine.add_agent(&recorder);
  Message m;
  m.dst = id;
  m.src = 7;
  engine.send(m, 5.0);
  m.src = 8;
  engine.send(m, 2.0);
  m.src = 9;
  engine.send(m, 9.0);
  engine.run();
  ASSERT_EQ(recorder.deliveries.size(), 3u);
  EXPECT_EQ(recorder.deliveries[0].second, 8u);
  EXPECT_EQ(recorder.deliveries[1].second, 7u);
  EXPECT_EQ(recorder.deliveries[2].second, 9u);
  EXPECT_DOUBLE_EQ(engine.now(), 9.0);
}

TEST(DesEngine, FifoTieBreakOnEqualTimes) {
  DesEngine engine(1);
  RecorderAgent recorder;
  const AgentId id = engine.add_agent(&recorder);
  for (AgentId s = 0; s < 5; ++s) {
    Message m;
    m.dst = id;
    m.src = s;
    engine.send(m, 1.0);
  }
  engine.run();
  for (AgentId s = 0; s < 5; ++s) EXPECT_EQ(recorder.deliveries[s].second, s);
}

TEST(DesEngine, PingPongTerminatesAndCounts) {
  DesEngine engine(1);
  EchoAgent a, b;
  const AgentId ida = engine.add_agent(&a);
  const AgentId idb = engine.add_agent(&b);
  Message probe;
  probe.type = MsgType::kProbe;
  probe.src = ida;
  probe.dst = idb;
  engine.send(probe, 1.0);
  const std::uint64_t events = engine.run();
  EXPECT_EQ(events, 2u);  // probe + reply; replies do not re-trigger
  EXPECT_EQ(b.received, 1);
  EXPECT_EQ(a.received, 1);
}

TEST(DesEngine, MaxEventsCap) {
  DesEngine engine(1);
  // Self-perpetuating timer chain.
  class TimerAgent : public DesAgent {
   public:
    void on_start(DesEngine& engine) override { engine.schedule_timer(0, 1.0); }
    void on_message(const Message&, DesEngine& engine) override {
      engine.schedule_timer(0, 1.0);
    }
  } agent;
  engine.add_agent(&agent);
  const std::uint64_t events = engine.run(10);
  EXPECT_EQ(events, 10u);
  EXPECT_GT(engine.pending(), 0u);
}

TEST(DesEngine, JitterIsDeterministicPerSeed) {
  auto run_once = [](std::uint64_t seed) {
    DesEngine engine(seed, 0.7);
    RecorderAgent recorder;
    const AgentId id = engine.add_agent(&recorder);
    for (int i = 0; i < 8; ++i) {
      Message m;
      m.dst = id;
      m.src = static_cast<AgentId>(i);
      engine.send(m, 1.0);
    }
    engine.run();
    return recorder.deliveries;
  };
  EXPECT_EQ(run_once(5), run_once(5));
  EXPECT_NE(run_once(5), run_once(6));
}

TEST(DesEngine, RejectsBadSends) {
  DesEngine engine(1);
  RecorderAgent recorder;
  engine.add_agent(&recorder);
  Message m;
  m.dst = 42;  // unknown agent
  EXPECT_THROW(engine.send(m), std::invalid_argument);
  m.dst = 0;
  EXPECT_THROW(engine.send(m, -1.0), std::invalid_argument);
}

TEST(DesEngine, TimerCarriesPayload) {
  DesEngine engine(1);
  class PayloadAgent : public DesAgent {
   public:
    void on_message(const Message& msg, DesEngine&) override { last = msg.a; }
    std::int64_t last = -1;
  } agent;
  const AgentId id = engine.add_agent(&agent);
  engine.schedule_timer(id, 1.0, 77);
  engine.run();
  EXPECT_EQ(agent.last, 77);
}

}  // namespace
}  // namespace qoslb
