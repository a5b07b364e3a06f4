// Event-driven, message-level hierarchy forwarding: queries decided purely
// from local state (routing tables + ack-timeout suspicion), across
// multiple overlay levels, with message loss injection.
#include <gtest/gtest.h>

#include "sim/hierarchy_protocol.hpp"

namespace hours::sim {
namespace {

HierarchySimConfig make_config(std::vector<std::uint32_t> fanout, std::uint32_t k = 3) {
  HierarchySimConfig cfg;
  cfg.fanout = std::move(fanout);
  cfg.params.design = overlay::Design::kEnhanced;
  cfg.params.k = k;
  cfg.params.q = 3;
  return cfg;
}

TEST(HierarchyProtocol, TopologyLayout) {
  HierarchySimulation sim{make_config({4, 3})};
  EXPECT_EQ(sim.node_count(), 1U + 4U + 12U);
  EXPECT_EQ(sim.id_of({}), 0U);
  // Path <-> id round trip for every node.
  for (std::uint32_t id = 0; id < sim.node_count(); ++id) {
    EXPECT_EQ(sim.id_of(sim.path_of(id)), id);
  }
}

TEST(HierarchyProtocol, HealthyDeliveryExactHops) {
  HierarchySimulation sim{make_config({6, 4})};
  const auto outcome = sim.run_query({3, 2});
  ASSERT_TRUE(outcome.done);
  EXPECT_TRUE(outcome.delivered);
  EXPECT_EQ(outcome.hops, 2U);  // pure tree path
  EXPECT_EQ(outcome.timeouts, 0U);
}

TEST(HierarchyProtocol, SelfAndLevelOneDelivery) {
  HierarchySimulation sim{make_config({5})};
  EXPECT_TRUE(sim.run_query({}).delivered);
  const auto one = sim.run_query({4});
  EXPECT_TRUE(one.delivered);
  EXPECT_EQ(one.hops, 1U);
}

TEST(HierarchyProtocol, DetourAroundDeadAncestor) {
  HierarchySimulation sim{make_config({8, 6})};
  sim.kill({5});
  const auto outcome = sim.run_query({5, 3});
  ASSERT_TRUE(outcome.done);
  EXPECT_TRUE(outcome.delivered);
  EXPECT_GE(outcome.hops, 2U);      // detour can exit via a nephew straight to the leaf
  EXPECT_GE(outcome.timeouts, 1U);  // learned the death by silence
}

TEST(HierarchyProtocol, WholePathDeadStillDelivers) {
  HierarchySimulation sim{make_config({8, 8, 3})};
  sim.kill({5});
  sim.kill({5, 2});
  const auto outcome = sim.run_query({5, 2, 1});
  ASSERT_TRUE(outcome.done);
  EXPECT_TRUE(outcome.delivered);
}

TEST(HierarchyProtocol, DeadDestinationFails) {
  HierarchySimulation sim{make_config({4, 4})};
  sim.kill({1, 2});
  const auto outcome = sim.run_query({1, 2});
  ASSERT_TRUE(outcome.done);
  EXPECT_FALSE(outcome.delivered);
}

TEST(HierarchyProtocol, SuspicionIsLearnedAndReset) {
  HierarchySimulation sim{make_config({6, 4})};
  sim.kill({2});
  const auto first = sim.run_query({2, 1});
  ASSERT_TRUE(first.delivered);
  EXPECT_GE(first.timeouts, 1U);

  // Second query: the root already suspects the dead child; no new timeout
  // needed at that hop.
  const auto second = sim.run_query({2, 1});
  ASSERT_TRUE(second.delivered);
  EXPECT_LT(second.timeouts, first.timeouts + 1);

  // Revive: suspicion cleared, tree path works again.
  sim.revive({2});
  const auto third = sim.run_query({2, 1});
  ASSERT_TRUE(third.delivered);
  EXPECT_EQ(third.hops, 2U);
}

TEST(HierarchyProtocol, BootstrapFromSibling) {
  HierarchySimulation sim{make_config({8, 4})};
  sim.kill({});  // dead root
  const auto outcome = sim.run_query({5, 1}, /*start=*/{3});
  ASSERT_TRUE(outcome.done);
  EXPECT_TRUE(outcome.delivered);
}

TEST(HierarchyProtocol, ClimbFromUnrelatedStart) {
  HierarchySimulation sim{make_config({4, 4})};
  const auto outcome = sim.run_query({2, 2}, /*start=*/{1, 1});
  ASSERT_TRUE(outcome.done);
  EXPECT_TRUE(outcome.delivered);
  EXPECT_GE(outcome.hops, 3U);  // climb + descend
}

TEST(HierarchyProtocol, NeighborAttackCrossedByBackwardWalk) {
  // k = 3 keeps the no-surviving-exit probability ~1% (the event engine
  // uses one fixed seed per test).
  HierarchySimConfig cfg = make_config({24, 4}, /*k=*/3);
  HierarchySimulation sim{cfg};
  const ids::RingIndex target = 10;
  sim.kill({target});
  for (std::uint32_t s = 1; s <= 4; ++s) {
    sim.kill({ids::counter_clockwise_step(target, s, 24)});
  }
  const auto outcome = sim.run_query({target, 2});
  ASSERT_TRUE(outcome.done);
  EXPECT_TRUE(outcome.delivered);
}

TEST(HierarchyProtocol, UnrepairedRingLimitsBackwardReach) {
  HierarchySimConfig cfg = make_config({24, 4}, /*k=*/3);
  cfg.assume_ring_repaired = false;
  HierarchySimulation repaired_off{cfg};
  cfg.assume_ring_repaired = true;
  HierarchySimulation repaired_on{cfg};

  for (auto* sim : {&repaired_off, &repaired_on}) {
    const ids::RingIndex target = 10;
    sim->kill({target});
    for (std::uint32_t s = 1; s <= 6; ++s) {
      sim->kill({ids::counter_clockwise_step(target, s, 24)});
    }
  }
  const auto off = repaired_off.run_query({10, 2});
  const auto on = repaired_on.run_query({10, 2});
  EXPECT_TRUE(on.delivered);
  // Without repair the walk may dead-end; it must never beat the repaired
  // ring, and both must terminate.
  EXPECT_TRUE(off.done);
  EXPECT_LE(off.delivered, on.delivered);
}

TEST(HierarchyProtocol, RouteCandidatesAreExact) {
  // At a 1,000-child ancestor: the on-path child, then every other child in
  // counter-clockwise order from it, minus the ones the ancestor suspects.
  {
    HierarchySimulation sim{make_config({1000, 2})};
    sim.kill({499});
    sim.kill({498});
    ASSERT_TRUE(sim.run_query({499, 0}).delivered);  // the root times out on both

    std::vector<std::uint32_t> expected{sim.id_of({500})};
    for (std::uint32_t step = 3; step < 1000; ++step) {
      expected.push_back(sim.id_of({ids::counter_clockwise_step(500, step, 1000)}));
    }
    bool backward = false;
    EXPECT_EQ(sim.route_candidates(0, {500, 1}, backward), expected);
    EXPECT_FALSE(backward);
  }
  // Backward mode at a sibling whose table holds the OD: the OD, its
  // children (q covers both, the next-level OD first), then the
  // counter-clockwise walk, which reaches the OD again but must not repeat
  // it.
  {
    HierarchySimulation sim{make_config({8, 2})};
    const std::uint32_t at = sim.id_of({1});  // OD {3} is 2 <= k steps clockwise
    bool backward = true;
    const std::vector<std::uint32_t> expected{
        sim.id_of({3}), sim.id_of({3, 1}), sim.id_of({3, 0}), sim.id_of({0}), sim.id_of({7}),
        sim.id_of({6}), sim.id_of({5}),    sim.id_of({4}),    sim.id_of({2})};
    EXPECT_EQ(sim.route_candidates(at, {3, 1}, backward), expected);
    EXPECT_TRUE(backward);
  }
}

TEST(HierarchyProtocol, SurvivesMessageLoss) {
  HierarchySimConfig cfg = make_config({8, 4});
  cfg.transport.loss_probability = 0.10;
  HierarchySimulation sim{cfg};
  sim.kill({3});
  int delivered = 0;
  for (int i = 0; i < 20; ++i) {
    const auto outcome = sim.run_query({3, static_cast<ids::RingIndex>(i % 4)});
    if (outcome.delivered) ++delivered;
  }
  // Lossy links cost timeouts, not correctness, in the vast majority of
  // runs (a lost ack can strand a candidate list, so allow a small miss).
  EXPECT_GE(delivered, 19);
}

TEST(HierarchyProtocol, MessagesAreCountedAndBounded) {
  HierarchySimulation sim{make_config({6, 4})};
  const auto before = sim.messages_sent();
  (void)sim.run_query({3, 2});
  const auto after = sim.messages_sent();
  EXPECT_GT(after, before);
  EXPECT_LT(after - before, 16U);  // 2 hops = 2 messages + 2 acks + injection overheads
}

TEST(HierarchyProtocol, StealthyDropperSwallowsQueries) {
  // Section 5.3: an insider acks (so no timeout betrays it) and drops the
  // query; the client never gets an answer, and — unlike a DoS — upstream
  // nodes learn nothing.
  HierarchySimulation sim{make_config({6, 4})};
  sim.set_behavior({3}, overlay::NodeBehavior::kDropper);
  const auto outcome = sim.run_query({3, 2});
  EXPECT_FALSE(outcome.done);       // the query simply vanished
  EXPECT_FALSE(outcome.delivered);

  // Other subtrees are untouched.
  EXPECT_TRUE(sim.run_query({4, 1}).delivered);
}

TEST(HierarchyProtocol, DropperOnlyHurtsRoutesThroughIt) {
  HierarchySimulation sim{make_config({8, 4, 2})};
  sim.set_behavior({2, 1}, overlay::NodeBehavior::kDropper);
  // Routed *through* the insider: swallowed.
  EXPECT_FALSE(sim.run_query({2, 1, 0}).done);
  // Addressed *to* the insider: it still answers (a compromised data holder
  // is outside HOURS' scope, Section 5.3).
  EXPECT_TRUE(sim.run_query({2, 1}).delivered);
  // Everything not behind it is unaffected.
  EXPECT_TRUE(sim.run_query({2, 0, 1}).delivered);
  EXPECT_TRUE(sim.run_query({5, 3, 0}).delivered);
}

TEST(HierarchyProtocol, MisrouterDelaysButHonestNodesRecover) {
  HierarchySimulation sim{make_config({16, 4}, /*k=*/5)};
  sim.kill({9});  // force overlay detours that may traverse the misrouter
  sim.set_behavior({8}, overlay::NodeBehavior::kMisrouter);
  int delivered = 0;
  for (int i = 0; i < 8; ++i) {
    const auto outcome = sim.run_query({9, static_cast<ids::RingIndex>(i % 4)});
    if (outcome.delivered) ++delivered;
  }
  // Mis-routing wastes hops; honest downstream nodes resume the algorithm.
  EXPECT_GE(delivered, 6);
}

// Property sweep: event engine delivery matches the oracle-based graph
// engine's guarantee (alive destinations under single-ancestor attacks are
// always reached) across shapes and k.
struct ProtoCase {
  std::uint32_t l1;
  std::uint32_t l2;
  std::uint32_t k;
};

class ProtocolSweep : public ::testing::TestWithParam<ProtoCase> {};

TEST_P(ProtocolSweep, DeliversThroughDeadAncestor) {
  const auto [l1, l2, k] = GetParam();
  HierarchySimulation sim{make_config({l1, l2}, k)};
  sim.kill({l1 / 2});
  for (ids::RingIndex leaf = 0; leaf < l2; ++leaf) {
    const auto outcome = sim.run_query({l1 / 2, leaf});
    ASSERT_TRUE(outcome.done);
    EXPECT_TRUE(outcome.delivered) << "l1=" << l1 << " l2=" << l2 << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ProtocolSweep,
                         ::testing::Values(ProtoCase{8, 4, 3}, ProtoCase{16, 8, 5},
                                           ProtoCase{32, 4, 2}, ProtoCase{5, 3, 1},
                                           ProtoCase{48, 6, 5}));

}  // namespace
}  // namespace hours::sim
