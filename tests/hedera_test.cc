#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "baselines/hedera.h"
#include "common/rng.h"
#include "flowsim/simulator.h"
#include "topology/builders.h"

namespace dard::baselines {
namespace {

using flowsim::FlowSimulator;
using flowsim::FlowSpec;
using topo::build_fat_tree;
using topo::Topology;

TEST(DemandEstimation, SingleFlowGetsFullNic) {
  const auto d = estimate_demands({0}, {1}, 2);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_DOUBLE_EQ(d[0], 1.0);
}

TEST(DemandEstimation, TwoFlowsFromOneSenderSplit) {
  const auto d = estimate_demands({0, 0}, {1, 2}, 3);
  EXPECT_DOUBLE_EQ(d[0], 0.5);
  EXPECT_DOUBLE_EQ(d[1], 0.5);
}

TEST(DemandEstimation, TwoFlowsIntoOneReceiverSplit) {
  const auto d = estimate_demands({0, 1}, {2, 2}, 3);
  EXPECT_DOUBLE_EQ(d[0], 0.5);
  EXPECT_DOUBLE_EQ(d[1], 0.5);
}

TEST(DemandEstimation, HederaPaperExample) {
  // Classic asymmetric case: sender 0 sends to {1, 2}; sender 1 sends to
  // {2}. Receiver 2 splits between its two senders; sender 0's second flow
  // then picks up the slack at the sender.
  const auto d = estimate_demands({0, 0, 1}, {1, 2, 2}, 3);
  // Receiver 2: flows (0->2) and (1->2) get 0.5 each; sender 0's flow to 1
  // takes the rest of sender 0's NIC = 0.5. Sender-0 equilibrium: both its
  // flows at 0.5.
  EXPECT_NEAR(d[0], 0.5, 1e-6);
  EXPECT_NEAR(d[1], 0.5, 1e-6);
  EXPECT_NEAR(d[2], 0.5, 1e-6);
}

TEST(DemandEstimation, ReceiverLimitedFreesSenderShare) {
  // Sender 0: flows to 1 and 2. Receiver 2 is shared by three senders, so
  // flow (0->2) is clamped to 1/3; flow (0->1) grows to 2/3.
  const auto d =
      estimate_demands({0, 0, 3, 4}, {1, 2, 2, 2}, 5);
  EXPECT_NEAR(d[1], 1.0 / 3, 1e-6);
  EXPECT_NEAR(d[0], 2.0 / 3, 1e-6);
  EXPECT_NEAR(d[2], 1.0 / 3, 1e-6);
  EXPECT_NEAR(d[3], 1.0 / 3, 1e-6);
}

TEST(DemandEstimation, ManyToOneEqualShares) {
  std::vector<std::uint32_t> srcs, dsts;
  for (std::uint32_t s = 0; s < 8; ++s) {
    srcs.push_back(s);
    dsts.push_back(8);
  }
  const auto d = estimate_demands(srcs, dsts, 9);
  for (const double x : d) EXPECT_NEAR(x, 1.0 / 8, 1e-6);
}

TEST(DemandEstimation, EmptyInput) {
  EXPECT_TRUE(estimate_demands({}, {}, 4).empty());
}

FlowSpec make_spec(NodeId src, NodeId dst, Bytes size, Seconds at,
                   std::uint16_t port) {
  FlowSpec s;
  s.src_host = src;
  s.dst_host = dst;
  s.size = size;
  s.arrival = at;
  s.src_port = port;
  s.dst_port = 22;
  return s;
}

TEST(HederaAgentTest, SeparatesForcedCollision) {
  const Topology t = build_fat_tree({.p = 4});
  FlowSimulator sim(t);
  HederaConfig cfg;
  cfg.interval = 2.0;
  cfg.sa_iterations = 400;
  HederaAgent agent(cfg);
  sim.set_agent(&agent);

  const FlowId f1 = sim.submit(
      make_spec(t.hosts()[0], t.hosts()[12], 4'000'000'000, 0.0, 1));
  const FlowId f2 = sim.submit(
      make_spec(t.hosts()[1], t.hosts()[13], 4'000'000'000, 0.0, 2));
  sim.run_until(0.01);
  sim.move_flow(f1, 0);
  sim.move_flow(f2, 0);

  sim.run_until(10.0);
  EXPECT_GE(agent.rounds_run(), 4u);
  // Distinct destination hosts get independent selectors; annealing should
  // have found the collision-free assignment by now.
  EXPECT_NE(sim.flow(f1).path_index, sim.flow(f2).path_index);
  EXPECT_NEAR(sim.rate_of(f1), 1 * kGbps, 5e7);
  sim.run_until(10000.0);
}

TEST(HederaAgentTest, StableAssignmentIsNotChurned) {
  // One lone elephant: after the first assignment Hedera must stop moving
  // it (re-annealing from the persisted selector finds the same optimum).
  const Topology t = build_fat_tree({.p = 4});
  FlowSimulator sim(t);
  HederaConfig cfg;
  cfg.interval = 1.0;
  cfg.sa_iterations = 200;
  HederaAgent agent(cfg);
  sim.set_agent(&agent);

  const FlowId id = sim.submit(
      make_spec(t.hosts()[0], t.hosts()[12], 2'000'000'000, 0.0, 1));
  sim.run_until(6.0);
  const auto switches_mid = sim.flow(id).path_switches;
  EXPECT_LE(switches_mid, 1u);
  sim.run_until(14.0);
  // At most the initial correction; no oscillation afterwards.
  EXPECT_EQ(sim.flow(id).path_switches, switches_mid);
  sim.run_until(10000.0);
}

TEST(HederaAgentTest, AccountsReportsAndUpdates) {
  const Topology t = build_fat_tree({.p = 4});
  FlowSimulator sim(t);
  HederaAgent agent(HederaConfig{.interval = 1.0, .sa_iterations = 100});
  sim.set_agent(&agent);
  sim.submit(make_spec(t.hosts()[0], t.hosts()[12], 2'000'000'000, 0.0, 1));
  sim.run_until(5.0);
  EXPECT_GT(sim.accountant().total_bytes(
                fabric::ControlCategory::SchedulerReport),
            0u);
  sim.run_until(10000.0);
}

TEST(HederaAgentTest, ManyFlowsReachNearOptimalAssignment) {
  // 4 inter-pod elephants from one ToR over 4 available cores: the
  // annealer should reach a (near-)perfect spread.
  const Topology t = build_fat_tree({.p = 4});
  FlowSimulator sim(t);
  HederaConfig cfg;
  cfg.interval = 1.0;
  cfg.sa_iterations = 2000;
  HederaAgent agent(cfg);
  sim.set_agent(&agent);

  std::vector<FlowId> ids;
  for (int i = 0; i < 4; ++i) {
    // Sources spread over pod 0, destinations over pod 3's 4 hosts.
    ids.push_back(sim.submit(make_spec(t.hosts()[static_cast<std::size_t>(i)],
                                       t.hosts()[static_cast<std::size_t>(12 + i)],
                                       4'000'000'000, 0.0,
                                       static_cast<std::uint16_t>(i))));
  }
  sim.run_until(12.0);
  double total_rate = 0;
  for (const FlowId id : ids) total_rate += sim.rate_of(id);
  // Perfect spread = 4 Gbps aggregate; require at least 3 (one residual
  // collision at most).
  EXPECT_GE(total_rate, 3 * kGbps);
  sim.run_until(100000.0);
}

TEST(HederaAgentTest, RoundSpanningMoreToRPairsThanThePathCacheHolds) {
  // Two elephants per host to random hosts on other ToRs of a k=16 fat tree
  // (128 ToRs): the t=2 s round schedules flows over more distinct ToR
  // pairs than the repository's LRU holds, so it must keep every pair's set
  // alive across the evictions its own lookups cause.
  const Topology t = build_fat_tree({.p = 16});
  // Batched reallocation keeps 2048 simultaneous flows cheap to simulate.
  flowsim::SimConfig sim_cfg;
  sim_cfg.realloc_interval = 0.01;
  FlowSimulator sim(t, sim_cfg);
  HederaConfig cfg;
  cfg.interval = 2.0;
  HederaAgent agent(cfg);
  sim.set_agent(&agent);

  Rng rng(3);
  const auto& hosts = t.hosts();
  std::set<std::pair<NodeId, NodeId>> pairs;
  std::uint16_t port = 1;
  for (const NodeId src : hosts) {
    for (int n = 0; n < 2; ++n) {
      NodeId dst;
      do {
        dst = hosts[rng.next_below(hosts.size())];
      } while (t.tor_of_host(dst) == t.tor_of_host(src));
      pairs.emplace(t.tor_of_host(src), t.tor_of_host(dst));
      // 400 MB: alive (and an elephant) at the first round even at full
      // NIC rate, done a few rounds later.
      sim.submit(make_spec(src, dst, 400'000'000, 0.0, port++));
    }
  }
  ASSERT_GT(pairs.size(), topo::PathRepository::kDefaultCapacity);

  sim.run_until(2.5);
  EXPECT_EQ(agent.rounds_run(), 1u);
  EXPECT_EQ(sim.active_elephants(), sim.submitted_flows());
  sim.run_until_flows_done();
  EXPECT_EQ(sim.finished_flows(), sim.submitted_flows());
}

}  // namespace
}  // namespace dard::baselines
