#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "baselines/ecmp.h"
#include "dard/monitor.h"
#include "common/rng.h"
#include "fabric/wire.h"
#include "flowsim/simulator.h"
#include "topology/builders.h"
#include "topology/path_gen.h"

namespace dard::core {
namespace {

using flowsim::FlowSimulator;
using flowsim::FlowSpec;
using topo::build_fat_tree;
using topo::NodeKind;
using topo::Topology;

class MonitorTest : public ::testing::Test {
 protected:
  MonitorTest() : topo_(build_fat_tree({.p = 4})), sim_(topo_) {
    sim_.set_agent(&agent_);
    src_tor_ = topo_.tors().front();           // pod 0
    dst_tor_ = topo_.tors().back();            // pod 3
    service_.emplace(sim_.link_state(), &sim_.accountant());
  }

  Topology topo_;
  FlowSimulator sim_;
  baselines::EcmpAgent agent_;
  NodeId src_tor_, dst_tor_;
  std::optional<fabric::StateQueryService> service_;
};

TEST_F(MonitorTest, QuerySetCoversExactlyThePaperGroups) {
  PathMonitor m(sim_, src_tor_, dst_tor_);
  // Paper Section 2.4.2: source ToR + source-side aggs + all cores +
  // destination-side aggs. For p=4: 1 + 2 + 4 + 2 = 9 switches.
  EXPECT_EQ(m.queried_switches().size(), 9u);
  int tors = 0, aggs = 0, cores = 0;
  for (const NodeId sw : m.queried_switches()) {
    switch (topo_.node(sw).kind) {
      case NodeKind::Tor:
        ++tors;
        break;
      case NodeKind::Agg:
        ++aggs;
        break;
      case NodeKind::Core:
        ++cores;
        break;
      default:
        FAIL() << "hosts must never be queried";
    }
  }
  EXPECT_EQ(tors, 1);   // the source ToR only
  EXPECT_EQ(aggs, 4);   // two per side
  EXPECT_EQ(cores, 4);  // all of them
}

TEST_F(MonitorTest, RefreshAssemblesIdleBonf) {
  PathMonitor m(sim_, src_tor_, dst_tor_);
  m.refresh(0.0, *service_);
  ASSERT_EQ(m.path_states().size(), 4u);
  for (const auto& state : m.path_states()) {
    ASSERT_TRUE(state.assembled);
    EXPECT_DOUBLE_EQ(state.bonf(), 1 * kGbps);  // idle network
    EXPECT_EQ(state.flow_numbers, 0u);
  }
}

TEST_F(MonitorTest, RefreshSeesElephantsOnPath) {
  // Start an elephant pinned to path 0 and let it be promoted.
  FlowSpec spec;
  spec.src_host = topo_.hosts().front();
  spec.dst_host = topo_.hosts().back();
  spec.size = 500'000'000;
  spec.arrival = 0.0;
  const FlowId id = sim_.submit(spec);
  sim_.run_until(0.5);
  sim_.move_flow(id, 0);
  sim_.run_until(1.5);  // promoted at t=1
  ASSERT_TRUE(sim_.flow(id).is_elephant);

  PathMonitor m(sim_, src_tor_, dst_tor_);
  m.refresh(sim_.now(), *service_);
  EXPECT_EQ(m.path_states()[0].flow_numbers, 1u);
  EXPECT_DOUBLE_EQ(m.path_states()[0].bonf(), 1 * kGbps);
  // Paths 2,3 (other aggregation switch) see nothing.
  EXPECT_EQ(m.path_states()[2].flow_numbers, 0u);
  EXPECT_EQ(m.path_states()[3].flow_numbers, 0u);
}

TEST_F(MonitorTest, RefreshAccountsControlMessages) {
  PathMonitor m(sim_, src_tor_, dst_tor_);
  const auto before = sim_.accountant().total_bytes();
  m.refresh(0.0, *service_);
  const auto delta = sim_.accountant().total_bytes() - before;
  EXPECT_EQ(delta, m.queried_switches().size() *
                       (fabric::kDardQueryBytes + fabric::kDardReplyBytes));
}

TEST_F(MonitorTest, FlowVectorBookkeeping) {
  PathMonitor m(sim_, src_tor_, dst_tor_);
  EXPECT_FALSE(m.has_flows());
  m.add_flow(FlowId(0), 1);
  m.add_flow(FlowId(1), 1);
  m.add_flow(FlowId(2), 3);
  EXPECT_EQ(m.tracked_flows(), 3u);
  EXPECT_EQ(m.flows_on(1), 2u);
  EXPECT_EQ(m.flows_on(3), 1u);
  m.record_move(FlowId(1), 1, 2);
  EXPECT_EQ(m.flows_on(1), 1u);
  EXPECT_EQ(m.flows_on(2), 1u);
  m.remove_flow(FlowId(0), 1);
  m.remove_flow(FlowId(1), 2);
  m.remove_flow(FlowId(2), 3);
  EXPECT_FALSE(m.has_flows());
}

TEST_F(MonitorTest, ProposeRequiresFlows) {
  PathMonitor m(sim_, src_tor_, dst_tor_);
  m.refresh(0.0, *service_);
  Rng rng(1);
  EXPECT_FALSE(m.propose(0, rng).has_value());
}

TEST_F(MonitorTest, ProposeShiftsOffCongestedPath) {
  // Three elephants from different sources crossing path 0; our host owns
  // one of them. Target paths are idle => estimation 0.5 Gbps vs 0.33.
  const auto& hosts = topo_.hosts();
  std::vector<FlowId> ids;
  for (int i = 0; i < 3; ++i) {
    FlowSpec spec;
    spec.src_host = hosts[static_cast<std::size_t>(i)];  // pod 0: 2 ToRs
    spec.dst_host = hosts[hosts.size() - 1 - static_cast<std::size_t>(i)];
    spec.size = 2'000'000'000;
    spec.arrival = 0.0;
    spec.src_port = static_cast<std::uint16_t>(i);
    ids.push_back(sim_.submit(spec));
  }
  sim_.run_until(0.5);
  // All three share core 0 (path 0 of their respective ToR pairs).
  for (const FlowId id : ids) sim_.move_flow(id, 0);
  sim_.run_until(1.5);  // all promoted

  PathMonitor m(sim_, src_tor_, dst_tor_);
  m.add_flow(ids[0], 0);
  m.refresh(sim_.now(), *service_);

  Rng rng(1);
  const auto move = m.propose(10 * kMbps, rng);
  ASSERT_TRUE(move.has_value());
  EXPECT_EQ(move->flow, ids[0]);
  EXPECT_EQ(move->from, 0u);
  // The target must be one of the paths through the other aggregation
  // switch (2 or 3): paths 0 and 1 share the congested ToR uplink.
  EXPECT_GE(move->to, 2u);
  EXPECT_GT(move->estimated_gain, 0.0);
}

TEST_F(MonitorTest, ProposeRespectsDelta) {
  // One elephant alone on path 0: moving it cannot improve by more than δ
  // because every path is equally idle.
  FlowSpec spec;
  spec.src_host = topo_.hosts().front();
  spec.dst_host = topo_.hosts().back();
  spec.size = 2'000'000'000;
  spec.arrival = 0.0;
  const FlowId id = sim_.submit(spec);
  sim_.run_until(1.5);
  ASSERT_TRUE(sim_.flow(id).is_elephant);

  PathMonitor m(sim_, src_tor_, dst_tor_);
  m.add_flow(id, sim_.flow(id).path_index);
  m.refresh(sim_.now(), *service_);
  // Own path: BoNF 1G (1 flow => bottleneck 1G/1). Others: idle 1G.
  // Estimation for target = 1G/1 = 1G; gain = 0 < δ.
  Rng rng(1);
  EXPECT_FALSE(m.propose(10 * kMbps, rng).has_value());
}

TEST_F(MonitorTest, IntraPodMonitorQueriesOnlyPodSwitches) {
  // ToRs within pod 0: only the source ToR and the pod's aggs matter.
  const NodeId tor_a = topo_.tors()[0];
  const NodeId tor_b = topo_.tors()[1];
  ASSERT_EQ(topo_.node(tor_a).pod, topo_.node(tor_b).pod);
  PathMonitor m(sim_, tor_a, tor_b);
  EXPECT_EQ(m.path_count(), 2u);
  // Source ToR + 2 aggs (the paths' only switch-switch links are
  // tor_a->agg and agg->tor_b).
  EXPECT_EQ(m.queried_switches().size(), 3u);
}

// Seeded ToR pairs, alternating same-pod and inter-pod destinations where
// the fabric has both.
std::vector<std::pair<NodeId, NodeId>> seeded_pairs(const Topology& t,
                                                    std::size_t n) {
  std::map<int, std::vector<NodeId>> by_pod;
  for (const NodeId tor : t.tors()) by_pod[t.node(tor).pod].push_back(tor);
  Rng rng(11);
  std::vector<std::pair<NodeId, NodeId>> out;
  while (out.size() < n) {
    const NodeId s = t.tors()[rng.next_below(t.tors().size())];
    const bool same_pod = out.size() % 2 == 0;
    std::vector<NodeId> candidates;
    for (const NodeId d : t.tors())
      if (d != s && (t.node(d).pod == t.node(s).pod) == same_pod)
        candidates.push_back(d);
    if (candidates.empty())
      for (const NodeId d : t.tors())
        if (d != s) candidates.push_back(d);
    out.emplace_back(s, candidates[rng.next_below(candidates.size())]);
  }
  return out;
}

// The monitor lays out its query set and slots from the generator's tables
// in one pass; this checks the layout, and what a refresh assembles from
// it, against the pair's whole path set on every fabric shape — including
// stripped ones, where some cores are unreachable from a ToR.
void check_monitor_matches_path_set(const Topology& t) {
  FlowSimulator sim(t);
  baselines::EcmpAgent agent;
  sim.set_agent(&agent);
  const fabric::StateQueryService service(sim.link_state(), nullptr);
  Rng rng(3);
  const auto& hosts = t.hosts();
  for (std::uint16_t i = 0; i < 8; ++i) {
    FlowSpec spec;
    spec.src_host = hosts[rng.next_below(hosts.size())];
    do {
      spec.dst_host = hosts[rng.next_below(hosts.size())];
    } while (spec.dst_host == spec.src_host);
    spec.size = 4'000'000'000ull;
    spec.src_port = static_cast<std::uint16_t>(1000 + i);
    spec.dst_port = 80;
    sim.submit(spec);
  }
  std::vector<LinkId> fabric_links;
  for (const topo::Link& l : t.links())
    if (t.is_switch_switch(l.id)) fabric_links.push_back(l.id);
  const topo::Link& failed =
      t.link(fabric_links[rng.next_below(fabric_links.size())]);
  sim.set_cable_failed(failed.src, failed.dst, true);
  sim.run_until(1.5);  // every elephant promoted

  const topo::PathGenerator& gen = sim.paths().generator();
  for (const auto& [s, d] : seeded_pairs(t, 50)) {
    SCOPED_TRACE(testing::Message() << "pair (" << s.value() << ","
                                    << d.value() << ")");
    const std::vector<topo::Path> paths = gen.all(s, d);
    PathMonitor m(sim, s, d);
    ASSERT_EQ(m.path_count(), paths.size());

    std::vector<NodeId> want_switches;
    for (const topo::Path& p : paths)
      for (const LinkId l : p.links)
        if (t.is_switch_switch(l)) want_switches.push_back(t.link(l).src);
    std::sort(want_switches.begin(), want_switches.end());
    want_switches.erase(
        std::unique(want_switches.begin(), want_switches.end()),
        want_switches.end());
    EXPECT_EQ(m.queried_switches(), want_switches);

    m.refresh(sim.now(), service);
    for (std::size_t i = 0; i < paths.size(); ++i) {
      PathState want;  // first strict minimum, in link order
      for (const LinkId l : paths[i].links) {
        const fabric::LinkState ls = service.link_state(l);
        if (!want.assembled || ls.bonf() < want.bonf()) {
          want.bottleneck = ls.link;
          want.bandwidth = ls.bandwidth;
          want.flow_numbers = ls.elephant_flows;
          want.assembled = true;
        }
      }
      const PathState& got = m.path_states()[i];
      EXPECT_EQ(got.assembled, want.assembled) << "path " << i;
      EXPECT_EQ(got.bottleneck, want.bottleneck) << "path " << i;
      EXPECT_EQ(got.bandwidth, want.bandwidth) << "path " << i;
      EXPECT_EQ(got.flow_numbers, want.flow_numbers) << "path " << i;
    }
  }
}

TEST(MonitorLayout, MatchesPathSetOnEveryFabricShape) {
  for (const int p : {4, 8, 16}) check_monitor_matches_path_set(build_fat_tree({.p = p}));
  check_monitor_matches_path_set(topo::build_clos({}));
  check_monitor_matches_path_set(topo::build_three_tier({}));
  topo::FatTreeParams skewed_stripped{.p = 8};
  skewed_stripped.core_capacities = {1 * kGbps, 4 * kGbps};
  skewed_stripped.stripped_pods = 2;
  skewed_stripped.stripped_pod_uplinks = 1;
  check_monitor_matches_path_set(build_fat_tree(skewed_stripped));
  topo::FatTreeParams oversubscribed{.p = 8};
  oversubscribed.uplinks_per_agg = 2;
  check_monitor_matches_path_set(build_fat_tree(oversubscribed));
  topo::LeafSpineParams stripped_leaves;
  stripped_leaves.stripped_leaves = 3;
  stripped_leaves.stripped_leaf_uplinks = 2;
  check_monitor_matches_path_set(topo::build_leaf_spine(stripped_leaves));
}

}  // namespace
}  // namespace dard::core
