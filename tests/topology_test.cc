#include <gtest/gtest.h>

#include "topology/builders.h"
#include "topology/topology.h"

namespace dard::topo {
namespace {

TEST(Topology, AddNodesAndCables) {
  Topology t;
  const NodeId a = t.add_node(NodeKind::Tor, 0, 0);
  const NodeId b = t.add_node(NodeKind::Agg, 0, 0);
  const auto [ab, ba] = t.add_cable(a, b, 1 * kGbps, 0.001);

  EXPECT_EQ(t.node_count(), 2u);
  EXPECT_EQ(t.link_count(), 2u);
  EXPECT_EQ(t.link(ab).src, a);
  EXPECT_EQ(t.link(ab).dst, b);
  EXPECT_EQ(t.link(ba).src, b);
  EXPECT_EQ(t.link(ba).dst, a);
  EXPECT_DOUBLE_EQ(t.link(ab).capacity, 1 * kGbps);
  EXPECT_EQ(t.find_link(a, b), ab);
  EXPECT_EQ(t.find_link(b, a), ba);
}

TEST(Topology, ReverseIsTheCablesOtherDirection) {
  for (const Topology& t :
       {build_fat_tree({.p = 4}), build_clos(ClosParams{}),
        build_three_tier(ThreeTierParams{}),
        build_leaf_spine(LeafSpineParams{})}) {
    for (const Link& l : t.links()) {
      EXPECT_EQ(t.reverse(l.id), t.find_link(l.dst, l.src));
      EXPECT_EQ(t.reverse(t.reverse(l.id)), l.id);
    }
  }
}

TEST(Topology, FindLinkMissing) {
  Topology t;
  const NodeId a = t.add_node(NodeKind::Tor, 0, 0);
  const NodeId b = t.add_node(NodeKind::Agg, 0, 0);
  EXPECT_FALSE(t.find_link(a, b).valid());
}

TEST(Topology, LayersAreOrdered) {
  EXPECT_LT(layer_of(NodeKind::Host), layer_of(NodeKind::Tor));
  EXPECT_LT(layer_of(NodeKind::Tor), layer_of(NodeKind::Agg));
  EXPECT_LT(layer_of(NodeKind::Agg), layer_of(NodeKind::Core));
}

class FatTreeTest : public ::testing::TestWithParam<int> {};

TEST_P(FatTreeTest, ElementCounts) {
  const int p = GetParam();
  const Topology t = build_fat_tree({.p = p});
  EXPECT_EQ(t.cores().size(), static_cast<std::size_t>(p * p / 4));
  EXPECT_EQ(t.aggs().size(), static_cast<std::size_t>(p * p / 2));
  EXPECT_EQ(t.tors().size(), static_cast<std::size_t>(p * p / 2));
  EXPECT_EQ(t.hosts().size(), static_cast<std::size_t>(p * p * p / 4));
}

TEST_P(FatTreeTest, SwitchPortCounts) {
  // Every switch in a p-port fat-tree uses exactly p ports.
  const int p = GetParam();
  const Topology t = build_fat_tree({.p = p});
  for (const auto& node : t.nodes()) {
    if (node.kind == NodeKind::Host) {
      EXPECT_EQ(t.out_links(node.id).size(), 1u);
    } else {
      EXPECT_EQ(t.out_links(node.id).size(), static_cast<std::size_t>(p))
          << node.name;
    }
  }
}

TEST_P(FatTreeTest, CoreReachesEveryPodOnce) {
  const int p = GetParam();
  const Topology t = build_fat_tree({.p = p});
  for (const NodeId core : t.cores()) {
    std::vector<int> pods_seen(static_cast<std::size_t>(p), 0);
    for (const LinkId l : t.out_links(core))
      ++pods_seen[static_cast<std::size_t>(t.node(t.link(l).dst).pod)];
    for (const int n : pods_seen) EXPECT_EQ(n, 1);
  }
}

TEST_P(FatTreeTest, UpDownNeighborCounts) {
  const int p = GetParam();
  const Topology t = build_fat_tree({.p = p});
  const int half = p / 2;
  for (const NodeId tor : t.tors()) {
    EXPECT_EQ(t.up_neighbors(tor).size(), static_cast<std::size_t>(half));
    EXPECT_EQ(t.down_neighbors(tor).size(), static_cast<std::size_t>(half));
  }
  for (const NodeId agg : t.aggs()) {
    EXPECT_EQ(t.up_neighbors(agg).size(), static_cast<std::size_t>(half));
    EXPECT_EQ(t.down_neighbors(agg).size(), static_cast<std::size_t>(half));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FatTreeTest, ::testing::Values(4, 6, 8, 16));

class ClosTest : public ::testing::TestWithParam<int> {};

TEST_P(ClosTest, ElementCounts) {
  const int d = GetParam();
  const Topology t = build_clos({.d_i = d, .d_a = d, .hosts_per_tor = 2});
  EXPECT_EQ(t.cores().size(), static_cast<std::size_t>(d / 2));
  EXPECT_EQ(t.aggs().size(), static_cast<std::size_t>(d));
  EXPECT_EQ(t.tors().size(), static_cast<std::size_t>(d * d / 4));
  EXPECT_EQ(t.hosts().size(), static_cast<std::size_t>(d * d / 2));
}

TEST_P(ClosTest, TorsAreDualHomed) {
  const Topology t =
      build_clos({.d_i = GetParam(), .d_a = GetParam(), .hosts_per_tor = 2});
  for (const NodeId tor : t.tors())
    EXPECT_EQ(t.up_neighbors(tor).size(), 2u);
}

TEST_P(ClosTest, IntermediateConnectsAllAggs) {
  const int d = GetParam();
  const Topology t = build_clos({.d_i = d, .d_a = d, .hosts_per_tor = 2});
  for (const NodeId inter : t.cores())
    EXPECT_EQ(t.down_neighbors(inter).size(), static_cast<std::size_t>(d));
}

TEST_P(ClosTest, PodTorsShareAggPair) {
  const Topology t =
      build_clos({.d_i = GetParam(), .d_a = GetParam(), .hosts_per_tor = 2});
  for (const NodeId tor : t.tors()) {
    for (const NodeId agg : t.up_neighbors(tor))
      EXPECT_EQ(t.node(agg).pod, t.node(tor).pod);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ClosTest, ::testing::Values(4, 8, 16));

TEST(ThreeTier, OversubscriptionRatios) {
  const ThreeTierParams params;
  const Topology t = build_three_tier(params);

  // Access layer: host capacity down vs uplink capacity up = 2.5:1.
  const NodeId access = t.tors().front();
  double down = 0, up = 0;
  for (const LinkId l : t.out_links(access)) {
    const auto kind = t.node(t.link(l).dst).kind;
    if (kind == NodeKind::Host) down += t.link(l).capacity;
    if (kind == NodeKind::Agg) up += t.link(l).capacity;
  }
  EXPECT_DOUBLE_EQ(down / up, 2.5);

  // Aggregation layer: access-facing down vs core-facing up = 1.5:1.
  const NodeId agg = t.aggs().front();
  down = up = 0;
  for (const LinkId l : t.out_links(agg)) {
    const auto kind = t.node(t.link(l).dst).kind;
    if (kind == NodeKind::Tor) down += t.link(l).capacity;
    if (kind == NodeKind::Core) up += t.link(l).capacity;
  }
  EXPECT_DOUBLE_EQ(down / up, 1.5);
}

TEST(ThreeTier, ElementCounts) {
  const ThreeTierParams params;
  const Topology t = build_three_tier(params);
  EXPECT_EQ(t.cores().size(), 8u);
  EXPECT_EQ(t.aggs().size(), static_cast<std::size_t>(params.pods * 2));
  EXPECT_EQ(t.tors().size(),
            static_cast<std::size_t>(params.pods * params.access_per_pod));
  EXPECT_EQ(t.hosts().size(),
            static_cast<std::size_t>(params.pods * params.access_per_pod *
                                     params.hosts_per_access));
}

TEST(Topology, TorOfHost) {
  const Topology t = build_fat_tree({.p = 4});
  for (const NodeId h : t.hosts()) {
    const NodeId tor = t.tor_of_host(h);
    EXPECT_EQ(t.node(tor).kind, NodeKind::Tor);
    EXPECT_EQ(t.node(tor).pod, t.node(h).pod);
  }
}

TEST(Topology, IsSwitchSwitch) {
  const Topology t = build_fat_tree({.p = 4});
  const NodeId host = t.hosts().front();
  const NodeId tor = t.tor_of_host(host);
  EXPECT_FALSE(t.is_switch_switch(t.find_link(host, tor)));
  const NodeId agg = t.up_neighbors(tor).front();
  EXPECT_TRUE(t.is_switch_switch(t.find_link(tor, agg)));
}

}  // namespace
}  // namespace dard::topo
