#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>

#include "common/rng.h"
#include "fabric/switch_state.h"
#include "flowsim/max_min.h"
#include "maxmin_oracle.h"
#include "topology/builders.h"
#include "topology/paths.h"

namespace dard::flowsim {
namespace {

using topo::build_fat_tree;
using topo::NodeKind;
using topo::Topology;

bool close(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({a, b, 1.0});
}

// A two-switch dumbbell: hosts a0,a1 -- tor A -- tor B -- hosts b0,b1.
struct Dumbbell {
  Topology t;
  NodeId a0, a1, b0, b1, tor_a, tor_b;
  LinkId middle;

  explicit Dumbbell(Bps middle_cap = 1 * kGbps, Bps edge_cap = 1 * kGbps) {
    tor_a = t.add_node(NodeKind::Tor, 0, 0);
    tor_b = t.add_node(NodeKind::Tor, 1, 0);
    a0 = t.add_node(NodeKind::Host, 0, 0);
    a1 = t.add_node(NodeKind::Host, 0, 1);
    b0 = t.add_node(NodeKind::Host, 1, 0);
    b1 = t.add_node(NodeKind::Host, 1, 1);
    t.add_cable(a0, tor_a, edge_cap, 0.0001);
    t.add_cable(a1, tor_a, edge_cap, 0.0001);
    t.add_cable(b0, tor_b, edge_cap, 0.0001);
    t.add_cable(b1, tor_b, edge_cap, 0.0001);
    middle = t.add_cable(tor_a, tor_b, middle_cap, 0.0001).first;
  }

  std::vector<LinkId> path(NodeId src, NodeId dst) const {
    // src -> tor -> tor -> dst (or within one side).
    std::vector<LinkId> links;
    const NodeId st = t.link(t.out_links(src).front()).dst;
    const NodeId dt = t.link(t.out_links(dst).front()).dst;
    links.push_back(t.find_link(src, st));
    if (st != dt) links.push_back(t.find_link(st, dt));
    links.push_back(t.find_link(dt, dst));
    return links;
  }
};

TEST(MaxMin, SingleFlowGetsFullCapacity) {
  Dumbbell d;
  MaxMinAllocator alloc(d.t);
  const auto p = d.path(d.a0, d.b0);
  const auto& rates = alloc.compute({&p});
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_DOUBLE_EQ(rates[0], 1 * kGbps);
}

TEST(MaxMin, TwoFlowsShareBottleneck) {
  Dumbbell d;
  MaxMinAllocator alloc(d.t);
  const auto p0 = d.path(d.a0, d.b0);
  const auto p1 = d.path(d.a1, d.b1);
  const auto& rates = alloc.compute({&p0, &p1});
  EXPECT_DOUBLE_EQ(rates[0], 0.5 * kGbps);
  EXPECT_DOUBLE_EQ(rates[1], 0.5 * kGbps);
}

TEST(MaxMin, UnequalBottlenecksGiveMaxMinNotEqualSplit) {
  // Flow X crosses the 1G middle link shared with flow Y; flow Z is alone
  // on its edge. Classic water-filling: X and Y get 500M; Z gets 1G.
  Dumbbell d;
  MaxMinAllocator alloc(d.t);
  const auto x = d.path(d.a0, d.b0);
  const auto y = d.path(d.a1, d.b1);
  const auto z = d.path(d.b0, d.b1);  // wait: b0 -> tor_b -> b1, no middle

  const auto& rates = alloc.compute({&x, &y, &z});
  EXPECT_DOUBLE_EQ(rates[0], 0.5 * kGbps);
  EXPECT_DOUBLE_EQ(rates[1], 0.5 * kGbps);
  // z shares tor_b->b1 with y... y gets 0.5 from the middle; z fills the
  // rest of the b1 downlink.
  EXPECT_DOUBLE_EQ(rates[2], 0.5 * kGbps);
}

TEST(MaxMin, EdgeLimitedFlowFreesBottleneckShare) {
  // Middle link 1G; flow via a 100M edge is capped at 100M, the other flow
  // picks up the remaining 900M.
  // Custom dumbbell with a 100 Mbps uplink for a1.
  Topology t;
  const NodeId tor_a = t.add_node(NodeKind::Tor, 0, 0);
  const NodeId tor_b = t.add_node(NodeKind::Tor, 1, 0);
  const NodeId a0 = t.add_node(NodeKind::Host, 0, 0);
  const NodeId a1 = t.add_node(NodeKind::Host, 0, 1);
  const NodeId b0 = t.add_node(NodeKind::Host, 1, 0);
  const NodeId b1 = t.add_node(NodeKind::Host, 1, 1);
  t.add_cable(a0, tor_a, 1 * kGbps, 0.0001);
  t.add_cable(a1, tor_a, 100 * kMbps, 0.0001);
  t.add_cable(b0, tor_b, 1 * kGbps, 0.0001);
  t.add_cable(b1, tor_b, 1 * kGbps, 0.0001);
  t.add_cable(tor_a, tor_b, 1 * kGbps, 0.0001);

  auto path = [&](NodeId s, NodeId dt_host) {
    return std::vector<LinkId>{
        t.find_link(s, tor_a), t.find_link(tor_a, tor_b),
        t.find_link(tor_b, dt_host)};
  };
  const auto p0 = path(a0, b0);
  const auto p1 = path(a1, b1);
  MaxMinAllocator alloc(t);
  const auto& rates = alloc.compute({&p0, &p1});
  EXPECT_DOUBLE_EQ(rates[1], 100 * kMbps);
  EXPECT_DOUBLE_EQ(rates[0], 900 * kMbps);
}

TEST(MaxMin, EmptyInput) {
  Dumbbell d;
  MaxMinAllocator alloc(d.t);
  EXPECT_TRUE(alloc.compute({}).empty());
}

TEST(MaxMin, AllocatorIsReusable) {
  Dumbbell d;
  MaxMinAllocator alloc(d.t);
  const auto p0 = d.path(d.a0, d.b0);
  const auto p1 = d.path(d.a1, d.b1);
  const auto first = alloc.compute({&p0, &p1});
  const auto& again = alloc.compute({&p0, &p1});
  EXPECT_EQ(first, again);
  const auto& single = alloc.compute({&p0});
  ASSERT_EQ(single.size(), 1u);
  EXPECT_DOUBLE_EQ(single[0], 1 * kGbps);
  // A smaller call after a bigger one forgets the bigger call's flows.
  const auto p2 = d.path(d.a0, d.a1);
  const auto& local = alloc.compute({&p2, &p2});
  ASSERT_EQ(local.size(), 2u);
  EXPECT_DOUBLE_EQ(local[0], 0.5 * kGbps);
  EXPECT_DOUBLE_EQ(local[1], 0.5 * kGbps);
}

// Property tests on random flow sets over heterogeneous fabrics, each
// solved with and without a few failed links: the allocator must match the
// independent textbook solver and satisfy the max-min certificate.
class MaxMinPropertyTest : public ::testing::TestWithParam<int> {};

std::vector<Topology> property_fabrics() {
  topo::FatTreeParams skewed{.p = 4};
  skewed.core_capacities = {1 * kGbps, 4 * kGbps};
  std::vector<Topology> out;
  out.push_back(build_fat_tree({.p = 4}));
  out.push_back(build_fat_tree(skewed));
  out.push_back(topo::build_leaf_spine({}));
  out.push_back(topo::build_three_tier({}));
  return out;
}

TEST_P(MaxMinPropertyTest, FeasibleAndMaxMin) {
  Rng rng(GetParam());
  for (const Topology& t : property_fabrics()) {
    topo::PathRepository repo(t);
    fabric::LinkStateBoard board(t);
    MaxMinAllocator alloc(t, &board);
    for (const int failures : {0, 3}) {
      for (int i = 0; i < failures; ++i) {
        board.set_failed(LinkId(static_cast<LinkId::value_type>(
                             rng.next_below(t.link_count()))),
                         true);
      }
      std::vector<double> capacity(t.link_count());
      for (const auto& link : t.links())
        capacity[link.id.value()] = board.capacity(link.id);

      // Random flows on random paths.
      std::vector<std::vector<LinkId>> paths;
      const auto& hosts = t.hosts();
      while (paths.size() < 40) {
        const NodeId s = hosts[rng.next_below(hosts.size())];
        const NodeId d = hosts[rng.next_below(hosts.size())];
        if (s == d) continue;
        const auto& tor_paths =
            repo.tor_paths(t.tor_of_host(s), t.tor_of_host(d));
        const auto& tp = tor_paths[rng.next_below(tor_paths.size())];
        paths.push_back(topo::host_path(t, s, d, tp).links);
      }
      std::vector<const std::vector<LinkId>*> input;
      for (const auto& p : paths) input.push_back(&p);
      const auto& rates = alloc.compute(input);
      ASSERT_EQ(rates.size(), paths.size());

      // (0) Agreement with the independent reference.
      const std::vector<std::span<const LinkId>> spans(paths.begin(),
                                                       paths.end());
      const std::vector<double> want = oracle::max_min_rates(spans, capacity);
      for (std::size_t f = 0; f < paths.size(); ++f)
        EXPECT_TRUE(close(rates[f], want[f]))
            << "flow " << f << ": " << rates[f] << " vs oracle " << want[f];

      // (1) Feasibility: no link over capacity.
      std::vector<double> load(t.link_count(), 0.0);
      for (std::size_t f = 0; f < paths.size(); ++f)
        for (const LinkId l : paths[f]) load[l.value()] += rates[f];
      for (std::size_t l = 0; l < load.size(); ++l)
        EXPECT_LE(load[l], capacity[l] * (1 + 1e-9));

      // (2) Max-min certificate: every flow has a bottleneck link that is
      // saturated and on which it has the maximal rate.
      for (std::size_t f = 0; f < paths.size(); ++f) {
        bool has_bottleneck = false;
        for (const LinkId l : paths[f]) {
          if (load[l.value()] < capacity[l.value()] * (1 - 1e-9)) continue;
          double max_rate_on_l = 0;
          for (std::size_t g = 0; g < paths.size(); ++g)
            if (std::find(paths[g].begin(), paths[g].end(), l) !=
                paths[g].end())
              max_rate_on_l = std::max(max_rate_on_l, rates[g]);
          if (rates[f] >= max_rate_on_l * (1 - 1e-9)) {
            has_bottleneck = true;
            break;
          }
        }
        EXPECT_TRUE(has_bottleneck) << "flow " << f << " has no bottleneck";
      }

      // (3) All rates strictly positive (a failed link keeps 1 bps).
      for (const double r : rates) EXPECT_GT(r, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace dard::flowsim
