// Pins the asymmetric-fabric contracts (DESIGN.md §15):
//  * every cable's two directed links carry equal capacity and delay, on
//    every heterogeneous fixture;
//  * the advertised aggregation oversubscription matches the capacities
//    actually cabled;
//  * PathGenerator emits exactly the reference enumeration on every
//    asymmetric fixture — including the non-strict leaf-spine fabric whose
//    ToR<->Core cables skip the aggregation layer;
//  * BoNF stays capacity-normalized: assembled PathState fields equal the
//    per-path bottleneck capacities of the heterogeneous fabric,
//    field by field;
//  * weighted_path_index / capacity_weights / WeightedPathSelector
//    degenerate to the pinned ECMP hash on uniform fabrics and split
//    proportionally on skewed ones;
//  * parameter validation reports a message instead of crashing, and
//    addressing records carry the downhill bottleneck capacity.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "addressing/hierarchical.h"
#include "baselines/ecmp.h"
#include "common/hash.h"
#include "dard/monitor.h"
#include "fabric/wire.h"
#include "flowsim/simulator.h"
#include "topology/builders.h"
#include "topology/path_gen.h"
#include "topology/paths.h"

namespace dard::topo {
namespace {

FatTreeParams oversubscribed_params() {
  FatTreeParams p{.p = 4};
  p.uplinks_per_agg = 1;
  return p;
}

FatTreeParams skewed_params() {
  FatTreeParams p{.p = 4};
  p.tor_agg_capacity = 10 * kGbps;
  p.core_capacities = {1 * kGbps, 4 * kGbps};
  return p;
}

FatTreeParams stripped_params() {
  FatTreeParams p{.p = 4};
  p.stripped_pods = 1;
  p.stripped_pod_uplinks = 1;
  return p;
}

FatTreeParams mixed_tier_params() {
  FatTreeParams p{.p = 4};
  p.host_capacity = 10 * kGbps;
  p.tor_agg_capacity = 2 * kGbps;
  p.core_capacities = {1 * kGbps, 4 * kGbps};
  p.uplinks_per_agg = 2;
  return p;
}

LeafSpineParams stripped_leaf_spine_params() {
  LeafSpineParams p{.leaves = 6, .spines = 4, .hosts_per_leaf = 3};
  p.spine_capacities = {4 * kGbps, 10 * kGbps};
  p.stripped_leaves = 2;
  p.stripped_leaf_uplinks = 2;
  return p;
}

std::vector<Topology> asymmetric_fixtures() {
  std::vector<Topology> out;
  out.push_back(build_fat_tree(oversubscribed_params()));
  out.push_back(build_fat_tree(skewed_params()));
  out.push_back(build_fat_tree(stripped_params()));
  out.push_back(build_fat_tree(mixed_tier_params()));
  out.push_back(build_leaf_spine({}));
  out.push_back(build_leaf_spine(stripped_leaf_spine_params()));
  return out;
}

void expect_same_path(const Path& want, const Path& got, NodeId s, NodeId d,
                      std::size_t i) {
  ASSERT_EQ(want.nodes.size(), got.nodes.size())
      << "pair (" << s.value() << "," << d.value() << ") path " << i;
  for (std::size_t h = 0; h < want.nodes.size(); ++h)
    EXPECT_EQ(want.nodes[h].value(), got.nodes[h].value())
        << "pair (" << s.value() << "," << d.value() << ") path " << i
        << " hop " << h;
  ASSERT_EQ(want.links.size(), got.links.size());
  for (std::size_t h = 0; h < want.links.size(); ++h)
    EXPECT_EQ(want.links[h].value(), got.links[h].value())
        << "pair (" << s.value() << "," << d.value() << ") path " << i
        << " link " << h;
}

TEST(Asymmetry, CableDirectionsCarryEqualCapacity) {
  for (const Topology& t : asymmetric_fixtures()) {
    for (const Link& l : t.links()) {
      const LinkId back = t.find_link(l.dst, l.src);
      ASSERT_TRUE(back.valid())
          << "link " << l.id.value() << " has no reverse direction";
      EXPECT_DOUBLE_EQ(l.capacity, t.link(back).capacity)
          << "cable " << t.node(l.src).name << " <-> " << t.node(l.dst).name;
      EXPECT_DOUBLE_EQ(l.delay, t.link(back).delay);
    }
  }
}

TEST(Asymmetry, AdvertisedOversubscriptionMatchesCabledCapacity) {
  for (const FatTreeParams& params :
       {FatTreeParams{.p = 4}, oversubscribed_params(), skewed_params(),
        mixed_tier_params(), FatTreeParams{.p = 8}}) {
    const Topology t = build_fat_tree(params);
    // Any unstripped aggregation switch (these fixtures strip no pods).
    const NodeId agg = t.aggs().front();
    Bps down = 0, up = 0;
    for (const LinkId l : t.out_links(agg)) {
      const Node& peer = t.node(t.link(l).dst);
      if (peer.kind == NodeKind::Tor) down += t.link(l).capacity;
      if (peer.kind == NodeKind::Core) up += t.link(l).capacity;
    }
    ASSERT_GT(up, 0.0);
    EXPECT_DOUBLE_EQ(fat_tree_agg_oversubscription(params), down / up)
        << "p=" << params.p;
  }
  // The classic build is 1:1; stripping half the uplinks doubles it.
  EXPECT_DOUBLE_EQ(fat_tree_agg_oversubscription({.p = 4}), 1.0);
  FatTreeParams half{.p = 8};
  half.uplinks_per_agg = 2;
  EXPECT_DOUBLE_EQ(fat_tree_agg_oversubscription(half), 2.0);
}

// Mirror of LazyPaths.MatchesEnumeration* on every asymmetric fixture.
// The leaf-spine fabrics exercise the tables on layer-skipping
// (ToR <-> core) cables.
TEST(Asymmetry, GeneratorMatchesEnumerationOnAsymmetricFixtures) {
  for (const Topology& t : asymmetric_fixtures()) {
    const PathGenerator gen(t);
    for (const NodeId s : t.tors()) {
      for (const NodeId d : t.tors()) {
        const std::vector<Path> want = enumerate_tor_paths(t, s, d);
        ASSERT_EQ(want.size(), gen.count(s, d))
            << "pair (" << s.value() << "," << d.value() << ")";
        for (std::size_t i = 0; i < want.size(); ++i)
          expect_same_path(want[i], gen.path(s, d, i), s, d, i);
        const std::vector<Path> got = gen.all(s, d);
        ASSERT_EQ(want.size(), got.size());
        for (std::size_t i = 0; i < want.size(); ++i)
          expect_same_path(want[i], got[i], s, d, i);
      }
    }
  }
}

TEST(Asymmetry, LeafSpineFabricIsNonStrictAndFatTreesStayStrict) {
  EXPECT_TRUE(PathGenerator(build_fat_tree(skewed_params())).
              strict_layering());
  EXPECT_FALSE(PathGenerator(build_leaf_spine({})).strict_layering());
}

TEST(Asymmetry, StrippedFabricsVaryPathWidth) {
  // Stripped pods / leaves produce unequal path counts per ToR pair — the
  // "variable width" the generalized walker must enumerate.
  const Topology ft = build_fat_tree(stripped_params());
  const PathGenerator gen(ft);
  std::vector<std::size_t> widths;
  for (const NodeId s : ft.tors())
    for (const NodeId d : ft.tors())
      if (ft.node(s).pod != ft.node(d).pod)
        widths.push_back(gen.count(s, d));
  ASSERT_FALSE(widths.empty());
  EXPECT_NE(*std::min_element(widths.begin(), widths.end()),
            *std::max_element(widths.begin(), widths.end()));
}

TEST(Asymmetry, PathBottleneckCapacityTakesTheMinimumLink) {
  const Topology t = build_fat_tree(skewed_params());
  const NodeId s = t.tors().front(), d = t.tors().back();
  const std::vector<Path> paths = enumerate_tor_paths(t, s, d);
  ASSERT_EQ(paths.size(), 4u);
  bool saw_slow = false, saw_fast = false;
  for (const Path& p : paths) {
    Bps want = 0;
    for (const LinkId l : p.links) {
      const Bps c = t.link(l).capacity;
      if (want == 0 || c < want) want = c;
    }
    EXPECT_DOUBLE_EQ(path_bottleneck_capacity(t, p), want);
    if (want == 1 * kGbps) saw_slow = true;
    if (want == 4 * kGbps) saw_fast = true;
  }
  // The skewed core mix must actually show through: both columns appear.
  EXPECT_TRUE(saw_slow);
  EXPECT_TRUE(saw_fast);
}

TEST(Asymmetry, CapacityWeightsNormalizeByGcd) {
  const Topology uniform = build_fat_tree({.p = 4});
  const NodeId s = uniform.tors().front(), d = uniform.tors().back();
  const auto uw =
      capacity_weights(uniform, enumerate_tor_paths(uniform, s, d));
  for (const std::uint64_t w : uw) EXPECT_EQ(w, 1u);

  const Topology skewed = build_fat_tree(skewed_params());
  const NodeId ss = skewed.tors().front(), sd = skewed.tors().back();
  const auto sw = capacity_weights(skewed, enumerate_tor_paths(skewed, ss, sd));
  ASSERT_EQ(sw.size(), 4u);
  // 1 Gbps and 4 Gbps bottlenecks, gcd-normalized to 1 and 4.
  EXPECT_EQ(*std::min_element(sw.begin(), sw.end()), 1u);
  EXPECT_EQ(*std::max_element(sw.begin(), sw.end()), 4u);
}

TEST(Asymmetry, WeightedPathIndexDegeneratesToEcmpOnEqualWeights) {
  const std::vector<std::uint64_t> equal{7, 7, 7, 7};
  for (std::uint32_t h = 0; h < 64; ++h)
    for (std::uint16_t port = 1; port < 40; ++port)
      EXPECT_EQ(weighted_path_index(NodeId(h), NodeId(h + 1), port, 80, equal),
                ecmp_path_index(NodeId(h), NodeId(h + 1), port, 80,
                                equal.size()));
}

TEST(Asymmetry, WeightedPathIndexSplitsProportionally) {
  const std::vector<std::uint64_t> weights{1, 3};
  int heavy = 0;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) {
    const auto idx =
        weighted_path_index(NodeId(5), NodeId(9),
                            static_cast<std::uint16_t>(i + 1), 80, weights);
    ASSERT_LT(idx, 2u);
    if (idx == 1) ++heavy;
  }
  // Weight 3 of 4 owns ~75% of the hash space.
  const double frac = static_cast<double>(heavy) / trials;
  EXPECT_GT(frac, 0.70);
  EXPECT_LT(frac, 0.80);
}

TEST(Asymmetry, SelectorDetectsUniformityAndMatchesEcmp) {
  const Topology uniform = build_fat_tree({.p = 4});
  const PathGenerator gen(uniform);
  WeightedPathSelector sel;
  sel.attach(gen);
  EXPECT_TRUE(sel.uniform_capacity());

  const Topology skewed = build_fat_tree(skewed_params());
  const PathGenerator skew_gen(skewed);
  WeightedPathSelector skew_sel;
  skew_sel.attach(skew_gen);
  EXPECT_FALSE(skew_sel.uniform_capacity());

  // Uniform fabric: pick() must be exactly the pinned ECMP decision.
  const NodeId src = uniform.hosts().front(), dst = uniform.hosts().back();
  const auto paths = enumerate_tor_paths(uniform, uniform.tor_of_host(src),
                                         uniform.tor_of_host(dst));
  for (std::uint16_t port = 1; port < 100; ++port)
    EXPECT_EQ(sel.pick(src, dst, port, 80, paths.size()),
              ecmp_path_index(src, dst, port, 80, paths.size()));
}

TEST(Asymmetry, ValidationReportsReasonsInsteadOfCrashing) {
  EXPECT_NE(validate_fat_tree({.p = 5}), "");
  EXPECT_NE(validate_fat_tree({.p = 2}), "");
  FatTreeParams too_many{.p = 4};
  too_many.uplinks_per_agg = 3;  // > p/2
  EXPECT_NE(validate_fat_tree(too_many), "");
  FatTreeParams bad_mix{.p = 4};
  bad_mix.core_capacities = {1 * kGbps, -1.0};
  EXPECT_NE(validate_fat_tree(bad_mix), "");
  // More core capacities than uplinks (dardsim --size=4 --oversub=2
  // --speed-skew=2): the fast column would never be cabled.
  FatTreeParams dropped_skew{.p = 4};
  dropped_skew.uplinks_per_agg = 1;
  dropped_skew.core_capacities = {1 * kGbps, 2 * kGbps};
  EXPECT_NE(validate_fat_tree(dropped_skew), "");
  dropped_skew.uplinks_per_agg = 2;
  EXPECT_EQ(validate_fat_tree(dropped_skew), "");
  EXPECT_EQ(validate_fat_tree({.p = 4}), "");
  EXPECT_EQ(validate_fat_tree(mixed_tier_params()), "");

  EXPECT_NE(validate_leaf_spine({.leaves = 1}), "");
  EXPECT_NE(validate_leaf_spine({.leaves = 4, .spines = 0}), "");
  LeafSpineParams extra_spines{.leaves = 4, .spines = 2};
  extra_spines.spine_capacities = {4 * kGbps, 10 * kGbps, 40 * kGbps};
  EXPECT_NE(validate_leaf_spine(extra_spines), "");
  extra_spines.spines = 3;
  EXPECT_EQ(validate_leaf_spine(extra_spines), "");
  EXPECT_EQ(validate_leaf_spine({}), "");
  EXPECT_EQ(validate_leaf_spine(stripped_leaf_spine_params()), "");
}

TEST(Asymmetry, AddressRecordsCarryDownhillBottleneck) {
  for (const Topology& t :
       {build_fat_tree(mixed_tier_params()), build_leaf_spine({})}) {
    const addr::AddressingPlan plan(t);
    for (const NodeId host : t.hosts()) {
      for (const addr::HostAddressRecord& rec : plan.host_addresses(host)) {
        Bps want = 0;
        for (std::size_t i = 0; i + 1 < rec.alloc_path.size(); ++i) {
          const LinkId l = t.find_link(rec.alloc_path[i],
                                       rec.alloc_path[i + 1]);
          ASSERT_TRUE(l.valid());
          const Bps c = t.link(l).capacity;
          if (want == 0 || c < want) want = c;
        }
        EXPECT_DOUBLE_EQ(rec.alloc_capacity, want)
            << t.node(host).name << " record";
      }
    }
  }
  // The mixed-tier fat-tree allocates through both core columns, so one
  // host's records must disagree — the heterogeneity is visible per address.
  const Topology t = build_fat_tree(mixed_tier_params());
  const addr::AddressingPlan plan(t);
  const auto& recs = plan.host_addresses(t.hosts().front());
  const auto minmax = std::minmax_element(
      recs.begin(), recs.end(),
      [](const addr::HostAddressRecord& a, const addr::HostAddressRecord& b) {
        return a.alloc_capacity < b.alloc_capacity;
      });
  EXPECT_LT(minmax.first->alloc_capacity, minmax.second->alloc_capacity);
}

}  // namespace
}  // namespace dard::topo

namespace dard::core {
namespace {

using topo::build_fat_tree;
using topo::path_bottleneck_capacity;

// BoNF capacity normalization, pinned field by field: on a heterogeneous
// fabric the assembled PathState carries each path's true bottleneck
// capacity, and an elephant divides exactly that capacity — not a symmetric
// nominal rate.
TEST(AsymmetryBonf, PathStatePinsHeterogeneousBottlenecks) {
  const topo::Topology t = build_fat_tree(topo::skewed_params());
  flowsim::FlowSimulator sim(t);
  baselines::EcmpAgent agent;
  sim.set_agent(&agent);
  const NodeId src_tor = t.tors().front(), dst_tor = t.tors().back();
  const fabric::StateQueryService service(sim.link_state(),
                                          &sim.accountant());

  const auto paths = topo::enumerate_tor_paths(t, src_tor, dst_tor);
  PathMonitor idle(sim, src_tor, dst_tor);
  idle.refresh(0.0, service);
  ASSERT_EQ(idle.path_states().size(), paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const PathState& s = idle.path_states()[i];
    ASSERT_TRUE(s.assembled);
    EXPECT_EQ(s.flow_numbers, 0u);
    EXPECT_DOUBLE_EQ(s.bandwidth, path_bottleneck_capacity(t, paths[i]));
    EXPECT_DOUBLE_EQ(s.bonf(), path_bottleneck_capacity(t, paths[i]));
  }

  // One elephant pinned to path 0: only that path's BoNF divides, and it
  // divides the path's own (slow) bottleneck capacity.
  flowsim::FlowSpec spec;
  spec.src_host = t.hosts().front();
  spec.dst_host = t.hosts().back();
  spec.size = 4'000'000'000;
  spec.arrival = 0.0;
  const FlowId id = sim.submit(spec);
  sim.run_until(0.5);
  sim.move_flow(id, 0);
  sim.run_until(1.5);  // promoted at t=1
  ASSERT_TRUE(sim.flow(id).is_elephant);

  PathMonitor m(sim, src_tor, dst_tor);
  m.refresh(sim.now(), service);
  const PathState& loaded = m.path_states()[0];
  EXPECT_EQ(loaded.flow_numbers, 1u);
  EXPECT_DOUBLE_EQ(loaded.bandwidth, path_bottleneck_capacity(t, paths[0]));
  EXPECT_DOUBLE_EQ(loaded.bonf(), path_bottleneck_capacity(t, paths[0]));
}

}  // namespace
}  // namespace dard::core
