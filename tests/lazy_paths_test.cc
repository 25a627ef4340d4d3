// Pins the index-addressed path layer's contracts (DESIGN.md §14):
//  * PathGenerator emits exactly the reference enumeration — same count,
//    same order, same nodes and links, for every path index of every ToR
//    pair, on all three evaluation topologies;
//  * a fabric with 3-hop path shapes, which the tables cannot generate, is
//    refused at construction;
//  * at k=16/32, where enumeration is too slow to serve as the reference,
//    count, path(i) and all() agree with each other, every path is a valid
//    valley-free walk, the order is strictly (length, node ids), and the
//    fat-tree counts are (k/2)^2, k/2 and 1;
//  * flow arrivals build no path set: ECMP, pVLB and uniform WCMP place and
//    install flows, and DARD also builds and refreshes its monitors,
//    without one cache entry;
//  * PathRepository's bounded LRU evicts only least-recently-used pairs,
//    keeps serving correct sets across eviction, reports its size through
//    the PathCacheEntries gauge, and pinned() handles outlive eviction.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>

#include "baselines/ecmp.h"
#include "common/rng.h"
#include "dard/dard_agent.h"
#include "flowsim/simulator.h"
#include "obs/profiler.h"
#include "topology/builders.h"
#include "topology/path_gen.h"
#include "topology/paths.h"

namespace dard::topo {
namespace {

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

// Every ordered ToR pair — inter-pod, intra-pod and s == d alike — must
// produce the identical set via count()/path(i)/all().
void check_generator_matches_enumeration(const Topology& t) {
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

TEST(LazyPaths, MatchesEnumerationFatTree4) {
  check_generator_matches_enumeration(build_fat_tree({.p = 4}));
}

TEST(LazyPaths, MatchesEnumerationFatTree8) {
  check_generator_matches_enumeration(build_fat_tree({.p = 8}));
}

TEST(LazyPaths, MatchesEnumerationClos) {
  check_generator_matches_enumeration(build_clos({.d_i = 4, .d_a = 4}));
}

TEST(LazyPaths, MatchesEnumerationThreeTier) {
  check_generator_matches_enumeration(build_three_tier({}));
}

TEST(LazyPathsDeathTest, RejectsThreeHopShapes) {
  // A ToR cabled straight to a core that also sits over aggs admits
  // tor-agg-core-tor and tor-core-agg-tor paths, which the tables do not
  // generate: the generator must refuse the fabric rather than omit them.
  Topology t = build_fat_tree({.p = 4});
  t.add_cable(t.tors().front(), t.cores().front(), 1 * kGbps, 0.0001);
  EXPECT_DEATH((void)PathGenerator(t), "3-hop path shapes unsupported");
}

TEST(LazyPaths, PathCountsMatchPaperFormulas) {
  const Topology ft = build_fat_tree({.p = 8});
  const PathGenerator gen(ft);
  EXPECT_EQ(gen.count(ft.tors().front(), ft.tors().back()),
            static_cast<std::size_t>(fat_tree_inter_pod_paths(8)));
  const Topology clos = build_clos({.d_i = 4, .d_a = 4});
  const PathGenerator cgen(clos);
  EXPECT_EQ(cgen.count(clos.tors().front(), clos.tors().back()),
            static_cast<std::size_t>(clos_inter_pod_paths(4)));
}

bool precedes(const Path& a, const Path& b) {
  if (a.links.size() != b.links.size()) return a.links.size() < b.links.size();
  return std::lexicographical_compare(a.nodes.begin(), a.nodes.end(),
                                      b.nodes.begin(), b.nodes.end());
}

// A simple valley-free walk from s to d whose links join its nodes.
void expect_valid_path(const Topology& t, const Path& p, NodeId s, NodeId d) {
  ASSERT_EQ(p.nodes.size(), p.links.size() + 1);
  EXPECT_EQ(p.nodes.front(), s);
  EXPECT_EQ(p.nodes.back(), d);
  bool descending = false;
  for (std::size_t h = 0; h < p.links.size(); ++h) {
    const Link& l = t.link(p.links[h]);
    EXPECT_EQ(l.src, p.nodes[h]);
    EXPECT_EQ(l.dst, p.nodes[h + 1]);
    const bool up = layer_of(t.node(l.dst).kind) > layer_of(t.node(l.src).kind);
    EXPECT_FALSE(up && descending) << "valley at hop " << h;
    descending = descending || !up;
    for (std::size_t g = 0; g <= h; ++g) EXPECT_NE(p.nodes[g], p.nodes[h + 1]);
  }
}

// ~200 seeded pairs per fabric: same ToR, intra-pod and inter-pod.
std::vector<std::pair<NodeId, NodeId>> sample_pairs(const Topology& t,
                                                    std::uint64_t seed) {
  const auto& tors = t.tors();
  Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::size_t same = 0, intra = 0, inter = 0;
  while (same + intra + inter < 200) {
    const NodeId s = tors[rng.next_below(tors.size())];
    const NodeId d = tors[rng.next_below(tors.size())];
    const bool same_pod = t.node(s).pod == t.node(d).pod;
    if (s == d) {
      if (same == 20) continue;
      ++same;
    } else if (same_pod) {
      if (intra == 60) continue;
      ++intra;
    } else {
      if (inter == 120) continue;
      ++inter;
    }
    pairs.emplace_back(s, d);
  }
  return pairs;
}

void check_index_addressing(const Topology& t, bool fat_tree, int p) {
  const PathGenerator gen(t);
  ASSERT_TRUE(gen.strict_layering());
  const std::size_t half = static_cast<std::size_t>(p / 2);
  for (const auto& [s, d] : sample_pairs(t, static_cast<std::uint64_t>(p))) {
    const std::vector<Path> all = gen.all(s, d);
    ASSERT_EQ(gen.count(s, d), all.size())
        << "pair (" << s.value() << "," << d.value() << ")";
    if (fat_tree) {
      EXPECT_EQ(all.size(), s == d                              ? 1
                            : t.node(s).pod == t.node(d).pod ? half
                                                              : half * half);
    }
    for (std::size_t i = 0; i < all.size(); ++i) {
      const Path one = gen.path(s, d, i);
      expect_same_path(all[i], one, s, d, i);
      LinkId links[topo::kMaxTorPathLinks];
      const std::size_t n = gen.path_links(s, d, i, links);
      EXPECT_EQ(std::vector<LinkId>(links, links + n), one.links)
          << "path_links of pair (" << s.value() << "," << d.value()
          << ") index " << i;
      expect_valid_path(t, all[i], s, d);
      if (i > 0) {
        EXPECT_TRUE(precedes(all[i - 1], all[i])) << "order at " << i;
      }
    }
  }
}

TEST(LazyPaths, IndexAddressingAgreesAtLargeK) {
  check_index_addressing(build_fat_tree({.p = 16}), true, 16);
  check_index_addressing(build_fat_tree({.p = 32}), true, 32);
  FatTreeParams skewed_stripped{.p = 16};
  skewed_stripped.core_capacities = {1 * kGbps, 4 * kGbps};
  skewed_stripped.stripped_pods = 2;
  skewed_stripped.stripped_pod_uplinks = 3;
  check_index_addressing(build_fat_tree(skewed_stripped), false, 16);
}

struct ArrivalRun {
  std::size_t sets_built = 0;  // PathEnumeration samples: cache misses
  std::size_t cache_entries = 0;
  std::size_t queries = 0;  // DardQuery messages on the ledger
};

// Runs a mixed mice/elephant workload over a k=8 fat tree with the
// profiler on. The agent is spent afterwards (its network is gone).
ArrivalRun run_arrivals(fabric::ControlAgent& agent) {
  const Topology t = build_fat_tree({.p = 8});
  flowsim::FlowSimulator sim(t);
  obs::Profiler profiler;
  sim.set_profiler(&profiler);
  sim.set_agent(&agent);
  Rng rng(5);
  const auto& hosts = t.hosts();
  for (std::uint16_t i = 0; i < 400; ++i) {
    flowsim::FlowSpec spec;
    spec.src_host = hosts[rng.next_below(hosts.size())];
    do {
      spec.dst_host = hosts[rng.next_below(hosts.size())];
    } while (spec.dst_host == spec.src_host);
    // One flow in eight lives past the 1 s elephant threshold.
    spec.size = i % 8 == 0 ? 200'000'000 : 2'000'000;
    spec.arrival = 0.01 * i;
    spec.src_port = static_cast<std::uint16_t>(1000 + i);
    spec.dst_port = 80;
    sim.submit(spec);
  }
  sim.run_until_flows_done();
  return {profiler.section(obs::ProfileSection::PathEnumeration).count(),
          sim.paths().cache_entries(),
          sim.accountant().message_count(fabric::ControlCategory::DardQuery)};
}

TEST(LazyPaths, ArrivalsBuildNoPathSet) {
  baselines::EcmpAgent ecmp;
  baselines::PvlbAgent pvlb(/*repick_interval=*/0.5);
  baselines::EcmpAgent wcmp(/*weighted=*/true);
  core::DardAgent dard;
  std::size_t dard_queries = 0;
  for (fabric::ControlAgent* agent :
       std::initializer_list<fabric::ControlAgent*>{&ecmp, &pvlb, &wcmp,
                                                    &dard}) {
    const ArrivalRun run = run_arrivals(*agent);
    EXPECT_EQ(run.sets_built, 0u) << agent->name();
    EXPECT_EQ(run.cache_entries, 0u) << agent->name();
    if (agent == &dard) dard_queries = run.queries;
  }
  // DARD's monitors were built and queried, from the generator's tables.
  EXPECT_GT(dard_queries, 0u);
}

TEST(LazyPaths, RepositoryCapsEntriesAndEvictsLru) {
  const Topology t = build_fat_tree({.p = 4});
  const auto& tors = t.tors();  // 8 ToRs
  PathRepository repo(t, /*capacity=*/4);
  EXPECT_EQ(repo.cache_capacity(), 4u);

  const NodeId d = tors.back();
  // Six distinct pairs through a capacity-4 cache: entries cap at 4.
  for (std::size_t i = 0; i + 1 < tors.size(); ++i) {
    const auto& set = repo.tor_paths(tors[i], d);
    EXPECT_FALSE(set.empty());
    EXPECT_LE(repo.cache_entries(), 4u);
  }
  EXPECT_EQ(repo.cache_entries(), 4u);

  // Every pair — evicted or resident — still resolves to the reference set.
  for (std::size_t i = 0; i + 1 < tors.size(); ++i) {
    const std::vector<Path> want = enumerate_tor_paths(t, tors[i], d);
    const auto& got = repo.tor_paths(tors[i], d);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t p = 0; p < want.size(); ++p)
      expect_same_path(want[p], got[p], tors[i], d, p);
  }
}

TEST(LazyPaths, RepositoryLruKeepsHotPairResident) {
  const Topology t = build_fat_tree({.p = 4});
  const auto& tors = t.tors();
  PathRepository repo(t, /*capacity=*/2);

  const auto* hot = &repo.tor_paths(tors[0], tors[7]);
  for (std::size_t i = 1; i < 7; ++i) {
    // Touch the hot pair between cold lookups: it must never be evicted,
    // so its reference stays stable (same materialized set object).
    EXPECT_EQ(hot, &repo.tor_paths(tors[0], tors[7]));
    repo.tor_paths(tors[i], tors[0]);
  }
  EXPECT_EQ(hot, &repo.tor_paths(tors[0], tors[7]));
}

TEST(LazyPaths, PinnedSurvivesEviction) {
  const Topology t = build_fat_tree({.p = 4});
  const auto& tors = t.tors();
  PathRepository repo(t, /*capacity=*/2);

  const PathRepository::PathSetPtr pin = repo.pinned(tors[0], tors[7]);
  const std::vector<Path> want = enumerate_tor_paths(t, tors[0], tors[7]);
  ASSERT_EQ(pin->size(), want.size());

  // Blow the pinned pair out of the cache many times over.
  for (const NodeId s : tors)
    for (const NodeId d : tors) repo.tor_paths(s, d);

  // The pinned set is untouched by eviction and still correct.
  ASSERT_EQ(pin->size(), want.size());
  for (std::size_t p = 0; p < want.size(); ++p)
    expect_same_path(want[p], (*pin)[p], tors[0], tors[7], p);
}

TEST(LazyPaths, RepositoryReportsCacheGaugeAndProfilesMisses) {
  const Topology t = build_fat_tree({.p = 4});
  const auto& tors = t.tors();
  PathRepository repo(t, /*capacity=*/8);
  obs::Profiler profiler;
  repo.set_profiler(&profiler);

  repo.tor_paths(tors[0], tors[1]);
  repo.tor_paths(tors[0], tors[2]);
  repo.tor_paths(tors[0], tors[1]);  // hit: no new entry, no new sample
  EXPECT_DOUBLE_EQ(
      profiler.gauge(obs::ProfileGauge::PathCacheEntries).value, 2.0);
  EXPECT_EQ(profiler.section(obs::ProfileSection::PathEnumeration).count(),
            2u);
}

TEST(LazyPaths, DefaultCapacityCoversK8WithoutEviction) {
  // The md5-pinned k<=8 experiments rely on the default capacity holding
  // every ordered ToR pair of a k=8 fat tree (32 x 32).
  const Topology t = build_fat_tree({.p = 8});
  const std::size_t pairs = t.tors().size() * t.tors().size();
  EXPECT_LE(pairs, PathRepository::kDefaultCapacity);
}

}  // namespace
}  // namespace dard::topo
