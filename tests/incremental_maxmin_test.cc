// The scoped incremental allocator must be indistinguishable from a
// from-scratch max-min computation.
//
// Property tested (over random fabrics, workloads and seeds): after any
// churn of add_flow / remove_flow / moves / link failures, recompute()
// leaves every live flow's rate within 1e-9 relative of the independent
// textbook solver in maxmin_oracle.h over the same paths and capacities —
// and flows NOT in the returned touched set keep their previous rate
// bit-for-bit, whichever tier (region, component, full) solved.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "baselines/ecmp.h"
#include "common/rng.h"
#include "dard/dard_agent.h"
#include "fabric/auditor.h"
#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "flowsim/max_min.h"
#include "flowsim/path_store.h"
#include "flowsim/simulator.h"
#include "maxmin_oracle.h"
#include "obs/metrics.h"
#include "topology/builders.h"
#include "topology/paths.h"
#include "traffic/patterns.h"

namespace dard::flowsim {
namespace {

using Scope = MaxMinAllocator::Scope;

constexpr double kRelTol = 1e-9;

bool close(double a, double b) {
  return std::abs(a - b) <= kRelTol * std::max({a, b, 1.0});
}

// Drives an incremental allocator and mirrors every operation so the state
// can be re-derived from scratch at any point.
class ChurnHarness {
 public:
  ChurnHarness(const topo::Topology& t, std::uint64_t seed)
      : topo_(&t),
        repo_(t),
        board_(t),
        alloc_(t, &board_),
        // Staggered placement keeps most flows ToR- or pod-local, so the
        // sharing graph splits into many components and the scoped path
        // actually fires; uniform all-to-all would percolate into one
        // giant component and degrade to full recomputes by design.
        picker_(t, {.kind = traffic::PatternKind::Staggered}),
        rng_(seed) {
    alloc_.attach(store_);
  }

  std::vector<LinkId> random_path() {
    const auto& hosts = topo_->hosts();
    const NodeId s = hosts[rng_.next_below(hosts.size())];
    const NodeId d = picker_.pick(s, rng_);
    const auto& tp =
        repo_.tor_paths(topo_->tor_of_host(s), topo_->tor_of_host(d));
    return topo::host_path(*topo_, s, d, tp[rng_.next_below(tp.size())])
        .links;
  }

  void add() {
    const std::uint32_t fid = next_fid_++;
    store_.set(fid, random_path());
    alloc_.add_flow(fid);
    live_.push_back(fid);
  }

  void remove() {
    if (live_.empty()) return;
    const std::size_t i = rng_.next_below(live_.size());
    const std::uint32_t fid = live_[i];
    alloc_.remove_flow(fid);
    store_.release(fid);
    live_[i] = live_.back();
    live_.pop_back();
  }

  void move() {
    if (live_.empty()) return;
    const std::uint32_t fid = live_[rng_.next_below(live_.size())];
    alloc_.remove_flow(fid);  // before the store update: old span needed
    store_.set(fid, random_path());
    alloc_.add_flow(fid);
  }

  void flip_link() {
    const LinkId l(static_cast<LinkId::value_type>(
        rng_.next_below(topo_->link_count())));
    board_.set_failed(l, !board_.failed(l));
    alloc_.touch_link(l);
  }

  // One churn operation: 40% add, 30% remove, 20% move, 10% capacity flip.
  void random_op() {
    const std::uint64_t op = rng_.next_below(10);
    if (op < 4) {
      add();
    } else if (op < 7) {
      remove();
    } else if (op < 9) {
      move();
    } else {
      flip_link();
    }
  }

  // recompute() + both invariants. Returns the tier that solved.
  Scope check() {
    std::vector<Bps> before(next_fid_, 0.0);
    for (const std::uint32_t fid : live_) before[fid] = alloc_.rate_of(fid);

    const auto& touched = alloc_.recompute();
    const std::unordered_set<std::uint32_t> touched_set(touched.begin(),
                                                        touched.end());

    // Reference: the independent solver over the same paths + board.
    std::vector<std::span<const LinkId>> paths;
    paths.reserve(live_.size());
    for (const std::uint32_t fid : live_) paths.push_back(store_.span(fid));
    std::vector<double> capacity(topo_->link_count());
    for (const auto& link : topo_->links())
      capacity[link.id.value()] = board_.capacity(link.id);
    const std::vector<double> want = oracle::max_min_rates(paths, capacity);

    for (std::size_t i = 0; i < live_.size(); ++i) {
      const std::uint32_t fid = live_[i];
      EXPECT_TRUE(close(alloc_.rate_of(fid), want[i]))
          << "fid " << fid << ": incremental " << alloc_.rate_of(fid)
          << " vs oracle " << want[i];
      if (touched_set.count(fid) == 0) {
        EXPECT_EQ(alloc_.rate_of(fid), before[fid])
            << "untouched fid " << fid << " drifted";
      }
    }
    return alloc_.last_scope();
  }

  std::size_t live_count() const { return live_.size(); }

 private:
  const topo::Topology* topo_;
  topo::PathRepository repo_;
  fabric::LinkStateBoard board_;
  PathStore store_;
  MaxMinAllocator alloc_;
  traffic::DestinationPicker picker_;
  Rng rng_;
  std::vector<std::uint32_t> live_;
  std::uint32_t next_fid_ = 0;
};

// Returns how many passes took the scoped (non-full) path. Equivalence is
// asserted inside check() regardless; the caller only uses the count to
// guard that the scoped path got exercised at all. On tiny topologies the
// sharing graph often percolates into one component, so the count is
// seed-dependent — assert on the aggregate, not per run.
std::size_t run_churn(const topo::Topology& t, std::uint64_t seed) {
  ChurnHarness h(t, seed);
  // Warm-up population, then recompute (the first pass is always full).
  for (int i = 0; i < 40; ++i) h.add();
  h.check();

  std::size_t scoped = 0;
  for (int step = 0; step < 120; ++step) {
    h.random_op();
    if (h.check() != Scope::Full) ++scoped;
  }
  return scoped;
}

// A fabric drawn from the builders' parameter space, named in *label: fat
// trees (p = 4, 6, 8) plain, oversubscribed, speed-skewed or with stripped
// pods; leaf-spine with a spine mix; Clos; 3-tier.
topo::Topology random_fabric(Rng& rng, std::string* label) {
  const std::uint64_t kind = rng.next_below(6);
  if (kind < 3) {
    topo::FatTreeParams p;
    p.p = 4 + 2 * static_cast<int>(rng.next_below(3));
    const int half = p.p / 2;
    *label = "fat tree p=" + std::to_string(p.p);
    switch (rng.next_below(4)) {
      case 0:
        break;
      case 1:
        p.uplinks_per_agg = 1 + static_cast<int>(rng.next_below(half - 1));
        *label += " uplinks/agg=" + std::to_string(p.uplinks_per_agg);
        break;
      case 2:
        p.core_capacities = {1 * kGbps,
                             (rng.next_below(2) == 0 ? 2 : 4) * kGbps};
        *label += " speed skew";
        break;
      default:
        p.stripped_pods = 1 + static_cast<int>(rng.next_below(p.p - 1));
        p.stripped_pod_uplinks = 1;
        *label += " stripped pods=" + std::to_string(p.stripped_pods);
        break;
    }
    EXPECT_EQ(topo::validate_fat_tree(p), "");
    return topo::build_fat_tree(p);
  }
  if (kind == 3) {
    topo::LeafSpineParams p;
    p.leaves = 4 + static_cast<int>(rng.next_below(5));
    p.spines = 2 + static_cast<int>(rng.next_below(3));
    p.hosts_per_leaf = 2 + static_cast<int>(rng.next_below(3));
    p.spine_capacities = {4 * kGbps, 10 * kGbps};
    *label = "leaf-spine " + std::to_string(p.leaves) + "x" +
             std::to_string(p.spines) + " spine mix";
    EXPECT_EQ(topo::validate_leaf_spine(p), "");
    return topo::build_leaf_spine(p);
  }
  if (kind == 4) {
    topo::ClosParams p;
    p.d_a = rng.next_below(2) == 0 ? 4 : 8;
    *label = "Clos d_a=" + std::to_string(p.d_a);
    return topo::build_clos(p);
  }
  *label = "3-tier";
  return topo::build_three_tier({});
}

TEST(IncrementalMaxMin, MatchesFullOnRandomFatTreeChurn) {
  const auto t = topo::build_fat_tree({.p = 4});
  std::size_t scoped = 0;
  for (const std::uint64_t seed : {1, 7, 42}) scoped += run_churn(t, seed);
  EXPECT_GT(scoped, 10u) << "scoped path barely exercised";
}

TEST(IncrementalMaxMin, MatchesFullOnRandomClosChurn) {
  const auto t = topo::build_clos({});
  std::size_t scoped = 0;
  for (const std::uint64_t seed : {3, 11, 19, 27}) {
    scoped += run_churn(t, seed);
  }
  // The 2-tier Clos is one big sharing component most of the time; a
  // handful of scoped passes is all locality affords here.
  EXPECT_GT(scoped, 0u) << "scoped path never exercised";
}

TEST(IncrementalMaxMin, MatchesFullOnLargerFatTree) {
  const auto t = topo::build_fat_tree({.p = 8});
  // 16 pods give real locality: the scoped path must dominate.
  EXPECT_GT(run_churn(t, 5), 60u);
}

// The property over random fabrics, with recomputes batched the way the
// simulator's 20 ms settle batches them: 1-64 adds, removes, moves and
// capacity flips per recompute(). check() asserts both invariants on every
// pass; the suite also asserts that every tier solved some pass after the
// first (which is always full).
TEST(IncrementalMaxMin, RandomFabricsBatchedChurnHitsEveryTier) {
  std::array<std::size_t, 3> tiers{};
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    Rng draw(seed);
    std::string fabric;
    const topo::Topology t = random_fabric(draw, &fabric);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + fabric);
    ChurnHarness h(t, seed);
    const std::uint64_t population = 40 + draw.next_below(200);
    for (std::uint64_t i = 0; i < population; ++i) h.add();
    h.check();
    for (int batch = 0; batch < 12; ++batch) {
      // Log-uniform sizes: as many single moves as whole-settle batches.
      const std::uint64_t ops =
          1 + draw.next_below(std::uint64_t{1} << draw.next_below(7));
      for (std::uint64_t i = 0; i < ops; ++i) h.random_op();
      ++tiers[static_cast<std::size_t>(h.check())];
    }
  }
  EXPECT_GT(tiers[static_cast<std::size_t>(Scope::Region)], 0u);
  EXPECT_GT(tiers[static_cast<std::size_t>(Scope::Component)], 0u);
  EXPECT_GT(tiers[static_cast<std::size_t>(Scope::Full)], 0u);
}

// End-to-end: the simulator's validate_incremental mode cross-checks every
// scoped reallocation against a from-scratch computation and DCN_CHECKs on
// divergence; a full random workload running clean is the assertion.
TEST(IncrementalMaxMin, SimulatorValidateModeRunsClean) {
  const auto t = topo::build_fat_tree({.p = 4});
  SimConfig cfg;
  cfg.elephant_threshold = 0.05;
  cfg.validate_incremental = true;
  FlowSimulator sim(t, cfg);
  baselines::EcmpAgent agent;
  sim.set_agent(&agent);

  traffic::WorkloadParams wl;
  wl.pattern.kind = traffic::PatternKind::Staggered;
  wl.mean_interarrival = 0.5;
  wl.flow_size = 16 * kMiB;
  wl.duration = 4.0;
  wl.seed = 2;
  std::size_t submitted = 0;
  for (const auto& spec : traffic::generate_workload(t, wl)) {
    sim.submit(spec);
    ++submitted;
  }
  ASSERT_GT(submitted, 50u) << "workload too small to exercise anything";
  sim.run_until_flows_done();  // DCN_CHECKs every flow finished
  EXPECT_EQ(sim.records().size(), submitted);
}

// DARD at k=8 under fault plans: link flaps and switch outages change
// capacities while DARD moves elephants, so region solves seed from
// capacity changes and moves together. validate_incremental re-solves every
// reallocation from scratch and aborts on a divergence; the auditor checks
// the run's invariants as it goes.
TEST(IncrementalMaxMin, DardUnderFaultPlansValidatesEveryReallocation) {
  topo::FatTreeParams fat_tree;
  fat_tree.p = 8;
  const auto t = topo::build_fat_tree(fat_tree);
  for (const char* preset : {"link-flap", "chaos"}) {
    SCOPED_TRACE(preset);
    SimConfig cfg;
    cfg.realloc_interval = 0.02;
    cfg.validate_incremental = true;
    FlowSimulator sim(t, cfg);
    obs::MetricsRegistry metrics;
    sim.set_metrics(&metrics);

    const auto plan = faults::FaultPlan::preset(preset);
    ASSERT_TRUE(plan.has_value());
    faults::FaultInjector injector(sim, *plan, 1);
    sim.set_control_model(&injector.model());
    fabric::Auditor auditor(sim);
    sim.set_auditor(&auditor);
    auditor.start();

    core::DardConfig dard;
    dard.query_interval = 0.1;
    dard.schedule_base = 0.1;
    dard.schedule_jitter = 0.1;
    core::DardAgent agent(dard);
    sim.set_agent(&agent);
    injector.set_agent(&agent);
    injector.install();

    traffic::WorkloadParams wl;
    wl.mean_interarrival = 2.0;
    wl.flow_size = 128 * kMiB;
    wl.duration = 5.0;
    wl.seed = 7;
    std::size_t submitted = 0;
    for (const auto& spec : traffic::generate_workload(t, wl)) {
      sim.submit(spec);
      ++submitted;
    }
    sim.run_until_flows_done();
    auditor.check_now();

    EXPECT_EQ(sim.records().size(), submitted);
    EXPECT_GT(injector.injected(), 0u);
    EXPECT_GT(agent.total_moves(), 0u);
    EXPECT_GT(metrics.counter("flowsim.realloc_region").value, 0u);
  }
}

}  // namespace
}  // namespace dard::flowsim
