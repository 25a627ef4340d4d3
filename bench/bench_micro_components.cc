// Microbenchmarks (google-benchmark) for the hot components:
// longest-prefix forwarding lookups, max-min rate allocation (one-shot,
// and scoped-vs-full reallocation churn), path enumeration, path encoding,
// monitor build and refresh, and the packet substrate's per-hop cost.
// Results are mirrored to BENCH_micro.json for the CI regression gate
// (bench/check_bench_regression.py).
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cmath>

#include "addressing/hierarchical.h"
#include "baselines/ecmp.h"
#include "common/rng.h"
#include "dard/monitor.h"
#include "flowsim/max_min.h"
#include "flowsim/simulator.h"
#include "micro_json_main.h"
#include "obs/profiler.h"
#include "pktsim/network.h"
#include "realloc_workload.h"
#include "topology/builders.h"
#include "topology/path_gen.h"
#include "topology/paths.h"

namespace {

using namespace dard;

void BM_LpmForward(benchmark::State& state) {
  const auto t = topo::build_fat_tree({.p = static_cast<int>(state.range(0))});
  const addr::AddressingPlan plan(t);
  const NodeId src = t.hosts().front();
  const NodeId dst = t.hosts().back();
  const addr::Address src_addr = plan.host_addresses(src).front().address;
  const addr::Address dst_addr = plan.host_addresses(dst).front().address;
  const NodeId agg = t.aggs().front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.forward(agg, src_addr, dst_addr));
  }
}
BENCHMARK(BM_LpmForward)->Arg(4)->Arg(8)->Arg(16);

void BM_Trace(benchmark::State& state) {
  const auto t = topo::build_fat_tree({.p = static_cast<int>(state.range(0))});
  const addr::AddressingPlan plan(t);
  const addr::Address src =
      plan.host_addresses(t.hosts().front()).front().address;
  const addr::Address dst =
      plan.host_addresses(t.hosts().back()).front().address;
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.trace(src, dst));
  }
}
BENCHMARK(BM_Trace)->Arg(4)->Arg(8);

void BM_MaxMinAllocation(benchmark::State& state) {
  const auto t = topo::build_fat_tree({.p = 8});
  topo::PathRepository repo(t);
  Rng rng(1);
  const auto& hosts = t.hosts();
  std::vector<std::vector<LinkId>> paths;
  while (paths.size() < static_cast<std::size_t>(state.range(0))) {
    const NodeId s = hosts[rng.next_below(hosts.size())];
    const NodeId d = hosts[rng.next_below(hosts.size())];
    if (s == d) continue;
    const auto& tp = repo.tor_paths(t.tor_of_host(s), t.tor_of_host(d));
    paths.push_back(
        topo::host_path(t, s, d, tp[rng.next_below(tp.size())]).links);
  }
  std::vector<const std::vector<LinkId>*> input;
  for (const auto& p : paths) input.push_back(&p);
  flowsim::MaxMinAllocator alloc(t);
  for (auto _ : state) {
    benchmark::DoNotOptimize(alloc.compute(input));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(paths.size()));
}
BENCHMARK(BM_MaxMinAllocation)->Arg(64)->Arg(512)->Arg(4096);

// The reallocation event loop on a p=16 fat-tree (1024 hosts) with a
// standing pod-local population: one flow moves, rates re-solve. Scoped is
// the production configuration; Full forces the pre-incremental behaviour
// (every event re-solves all flows). A move takes the region tier: at 2048
// flows it re-fills ~21 flows per event (touched_flows_per_event), where
// the sharing component holds ~248. CI gates Scoped/2048 at <= 0.06x
// Full/2048, so losing the region tier (0.12x) fails it.
void BM_ReallocEventScoped(benchmark::State& state) {
  const auto t = topo::build_fat_tree({.p = 16});
  bench::ReallocWorkload w(t, static_cast<std::size_t>(state.range(0)),
                           /*full_only=*/false);
  std::size_t touched = 0;
  for (auto _ : state) {
    touched += w.churn_step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["touched_flows_per_event"] = benchmark::Counter(
      static_cast<double>(touched), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ReallocEventScoped)->Arg(512)->Arg(2048);

// Profiler-overhead pair: the same scoped churn loop with a ProfileScope
// around each event, first disabled (null profiler — the production default
// when --profile is off) and then enabled. CI gates the disabled variant
// against BM_ReallocEventScoped: wrapping a hot path in a dormant scope
// must cost one branch, not a clock read.
void BM_ReallocEventScopedProfiledOff(benchmark::State& state) {
  const auto t = topo::build_fat_tree({.p = 16});
  bench::ReallocWorkload w(t, static_cast<std::size_t>(state.range(0)),
                           /*full_only=*/false);
  std::size_t touched = 0;
  for (auto _ : state) {
    const obs::ProfileScope timed(nullptr, obs::ProfileSection::MaxMinRealloc);
    touched += w.churn_step();
  }
  benchmark::DoNotOptimize(touched);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ReallocEventScopedProfiledOff)->Arg(512);

void BM_ReallocEventScopedProfiledOn(benchmark::State& state) {
  const auto t = topo::build_fat_tree({.p = 16});
  bench::ReallocWorkload w(t, static_cast<std::size_t>(state.range(0)),
                           /*full_only=*/false);
  obs::Profiler profiler;
  std::size_t touched = 0;
  for (auto _ : state) {
    const obs::ProfileScope timed(&profiler,
                                  obs::ProfileSection::MaxMinRealloc);
    touched += w.churn_step();
  }
  benchmark::DoNotOptimize(touched);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["profiled_events"] = benchmark::Counter(static_cast<double>(
      profiler.section(obs::ProfileSection::MaxMinRealloc).count()));
}
BENCHMARK(BM_ReallocEventScopedProfiledOn)->Arg(512);

// Raw cost of one dormant ProfileScope, no workload underneath.
void BM_ProfileScopeDisabled(benchmark::State& state) {
  for (auto _ : state) {
    const obs::ProfileScope timed(nullptr, obs::ProfileSection::DardRound);
    benchmark::DoNotOptimize(&timed);
  }
}
BENCHMARK(BM_ProfileScopeDisabled);

// A live scope's work: two clock reads and one record(). An empty scope
// measures ~80 ns, under the histogram's lowest edge, so every sample
// would land in the underflow bucket and skip the bucket search. record()
// is fed a fixed table of durations instead, log-spaced over 200 ns to
// 1 ms (the buckets profiled sections hit) and visited out of order.
void BM_ProfileScopeEnabled(benchmark::State& state) {
  constexpr std::size_t kDurations = 64;
  std::array<Seconds, kDurations> durations{};
  for (std::size_t i = 0; i < kDurations; ++i)
    durations[i] = 2e-7 * std::pow(5e3, static_cast<double>(i) /
                                            (kDurations - 1));
  obs::Profiler profiler;
  obs::LatencyHistogram& hist =
      profiler.section(obs::ProfileSection::DardRound);
  std::size_t next = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(start);
    const auto stop = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(stop);
    hist.record(durations[next]);
    // A stride coprime to the table's size visits every entry.
    next = (next + 23) % kDurations;
  }
  benchmark::DoNotOptimize(hist.count());
}
BENCHMARK(BM_ProfileScopeEnabled);

void BM_ReallocEventFull(benchmark::State& state) {
  const auto t = topo::build_fat_tree({.p = 16});
  bench::ReallocWorkload w(t, static_cast<std::size_t>(state.range(0)),
                           /*full_only=*/true);
  std::size_t touched = 0;
  for (auto _ : state) {
    touched += w.churn_step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["touched_flows_per_event"] = benchmark::Counter(
      static_cast<double>(touched), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ReallocEventFull)->Arg(512)->Arg(2048);

void BM_PathEnumeration(benchmark::State& state) {
  const auto t = topo::build_fat_tree({.p = static_cast<int>(state.range(0))});
  const NodeId src = t.tors().front();
  const NodeId dst = t.tors().back();
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo::enumerate_tor_paths(t, src, dst));
  }
}
BENCHMARK(BM_PathEnumeration)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

// The lazy generator materializing the same full (k/2)^2 path set the
// enumerator produces. BM_PathGenerateAll/32 vs BM_PathEnumeration/32 is
// the headline tentpole ratio (acceptance: >= 100x at k=32).
void BM_PathGenerateAll(benchmark::State& state) {
  const auto t = topo::build_fat_tree({.p = static_cast<int>(state.range(0))});
  const topo::PathGenerator gen(t);
  const NodeId src = t.tors().front();
  const NodeId dst = t.tors().back();
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.all(src, dst));
  }
}
BENCHMARK(BM_PathGenerateAll)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

// What an arriving flow costs the path layer: the pair's path count, then
// the one path its hash picked, over a fixed seeded list of inter-pod pairs
// and indices. BM_PathPlaceByIndex/32 against BM_PathGenerateAll/32 is the
// CI gate on the generator's index path: path(i) walking every candidate
// before i again would cost about a full set. It calls the generator
// directly, so it does not see whether callers place from a whole set;
// LazyPaths.ArrivalsBuildNoPathSet pins that.
void BM_PathPlaceByIndex(benchmark::State& state) {
  const auto t = topo::build_fat_tree({.p = static_cast<int>(state.range(0))});
  const topo::PathGenerator gen(t);
  const auto& tors = t.tors();
  struct Placement {
    NodeId src, dst;
    std::uint64_t hash;
  };
  constexpr std::size_t kPairs = 64;
  std::vector<Placement> placements;
  Rng rng(7);
  while (placements.size() < kPairs) {
    const NodeId s = tors[rng.next_below(tors.size())];
    const NodeId d = tors[rng.next_below(tors.size())];
    if (t.node(s).pod != t.node(d).pod)
      placements.push_back({s, d, rng.bits()});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const Placement& p = placements[i++ % kPairs];
    const std::size_t count = gen.count(p.src, p.dst);
    benchmark::DoNotOptimize(gen.path(p.src, p.dst, p.hash % count));
  }
}
BENCHMARK(BM_PathPlaceByIndex)->Arg(8)->Arg(32);

// Amortized per-pair access through the bounded LRU: a scheduler touching
// a working set that fits in cache pays a flat-hash hit, not a rebuild.
void BM_PathRepositoryLookup(benchmark::State& state) {
  const auto t = topo::build_fat_tree({.p = static_cast<int>(state.range(0))});
  topo::PathRepository repo(t);
  // A hot working set of ToR pairs well inside the LRU capacity.
  const auto& tors = t.tors();
  constexpr std::size_t kPairs = 64;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  Rng rng(7);
  while (pairs.size() < kPairs) {
    const NodeId s = tors[rng.next_below(tors.size())];
    const NodeId d = tors[rng.next_below(tors.size())];
    if (s != d) pairs.emplace_back(s, d);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [s, d] = pairs[i++ % kPairs];
    benchmark::DoNotOptimize(repo.tor_paths(s, d));
  }
}
BENCHMARK(BM_PathRepositoryLookup)->Arg(8)->Arg(32);

void BM_EncodePath(benchmark::State& state) {
  const auto t = topo::build_fat_tree({.p = 8});
  const addr::AddressingPlan plan(t);
  topo::PathRepository repo(t);
  const NodeId src = t.hosts().front();
  const NodeId dst = t.hosts().back();
  const auto& tp = repo.tor_paths(t.tor_of_host(src), t.tor_of_host(dst));
  const topo::Path full = topo::host_path(t, src, dst, tp.front());
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.encode(full));
  }
}
BENCHMARK(BM_EncodePath);

// An idle k-ary fat tree under a FlowSimulator, and a monitor between its
// first and last ToR (inter-pod: 256 paths over 289 switches at k=32).
struct MonitorFixture {
  explicit MonitorFixture(int p)
      : t(topo::build_fat_tree({.p = p})), sim(t) {
    sim.set_agent(&agent);
  }
  topo::Topology t;
  flowsim::FlowSimulator sim;
  baselines::EcmpAgent agent;
};

// A refresh with no accountant: the exchanges and the port snapshot.
void BM_MonitorRefresh(benchmark::State& state) {
  MonitorFixture f(static_cast<int>(state.range(0)));
  const fabric::StateQueryService service(f.sim.link_state(), nullptr);
  core::PathMonitor monitor(f.sim, f.t.tors().front(), f.t.tors().back());
  for (auto _ : state) {
    monitor.refresh(0.0, service);
  }
}
BENCHMARK(BM_MonitorRefresh)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

// The same refresh charging the simulator's accountant, as every run's
// monitors do. CI gates it at 1.15x BM_MonitorRefresh/32: a refresh that
// went back to charging each message alone would cost ~1.4x.
void BM_MonitorRefreshAccounted(benchmark::State& state) {
  MonitorFixture f(static_cast<int>(state.range(0)));
  const fabric::StateQueryService service(f.sim.link_state(),
                                          &f.sim.accountant());
  core::PathMonitor monitor(f.sim, f.t.tors().front(), f.t.tors().back());
  for (auto _ : state) {
    monitor.refresh(0.0, service);
  }
}
BENCHMARK(BM_MonitorRefreshAccounted)->Arg(32);

// One accounted refresh plus the round's propose() that consumes it, on a
// monitor tracking one flow: the path-state assembly a refresh leaves to
// the round is timed here.
void BM_MonitorRound(benchmark::State& state) {
  MonitorFixture f(static_cast<int>(state.range(0)));
  const fabric::StateQueryService service(f.sim.link_state(),
                                          &f.sim.accountant());
  const core::DardConfig cfg;
  core::PathMonitor monitor(f.sim, f.t.tors().front(), f.t.tors().back());
  monitor.add_flow(FlowId(0), 0);
  Rng rng(1);
  for (auto _ : state) {
    monitor.refresh(0.0, service, cfg);
    benchmark::DoNotOptimize(monitor.propose(cfg.delta, rng));
  }
}
BENCHMARK(BM_MonitorRound)->Arg(32);

// What a new DARD monitor costs its host: one PathMonitor built per
// iteration over a fixed seeded list of inter-pod ToR pairs. A build is one
// walk over the generator's paths that numbers each link's slot, a sort of
// the query set and a pass grouping the slots by switch, into arrays
// allocated once at their final size. CI gates BM_MonitorBuild/32 against
// BM_MonitorRefresh/32: a build that went back to materializing and
// deduplicating the pair's whole path set would cost well over the gated
// multiple of a refresh.
void BM_MonitorBuild(benchmark::State& state) {
  MonitorFixture f(static_cast<int>(state.range(0)));
  const topo::Topology& t = f.t;
  flowsim::FlowSimulator& sim = f.sim;
  const auto& tors = t.tors();
  constexpr std::size_t kPairs = 64;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  Rng rng(7);
  while (pairs.size() < kPairs) {
    const NodeId s = tors[rng.next_below(tors.size())];
    const NodeId d = tors[rng.next_below(tors.size())];
    if (t.node(s).pod != t.node(d).pod) pairs.emplace_back(s, d);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [s, d] = pairs[i++ % kPairs];
    core::PathMonitor monitor(sim, s, d);
    benchmark::DoNotOptimize(monitor.queried_switches().data());
  }
}
BENCHMARK(BM_MonitorBuild)->Arg(8)->Arg(32);

// One packet hop through pktsim::PacketNetwork: a window of data packets
// sent at once along a 6-hop inter-pod route of a p=4 fat tree at 100 Mbps,
// then run to delivery. Queues hold the whole window, so every packet
// crosses all six links; ns_per_hop is the wall time per link crossed,
// event dispatch included.
void BM_PacketHop(benchmark::State& state) {
  const auto t = topo::build_fat_tree({.p = 4,
                                       .hosts_per_tor = -1,
                                       .link_capacity = 100 * kMbps,
                                       .link_delay = 0.0001});
  const auto window = state.range(0);
  flowsim::EventQueue events;
  pktsim::PacketNetwork net(
      t, events, static_cast<Bytes>(window) * pktsim::kDataPacketBytes);
  const NodeId src = t.hosts().front();
  const NodeId dst = t.hosts().back();
  topo::PathRepository repo(t);
  const auto route =
      topo::host_path(t, src, dst,
                      repo.tor_paths(t.tor_of_host(src), t.tor_of_host(dst))
                          .front())
          .links;
  std::int64_t delivered = 0;
  net.set_delivery_handler(
      [&delivered](const pktsim::Packet&) { ++delivered; });
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    for (std::int64_t i = 0; i < window; ++i) {
      pktsim::Packet p;
      p.flow = FlowId(0);
      p.seq = static_cast<std::uint64_t>(i);
      p.route = route;
      net.send(p);
    }
    while (events.run_next()) {
    }
    benchmark::DoNotOptimize(delivered);
  }
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  if (delivered != state.iterations() * window)
    state.SkipWithError("packets dropped; the window must fit the queues");
  state.counters["ns_per_hop"] =
      elapsed.count() / static_cast<double>(delivered * route.size());
}
BENCHMARK(BM_PacketHop)->Arg(64);

}  // namespace

DCN_BENCHMARK_JSON_MAIN("BENCH_micro.json")
