// Hyperscale-substrate contracts (DESIGN.md §14): the fork-join thread
// pool behind run_experiments_parallel, the slab arena behind per-link flow
// lists, flow-id recycling with incarnation-guarded timers, and the
// in-place PathStore overwrite — the pieces that let a k=32 run hold 1M
// arrivals at flat RSS.
#include <gtest/gtest.h>

#include <vector>

#include "baselines/ecmp.h"
#include "common/arena.h"
#include "common/thread_pool.h"
#include "flowsim/path_store.h"
#include "flowsim/simulator.h"
#include "topology/builders.h"

namespace dard::flowsim {
namespace {

using topo::build_fat_tree;
using topo::Topology;

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  common::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  // Indices are claimed by an atomic ticket, so each slot is written by
  // exactly one worker — plain ints are race-free here.
  std::vector<int> hits(10'000, 0);
  pool.run_indexed(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const int h : hits) ASSERT_EQ(h, 1);

  // The pool is reusable: a second job on the same pool works the same.
  pool.run_indexed(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const int h : hits) ASSERT_EQ(h, 2);

  // Degenerate sizes take the serial fast path.
  int one = 0;
  pool.run_indexed(1, [&](std::size_t) { ++one; });
  EXPECT_EQ(one, 1);
  pool.run_indexed(0, [&](std::size_t) { ADD_FAILURE(); });
}

TEST(ThreadPool, SingleThreadPoolSpawnsNothingAndStillWorks) {
  common::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::size_t sum = 0;  // serial: safe to mutate without atomics
  pool.run_indexed(100, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 4950u);
}

TEST(PooledLists, PreservesAppendOrderAndSwapEraseSemantics) {
  common::PooledLists<std::uint32_t> lists(3);
  EXPECT_EQ(lists.keys(), 3u);
  for (std::uint32_t v : {10u, 20u, 30u, 40u, 50u}) lists.push(1, v);
  ASSERT_EQ(lists.size(1), 5u);
  const auto items = lists.items(1);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(items[i], 10u * (i + 1));  // append order preserved

  // swap_erase moves the last element into the hole — the same semantics
  // the per-link flow lists had as vector-of-vectors, which the allocator's
  // deterministic iteration order depends on.
  lists.swap_erase(1, 20u);
  const auto after = lists.items(1);
  ASSERT_EQ(after.size(), 4u);
  EXPECT_EQ(after[0], 10u);
  EXPECT_EQ(after[1], 50u);
  EXPECT_EQ(after[2], 30u);
  EXPECT_EQ(after[3], 40u);

  EXPECT_EQ(lists.size(0), 0u);
  EXPECT_EQ(lists.size(2), 0u);
}

TEST(PooledLists, RecyclesBlocksAcrossSizeClasses) {
  common::PooledLists<std::uint32_t> lists(2);
  // Grow key 0 through several size classes...
  for (std::uint32_t v = 0; v < 100; ++v) lists.push(0, v);
  const std::size_t grown = lists.pool_slots();
  // ...empty it, then grow key 1 the same way. Key 0 keeps its final
  // 128-slot block, but the intermediate blocks it shed while growing
  // (4 + 8 + 16 + 32 + 64 slots) must be recycled into key 1's growth, so
  // the slab only gains one fresh largest-class block.
  for (std::uint32_t v = 0; v < 100; ++v) lists.swap_erase(0, v);
  EXPECT_EQ(lists.size(0), 0u);
  for (std::uint32_t v = 0; v < 100; ++v) lists.push(1, v);
  EXPECT_EQ(lists.pool_slots(), grown + 128);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(lists.items(1)[i], i);
}

TEST(PathStore, SameLengthOverwriteReusesTheSpanInPlace) {
  PathStore store;
  const std::vector<LinkId> a{LinkId(1), LinkId(2), LinkId(3)};
  const std::vector<LinkId> b{LinkId(7), LinkId(8), LinkId(9)};
  store.set(0, a);
  const std::size_t pool_after_first = store.pool_links();
  const LinkId* data = store.span(0).data();

  // Equal-length replacement (the common path-switch case): same slot,
  // zero pool growth, zero garbage.
  store.set(0, b);
  EXPECT_EQ(store.pool_links(), pool_after_first);
  EXPECT_EQ(store.span(0).data(), data);
  EXPECT_EQ(store.live_links(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(store.span(0)[i], b[i]);

  // A different-length replacement still appends.
  const std::vector<LinkId> c{LinkId(4)};
  store.set(0, c);
  EXPECT_GT(store.pool_links(), pool_after_first);
  EXPECT_EQ(store.live_links(), 1u);
  EXPECT_EQ(store.span(0)[0], c[0]);
}

FlowSpec spec_at(NodeId src, NodeId dst, Bytes size, Seconds at,
                 std::uint16_t port) {
  FlowSpec s;
  s.src_host = src;
  s.dst_host = dst;
  s.size = size;
  s.arrival = at;
  s.src_port = port;
  s.dst_port = 80;
  return s;
}

TEST(Recycling, ReusesIdsAndKeepsCountersAndSkipsRecords) {
  const Topology t = build_fat_tree({.p = 4});
  SimConfig cfg;
  cfg.recycle_flow_ids = true;
  cfg.keep_records = false;
  FlowSimulator sim(t, cfg);
  baselines::EcmpAgent agent;
  sim.set_agent(&agent);

  // A short flow finishes (8 ms at line rate), then a second submit must
  // get the same dense id back instead of growing the arrays.
  const FlowId a =
      sim.submit(spec_at(t.hosts().front(), t.hosts().back(), 1 * kMiB, 0.0, 1));
  sim.run_until(0.5);
  EXPECT_EQ(sim.finished_flows(), 1u);
  const FlowId b =
      sim.submit(spec_at(t.hosts()[1], t.hosts().back(), 1 * kMiB, 0.5, 2));
  EXPECT_EQ(a.value(), b.value()) << "finished id was not recycled";
  sim.run_until_flows_done();
  EXPECT_EQ(sim.submitted_flows(), 2u);
  EXPECT_EQ(sim.finished_flows(), 2u);
  EXPECT_TRUE(sim.records().empty()) << "keep_records=false still recorded";
}

TEST(Recycling, ElephantTimerDoesNotFireOnRecycledSuccessor) {
  const Topology t = build_fat_tree({.p = 4});
  SimConfig cfg;
  cfg.recycle_flow_ids = true;
  cfg.elephant_threshold = 1.0;
  FlowSimulator sim(t, cfg);
  baselines::EcmpAgent agent;
  sim.set_agent(&agent);

  // Flow 1 arrives at t=0 and finishes fast; its promotion timer is still
  // pending for t=1. A long-lived successor on the recycled id must not be
  // promoted by it: only its own timer (t=1.5) may fire.
  const FlowId a =
      sim.submit(spec_at(t.hosts().front(), t.hosts().back(), 1 * kMiB, 0.0, 1));
  sim.run_until(0.5);
  ASSERT_EQ(sim.finished_flows(), 1u);
  const FlowId b = sim.submit(
      spec_at(t.hosts()[1], t.hosts().back(), 4'000'000'000ull, 0.5, 2));
  ASSERT_EQ(a.value(), b.value());

  sim.run_until(1.2);  // stale timer (t=1.0) has fired by now
  EXPECT_FALSE(sim.flow(b).is_elephant)
      << "stale promotion timer promoted the successor flow";
  sim.run_until(1.6);  // the successor's own timer (t=1.5)
  EXPECT_TRUE(sim.flow(b).is_elephant);
}

TEST(Recycling, FinishedFlowLeavesNoTimer) {
  const Topology t = build_fat_tree({.p = 4});
  SimConfig cfg;
  cfg.recycle_flow_ids = true;
  cfg.realloc_interval = 0;  // exact mode: no settle tick stays queued
  FlowSimulator sim(t, cfg);
  baselines::EcmpAgent agent;
  sim.set_agent(&agent);

  // A mouse arms a completion and a 1 s promotion timer; it finishes in
  // ~8 ms, and must take both with it rather than leave them to fire.
  const std::size_t before = sim.events().pending();
  const FlowId a =
      sim.submit(spec_at(t.hosts().front(), t.hosts().back(), 1 * kMiB, 0.0, 1));
  sim.run_until(0.001);
  EXPECT_EQ(sim.events().pending(), before + 2);
  EXPECT_TRUE(sim.events().armed(FlowSimulator::completion_key(a)));
  EXPECT_TRUE(sim.events().armed(FlowSimulator::promotion_key(a)));
  sim.run_until_flows_done();
  EXPECT_EQ(sim.events().pending(), before);
  EXPECT_FALSE(sim.events().armed(FlowSimulator::completion_key(a)));
  EXPECT_FALSE(sim.events().armed(FlowSimulator::promotion_key(a)));
}

}  // namespace
}  // namespace dard::flowsim
