#include <gtest/gtest.h>

#include "fabric/accounting.h"
#include "fabric/controller.h"
#include "fabric/switch_state.h"
#include "fabric/wire.h"
#include "topology/builders.h"

namespace dard::fabric {
namespace {

using topo::build_fat_tree;
using topo::Topology;

TEST(Accountant, TotalsByCategory) {
  ControlPlaneAccountant acc;
  acc.record(0.5, 48, ControlCategory::DardQuery);
  acc.record(0.5, 32, ControlCategory::DardReply);
  acc.record(1.5, 80, ControlCategory::SchedulerReport);
  EXPECT_EQ(acc.total_bytes(), 160u);
  EXPECT_EQ(acc.total_bytes(ControlCategory::DardQuery), 48u);
  EXPECT_EQ(acc.total_bytes(ControlCategory::SchedulerUpdate), 0u);
  EXPECT_EQ(acc.message_count(), 3u);
  // Messages are counted per category as bytes are, a batch as its count.
  acc.record(2.5, 48, ControlCategory::DardQuery, 3);
  EXPECT_EQ(acc.message_count(ControlCategory::DardQuery), 4u);
  EXPECT_EQ(acc.message_count(ControlCategory::DardReply), 1u);
  EXPECT_EQ(acc.message_count(ControlCategory::SchedulerReport), 1u);
  EXPECT_EQ(acc.message_count(ControlCategory::SchedulerUpdate), 0u);
  EXPECT_EQ(acc.message_count(), 6u);
  EXPECT_EQ(acc.total_bytes(ControlCategory::DardQuery), 4 * 48u);
}

TEST(Accountant, RateSeriesBuckets) {
  ControlPlaneAccountant acc;
  acc.record(0.1, 100, ControlCategory::DardQuery);
  acc.record(0.9, 100, ControlCategory::DardQuery);
  acc.record(1.2, 300, ControlCategory::DardQuery);
  acc.record(5.0, 999, ControlCategory::DardQuery);  // beyond horizon
  const auto series = acc.rate_series(3.0);
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series[0], 200.0);
  EXPECT_DOUBLE_EQ(series[1], 300.0);
  EXPECT_DOUBLE_EQ(series[2], 0.0);
  EXPECT_DOUBLE_EQ(acc.peak_rate(3.0), 300.0);
  EXPECT_NEAR(acc.mean_rate(3.0), 500.0 / 3.0, 1e-12);
}

TEST(Accountant, Clear) {
  ControlPlaneAccountant acc;
  acc.record(0, 10, ControlCategory::DardQuery);
  acc.clear();
  EXPECT_EQ(acc.total_bytes(), 0u);
  EXPECT_EQ(acc.message_count(), 0u);
  EXPECT_EQ(acc.message_count(ControlCategory::DardQuery), 0u);
}

TEST(LinkStateBoardTest, CountsElephants) {
  const Topology t = build_fat_tree({.p = 4});
  LinkStateBoard board(t);
  const LinkId l = t.links().front().id;
  EXPECT_EQ(board.elephants(l), 0u);
  board.add_elephant(l);
  board.add_elephant(l);
  EXPECT_EQ(board.elephants(l), 2u);
  board.remove_elephant(l);
  EXPECT_EQ(board.elephants(l), 1u);
  EXPECT_DOUBLE_EQ(board.capacity(l), t.links().front().capacity);
}

TEST(LinkStateTest, BonfIdleLinkIsFullBandwidth) {
  LinkState s{LinkId(0), 1 * kGbps, 0};
  EXPECT_DOUBLE_EQ(s.bonf(), 1 * kGbps);
  s.elephant_flows = 4;
  EXPECT_DOUBLE_EQ(s.bonf(), 0.25 * kGbps);
}

TEST(StateQuery, ReturnsAllEgressPortsAndAccounts) {
  const Topology t = build_fat_tree({.p = 4});
  LinkStateBoard board(t);
  ControlPlaneAccountant acc;
  const StateQueryService service(board, &acc);

  // One exchange with a ToR: its reply carries every egress port's state,
  // and the exchange charges one query and one reply.
  const NodeId tor = t.tors().front();
  for (const LinkId l : t.out_links(tor)) {
    const LinkState s = service.link_state(l);
    EXPECT_EQ(s.link, l);
    EXPECT_DOUBLE_EQ(s.bandwidth, t.link(l).capacity);
    EXPECT_EQ(s.elephant_flows, 0u);
  }
  service.charge(2.0, 1, 1);
  EXPECT_EQ(acc.total_bytes(),
            kDardQueryBytes + kDardReplyBytes);
  EXPECT_EQ(acc.total_bytes(ControlCategory::DardQuery), kDardQueryBytes);
  EXPECT_EQ(acc.message_count(ControlCategory::DardQuery), 1u);
  EXPECT_EQ(acc.message_count(ControlCategory::DardReply), 1u);
  EXPECT_EQ(acc.message_count(), 2u);
}

TEST(StateQuery, ReflectsBoardUpdates) {
  const Topology t = build_fat_tree({.p = 4});
  LinkStateBoard board(t);
  const StateQueryService service(board, nullptr);

  const NodeId tor = t.tors().front();
  const LinkId up = t.out_links(tor).front();
  board.add_elephant(up);
  for (const LinkId l : t.out_links(tor))
    EXPECT_EQ(service.link_state(l).elephant_flows, l == up ? 1u : 0u);
}

TEST(Controller, InstallsAllSwitchTables) {
  const Topology t = build_fat_tree({.p = 4});
  const addr::AddressingPlan plan(t);
  ForwardingFabric fabric(t);

  const NodeId sw = t.tors().front();
  EXPECT_FALSE(fabric.installed(sw));

  const auto report = StaticTableController::install(plan, &fabric);
  EXPECT_EQ(report.switches, t.tors().size() + t.aggs().size() +
                                 t.cores().size());
  EXPECT_EQ(report.entries, plan.total_table_entries());
  EXPECT_TRUE(fabric.installed(sw));
}

TEST(Controller, InstalledFabricForwardsLikeThePlan) {
  const Topology t = build_fat_tree({.p = 4});
  const addr::AddressingPlan plan(t);
  ForwardingFabric fabric(t);
  StaticTableController::install(plan, &fabric);

  const NodeId src = t.hosts().front();
  const NodeId dst = t.hosts().back();
  for (const auto& src_rec : plan.host_addresses(src)) {
    for (const auto& dst_rec : plan.host_addresses(dst)) {
      if (src_rec.alloc_path.front() != dst_rec.alloc_path.front()) continue;
      const topo::Path p = plan.trace(src_rec.address, dst_rec.address);
      for (std::size_t i = 1; i + 1 < p.nodes.size(); ++i) {
        EXPECT_EQ(fabric.forward(p.nodes[i], src_rec.address,
                                 dst_rec.address),
                  p.links[i]);
      }
    }
  }
}

}  // namespace
}  // namespace dard::fabric
