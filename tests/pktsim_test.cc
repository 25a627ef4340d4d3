#include <gtest/gtest.h>

#include <functional>
#include <limits>

#include "baselines/ecmp.h"
#include "common/hash.h"
#include "common/rng.h"
#include "dard/dard_agent.h"
#include "pktnet_reference.h"
#include "pktsim/agent_router.h"
#include "pktsim/session.h"
#include "topology/builders.h"
#include "topology/path_gen.h"

namespace dard::pktsim {
namespace {

using topo::build_fat_tree;
using topo::Topology;

topo::FatTreeParams testbed_params() {
  // The paper's emulator speed: 100 Mbps data plane.
  return {.p = 4, .hosts_per_tor = -1, .link_capacity = 100 * kMbps,
          .link_delay = 0.0001};
}

TEST(PacketNetworkTest, DeliversAlongRoute) {
  const Topology t = build_fat_tree(testbed_params());
  flowsim::EventQueue events;
  PacketNetwork net(t, events);

  const NodeId src = t.hosts().front();
  const NodeId dst = t.hosts().back();
  topo::PathRepository repo(t);
  const auto& tp = repo.tor_paths(t.tor_of_host(src), t.tor_of_host(dst));
  const auto route = topo::host_path(t, src, dst, tp.front()).links;

  int delivered = 0;
  net.set_delivery_handler([&](const Packet& p) {
    ++delivered;
    EXPECT_EQ(p.hop, p.route.size());
  });
  Packet p;
  p.flow = FlowId(0);
  p.route = route;
  net.send(std::move(p));
  while (events.run_next()) {
  }
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.drops(), 0u);
  // Latency = 6 hops x (tx + delay).
  const double tx = kDataPacketBytes * 8.0 / (100 * kMbps);
  EXPECT_NEAR(events.now(), 6 * (tx + 0.0001), 1e-9);
}

TEST(PacketNetworkTest, DropsWhenQueueOverflows) {
  const Topology t = build_fat_tree(testbed_params());
  flowsim::EventQueue events;
  // Tiny queues: 2 packets.
  PacketNetwork net(t, events, 2 * kDataPacketBytes);

  const NodeId src = t.hosts().front();
  const NodeId dst = t.hosts().back();
  topo::PathRepository repo(t);
  const auto route =
      topo::host_path(t, src, dst,
                      repo.tor_paths(t.tor_of_host(src), t.tor_of_host(dst))
                          .front())
          .links;
  int delivered = 0;
  net.set_delivery_handler([&](const Packet&) { ++delivered; });
  for (int i = 0; i < 10; ++i) {  // burst of 10 into a 2-packet queue
    Packet p;
    p.flow = FlowId(0);
    p.seq = static_cast<std::uint64_t>(i);
    p.route = route;
    net.send(std::move(p));
  }
  while (events.run_next()) {
  }
  EXPECT_EQ(delivered + static_cast<int>(net.drops()), 10);
  EXPECT_GT(net.drops(), 0u);
}

TEST(PacketNetworkTest, UtilizationCounters) {
  const Topology t = build_fat_tree(testbed_params());
  flowsim::EventQueue events;
  PacketNetwork net(t, events);
  net.set_delivery_handler([](const Packet&) {});

  const NodeId src = t.hosts().front();
  const LinkId up = t.out_links(src).front();
  Packet p;
  p.flow = FlowId(0);
  p.route.push_back(up);
  net.send(std::move(p));
  while (events.run_next()) {
  }
  EXPECT_EQ(net.bytes_sent(up), kDataPacketBytes);
  EXPECT_GT(net.utilization(up, 0.01), 0.0);
  net.reset_counters();
  EXPECT_EQ(net.bytes_sent(up), 0u);
}

struct Delivery {
  Seconds time;
  std::uint32_t flow;
  std::uint64_t seq;
  bool is_ack;
  bool operator==(const Delivery&) const = default;
};

struct NetOutcome {
  std::vector<Delivery> deliveries;
  std::uint64_t drops = 0;
  std::uint64_t forwarded = 0;
  std::vector<Bytes> bytes_sent;  // per link
};

bool step(flowsim::EventQueue& q, const PacketNetwork&) {
  return q.run_next();
}
// The reference's departure events have no counterpart in the pooled
// network's queue: run past them to the next event both networks share.
bool step(flowsim::EventQueue& q,
          const pktnet_ref::ClosurePacketNetwork& net) {
  for (;;) {
    const std::uint64_t departures = net.departures_fired();
    if (!q.run_next()) return false;
    if (net.departures_fired() == departures) return true;
  }
}

// Seeded random traffic over host-level routes of `t`, every queue
// `queue_bytes` deep, with packets of mixed sizes. Packets are sent from
// scheduled bursts and a ticker (inside events), from the delivery handler
// (an ACK back along the reversed route for every data packet, and now and
// then a new packet), between run_next() calls and after run_until(t).
// Links fail and are repaired mid-run. The ticker keeps the queue busy
// until kEnd, so both networks' clocks agree wherever the loop below reads
// them.
template <class Net>
NetOutcome drive_random_traffic(const Topology& t, Bytes queue_bytes,
                                std::uint64_t seed) {
  constexpr Seconds kEnd = 0.05;
  flowsim::EventQueue q;
  Net net(t, q, queue_bytes);
  Rng rng(seed);
  const topo::PathGenerator gen(t);
  const auto& hosts = t.hosts();
  std::uint32_t flows = 0;
  const auto random_host = [&] { return hosts[rng.next_below(hosts.size())]; };
  const auto packet_from = [&](NodeId src) {
    NodeId dst = src;
    while (dst == src) dst = random_host();
    const NodeId s = t.tor_of_host(src), d = t.tor_of_host(dst);
    LinkId mid[topo::kMaxTorPathLinks];
    const std::size_t n =
        gen.path_links(s, d, rng.next_below(gen.count(s, d)), mid);
    Packet p;
    p.flow = FlowId(flows++);
    p.route.push_back(t.out_links(src).front());
    for (std::size_t i = 0; i < n; ++i) p.route.push_back(mid[i]);
    p.route.push_back(t.reverse(t.out_links(dst).front()));
    switch (rng.next_below(3)) {
      case 0:
        p.size = kAckPacketBytes;
        break;
      case 1:
        p.size = kDataPacketBytes;
        break;
      default:
        p.size = kAckPacketBytes + rng.next_below(kDataPacketBytes);
    }
    return p;
  };
  const auto random_packet = [&] { return packet_from(random_host()); };

  NetOutcome out;
  net.set_delivery_handler([&](const Packet& p) {
    out.deliveries.push_back({q.now(), p.flow.value(), p.seq, p.is_ack});
    if (!p.is_ack) {
      Packet ack;
      ack.flow = p.flow;
      ack.seq = p.seq + 1;
      ack.is_ack = true;
      ack.size = kAckPacketBytes;
      for (auto it = p.route.end(); it != p.route.begin();)
        ack.route.push_back(t.reverse(*--it));
      net.send(ack);
    }
    if (rng.next_below(4) == 0) net.send(random_packet());
  });
  std::function<void()> tick = [&] {
    net.send(random_packet());
    if (q.now() < kEnd) q.schedule(q.now() + 40e-6, tick);
  };
  q.schedule(0.0, tick);
  for (int i = 0; i < 40; ++i) {
    const Seconds at = rng.uniform() * kEnd;
    const auto n = 1 + rng.next_below(6);
    q.schedule(at, [&, n] {
      for (std::uint64_t k = 0; k < n; ++k) net.send(random_packet());
    });
  }
  for (int i = 0; i < 12; ++i) {
    const LinkId l(static_cast<LinkId::value_type>(
        rng.next_below(t.link_count())));
    const Seconds down = rng.uniform() * kEnd;
    const Seconds up = down + rng.uniform() * kEnd / 4;
    q.schedule(down, [&net, l] { net.set_link_failed(l, true); });
    q.schedule(up, [&net, l] { net.set_link_failed(l, false); });
  }

  Seconds until = 0;
  while (q.now() < kEnd) {
    if (rng.next_below(2) == 0) {
      const auto n = 1 + rng.next_below(8);
      for (std::uint64_t i = 0; i < n && q.now() < kEnd; ++i) {
        step(q, net);
        if (rng.next_below(2) == 0) net.send(random_packet());
      }
    } else {
      until = std::max(until, q.now()) + rng.uniform() * 200e-6;
      q.run_until(until);
      // A burst from one host, so its uplink queue fills from outside.
      const NodeId src = random_host();
      const auto n = rng.next_below(5);
      for (std::uint64_t i = 0; i < n; ++i) net.send(packet_from(src));
    }
  }
  while (step(q, net)) {
  }
  out.drops = net.drops();
  out.forwarded = net.forwarded();
  for (const auto& link : t.links())
    out.bytes_sent.push_back(net.bytes_sent(link.id));
  return out;
}

TEST(PacketNetworkTest, MatchesTheClosureNetwork) {
  // A p=4 fat tree with 2-packet queues; an oversubscribed one (one uplink
  // per aggregation switch; host, ToR-agg and agg-core links at 200, 400
  // and 100 Mbps; zero-delay links, so a hop's arrival ties its departure)
  // with 3-packet queues; and one whose host links take no time at all, so
  // a packet sent after run_until(t) departs at t itself.
  topo::FatTreeParams over = testbed_params();
  over.uplinks_per_agg = 1;
  over.host_capacity = 200 * kMbps;
  over.tor_agg_capacity = 400 * kMbps;
  over.link_delay = 0;
  topo::FatTreeParams instant = testbed_params();
  instant.host_capacity = std::numeric_limits<Bps>::infinity();
  instant.link_delay = 0;
  const Topology fat = build_fat_tree(testbed_params());
  const Topology oversub = build_fat_tree(over);
  const Topology instant_hosts = build_fat_tree(instant);
  const struct {
    const char* name;
    const Topology* t;
    Bytes queue_bytes;
  } cases[] = {{"fat tree", &fat, 2 * kDataPacketBytes},
               {"oversubscribed", &oversub, 3 * kDataPacketBytes},
               {"instant host links", &instant_hosts, 2 * kDataPacketBytes}};
  for (const auto& c : cases) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const NetOutcome pooled =
          drive_random_traffic<PacketNetwork>(*c.t, c.queue_bytes, seed);
      const NetOutcome closures =
          drive_random_traffic<pktnet_ref::ClosurePacketNetwork>(
              *c.t, c.queue_bytes, seed);
      SCOPED_TRACE(std::string(c.name) + ", seed " + std::to_string(seed));
      ASSERT_GT(closures.deliveries.size(), 1000u);
      ASSERT_GT(closures.drops, 100u);
      EXPECT_EQ(pooled.drops, closures.drops);
      EXPECT_EQ(pooled.forwarded, closures.forwarded);
      EXPECT_EQ(pooled.bytes_sent, closures.bytes_sent);
      ASSERT_EQ(pooled.deliveries.size(), closures.deliveries.size());
      for (std::size_t i = 0; i < pooled.deliveries.size(); ++i) {
        const Delivery& a = pooled.deliveries[i];
        const Delivery& b = closures.deliveries[i];
        ASSERT_TRUE(a == b)
            << "delivery " << i << ": pooled (" << a.time << ", " << a.flow
            << ", " << a.seq << ", " << a.is_ack << ") vs closures ("
            << b.time << ", " << b.flow << ", " << b.seq << ", " << b.is_ack
            << ")";
      }
    }
  }
}

TEST(TcpTest, SingleFlowCompletesNearLinkRate) {
  const Topology t = build_fat_tree(testbed_params());
  baselines::EcmpAgent ecmp;
  auto router = std::make_unique<AgentRouter>(t, ecmp);
  // Queues larger than the worst-case window: no slow-start overshoot loss.
  PktSession session(t, std::move(router), {}, 128 * 1000);
  const FlowId id = session.add_flow(
      {t.hosts().front(), t.hosts().back(), 2 * kMiB, 0.0});
  ASSERT_TRUE(session.run(60.0));
  const TcpResult& r = session.result(id);
  EXPECT_EQ(r.retransmissions, 0u) << "clean path should not lose packets";
  // Ideal time at 100 Mbps with header overhead ~ 0.176 s; allow slow start.
  const double ideal = 2.0 * kMiB * 8 / (100e6) * 1500.0 / 1460.0;
  EXPECT_LT(r.transfer_time(), ideal * 1.6);
  EXPECT_GT(r.transfer_time(), ideal * 0.99);
}

TEST(TcpTest, UniquePacketsMatchFileSize) {
  const Topology t = build_fat_tree(testbed_params());
  baselines::EcmpAgent ecmp;
  PktSession session(t, std::make_unique<AgentRouter>(t, ecmp));
  const Bytes size = 1 * kMiB;
  const FlowId id =
      session.add_flow({t.hosts().front(), t.hosts().back(), size, 0.0});
  ASSERT_TRUE(session.run(60.0));
  EXPECT_EQ(session.result(id).unique_packets, (size + kMss - 1) / kMss);
}

TEST(TcpTest, TwoFlowsShareFairly) {
  const Topology t = build_fat_tree(testbed_params());
  baselines::EcmpAgent ecmp;
  auto router = std::make_unique<AgentRouter>(t, ecmp);
  // Pin both flows through the same core by construction: same ToR pair and
  // the hash may differ, so check fairness only loosely via completion.
  PktSession session(t, std::move(router));
  const FlowId a =
      session.add_flow({t.hosts()[0], t.hosts()[12], 2 * kMiB, 0.0});
  const FlowId b =
      session.add_flow({t.hosts()[1], t.hosts()[13], 2 * kMiB, 0.0});
  ASSERT_TRUE(session.run(120.0));
  const double ta = session.result(a).transfer_time();
  const double tb = session.result(b).transfer_time();
  EXPECT_LT(std::max(ta, tb) / std::min(ta, tb), 3.0);
}

TEST(TcpTest, RecoversFromHeavyCongestion) {
  // 4 flows into one receiver: incast-like pressure; every flow must still
  // complete, with some loss handled by fast retransmit / RTO.
  const Topology t = build_fat_tree(testbed_params());
  baselines::EcmpAgent ecmp;
  PktSession session(t, std::make_unique<AgentRouter>(t, ecmp));
  std::vector<FlowId> ids;
  for (int i = 0; i < 4; ++i)
    ids.push_back(session.add_flow(
        {t.hosts()[static_cast<std::size_t>(i * 2)], t.hosts()[15],
         1 * kMiB, 0.0}));
  ASSERT_TRUE(session.run(300.0));
  for (const FlowId id : ids) EXPECT_TRUE(session.result(id).done());
}

TEST(AgentRouterTest, DardDaemonsMoveCollidingFlows) {
  const Topology t = build_fat_tree(testbed_params());
  core::DardConfig cfg;
  cfg.query_interval = 0.1;
  cfg.schedule_base = 0.2;
  cfg.schedule_jitter = 0.2;
  cfg.delta = 1 * kMbps;
  core::DardAgent agent(cfg);
  auto router =
      std::make_unique<AgentRouter>(t, agent, /*elephant_threshold=*/0.1);
  auto* raw = router.get();
  PktSession session(t, std::move(router));
  // Large enough transfers that the daemons' rounds kick in.
  session.add_flow({t.hosts()[0], t.hosts()[12], 4 * kMiB, 0.0});
  session.add_flow({t.hosts()[1], t.hosts()[13], 4 * kMiB, 0.0});
  session.add_flow({t.hosts()[2], t.hosts()[14], 4 * kMiB, 0.0});
  session.add_flow({t.hosts()[3], t.hosts()[15], 4 * kMiB, 0.0});
  ASSERT_TRUE(session.run(300.0));
  // With 4 flows over 4 cores the daemon stack converges to (near-)
  // disjoint paths; exact move count depends on initial hashing.
  EXPECT_LE(raw->total_moves(), 16u);
  EXPECT_EQ(raw->total_moves(), agent.total_moves())
      << "adapter and daemons must agree on applied moves";
}

TEST(AgentRouterTest, EcmpPathMatchesSharedHelper) {
  // The packet substrate's ECMP choice must come from the one shared
  // five-tuple helper: same flow, same path index on every substrate.
  const Topology t = build_fat_tree(testbed_params());
  baselines::EcmpAgent ecmp;
  auto router = std::make_unique<AgentRouter>(t, ecmp);
  auto* raw = router.get();
  PktSession session(t, std::move(router));
  const NodeId src = t.hosts()[0], dst = t.hosts()[12];
  const FlowId id = session.add_flow({src, dst, 64 * 1024, 0.0});
  ASSERT_TRUE(session.run(60.0));
  topo::PathRepository repo(t);
  const auto& paths = repo.tor_paths(t.tor_of_host(src), t.tor_of_host(dst));
  // add_flow's default five tuple is (flow id, 80).
  const PathIndex expected = ecmp_path_index(
      src, dst, static_cast<std::uint16_t>(id.value()), 80, paths.size());
  EXPECT_EQ(raw->path_switches(id), 0u);
  const auto expected_route = topo::host_path(t, src, dst,
                                              paths[expected]).links;
  raw->on_flow_started(FlowId(99), src, dst,
                       static_cast<std::uint16_t>(id.value()), 80);
  EXPECT_EQ(raw->route_for(FlowId(99), 0), expected_route);
}

TEST(TexcpRouterTest, ScattersPacketsAcrossPaths) {
  const Topology t = build_fat_tree(testbed_params());
  auto router = std::make_unique<TexcpRouter>(t);
  auto* raw = router.get();
  PktSession session(t, std::move(router));
  session.add_flow({t.hosts()[0], t.hosts()[12], 1 * kMiB, 0.0});
  ASSERT_TRUE(session.run(120.0));

  // Count distinct routes used by sampling route_for repeatedly.
  raw->on_flow_started(FlowId(99), t.hosts()[0], t.hosts()[12], 0, 0);
  std::set<const std::vector<LinkId>*> distinct;
  for (int i = 0; i < 64; ++i) distinct.insert(&raw->route_for(FlowId(99), 0));
  EXPECT_GT(distinct.size(), 1u) << "TeXCP must use multiple paths";
}

TEST(TexcpVsDard, TexcpReordersMore) {
  // The paper's Figure 14: TeXCP's per-packet scattering produces a higher
  // TCP retransmission rate than DARD's flow-level switching.
  const Topology t = build_fat_tree(testbed_params());

  auto run_with = [&](std::unique_ptr<PacketRouter> router) {
    PktSession session(t, std::move(router));
    std::vector<FlowId> ids;
    // Stride-like: every host sends one transfer to the host one pod over.
    const auto& hosts = t.hosts();
    for (std::size_t i = 0; i < hosts.size(); ++i)
      ids.push_back(session.add_flow(
          {hosts[i], hosts[(i + 4) % hosts.size()], 1 * kMiB, 0.0}));
    EXPECT_TRUE(session.run(600.0));
    double total_rate = 0;
    for (const FlowId id : ids)
      total_rate += session.result(id).retransmission_rate();
    return total_rate / static_cast<double>(ids.size());
  };

  core::DardConfig cfg;
  cfg.schedule_base = 0.5;
  cfg.schedule_jitter = 0.5;
  core::DardAgent dard_agent(cfg);
  const double dard_rate = run_with(
      std::make_unique<AgentRouter>(t, dard_agent, /*elephant_threshold=*/0.25));
  const double texcp_rate = run_with(std::make_unique<TexcpRouter>(t));
  EXPECT_GE(texcp_rate, dard_rate);
  EXPECT_GT(texcp_rate, 0.0) << "per-packet scattering must reorder";
}

}  // namespace
}  // namespace dard::pktsim
