// Allocation guard for the packet hop: once a PacketNetwork and its
// EventQueue have carried one burst, a second burst of data packets and
// ACKs along 6-hop routes allocates nothing. This binary replaces the
// global operator new with a counting one, which is why it stands alone.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "flowsim/event_queue.h"
#include "pktsim/network.h"
#include "topology/builders.h"
#include "topology/path_gen.h"

namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace dard::pktsim {
namespace {

TEST(AllocationGuard, CountsAllocations) {
  const std::size_t before = g_allocations;
  std::vector<int> v(4);
  EXPECT_EQ(g_allocations - before, 1u);
}

// Every host sends kWindow data packets to the host half the fabric away
// (another pod: 6 hops), each on its own path index; the delivery handler
// acknowledges every data packet along the reversed route.
class PacketHopAllocations : public ::testing::Test {
 protected:
  static constexpr int kWindow = 8;

  PacketHopAllocations()
      : t_(topo::build_fat_tree({.p = 4,
                                 .hosts_per_tor = -1,
                                 .link_capacity = 100 * kMbps,
                                 .link_delay = 0.0001})),
        net_(t_, events_) {
    const topo::PathGenerator gen(t_);
    const auto& hosts = t_.hosts();
    for (std::size_t h = 0; h < hosts.size(); ++h) {
      const NodeId src = hosts[h];
      const NodeId dst = hosts[(h + hosts.size() / 2) % hosts.size()];
      const NodeId s = t_.tor_of_host(src), d = t_.tor_of_host(dst);
      LinkId mid[topo::kMaxTorPathLinks];
      const std::size_t n = gen.path_links(s, d, h % gen.count(s, d), mid);
      Route r;
      r.push_back(t_.out_links(src).front());
      for (std::size_t i = 0; i < n; ++i) r.push_back(mid[i]);
      r.push_back(t_.reverse(t_.out_links(dst).front()));
      routes_.push_back(r);
    }
    net_.set_delivery_handler([this](const Packet& p) {
      ++delivered_;
      if (p.is_ack) return;
      Packet ack;
      ack.flow = p.flow;
      ack.seq = p.seq + 1;
      ack.is_ack = true;
      ack.size = kAckPacketBytes;
      for (auto it = p.route.end(); it != p.route.begin();)
        ack.route.push_back(t_.reverse(*--it));
      net_.send(ack);
    });
  }

  void burst() {
    for (int seq = 0; seq < kWindow; ++seq) {
      for (std::size_t h = 0; h < routes_.size(); ++h) {
        Packet p;
        p.flow = FlowId(static_cast<FlowId::value_type>(h));
        p.seq = static_cast<std::uint64_t>(seq);
        p.route = routes_[h];
        net_.send(p);
      }
    }
    while (events_.run_next()) {
    }
  }

  topo::Topology t_;
  flowsim::EventQueue events_;
  PacketNetwork net_;
  std::vector<Route> routes_;
  std::uint64_t delivered_ = 0;
};

TEST_F(PacketHopAllocations, WarmBurstAllocatesNothing) {
  burst();
  const std::uint64_t forwarded = net_.forwarded();
  const std::uint64_t delivered = delivered_;
  ASSERT_GT(delivered, 0u);

  const std::size_t before = g_allocations;
  burst();
  const std::size_t allocations = g_allocations - before;

  // The second burst did the same work: hundreds of hops, data and ACKs.
  EXPECT_EQ(net_.forwarded() - forwarded, forwarded);
  EXPECT_EQ(delivered_ - delivered, delivered);
  EXPECT_GT(forwarded, 1000u);
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
}  // namespace dard::pktsim
