#include "pktsim/network.h"

#include <algorithm>

#include "common/check.h"

namespace dard::pktsim {

PacketNetwork::PacketNetwork(const topo::Topology& t,
                             flowsim::EventQueue& events, Bytes queue_bytes)
    : topo_(&t),
      events_(&events),
      free_at_(t.link_count(), 0.0),
      queued_(t.link_count(), 0),
      queue_cap_(t.link_count(), 0),
      bytes_sent_(t.link_count(), 0),
      failed_(t.link_count(), false),
      departures_(t.link_count()) {
  for (const auto& link : t.links()) {
    Bytes cap = queue_bytes;
    if (cap == 0) {
      // One BDP of an 8-hop round trip at this link's speed.
      cap = static_cast<Bytes>(link.capacity / 8.0 * (16 * link.delay));
      cap = std::max<Bytes>(cap, 8 * kDataPacketBytes);
    }
    queue_cap_[link.id.value()] = cap;
  }
  events.set_post_handler([this](std::uint32_t slot) { arrive(slot); });
}

void PacketNetwork::send(const Packet& p) {
  DCN_CHECK_MSG(!p.route.empty(), "packet with empty route");
  DCN_CHECK(p.hop == 0);
  auto slot = static_cast<std::uint32_t>(pool_.size());
  if (free_slots_.empty()) {
    pool_.push_back(p);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    pool_[slot] = p;
  }
  transmit(slot);
}

void PacketNetwork::transmit(std::uint32_t slot) {
  const Packet& p = pool_[slot];
  const LinkId l = p.route[p.hop];
  const auto lv = l.value();
  const topo::Link& link = topo_->link(l);

  // A failed link is a black hole: every offered packet drops.
  if (failed_[lv]) {
    ++drops_;
    release(slot);
    return;
  }
  // Drop-tail admission: the packet joins the queue unless full. Bytes in
  // `queued_` include the packet currently serializing.
  drain(lv);
  if (queued_[lv] + p.size > queue_cap_[lv]) {
    ++drops_;
    release(slot);
    return;
  }
  queued_[lv] += p.size;
  bytes_sent_[lv] += p.size;
  ++forwarded_;

  const Seconds now = events_->now();
  const Seconds start = std::max(now, free_at_[lv]);
  const Seconds tx = static_cast<double>(p.size) * 8.0 / link.capacity;
  const Seconds departs = start + tx;
  free_at_[lv] = departs;
  const Seconds arrives = departs + link.delay;

  // The departure's stamp precedes the arrival's in the event order, as a
  // departure event scheduled here would.
  push_departure(lv, Departure{events_->reserve(departs), p.size});
  events_->post(arrives, slot);
}

void PacketNetwork::arrive(std::uint32_t slot) {
  Packet& p = pool_[slot];
  if (++p.hop < p.route.size()) {
    transmit(slot);
    return;
  }
  // The slot is released before the handler runs: the ACK it sends may
  // take it, or grow the pool.
  const Packet delivered = p;
  release(slot);
  if (deliver_) deliver_(delivered);
}

void PacketNetwork::drain(std::size_t lv) {
  Ring& r = departures_[lv];
  while (r.count > 0 && events_->passed(r.buf[r.head].at)) {
    const Bytes size = r.buf[r.head].size;
    DCN_CHECK(queued_[lv] >= size);
    queued_[lv] -= size;
    r.head = (r.head + 1) & static_cast<std::uint32_t>(r.buf.size() - 1);
    --r.count;
  }
}

void PacketNetwork::push_departure(std::size_t lv, Departure d) {
  Ring& r = departures_[lv];
  if (r.count == r.buf.size()) {
    // Full: unroll into a buffer twice the size, oldest first.
    std::vector<Departure> grown(std::max<std::size_t>(4, 2 * r.buf.size()));
    for (std::uint32_t i = 0; i < r.count; ++i)
      grown[i] = r.buf[(r.head + i) & (r.buf.size() - 1)];
    r.buf = std::move(grown);
    r.head = 0;
  }
  r.buf[(r.head + r.count) & (r.buf.size() - 1)] = d;
  ++r.count;
}

void PacketNetwork::reset_counters() {
  std::fill(bytes_sent_.begin(), bytes_sent_.end(), Bytes{0});
}

double PacketNetwork::utilization(LinkId l, Seconds window) const {
  DCN_CHECK(window > 0);
  return static_cast<double>(bytes_sent_[l.value()]) * 8.0 /
         (topo_->link(l).capacity * window);
}

}  // namespace dard::pktsim
