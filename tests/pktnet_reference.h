// Test-only reference copy of the packet network as it was before packet
// pooling: every admitted hop schedules two closures on the event queue, a
// departure that frees the link's queue space and an arrival that carries
// the whole Packet to the next hop. The network tests hold
// pktsim::PacketNetwork to it: the same deliveries at the same times, the
// same drops, and the same per-link byte counts under the same traffic.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/check.h"
#include "flowsim/event_queue.h"
#include "pktsim/packet.h"
#include "topology/topology.h"

namespace dard::pktnet_ref {

using pktsim::Packet;

class ClosurePacketNetwork {
 public:
  using DeliveryHandler = std::function<void(const Packet&)>;

  ClosurePacketNetwork(const topo::Topology& t, flowsim::EventQueue& events,
                       Bytes queue_bytes = 0)
      : topo_(&t),
        events_(&events),
        free_at_(t.link_count(), 0.0),
        queued_(t.link_count(), 0),
        queue_cap_(t.link_count(), 0),
        bytes_sent_(t.link_count(), 0),
        failed_(t.link_count(), false) {
    for (const auto& link : t.links()) {
      Bytes cap = queue_bytes;
      if (cap == 0) {
        cap = static_cast<Bytes>(link.capacity / 8.0 * (16 * link.delay));
        cap = std::max<Bytes>(cap, 8 * pktsim::kDataPacketBytes);
      }
      queue_cap_[link.id.value()] = cap;
    }
  }

  void set_delivery_handler(DeliveryHandler handler) {
    deliver_ = std::move(handler);
  }

  void send(Packet p) {
    DCN_CHECK_MSG(!p.route.empty(), "packet with empty route");
    DCN_CHECK(p.hop == 0);
    transmit(std::move(p));
  }

  [[nodiscard]] std::uint64_t drops() const { return drops_; }
  [[nodiscard]] std::uint64_t forwarded() const { return forwarded_; }
  // Departure events run so far; they have no counterpart in the pooled
  // network's event stream.
  [[nodiscard]] std::uint64_t departures_fired() const {
    return departures_fired_;
  }

  void set_link_failed(LinkId l, bool failed) { failed_[l.value()] = failed; }
  [[nodiscard]] Bytes bytes_sent(LinkId l) const {
    return bytes_sent_[l.value()];
  }

 private:
  void transmit(Packet p) {
    const LinkId l = p.route[p.hop];
    const auto lv = l.value();
    const topo::Link& link = topo_->link(l);
    if (failed_[lv]) {
      ++drops_;
      return;
    }
    if (queued_[lv] + p.size > queue_cap_[lv]) {
      ++drops_;
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

    events_->schedule(departs, [this, lv, size = p.size] {
      DCN_CHECK(queued_[lv] >= size);
      queued_[lv] -= size;
      ++departures_fired_;
    });
    events_->schedule(arrives, [this, p = std::move(p)]() mutable {
      ++p.hop;
      if (p.hop == p.route.size()) {
        if (deliver_) deliver_(p);
      } else {
        transmit(std::move(p));
      }
    });
  }

  const topo::Topology* topo_;
  flowsim::EventQueue* events_;
  DeliveryHandler deliver_;
  std::vector<Seconds> free_at_;
  std::vector<Bytes> queued_;
  std::vector<Bytes> queue_cap_;
  std::vector<Bytes> bytes_sent_;
  std::vector<bool> failed_;
  std::uint64_t drops_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint64_t departures_fired_ = 0;
};

}  // namespace dard::pktnet_ref
