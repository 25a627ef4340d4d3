// Store-and-forward packet network with drop-tail queues.
//
// Each directed link serializes packets at its capacity, adds its
// propagation delay, and drops arrivals that would overflow its (BDP-sized
// by default) drop-tail queue. Per-link byte counters expose utilization to
// TeXCP-style probing.
//
// A packet hop queues one event and allocates nothing once the network has
// warmed up:
//
// * In-flight packets live in a slot pool with a free list; send() copies
//   the packet (route included, see packet.h) into a slot.
// * A hop's arrival at the far end of its link is one EventQueue post
//   tagged with the packet's slot. The network installs the queue's post
//   handler, so a queue serves one network.
// * A packet leaving a link's queue is not an event. The link keeps a FIFO
//   ring of its admitted packets' (departure stamp, size). The stamp is
//   reserved from the event queue at admission, just before the arrival is
//   posted, so it holds the place in the (time, seq) order that a
//   departure event scheduled there would hold. Before admitting a packet
//   the link drains the entries the queue has passed(), so every admission
//   sees the occupancy it would see if departures were events: drops,
//   event order and deliveries match the closure-scheduling network in
//   tests/pktnet_reference.h (DESIGN.md §9, "Packet hops"). The ring
//   grows only with the link's queue occupancy.
#pragma once

#include <functional>
#include <vector>

#include "flowsim/event_queue.h"
#include "pktsim/packet.h"
#include "topology/topology.h"

namespace dard::pktsim {

class PacketNetwork {
 public:
  using DeliveryHandler = std::function<void(const Packet&)>;

  // queue_bytes == 0 sizes every queue at one bandwidth-delay product of
  // an 8-hop path (the paper sets ns-2 queues to the BDP). Installs
  // `events`' post handler.
  PacketNetwork(const topo::Topology& t, flowsim::EventQueue& events,
                Bytes queue_bytes = 0);
  // The queue's post handler holds `this`.
  PacketNetwork(const PacketNetwork&) = delete;
  PacketNetwork& operator=(const PacketNetwork&) = delete;

  // Delivered packets (those that survive every hop) are passed to the
  // handler; it runs at the destination node of the last route link. The
  // packet's slot is free by then, so the handler may send.
  void set_delivery_handler(DeliveryHandler handler) {
    deliver_ = std::move(handler);
  }

  // Injects a copy of `p` at the source of its first route link.
  void send(const Packet& p);

  [[nodiscard]] std::uint64_t drops() const { return drops_; }
  [[nodiscard]] std::uint64_t forwarded() const { return forwarded_; }

  // A failed link drops every packet offered to it (data and ACKs alike);
  // TCP's retransmission machinery sees a black hole until the link is
  // repaired or the flow is re-routed. Driven by the fault injector through
  // AgentRouter::set_cable_failed.
  void set_link_failed(LinkId l, bool failed) {
    failed_[l.value()] = failed;
  }
  [[nodiscard]] bool link_failed(LinkId l) const {
    return failed_[l.value()];
  }

  // Bytes transmitted on `l` since the last reset_counters() call.
  [[nodiscard]] Bytes bytes_sent(LinkId l) const {
    return bytes_sent_[l.value()];
  }
  void reset_counters();

  // Utilization of `l` over a window: bytes8 / (capacity * window).
  [[nodiscard]] double utilization(LinkId l, Seconds window) const;

  [[nodiscard]] const topo::Topology& topology() const { return *topo_; }

 private:
  // One admitted packet's exit from its link's queue.
  struct Departure {
    flowsim::EventQueue::Stamp at;
    Bytes size;
  };
  // A link's admitted, not yet drained departures in stamp order. The
  // capacity is a power of two and doubles when full.
  struct Ring {
    std::vector<Departure> buf;
    std::uint32_t head = 0;
    std::uint32_t count = 0;
  };

  // Offers the packet in `slot` to its current hop's link.
  void transmit(std::uint32_t slot);
  // The post handler: the packet in `slot` reached its hop's far end.
  void arrive(std::uint32_t slot);
  // Frees link `lv`'s queue space of every departure the queue has passed.
  void drain(std::size_t lv);
  void push_departure(std::size_t lv, Departure d);
  void release(std::uint32_t slot) { free_slots_.push_back(slot); }

  const topo::Topology* topo_;
  flowsim::EventQueue* events_;
  DeliveryHandler deliver_;
  std::vector<Packet> pool_;         // in-flight packets, by slot
  std::vector<std::uint32_t> free_slots_;
  std::vector<Seconds> free_at_;     // link serialization horizon
  std::vector<Bytes> queued_;        // bytes currently queued per link
  std::vector<Bytes> queue_cap_;
  std::vector<Bytes> bytes_sent_;
  std::vector<bool> failed_;
  std::vector<Ring> departures_;     // per link
  std::uint64_t drops_ = 0;
  std::uint64_t forwarded_ = 0;
};

}  // namespace dard::pktsim
