// Packet-level simulation primitives.
//
// The fluid simulator cannot express packet reordering or TCP
// retransmission, which the paper's TeXCP comparison (Figures 13-14) is
// about. pktsim is a compact packet-level engine — store-and-forward links
// with drop-tail queues, TCP New Reno endpoints, per-flow or per-packet
// routing — exercised on small (p=4) fat-trees, exactly the scale the
// paper's testbed used for this experiment.
//
// A packet is a plain value: its source route is held inline, so copying
// one into the network's pool, or building an ACK's reversed route, never
// allocates.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/check.h"
#include "common/types.h"
#include "common/units.h"
#include "topology/path_gen.h"

namespace dard::pktsim {

inline constexpr Bytes kMss = 1460;          // TCP payload per segment
inline constexpr Bytes kDataPacketBytes = 1500;
inline constexpr Bytes kAckPacketBytes = 40;

// A host-level route: the host uplink, at most kMaxTorPathLinks links of a
// ToR path, and the host downlink.
inline constexpr std::size_t kMaxRouteLinks = topo::kMaxTorPathLinks + 2;

// A source route of at most kMaxRouteLinks links, stored inline.
class Route {
 public:
  Route& operator=(std::span<const LinkId> links) {
    DCN_CHECK_MSG(links.size() <= kMaxRouteLinks,
                  "route longer than a host-level path");
    n_ = static_cast<std::uint8_t>(links.size());
    for (std::size_t i = 0; i < links.size(); ++i) links_[i] = links[i];
    return *this;
  }

  void push_back(LinkId l) {
    DCN_CHECK_MSG(n_ < kMaxRouteLinks, "route longer than a host-level path");
    links_[n_++] = l;
  }

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] LinkId operator[](std::size_t i) const {
    DCN_CHECK(i < n_);
    return links_[i];
  }
  [[nodiscard]] const LinkId* begin() const { return links_.data(); }
  [[nodiscard]] const LinkId* end() const { return links_.data() + n_; }

 private:
  std::array<LinkId, kMaxRouteLinks> links_{};
  std::uint8_t n_ = 0;
};

struct Packet {
  FlowId flow;
  std::uint64_t seq = 0;    // segment number (data) / cumulative ack (ack)
  bool is_ack = false;
  Bytes size = kDataPacketBytes;
  // Source route: links to traverse; hop indexes into `route`.
  Route route;
  std::uint32_t hop = 0;
};

}  // namespace dard::pktsim
