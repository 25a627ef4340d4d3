// IP-in-IP tunneling (paper Section 3.1: "We use the Linux IP-in-IP
// tunneling as the encapsulation/decapsulation module").
//
// A DARD source encapsulates each packet with the hierarchical source and
// destination addresses that encode the chosen path; switches forward on
// the outer header only; the destination decapsulates. Path switching is
// re-encapsulation with a different address pair — switch tables never
// change.
#pragma once

#include <optional>

#include "addressing/hierarchical.h"
#include "common/units.h"

namespace dard::addr {

// Outer IPv4 header cost per tunneled packet.
inline constexpr Bytes kEncapOverheadBytes = 20;

struct EncapHeader {
  Address src;
  Address dst;
};

// Selects the address pair encoding path `path_index` between the hosts'
// ToRs (built alone by the repository's generator, no path set), ready to
// stamp on outgoing packets.
// nullopt only for malformed inputs (out-of-range index).
[[nodiscard]] std::optional<EncapHeader> make_tunnel(
    const AddressingPlan& plan, const topo::PathRepository& paths,
    NodeId src_host, NodeId dst_host, PathIndex path_index);

// The hop-by-hop route the fabric's installed tables would forward this
// header along (host -> ... -> host). Aborts on loops/drops — static
// tables on a valid plan never produce either.
[[nodiscard]] topo::Path tunnel_route(const AddressingPlan& plan,
                                      const EncapHeader& header);

}  // namespace dard::addr
