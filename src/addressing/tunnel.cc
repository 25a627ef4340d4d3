#include "addressing/tunnel.h"

#include "topology/path_gen.h"

namespace dard::addr {

std::optional<EncapHeader> make_tunnel(const AddressingPlan& plan,
                                       const topo::PathRepository& paths,
                                       NodeId src_host, NodeId dst_host,
                                       PathIndex path_index) {
  const topo::Topology& t = plan.topology();
  const topo::PathGenerator& gen = paths.generator();
  const NodeId src_tor = t.tor_of_host(src_host);
  const NodeId dst_tor = t.tor_of_host(dst_host);
  if (path_index >= gen.count(src_tor, dst_tor)) return std::nullopt;
  const auto pair = plan.encode(topo::host_path(
      t, src_host, dst_host, gen.path(src_tor, dst_tor, path_index)));
  if (!pair) return std::nullopt;
  return EncapHeader{pair->first, pair->second};
}

topo::Path tunnel_route(const AddressingPlan& plan,
                        const EncapHeader& header) {
  return plan.trace(header.src, header.dst);
}

}  // namespace dard::addr
