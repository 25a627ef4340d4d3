// Datacenter topology model.
//
// A Topology is a static graph of typed nodes (hosts, ToR / aggregation /
// core switches) connected by *directed* capacitated links; a physical cable
// is a pair of opposite directed links so full-duplex traffic in the two
// directions never competes for the same capacity. Builders for the three
// paper topologies (fat-tree, VL2-style Clos, oversubscribed 3-tier) live in
// builders.h.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "common/units.h"

namespace dard::topo {

enum class NodeKind : std::uint8_t { Host, Tor, Agg, Core };

[[nodiscard]] const char* to_string(NodeKind k);

// Vertical position in the multi-rooted tree; used by valley-free path
// enumeration and by the addressing scheme.
[[nodiscard]] int layer_of(NodeKind k);

struct Node {
  NodeId id;
  NodeKind kind = NodeKind::Host;
  // Pod index for pod-structured topologies; -1 for core switches (and for
  // nodes of topologies without pods).
  int pod = -1;
  // Index of the node within (kind, pod), or within kind for cores.
  int index = 0;
  std::string name;
};

struct Link {
  LinkId id;
  NodeId src;
  NodeId dst;
  Bps capacity = 0;
  Seconds delay = 0;
};

class Topology {
 public:
  NodeId add_node(NodeKind kind, int pod, int index);

  // Adds the two directed links of one cable; returns {a->b, b->a}.
  std::pair<LinkId, LinkId> add_cable(NodeId a, NodeId b, Bps capacity,
                                      Seconds delay);

  [[nodiscard]] const Node& node(NodeId id) const {
    DCN_CHECK(id.value() < nodes_.size());
    return nodes_[id.value()];
  }
  [[nodiscard]] const Link& link(LinkId id) const {
    DCN_CHECK(id.value() < links_.size());
    return links_[id.value()];
  }

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }

  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<Link>& links() const { return links_; }

  // Outgoing directed links of `n`.
  [[nodiscard]] const std::vector<LinkId>& out_links(NodeId n) const {
    DCN_CHECK(n.value() < out_.size());
    return out_[n.value()];
  }

  // Directed link a->b, or an invalid id when absent.
  [[nodiscard]] LinkId find_link(NodeId a, NodeId b) const;

  // The other direction of `l`'s cable, without find_link's hash probe:
  // add_cable() is the only way links are added, and it numbers a cable's
  // two directions 2c and 2c + 1.
  [[nodiscard]] LinkId reverse(LinkId l) const {
    DCN_CHECK(l.value() < links_.size());
    return LinkId(l.value() ^ 1u);
  }

  [[nodiscard]] const std::vector<NodeId>& hosts() const { return hosts_; }
  [[nodiscard]] const std::vector<NodeId>& tors() const { return tors_; }
  [[nodiscard]] const std::vector<NodeId>& aggs() const { return aggs_; }
  [[nodiscard]] const std::vector<NodeId>& cores() const { return cores_; }

  // The ToR a host hangs off. Hosts have exactly one switch neighbour.
  [[nodiscard]] NodeId tor_of_host(NodeId host) const;

  // Neighbours one layer up / down from `n`.
  [[nodiscard]] std::vector<NodeId> up_neighbors(NodeId n) const;
  [[nodiscard]] std::vector<NodeId> down_neighbors(NodeId n) const;

  // True if the directed link connects two switches (neither end a host).
  // DARD's BoNF only considers switch-switch links: a flow cannot route
  // around its first/last hop.
  [[nodiscard]] bool is_switch_switch(LinkId l) const;

 private:
  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> out_;
  std::unordered_map<std::uint64_t, LinkId> by_endpoints_;
  std::vector<NodeId> hosts_, tors_, aggs_, cores_;
};

}  // namespace dard::topo
