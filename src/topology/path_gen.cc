#include "topology/path_gen.h"

#include <algorithm>

#include "common/check.h"

namespace dard::topo {

PathGenerator::PathGenerator(const Topology& t)
    : topo_(&t), ord_(t.node_count(), 0) {
  std::size_t tors = 0;
  for (const Node& n : t.nodes()) {
    if (n.kind == NodeKind::Tor)
      ord_[n.id.value()] = static_cast<std::uint32_t>(tors++);
    if (n.kind == NodeKind::Core)
      ord_[n.id.value()] = static_cast<std::uint32_t>(cores_++);
  }

  // Switch neighbours in higher (up) and lower (down) layers, sorted by id.
  // Only the up lists outlive the constructor; the down lists just feed the
  // two tables.
  std::vector<std::vector<Edge>> up(t.node_count()), down(t.node_count());
  const auto by_id = [](const Edge& a, const Edge& b) {
    return a.node < b.node;
  };
  for (const Node& n : t.nodes()) {
    if (n.kind == NodeKind::Host) continue;
    const int layer = layer_of(n.kind);
    for (const LinkId l : t.out_links(n.id)) {
      const Node& peer = t.node(t.link(l).dst);
      if (peer.kind == NodeKind::Host) continue;
      const int peer_layer = layer_of(peer.kind);
      const Edge e{peer.id, l, ord_[peer.id.value()]};
      if (peer_layer > layer)
        up[n.id.value()].push_back(e);
      else if (peer_layer < layer)
        down[n.id.value()].push_back(e);
      if (peer_layer != layer + 1 && peer_layer != layer - 1)
        strict_ = false;
    }
    std::sort(up[n.id.value()].begin(), up[n.id.value()].end(), by_id);
    std::sort(down[n.id.value()].begin(), down[n.id.value()].end(), by_id);
  }
  // A core below which both a ToR and an agg over a ToR hang admits 3-hop
  // paths, which the tables do not generate (an agg's down list holds only
  // ToRs, hosts being left out). No fabric in builders.h has one.
  for (const NodeId c : t.cores()) {
    bool tor = false, agg_over_tor = false;
    for (const Edge& e : down[c.value()]) {
      if (t.node(e.node).kind == NodeKind::Tor)
        tor = true;
      else if (!down[e.node.value()].empty())
        agg_over_tor = true;
    }
    DCN_CHECK_MSG(!(tor && agg_over_tor), "3-hop path shapes unsupported");
  }

  up_begin_.reserve(t.node_count() + 1);
  up_begin_.push_back(0);
  for (const auto& list : up) {
    ups_.insert(ups_.end(), list.begin(), list.end());
    up_begin_.push_back(static_cast<std::uint32_t>(ups_.size()));
  }

  // feeds(d): every switch with a down-cable to ToR d. Visiting switches in
  // id order appends each list already sorted.
  std::vector<std::vector<Edge>> feed_lists(tors);
  for (const Node& n : t.nodes())
    for (const Edge& e : down[n.id.value()])
      if (t.node(e.node).kind == NodeKind::Tor)
        feed_lists[ord_[e.node.value()]].push_back(Edge{n.id, e.link, 0});
  feed_begin_.reserve(tors + 1);
  feed_begin_.push_back(0);
  for (const auto& list : feed_lists) {
    feeds_.insert(feeds_.end(), list.begin(), list.end());
    feed_begin_.push_back(static_cast<std::uint32_t>(feeds_.size()));
  }

  // drops(d, c), counted then filled. For a fixed core its aggs are visited
  // in id order, so every (d, c) list comes out sorted by a'.
  const auto walk_drops = [&](auto&& emit) {
    for (const NodeId c : t.cores())
      for (const Edge& ap : down[c.value()])
        for (const Edge& e : down[ap.node.value()])
          if (t.node(e.node).kind == NodeKind::Tor)
            emit(static_cast<std::size_t>(ord_[e.node.value()]) * cores_ +
                     ord_[c.value()],
                 Drop{ap.node, ap.link, e.link});
  };
  drop_begin_.assign(tors * cores_ + 1, 0);
  walk_drops([&](std::size_t slot, const Drop&) { ++drop_begin_[slot + 1]; });
  for (std::size_t i = 1; i < drop_begin_.size(); ++i)
    drop_begin_[i] += drop_begin_[i - 1];
  drops_.resize(drop_begin_.back());
  std::vector<std::uint32_t> cursor(drop_begin_.begin(),
                                    drop_begin_.end() - 1);
  walk_drops(
      [&](std::size_t slot, const Drop& p) { drops_[cursor[slot]++] = p; });
}

void PathGenerator::check_tors(NodeId src_tor, NodeId dst_tor) const {
  DCN_CHECK(topo_->node(src_tor).kind == NodeKind::Tor);
  DCN_CHECK(topo_->node(dst_tor).kind == NodeKind::Tor);
}

std::size_t PathGenerator::count(NodeId src_tor, NodeId dst_tor) const {
  check_tors(src_tor, dst_tor);
  if (src_tor == dst_tor) return 1;
  const std::uint32_t* const row = drop_row(dst_tor);
  const Edge* f = feeds_begin(dst_tor);
  const Edge* const fe = feeds_end(dst_tor);
  std::size_t n = 0;
  for (const Edge *a = up_begin(src_tor), *ae = up_end(src_tor); a != ae;
       ++a) {
    const Edge* const cb = up_begin(a->node);
    const Edge* const ce = up_end(a->node);
    std::size_t drops = 0;
    for (const Edge* c = cb; c != ce; ++c)
      drops += row[c->ord + 1] - row[c->ord];
    // A feeding a is its own 2-hop turn and sits once in each of its
    // cores' drop lists (full-duplex cables), where it is not a 4-hop path.
    n += feeds(f, fe, a->node) ? 1 + drops - static_cast<std::size_t>(ce - cb)
                               : drops;
  }
  return n;
}

std::size_t PathGenerator::path_links(NodeId src_tor, NodeId dst_tor,
                                      std::size_t index,
                                      LinkId out[kMaxTorPathLinks]) const {
  check_tors(src_tor, dst_tor);
  if (src_tor == dst_tor) {
    DCN_CHECK_MSG(index == 0, "path index out of range");
    return 0;
  }
  const Edge* const ub = up_begin(src_tor);
  const Edge* const ue = up_end(src_tor);
  const Edge* const fb = feeds_begin(dst_tor);
  const Edge* const fe = feeds_end(dst_tor);
  std::size_t i = index;
  const Edge* f = fb;
  for (const Edge* m = ub; m != ue; ++m) {
    if (!feeds(f, fe, m->node) || i-- != 0) continue;
    out[0] = m->link;
    out[1] = f->link;
    return 2;
  }
  // Skip whole (a, c) blocks by size; walk only the block holding i.
  const std::uint32_t* const row = drop_row(dst_tor);
  f = fb;
  for (const Edge* a = ub; a != ue; ++a) {
    const std::size_t own = feeds(f, fe, a->node) ? 1 : 0;
    for (const Edge *c = up_begin(a->node), *ce = up_end(a->node); c != ce;
         ++c) {
      const std::size_t size = row[c->ord + 1] - row[c->ord] - own;
      if (i >= size) {
        i -= size;
        continue;
      }
      for (const Drop* p = drops_.data() + row[c->ord];; ++p) {
        if (p->agg == a->node) continue;
        if (i-- != 0) continue;
        out[0] = a->link;
        out[1] = c->link;
        out[2] = p->down;
        out[3] = p->last;
        return 4;
      }
    }
  }
  DCN_CHECK_MSG(false, "path index out of range");
  return 0;
}

Path PathGenerator::make_path(NodeId src_tor,
                              std::span<const LinkId> links) const {
  Path p;
  p.nodes.reserve(links.size() + 1);
  p.nodes.push_back(src_tor);
  for (const LinkId l : links) p.nodes.push_back(topo_->link(l).dst);
  p.links.assign(links.begin(), links.end());
  return p;
}

Path PathGenerator::path(NodeId src_tor, NodeId dst_tor,
                         std::size_t index) const {
  LinkId links[kMaxTorPathLinks];
  const std::size_t n = path_links(src_tor, dst_tor, index, links);
  return make_path(src_tor, std::span<const LinkId>(links, n));
}

std::vector<Path> PathGenerator::all(NodeId src_tor, NodeId dst_tor) const {
  std::vector<Path> out;
  for_each_path(src_tor, dst_tor,
                [&](std::span<const LinkId> links,
                    std::span<const NodeId> nodes) {
                  out.push_back(Path{{nodes.begin(), nodes.end()},
                                     {links.begin(), links.end()}});
                });
  return out;
}

}  // namespace dard::topo
