// Index-addressed valley-free paths.
//
// The hierarchical structure the paper's addressing scheme encodes (§3)
// means a ToR-to-ToR path never needs to be *stored*: it is a function of
// the (src ToR, dst ToR) pair and a path index. In the layered topologies
// here (hosts below ToRs below aggregation below core — see layer_of) every
// valley-free simple ToR path has one of exactly three shapes:
//
//   0 hops   [s]                     src == dst
//   2 hops   [s, m, d]              via a common one-layer-up switch m
//   4 hops   [s, a, c, a', d]       up twice, down twice, a' != a
//
// (A strictly-up-then-strictly-down walk of any other length cannot start
// and end on the ToR layer, and a 4-hop walk revisiting its up-switch is
// excluded by the enumerator's simplicity check.) The generation order is
// *identical* to enumerate_tor_paths (shortest first, then lexicographic by
// node ids), which tests/lazy_paths_test.cc pins, so schedulers, traces and
// md5-pinned results are unaffected by who produced a path.
//
// The constructor builds two id-ordered tables once per fabric:
//
//   feeds(d)     the switches m with a down-cable to ToR d (aggs; spines on
//                leaf-spine), each with its m->d link;
//   drops(d, c)  the aggs a' below core c with a cable to ToR d, each with
//                its c->a' and a'->d links (the descent table).
//
// The 2-hop paths of (s, d) are up(s) ∩ feeds(d), a merge of two sorted
// lists. The 4-hop paths come in (a, c) blocks, a ∈ up(s) and c ∈ up(a),
// each block being drops(d, c) less a itself. Since cables are full-duplex,
// a ∈ drops(d, c) exactly when a feeds d, so
//
//   count(s, d) = |up(s) ∩ feeds(d)|
//               + Σ_{a ∈ up(s)} Σ_{c ∈ up(a)} (|drops(d, c)| − [a feeds d])
//
// and path(s, d, i) skips whole blocks by their sizes before materializing
// one path: O(|up(s)| · |up(a)|) table reads, 256 at k=32, with no hash
// probe and no per-candidate walk. path_links() is that walk, writing the
// path's links to a caller's buffer without allocating; path() is built on
// it. for_each_path() walks the same tables in index order and hands each
// path's links and nodes to a callback without allocating or reading the
// topology; all() is built on it. At
// k=32 the tables take ~2 MB (one drop per (ToR, core) pair on a fat tree).
//
// Flow placement and installation therefore need no path set: agents hash
// or draw into count(s, d) and the substrate installs path_links(s, d, i).
// A DARD monitor needs no set either: it lays out its query set and per-path
// link slots in one for_each_path() pass. Whole sets are built only for
// callers that hold them, through PathRepository's LRU (paths.h): Hedera's
// round, which pins one set per pair because a round over every live
// elephant can look up more pairs than the cache holds, TeXCP's probes, and
// the congestion-game analysis.
//
// The three-shape argument holds on *strict* fabrics, where every
// switch-switch cable spans exactly one layer. A layer-skipping ToR <-> core
// cable adds no shape as long as its core has no agg with a ToR below it —
// leaf-spine's spines reach only leaves, so its paths are all [s, spine, d]
// and the same tables serve it. Only a core cabled both to a ToR and to an
// agg above a ToR admits 3-hop paths (tor-agg-core-tor, tor-core-agg-tor).
// No fabric in builders.h has one, and the constructor rejects one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "topology/paths.h"
#include "topology/topology.h"

namespace dard::topo {

// The longest valley-free ToR path has kMaxTorPathLinks links (the 4-hop
// shape above); path_links() callers size their buffers with it.
inline constexpr std::size_t kMaxTorPathLinks = 4;

class PathGenerator {
 public:
  explicit PathGenerator(const Topology& t);

  // Number of valley-free paths between two ToRs (1 when s == d).
  [[nodiscard]] std::size_t count(NodeId src_tor, NodeId dst_tor) const;

  // The i-th path in enumeration order; i must be < count(s, d).
  [[nodiscard]] Path path(NodeId src_tor, NodeId dst_tor,
                          std::size_t index) const;

  // The i-th path's directed links, written to out[0, n) where n (0 when
  // s == d, else 2 or 4) is returned. Allocates nothing; path() is built on
  // it.
  std::size_t path_links(NodeId src_tor, NodeId dst_tor, std::size_t index,
                         LinkId out[kMaxTorPathLinks]) const;

  // Calls visit(links, nodes) once per path in index order: links is a
  // std::span<const LinkId> over the path's directed links (empty for the
  // one s == d path) and nodes a std::span<const NodeId> over its nodes,
  // src ToR to dst ToR, so link j runs from nodes[j] to nodes[j + 1]. Both
  // are valid only during the call. Reads no topology structure and
  // allocates nothing.
  template <class Visit>
  void for_each_path(NodeId src_tor, NodeId dst_tor, Visit&& visit) const;

  // All paths, identical (order and contents) to enumerate_tor_paths.
  [[nodiscard]] std::vector<Path> all(NodeId src_tor, NodeId dst_tor) const;

  [[nodiscard]] const Topology& topology() const { return *topo_; }

  // True when every switch-switch cable spans exactly one layer (false on
  // leaf-spine). Informational only: both kinds of fabric use the tables.
  [[nodiscard]] bool strict_layering() const { return strict_; }

 private:
  struct Edge {
    NodeId node;        // neighbour above (or the switch feeding a ToR)
    LinkId link;        // directed link from the lower to the upper node
    std::uint32_t ord;  // the neighbour's core ordinal (up-edges of aggs)
  };
  struct Drop {
    NodeId agg;    // a'
    LinkId down;   // c -> a'
    LinkId last;   // a' -> d
  };
  void check_tors(NodeId src_tor, NodeId dst_tor) const;
  // A path's nodes are its source ToR followed by each link's head.
  [[nodiscard]] Path make_path(NodeId src_tor,
                               std::span<const LinkId> links) const;
  // Advances `f` along an id-sorted feeds list to `agg`; true when `agg`
  // feeds the list's ToR (has a down-cable to it).
  static bool feeds(const Edge*& f, const Edge* end, NodeId agg) {
    while (f != end && f->node < agg) ++f;
    return f != end && f->node == agg;
  }
  [[nodiscard]] const Edge* up_begin(NodeId n) const {
    return ups_.data() + up_begin_[n.value()];
  }
  [[nodiscard]] const Edge* up_end(NodeId n) const {
    return ups_.data() + up_begin_[n.value() + 1];
  }
  [[nodiscard]] const Edge* feeds_begin(NodeId tor) const {
    return feeds_.data() + feed_begin_[ord_[tor.value()]];
  }
  [[nodiscard]] const Edge* feeds_end(NodeId tor) const {
    return feeds_.data() + feed_begin_[ord_[tor.value()] + 1];
  }
  // drop_begin_ row of ToR d: entry k .. k+1 bounds drops(d, core k).
  [[nodiscard]] const std::uint32_t* drop_row(NodeId tor) const {
    return drop_begin_.data() +
           static_cast<std::size_t>(ord_[tor.value()]) * cores_;
  }

  const Topology* topo_;
  bool strict_ = true;  // all switch cables span one layer
  // Per node id: the ToR ordinal of a ToR or the core ordinal of a core.
  std::vector<std::uint32_t> ord_;
  std::size_t cores_ = 0;
  // CSR adjacency, all lists sorted by neighbour id so nested iteration
  // yields candidates in exactly the enumerator's lexicographic order.
  std::vector<std::uint32_t> up_begin_;    // by node id, node_count + 1
  std::vector<Edge> ups_;
  std::vector<std::uint32_t> feed_begin_;  // by ToR ordinal, tors + 1
  std::vector<Edge> feeds_;
  std::vector<std::uint32_t> drop_begin_;  // by (ToR, core), tors*cores + 1
  std::vector<Drop> drops_;
};

// Paths come out shortest-shape-first and lexicographically within a
// shape, so no sort is needed: 2-hop turn switches ascend by id, then 4-hop
// (a, c, a') triples ascend in nested order.
template <class Visit>
void PathGenerator::for_each_path(NodeId src_tor, NodeId dst_tor,
                                  Visit&& visit) const {
  check_tors(src_tor, dst_tor);
  NodeId nodes[kMaxTorPathLinks + 1];
  nodes[0] = src_tor;
  if (src_tor == dst_tor) {
    visit(std::span<const LinkId>{}, std::span<const NodeId>(nodes, 1));
    return;
  }
  LinkId links[kMaxTorPathLinks];
  const Edge* const ue = up_end(src_tor);
  const Edge* const fe = feeds_end(dst_tor);
  const Edge* f = feeds_begin(dst_tor);
  nodes[2] = dst_tor;
  for (const Edge* m = up_begin(src_tor); m != ue; ++m) {
    if (!feeds(f, fe, m->node)) continue;
    links[0] = m->link;
    links[1] = f->link;
    nodes[1] = m->node;
    visit(std::span<const LinkId>(links, 2), std::span<const NodeId>(nodes, 3));
  }
  const std::uint32_t* const row = drop_row(dst_tor);
  nodes[4] = dst_tor;
  for (const Edge* a = up_begin(src_tor); a != ue; ++a) {
    links[0] = a->link;
    nodes[1] = a->node;
    for (const Edge *c = up_begin(a->node), *ce = up_end(a->node); c != ce;
         ++c) {
      links[1] = c->link;
      nodes[2] = c->node;
      for (const Drop *p = drops_.data() + row[c->ord],
                      *pe = drops_.data() + row[c->ord + 1];
           p != pe; ++p) {
        // Descending back through the up-switch would make the walk
        // non-simple (the enumerator's `contains` check).
        if (p->agg == a->node) continue;
        links[2] = p->down;
        links[3] = p->last;
        nodes[3] = p->agg;
        visit(std::span<const LinkId>(links, 4),
              std::span<const NodeId>(nodes, 5));
      }
    }
  }
}

}  // namespace dard::topo
