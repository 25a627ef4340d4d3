// Equal-cost path enumeration for multi-rooted trees.
//
// DARD schedules among the valley-free (strictly up, then strictly down)
// paths between a source and destination ToR. Enumeration is generic over
// any Topology whose node kinds form layers — each hop moves to a strictly
// higher layer while ascending and a strictly lower one while descending,
// without assuming adjacent layers — so the same code serves fat-tree,
// Clos, the 3-tier topology and the leaf-spine fabric whose leaf <-> spine
// cables skip the aggregation layer. Production code addresses paths by
// (src ToR, dst ToR, index) through PathGenerator (path_gen.h), which builds
// one path without its set, and DARD monitors lay out their links from the
// generator's tables; a PathRepository memoizes whole per-pair sets behind a
// bounded LRU for the callers that hold them (Hedera's rounds, TeXCP probes,
// the game analysis), so repository memory is O(capacity), not
// O(#ToR pairs).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

// Header-only (like obs/metrics.h), so instrumenting the repository adds no
// link-time dependency on the obs library.
#include "obs/profiler.h"
#include "topology/topology.h"

namespace dard::topo {

struct Path {
  std::vector<NodeId> nodes;  // src ToR ... dst ToR, inclusive
  std::vector<LinkId> links;  // directed links between consecutive nodes

  [[nodiscard]] bool empty() const { return links.empty(); }
};

// All valley-free paths from src_tor to dst_tor, deterministic order
// (lexicographic in node ids, so "path i" is stable across runs). For
// src_tor == dst_tor returns one trivial path with no links. This is the
// reference recursive enumeration; production lookups go through
// PathRepository / PathGenerator, whose output is pinned identical to this
// by tests/lazy_paths_test.cc.
[[nodiscard]] std::vector<Path> enumerate_tor_paths(const Topology& t,
                                                    NodeId src_tor,
                                                    NodeId dst_tor);

// Complete host-to-host path: src host uplink + tor_path + dst host downlink.
[[nodiscard]] Path host_path(const Topology& t, NodeId src_host,
                             NodeId dst_host, const Path& tor_path);

// Capacity of a path's most constrained link; 0 for a link-less (s == d)
// path. On heterogeneous fabrics this is the quantity capacity-aware
// selection weighs by — paths through a fast spine or core column are worth
// proportionally more hash space than paths through a slow one.
[[nodiscard]] Bps path_bottleneck_capacity(const Topology& t, const Path& p);

// Integer ECMP weights proportional to each path's bottleneck capacity,
// normalized by their gcd so an equal-capacity set collapses to all-ones —
// the shape weighted_path_index special-cases back to the plain five-tuple
// hash, keeping symmetric fabrics bit-identical.
[[nodiscard]] std::vector<std::uint64_t> capacity_weights(
    const Topology& t, const std::vector<Path>& paths);

class PathGenerator;

// Per-ToR-pair cache of capacity weights plus the uniform-capacity fast
// path shared by every weighted-cost policy (WCMP, weighted pVLB/Hedera,
// DARD's weighted initial placement). attach() scans the fabric once: on a
// uniform-capacity fabric pick() is exactly ecmp_path_index over the pair's
// path count — same hash, same reduction, no weight computation and no path
// built — so enabling a weighted policy on a symmetric topology changes
// nothing.
class WeightedPathSelector {
 public:
  // Binds the selector to a fabric's generator, which must outlive it.
  void attach(const PathGenerator& gen);

  [[nodiscard]] bool attached() const { return gen_ != nullptr; }
  // True when every switch-switch link has the same capacity (weights would
  // all be equal, so weighted selection degenerates to ECMP).
  [[nodiscard]] bool uniform_capacity() const { return uniform_; }

  // Capacity weights of this ToR pair's paths in index order, computed from
  // the generator on first use and cached.
  [[nodiscard]] const std::vector<std::uint64_t>& weights(NodeId src_tor,
                                                          NodeId dst_tor);

  // Capacity-weighted five-tuple pick among the `count` paths between the
  // hosts' ToRs.
  [[nodiscard]] PathIndex pick(NodeId src_host, NodeId dst_host,
                               std::uint16_t src_port, std::uint16_t dst_port,
                               std::size_t count);

 private:
  const PathGenerator* gen_ = nullptr;
  bool uniform_ = true;
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> cache_;
};

// Bounded LRU cache of materialized path sets, keyed by (src, dst) ToR
// pair. The table is a flat open-addressed hash (packed 64-bit key, linear
// probing, backward-shift deletion) — the hit path is a couple of cache
// lines, no tree walk, no allocation.
//
// Flow placement, path installation and DARD monitors never come here:
// they need one path, a count, or one walk over a pair's links, which the
// generator serves from its tables. The cache serves holders of whole sets:
// Hedera's rounds, TeXCP's probes, the congestion-game analysis.
//
// Reference validity: the const reference returned by tor_paths() stays
// valid until `capacity()` *other* distinct pairs have been looked up (only
// then can the entry be evicted). Anything that holds a set across lookups
// of many pairs (a Hedera round, which may touch more pairs than the cache
// holds) must hold the shared_ptr from pinned() instead, which keeps the set
// alive across eviction.
class PathRepository {
 public:
  // Default capacity covers every ordered ToR pair of a k=8 fat tree
  // (32 x 32 = 1024), so small/medium fabrics never evict — which also
  // keeps md5-pinned results byte-stable — while a k=32 fabric (262k
  // pairs) stays bounded at ~capacity path sets.
  static constexpr std::size_t kDefaultCapacity = 1024;

  using PathSet = std::vector<Path>;
  using PathSetPtr = std::shared_ptr<const PathSet>;

  explicit PathRepository(const Topology& t,
                          std::size_t capacity = kDefaultCapacity);
  ~PathRepository();
  PathRepository(PathRepository&&) noexcept = default;
  PathRepository& operator=(PathRepository&&) noexcept = default;

  // Memoized path-set lookup (see the reference-validity contract above).
  const std::vector<Path>& tor_paths(NodeId src_tor, NodeId dst_tor);

  // Eviction-safe handle for long-lived holders: the set stays alive as
  // long as the pointer does, even after the cache entry is recycled.
  PathSetPtr pinned(NodeId src_tor, NodeId dst_tor);

  [[nodiscard]] const Topology& topology() const { return *topo_; }
  [[nodiscard]] const PathGenerator& generator() const;

  [[nodiscard]] std::size_t cache_entries() const { return entry_count_; }
  [[nodiscard]] std::size_t cache_capacity() const { return capacity_; }

  // Times cache-miss materializations into the profiler's PathEnumeration
  // section and keeps the PathCacheEntries gauge current. Null (the
  // default) disables both; the miss path then pays one branch.
  void set_profiler(obs::Profiler* profiler) { profiler_ = profiler; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Entry {
    std::uint64_t key = 0;
    PathSetPtr set;
    std::uint32_t prev = kNil;  // LRU list towards most-recent
    std::uint32_t next = kNil;  // LRU list towards least-recent
  };

  [[nodiscard]] std::size_t ideal_slot(std::uint64_t key) const;
  Entry& lookup(NodeId src_tor, NodeId dst_tor);
  void lru_unlink(std::uint32_t idx);
  void lru_push_front(std::uint32_t idx);
  void table_erase(std::size_t slot);
  void evict_lru();

  const Topology* topo_;
  std::unique_ptr<PathGenerator> gen_;
  std::size_t capacity_;
  std::vector<std::uint32_t> table_;  // slot -> entry index or kNil
  std::size_t table_mask_ = 0;
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> free_;   // recycled entry indices
  std::size_t entry_count_ = 0;
  std::uint32_t lru_head_ = kNil;     // most recently used
  std::uint32_t lru_tail_ = kNil;     // least recently used
  obs::Profiler* profiler_ = nullptr;
};

}  // namespace dard::topo
