#include "topology/paths.h"

#include <algorithm>
#include <numeric>

#include "common/hash.h"
#include "topology/path_gen.h"

namespace dard::topo {

namespace {

bool contains(const Path& p, NodeId n) {
  return std::find(p.nodes.begin(), p.nodes.end(), n) != p.nodes.end();
}

// All strictly-descending *simple* paths from `from` to `target` (appended
// to `out`, each prefixed with `prefix`). A descending hop may drop any
// number of layers (leaf-spine cables span core -> ToR directly); it only
// has to land strictly lower. The simplicity constraint rules out
// degenerate detours such as tor->agg->core->agg->tor inside one fat-tree
// pod, which revisit the aggregation switch.
void descend(const Topology& t, NodeId from, NodeId target, Path prefix,
             std::vector<Path>* out) {
  if (from == target) {
    out->push_back(std::move(prefix));
    return;
  }
  const int from_layer = layer_of(t.node(from).kind);
  const int target_layer = layer_of(t.node(target).kind);
  if (from_layer <= target_layer) return;
  for (const LinkId l : t.out_links(from)) {
    const NodeId next = t.link(l).dst;
    if (layer_of(t.node(next).kind) >= from_layer) continue;
    if (contains(prefix, next)) continue;
    Path extended = prefix;
    extended.nodes.push_back(next);
    extended.links.push_back(l);
    descend(t, next, target, std::move(extended), out);
  }
}

// DFS upward from `from`; at every node (including `from` itself) attempt
// to turn around and descend to `target`. As with descend, an ascending
// hop may climb several layers at once.
void ascend(const Topology& t, NodeId from, NodeId target, Path prefix,
            std::vector<Path>* out) {
  descend(t, from, target, prefix, out);
  const int from_layer = layer_of(t.node(from).kind);
  for (const LinkId l : t.out_links(from)) {
    const NodeId next = t.link(l).dst;
    if (layer_of(t.node(next).kind) <= from_layer) continue;
    if (contains(prefix, next)) continue;
    Path extended = prefix;
    extended.nodes.push_back(next);
    extended.links.push_back(l);
    ascend(t, next, target, std::move(extended), out);
  }
}

}  // namespace

std::vector<Path> enumerate_tor_paths(const Topology& t, NodeId src_tor,
                                      NodeId dst_tor) {
  DCN_CHECK(t.node(src_tor).kind == NodeKind::Tor);
  DCN_CHECK(t.node(dst_tor).kind == NodeKind::Tor);

  Path start;
  start.nodes.push_back(src_tor);
  if (src_tor == dst_tor) return {start};

  std::vector<Path> out;
  ascend(t, src_tor, dst_tor, std::move(start), &out);

  // Shortest (fewest hops) first, then lexicographic by node ids, so the
  // ith path is stable and "path through core i" keeps the paper's order.
  std::sort(out.begin(), out.end(), [](const Path& a, const Path& b) {
    if (a.links.size() != b.links.size())
      return a.links.size() < b.links.size();
    return std::lexicographical_compare(
        a.nodes.begin(), a.nodes.end(), b.nodes.begin(), b.nodes.end());
  });
  return out;
}

Path host_path(const Topology& t, NodeId src_host, NodeId dst_host,
               const Path& tor_path) {
  DCN_CHECK(!tor_path.nodes.empty());
  DCN_CHECK(t.tor_of_host(src_host) == tor_path.nodes.front());
  DCN_CHECK(t.tor_of_host(dst_host) == tor_path.nodes.back());

  Path full;
  full.nodes.reserve(tor_path.nodes.size() + 2);
  full.links.reserve(tor_path.links.size() + 2);

  full.nodes.push_back(src_host);
  const LinkId up = t.find_link(src_host, tor_path.nodes.front());
  DCN_CHECK(up.valid());
  full.links.push_back(up);

  full.nodes.insert(full.nodes.end(), tor_path.nodes.begin(),
                    tor_path.nodes.end());
  full.links.insert(full.links.end(), tor_path.links.begin(),
                    tor_path.links.end());

  const LinkId down = t.find_link(tor_path.nodes.back(), dst_host);
  DCN_CHECK(down.valid());
  full.links.push_back(down);
  full.nodes.push_back(dst_host);
  return full;
}

Bps path_bottleneck_capacity(const Topology& t, const Path& p) {
  Bps min_cap = 0;
  for (const LinkId l : p.links) {
    const Bps c = t.link(l).capacity;
    if (min_cap == 0 || c < min_cap) min_cap = c;
  }
  return min_cap;
}

std::vector<std::uint64_t> capacity_weights(const Topology& t,
                                            const std::vector<Path>& paths) {
  std::vector<std::uint64_t> w;
  w.reserve(paths.size());
  std::uint64_t g = 0;
  for (const Path& p : paths) {
    // Bps is fractional only below 1 bps; truncation is exact for any real
    // link speed, and max(1) keeps a degenerate path addressable.
    const auto bps = static_cast<std::uint64_t>(path_bottleneck_capacity(t, p));
    const std::uint64_t wi = bps > 0 ? bps : 1;
    w.push_back(wi);
    g = std::gcd(g, wi);
  }
  if (g > 1)
    for (std::uint64_t& wi : w) wi /= g;
  return w;
}

void WeightedPathSelector::attach(const PathGenerator& gen) {
  gen_ = &gen;
  cache_.clear();
  uniform_ = true;
  const Topology& t = gen.topology();
  Bps seen = 0;
  for (std::size_t i = 0; i < t.link_count(); ++i) {
    const LinkId l{static_cast<LinkId::value_type>(i)};
    if (!t.is_switch_switch(l)) continue;
    const Bps c = t.link(l).capacity;
    if (seen == 0) {
      seen = c;
    } else if (c != seen) {
      uniform_ = false;
      break;
    }
  }
}

const std::vector<std::uint64_t>& WeightedPathSelector::weights(
    NodeId src_tor, NodeId dst_tor) {
  DCN_CHECK(gen_ != nullptr);
  const std::uint64_t key = (static_cast<std::uint64_t>(src_tor.value()) << 32) |
                            dst_tor.value();
  auto it = cache_.find(key);
  if (it == cache_.end())
    it = cache_
             .emplace(key, capacity_weights(gen_->topology(),
                                            gen_->all(src_tor, dst_tor)))
             .first;
  return it->second;
}

PathIndex WeightedPathSelector::pick(NodeId src_host, NodeId dst_host,
                                     std::uint16_t src_port,
                                     std::uint16_t dst_port,
                                     std::size_t count) {
  DCN_CHECK(gen_ != nullptr);
  DCN_CHECK(count > 0);
  if (uniform_ || count < 2)
    return ecmp_path_index(src_host, dst_host, src_port, dst_port, count);
  const Topology& t = gen_->topology();
  return weighted_path_index(
      src_host, dst_host, src_port, dst_port,
      weights(t.tor_of_host(src_host), t.tor_of_host(dst_host)));
}

namespace {

std::uint64_t pack_pair(NodeId s, NodeId d) {
  return (static_cast<std::uint64_t>(s.value()) << 32) | d.value();
}

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

PathRepository::PathRepository(const Topology& t, std::size_t capacity)
    : topo_(&t),
      gen_(std::make_unique<PathGenerator>(t)),
      capacity_(capacity) {
  DCN_CHECK_MSG(capacity_ >= 1, "path cache capacity must be positive");
  // Load factor <= 0.5 keeps linear-probe runs short.
  const std::size_t slots = next_pow2(capacity_ * 2);
  table_.assign(slots, kNil);
  table_mask_ = slots - 1;
  entries_.reserve(capacity_);
}

PathRepository::~PathRepository() = default;

const PathGenerator& PathRepository::generator() const { return *gen_; }

std::size_t PathRepository::ideal_slot(std::uint64_t key) const {
  std::uint64_t h = key * 0x9E3779B97F4A7C15ull;
  h ^= h >> 32;
  return static_cast<std::size_t>(h) & table_mask_;
}

void PathRepository::lru_unlink(std::uint32_t idx) {
  Entry& e = entries_[idx];
  if (e.prev != kNil)
    entries_[e.prev].next = e.next;
  else
    lru_head_ = e.next;
  if (e.next != kNil)
    entries_[e.next].prev = e.prev;
  else
    lru_tail_ = e.prev;
  e.prev = e.next = kNil;
}

void PathRepository::lru_push_front(std::uint32_t idx) {
  Entry& e = entries_[idx];
  e.prev = kNil;
  e.next = lru_head_;
  if (lru_head_ != kNil) entries_[lru_head_].prev = idx;
  lru_head_ = idx;
  if (lru_tail_ == kNil) lru_tail_ = idx;
}

// Backward-shift deletion: close the hole at `slot` by moving up any later
// probe-chain entry whose ideal slot lies at or before the hole, so lookups
// never need tombstones.
void PathRepository::table_erase(std::size_t slot) {
  std::size_t hole = slot;
  for (std::size_t k = (hole + 1) & table_mask_; table_[k] != kNil;
       k = (k + 1) & table_mask_) {
    const std::size_t home = ideal_slot(entries_[table_[k]].key);
    if (((k - home) & table_mask_) >= ((k - hole) & table_mask_)) {
      table_[hole] = table_[k];
      hole = k;
    }
  }
  table_[hole] = kNil;
}

void PathRepository::evict_lru() {
  const std::uint32_t idx = lru_tail_;
  DCN_CHECK(idx != kNil);
  std::size_t slot = ideal_slot(entries_[idx].key);
  while (table_[slot] != idx) slot = (slot + 1) & table_mask_;
  table_erase(slot);
  lru_unlink(idx);
  entries_[idx].set.reset();  // pinned() holders keep the set alive
  free_.push_back(idx);
  --entry_count_;
}

PathRepository::Entry& PathRepository::lookup(NodeId src_tor, NodeId dst_tor) {
  const std::uint64_t key = pack_pair(src_tor, dst_tor);
  std::size_t slot = ideal_slot(key);
  while (table_[slot] != kNil) {
    const std::uint32_t idx = table_[slot];
    if (entries_[idx].key == key) {
      if (lru_head_ != idx) {
        lru_unlink(idx);
        lru_push_front(idx);
      }
      return entries_[idx];
    }
    slot = (slot + 1) & table_mask_;
  }

  PathSetPtr set;
  {
    const obs::ProfileScope timed(profiler_,
                                  obs::ProfileSection::PathEnumeration);
    set = std::make_shared<const PathSet>(gen_->all(src_tor, dst_tor));
  }
  if (entry_count_ == capacity_) {
    evict_lru();
    // The shift may have moved entries into our probe position; re-probe.
    slot = ideal_slot(key);
    while (table_[slot] != kNil) slot = (slot + 1) & table_mask_;
  }
  std::uint32_t idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back();
  }
  Entry& e = entries_[idx];
  e.key = key;
  e.set = std::move(set);
  table_[slot] = idx;
  lru_push_front(idx);
  ++entry_count_;
  if (profiler_ != nullptr)
    profiler_->set_gauge(obs::ProfileGauge::PathCacheEntries,
                         static_cast<double>(entry_count_));
  return e;
}

const std::vector<Path>& PathRepository::tor_paths(NodeId src_tor,
                                                   NodeId dst_tor) {
  return *lookup(src_tor, dst_tor).set;
}

PathRepository::PathSetPtr PathRepository::pinned(NodeId src_tor,
                                                  NodeId dst_tor) {
  return lookup(src_tor, dst_tor).set;
}

}  // namespace dard::topo
