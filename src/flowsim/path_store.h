// Pooled CSR-style storage for active flows' link paths.
//
// Every active flow used to own a std::vector<LinkId>, so the allocator's
// inner loops chased one heap allocation per flow. The store keeps all
// paths in one contiguous pool and hands out (offset, length) spans keyed
// by flow id. Path changes append to the pool tail and orphan the old
// span; when garbage outweighs live data the simulator compacts the pool
// over the active-flow list. Spans are only valid between mutations —
// callers must re-resolve through span() rather than caching iterators.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace dard::flowsim {

class PathStore {
 public:
  // (Re)assigns `fid`'s path. A same-length replacement — the common
  // path-switch case, since equal-cost paths have equal length — overwrites
  // the existing span in place and creates no garbage. Otherwise appends to
  // the pool and the previous span, if any, becomes garbage until the next
  // compact().
  void set(std::uint32_t fid, std::span<const LinkId> links) {
    if (fid >= spans_.size()) spans_.resize(fid + 1);
    if (spans_[fid].len == links.size() && !links.empty()) {
      std::copy(links.begin(), links.end(), pool_.begin() + spans_[fid].off);
      return;
    }
    live_ -= spans_[fid].len;
    spans_[fid].off = static_cast<std::uint32_t>(pool_.size());
    spans_[fid].len = static_cast<std::uint32_t>(links.size());
    pool_.insert(pool_.end(), links.begin(), links.end());
    live_ += links.size();
  }

  // Drops `fid`'s path (flow finished). Its pool entries become garbage.
  void release(std::uint32_t fid) {
    DCN_CHECK(fid < spans_.size());
    live_ -= spans_[fid].len;
    spans_[fid] = Span{};
  }

  // Drops every path, keeping the buffers' capacity.
  void clear() {
    pool_.clear();
    spans_.clear();
    live_ = 0;
  }

  [[nodiscard]] std::span<const LinkId> span(std::uint32_t fid) const {
    DCN_CHECK(fid < spans_.size());
    const Span s = spans_[fid];
    return {pool_.data() + s.off, s.len};
  }

  // True when the pool is garbage-dominated and big enough for compaction
  // to be worth the copy.
  [[nodiscard]] bool should_compact() const {
    return pool_.size() >= kMinCompactPool && pool_.size() > 2 * live_;
  }

  // Rewrites the pool keeping only the paths of `live_fids` (the active
  // flows). Spans of every other fid become empty.
  template <class FidRange>
  void compact(const FidRange& live_fids) {
    scratch_.clear();
    scratch_.reserve(live_);
    std::vector<Span> next(spans_.size());
    for (const auto id : live_fids) {
      const auto fid = static_cast<std::uint32_t>(fid_value(id));
      const Span s = spans_[fid];
      next[fid].off = static_cast<std::uint32_t>(scratch_.size());
      next[fid].len = s.len;
      scratch_.insert(scratch_.end(), pool_.begin() + s.off,
                      pool_.begin() + s.off + s.len);
    }
    pool_.swap(scratch_);
    spans_.swap(next);
    live_ = pool_.size();
  }

  [[nodiscard]] std::size_t pool_links() const { return pool_.size(); }
  [[nodiscard]] std::size_t live_links() const { return live_; }

 private:
  static constexpr std::size_t kMinCompactPool = 4096;

  struct Span {
    std::uint32_t off = 0;
    std::uint32_t len = 0;
  };

  static std::uint32_t fid_value(std::uint32_t v) { return v; }
  static std::uint32_t fid_value(FlowId id) { return id.value(); }

  std::vector<LinkId> pool_;
  std::vector<LinkId> scratch_;  // compaction double buffer
  std::vector<Span> spans_;      // by fid
  std::size_t live_ = 0;
};

}  // namespace dard::flowsim
