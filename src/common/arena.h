// Slab-pooled per-key lists (the "arena" behind the allocator hot state).
//
// The incremental max-min allocator keeps, for every link, the list of
// flows crossing it. As a std::vector<std::vector<uint32_t>> that is one
// heap allocation per link with no locality between neighbours — exactly
// the layout that dominates cache misses once a k=32 fabric has tens of
// thousands of links. PooledLists keeps every list in one shared slab
// arena: a list is an (offset, size, capacity) triple into the pool,
// capacities are powers of two, and outgrown blocks are recycled through
// per-size-class free lists so long runs reach a steady state with zero
// allocator traffic. Offsets (not pointers) survive pool growth.
//
// Element order within a list matches what the nested-vector code produced
// (append order, swap-with-last erase), which the allocator's determinism
// contract depends on.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"

namespace dard::common {

template <class T>
class PooledLists {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  PooledLists() = default;
  explicit PooledLists(std::size_t keys) : lists_(keys) {}

  [[nodiscard]] std::size_t keys() const { return lists_.size(); }

  [[nodiscard]] std::span<const T> items(std::size_t k) const {
    const List& l = lists_[k];
    return {pool_.data() + l.off, l.size};
  }
  [[nodiscard]] std::size_t size(std::size_t k) const {
    return lists_[k].size;
  }

  void push(std::size_t k, T v) {
    List& l = lists_[k];
    if (l.size == l.cap) grow(l);
    pool_[l.off + l.size++] = v;
  }

  // Removes one occurrence of `v` (which must be present) by swapping the
  // last element into its slot — same semantics as the find + swap-erase
  // the nested-vector layout used.
  void swap_erase(std::size_t k, T v) {
    List& l = lists_[k];
    T* base = pool_.data() + l.off;
    for (std::uint32_t i = 0; i < l.size; ++i) {
      if (base[i] == v) {
        base[i] = base[l.size - 1];
        --l.size;
        return;
      }
    }
    DCN_CHECK_MSG(false, "value not in pooled list");
  }

  // Empties list `k`, keeping its block for the next pushes.
  void clear(std::size_t k) { lists_[k].size = 0; }

  // Arena footprint in slots (live + recycled blocks), for memory gauges.
  [[nodiscard]] std::size_t pool_slots() const { return pool_.size(); }

 private:
  struct List {
    std::uint32_t off = 0;
    std::uint32_t size = 0;
    std::uint32_t cap = 0;
  };

  static constexpr std::uint32_t kMinCap = 4;

  static std::uint32_t class_of(std::uint32_t cap) {
    return static_cast<std::uint32_t>(std::bit_width(cap / kMinCap)) - 1;
  }

  void grow(List& l) {
    const std::uint32_t new_cap = l.cap == 0 ? kMinCap : l.cap * 2;
    const std::uint32_t cls = class_of(new_cap);
    std::uint32_t off;
    if (cls < free_.size() && !free_[cls].empty()) {
      off = free_[cls].back();
      free_[cls].pop_back();
    } else {
      off = static_cast<std::uint32_t>(pool_.size());
      pool_.resize(pool_.size() + new_cap);
    }
    std::copy_n(pool_.begin() + l.off, l.size, pool_.begin() + off);
    if (l.cap != 0) {
      const std::uint32_t old_cls = class_of(l.cap);
      if (old_cls >= free_.size()) free_.resize(old_cls + 1);
      free_[old_cls].push_back(l.off);
    }
    l.off = off;
    l.cap = new_cap;
  }

  std::vector<T> pool_;
  std::vector<List> lists_;
  std::vector<std::vector<std::uint32_t>> free_;  // per size class
};

}  // namespace dard::common
