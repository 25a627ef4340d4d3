// Progressive-filling max-min fair rate allocation.
//
// The paper's analysis (Appendix A) assumes TCP + fair queueing reaches
// max-min fairness; the fluid simulator realizes that assumption exactly:
// repeatedly saturate the link with the smallest fair share
// (remaining capacity / unfrozen flows) and freeze its flows at that share.
// The result is the unique max-min allocation.
//
// One water-filling kernel, two interfaces:
//
//  * incremental: the simulator registers flows (add_flow / remove_flow /
//    touch_link, paths read through a PathStore) and recompute() re-solves
//    only the *dirty component* — the flows transitively sharing links with
//    anything that changed since the last call. Max-min decomposes exactly
//    over connected components of the flow/link sharing graph, so rates
//    outside the component are provably unchanged and stay frozen. When the
//    component covers most of the system (or on the first call) it falls
//    back to a full recompute. See DESIGN.md "Performance".
//
//  * compute(): one-shot allocation over an explicit flow list (tests,
//    benches, the simulator's validate mode) — a thin wrapper over the
//    same kernel: it drops the previous call's registrations, registers
//    flow i as fid i in an allocator-owned PathStore and runs one full
//    recompute(). The heap pops links by (share, link id) and per-link
//    lists keep registration order, so the freeze order, and every rate
//    bit for bit, depends only on the input list, never on earlier calls.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/arena.h"
#include "common/types.h"
#include "common/units.h"
#include "fabric/switch_state.h"
#include "flowsim/path_store.h"
#include "topology/topology.h"

namespace dard::flowsim {

class MaxMinAllocator {
 public:
  // When `board` is given, link capacities come from it (so failed links
  // allocate (almost) nothing); otherwise from the static topology.
  explicit MaxMinAllocator(const topo::Topology& t,
                           const fabric::LinkStateBoard* board = nullptr);

  // --- one-shot interface ---
  // Max-min rates for flows whose paths are `links_of` (parallel output).
  // Every path must be non-empty. Owns the allocator's registrations: do
  // not mix with attach() on the same allocator.
  const std::vector<Bps>& compute(
      const std::vector<const std::vector<LinkId>*>& links_of);
  const std::vector<Bps>& compute_spans(
      const std::vector<std::span<const LinkId>>& links_of);

  // --- incremental interface ---
  // Flow ids are caller-chosen dense indices (the simulator uses FlowId
  // values); paths are re-resolved through `store` on every recompute, so
  // pool compaction between calls is safe.
  void attach(const PathStore& store) { store_ = &store; }

  // Registers `fid` with its current path in the store (non-empty).
  void add_flow(std::uint32_t fid);
  // Unregisters `fid`; its links become dirty (freed capacity can raise
  // the rates of the flows remaining on them). For a path move, call
  // remove_flow *before* updating the store, then add_flow.
  void remove_flow(std::uint32_t fid);
  // Marks a link whose capacity changed (failure / repair).
  void touch_link(LinkId l);

  // Forces every recompute() to take the full path (A/B benching, debug).
  void set_full_only(bool v) { full_only_ = v; }

  // Re-solves the dirty component (or everything, on fallback) and returns
  // the flows whose rate may have changed. Rates of returned flows are
  // read back through rate_of(); all other registered flows kept their
  // previous rate exactly.
  const std::vector<std::uint32_t>& recompute();

  [[nodiscard]] Bps rate_of(std::uint32_t fid) const {
    return inc_rate_[fid];
  }

  // Introspection (telemetry, tests).
  [[nodiscard]] bool last_recompute_was_full() const { return last_full_; }
  [[nodiscard]] std::size_t flow_count() const { return members_.size(); }

 private:
  [[nodiscard]] double capacity_of(LinkId l) const {
    return board_ != nullptr ? board_->capacity(l) : topo_->link(l).capacity;
  }

  // compute() plumbing: unregister the previous call's flows in O(links
  // touched), then (after registration) solve and copy the rates out.
  void begin_one_shot();
  const std::vector<Bps>& finish_one_shot();

  void ensure_fid(std::uint32_t fid);
  void mark_dirty_flow(std::uint32_t fid);
  void mark_dirty_link(LinkId::value_type lv);
  // BFS from the dirty set; false when the component exceeds `limit` flows
  // (caller then takes the full path).
  bool collect_component(std::size_t limit);
  void collect_everything();
  // Progressive filling over the collected scope into inc_rate_.
  void water_fill_range(std::span<const std::uint32_t> flows,
                        std::span<const LinkId::value_type> links);

  const topo::Topology* topo_;
  const fabric::LinkStateBoard* board_;

  // compute() state: the registered paths and the rates handed back.
  PathStore one_shot_paths_;
  std::vector<Bps> one_shot_rates_;

  // Incremental state. *_mark_ vectors hold the stamp value of the pass
  // that last visited the entry — an O(1) reset between recomputes.
  const PathStore* store_ = nullptr;
  bool full_only_ = false;
  bool inc_ready_ = false;  // first recompute() must be full
  bool last_full_ = false;
  std::vector<std::uint32_t> members_;     // registered fids
  std::vector<std::uint32_t> member_pos_;  // fid -> index in members_
  std::vector<std::uint8_t> in_system_;    // by fid
  std::vector<Bps> inc_rate_;              // by fid
  // Per-link flow lists in one slab arena (see common/arena.h) instead of
  // a vector-of-vectors: the BFS and water-fill inner loops walk these.
  common::PooledLists<std::uint32_t> inc_flows_on_;  // by link

  std::uint64_t dirty_stamp_ = 1;
  std::vector<std::uint64_t> dirty_flow_mark_;  // by fid
  std::vector<std::uint64_t> dirty_link_mark_;  // by link
  std::vector<std::uint32_t> dirty_flows_;
  std::vector<LinkId::value_type> dirty_links_;

  std::uint64_t visit_stamp_ = 0;
  std::vector<std::uint64_t> flow_visit_;  // by fid
  std::vector<std::uint64_t> link_visit_;  // by link
  std::uint64_t frozen_stamp_ = 0;
  std::vector<std::uint64_t> frozen_mark_;  // by fid
  std::vector<std::uint32_t> comp_flows_;
  std::vector<LinkId::value_type> comp_links_;

  std::vector<double> inc_remaining_;         // by link
  std::vector<std::uint32_t> inc_unfrozen_;   // by link
  std::vector<std::uint8_t> inc_saturated_;   // by link
};

}  // namespace dard::flowsim
