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
//    touch_link, paths read through a PathStore) and recompute() re-fills
//    as few flows as the change allows, in one of three tiers (last_scope()):
//     - Region: a small change re-fills only the flows it can move. The
//       kernel records the link each flow froze on; a region seeded with
//       the added or moved flows, the flows on capacity-changed links and
//       the flows frozen on links that lost a flow is filled against each
//       link's capacity minus the fixed rates of the flows outside it, then
//       grown until every flow on its links passes the max-min certificate
//       (frozen on a saturated link where no flow is faster). The max-min
//       allocation is unique, so a passing certificate is exact.
//     - Component: a change seeding more than 1/8 of the flows re-fills
//       the flows transitively sharing links with it. Max-min decomposes
//       exactly over connected components of the flow/link sharing graph.
//     - Full: the first call, set_full_only(), or a region or component
//       past 2/3 of the flows re-fills everything.
//    Flows outside the re-filled set keep their rates bit for bit. See
//    DESIGN.md "Performance".
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
#include <utility>
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

  // Which flows the last recompute() re-filled (see the header comment).
  enum class Scope : std::uint8_t { Region, Component, Full };

  // Re-solves the region, component or everything (last_scope()) and
  // returns the flows whose rate may have changed. Rates of returned flows
  // are read back through rate_of(); all other registered flows kept their
  // previous rate exactly.
  const std::vector<std::uint32_t>& recompute();

  [[nodiscard]] Bps rate_of(std::uint32_t fid) const {
    return inc_rate_[fid];
  }

  // Introspection (telemetry, tests).
  [[nodiscard]] Scope last_scope() const { return last_scope_; }
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
  // Seeds the region from the dirty state; false when the seeds exceed
  // `limit` flows (the change is too large for the region tier).
  bool seed_region(std::size_t limit);
  void add_to_region(std::uint32_t fid);
  // Fills the region, checks the certificate on its links and grows it
  // until the check passes; false when it exceeds `limit` flows.
  bool solve_region(std::size_t limit);
  // Collects into grow_ the flows whose certificate fails after a region
  // fill: failing fixed flows, and the fixed flows faster than a failing
  // region flow on its freezing link.
  void check_region();
  // BFS from the dirty set; false when the component exceeds `limit` flows
  // (caller then takes the full path).
  bool collect_component(std::size_t limit);
  void collect_everything();
  // Starts an empty scope: fresh visit marks, cleared lists.
  void reset_scope();
  // Progressive filling over the collected scope into inc_rate_, recording
  // each flow's freezing link. With `region`, the flows on `links` outside
  // the scope keep their rates, which count against the link capacities.
  void water_fill_range(std::span<const std::uint32_t> flows,
                        std::span<const LinkId::value_type> links,
                        bool region);

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
  Scope last_scope_ = Scope::Full;
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
  // Links whose capacity changed since the last recompute (touch_link);
  // may repeat a link.
  std::vector<LinkId::value_type> cap_links_;

  std::uint64_t visit_stamp_ = 0;
  std::vector<std::uint64_t> flow_visit_;  // by fid
  std::vector<std::uint64_t> link_visit_;  // by link
  std::uint64_t frozen_stamp_ = 0;
  std::vector<std::uint64_t> frozen_mark_;  // by fid
  // The link each flow froze on in the last fill that covered it.
  std::vector<LinkId::value_type> freeze_link_;  // by fid
  // The re-filled scope: region, component or every flow, and its links.
  // Region membership is flow_visit_ == visit_stamp_.
  std::vector<std::uint32_t> comp_flows_;
  std::vector<LinkId::value_type> comp_links_;
  std::vector<std::uint32_t> grow_;  // region flows-to-be, may repeat

  // The kernel's (share, link) min-heap, kept to reuse its storage.
  std::vector<std::pair<double, LinkId::value_type>> heap_;
  std::vector<double> inc_remaining_;         // by link
  std::vector<std::uint32_t> inc_unfrozen_;   // by link
  std::vector<std::uint8_t> inc_saturated_;   // by link
};

}  // namespace dard::flowsim
