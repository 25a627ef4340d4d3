// Live per-link switch state and the OpenFlow-style aggregate statistics
// query interface (paper Section 2.4.2, "Path State Assembling").
//
// A switch's state is, per egress port, the port's bandwidth and the number
// of elephant flows currently traversing it. The simulators update the
// LinkStateBoard as flows start / finish / move; DARD monitors read it only
// through StateQueryService, which models and accounts the control messages
// involved. An optional ControlPlaneModel degrades the query channel (loss,
// delay, stale snapshots) for fault experiments.
#pragma once

#include <vector>

#include "common/types.h"
#include "common/units.h"
#include "fabric/accounting.h"
#include "fabric/control_model.h"
#include "topology/topology.h"

namespace dard::fabric {

class LinkStateBoard {
 public:
  explicit LinkStateBoard(const topo::Topology& t)
      : topo_(&t), elephants_(t.link_count(), 0), failed_(t.link_count()) {}

  void add_elephant(LinkId l) { ++elephants_[l.value()]; }
  void remove_elephant(LinkId l) {
    // A zero count here means a double-decrement — typically a flow moved
    // during failure handling and removed from a path it no longer occupies.
    // Underflowing the unsigned counter would silently inflate BoNF on this
    // link for the rest of the run; die loudly instead.
    DCN_CHECK_MSG(elephants_[l.value()] > 0,
                  "elephant counter double-decrement");
    --elephants_[l.value()];
  }

  // Link failure: a failed link's effective capacity collapses to (almost)
  // nothing. Flows pinned to it starve; adaptive schedulers observe a
  // near-zero BoNF through the ordinary query path and route around it.
  void set_failed(LinkId l, bool failed) { failed_[l.value()] = failed; }
  [[nodiscard]] bool failed(LinkId l) const { return failed_[l.value()]; }

  [[nodiscard]] std::uint32_t elephants(LinkId l) const {
    return elephants_[l.value()];
  }
  [[nodiscard]] Bps capacity(LinkId l) const {
    // 1 bps, not 0: keeps BoNF and fair-share arithmetic finite.
    return failed_[l.value()] ? 1.0 : topo_->link(l).capacity;
  }
  [[nodiscard]] const topo::Topology& topology() const { return *topo_; }

 private:
  const topo::Topology* topo_;
  std::vector<std::uint32_t> elephants_;
  std::vector<bool> failed_;
};

// One egress port's state, as carried in a query reply.
struct LinkState {
  LinkId link;
  Bps bandwidth = 0;
  std::uint32_t elephant_flows = 0;

  // The paper's BoNF: Bandwidth over Number of elephant Flows; an idle
  // link's BoNF is its full bandwidth ("if a link has no flow, its BoNF is
  // [the bandwidth]" — i.e. the fair share a new flow would get).
  [[nodiscard]] double bonf() const {
    return elephant_flows == 0 ? bandwidth
                               : bandwidth / static_cast<double>(elephant_flows);
  }
};

// Outcome of one modeled host->switch query exchange. With no degradation
// model installed every attempt is `delivered` with zero delay.
struct QueryAttempt {
  bool delivered = true;
  Seconds reply_delay = 0;
};

class StateQueryService {
 public:
  StateQueryService(const LinkStateBoard& board,
                    ControlPlaneAccountant* accountant)
      : board_(&board), accountant_(accountant) {}

  // Installs (or removes) the degradation model; null restores the perfect
  // channel. The model is borrowed and must outlive the service.
  void set_model(ControlPlaneModel* model) { model_ = model; }
  [[nodiscard]] ControlPlaneModel* model() const { return model_; }

  // One host->switch query and its switch->host reply, split for monitors
  // that pre-resolved which ports they need: run each exchange through the
  // degradation model, read individual port states without materializing
  // whole replies, and charge the whole refresh's messages at once.
  //
  // attempt_query models one exchange and charges nothing; with no model
  // installed it is delivered with zero delay and draws nothing.
  [[nodiscard]] QueryAttempt attempt_query() const {
    if (model_ == nullptr) return QueryAttempt{};
    if (model_->attempt_lost()) return QueryAttempt{false, 0};
    return QueryAttempt{true, model_->reply_delay()};
  }
  // Charges `queries` queries and `replies` replies sent at `now` (a lost
  // exchange sends its query and no reply). The one place DARD's control
  // messages reach the accountant (Fig. 15 accounting).
  void charge(Seconds now, std::size_t queries, std::size_t replies) const;
  // One egress port's state as a reply carries it; serves the frozen
  // snapshot during a stale window.
  [[nodiscard]] LinkState link_state(LinkId l) const {
    if (model_ != nullptr && model_->stale_active()) {
      const auto [bw, flows] = model_->stale_state(l.value());
      return LinkState{l, bw, flows};
    }
    return LinkState{l, board_->capacity(l), board_->elephants(l)};
  }

 private:
  const LinkStateBoard* board_;
  ControlPlaneAccountant* accountant_;  // may be null (unaccounted queries)
  ControlPlaneModel* model_ = nullptr;  // may be null (perfect channel)
};

}  // namespace dard::fabric
