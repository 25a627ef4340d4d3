// On-demand path monitor (paper Section 2.4).
//
// A monitor lives on a source end host and tracks the BoNF of every
// equal-cost path between its source and destination ToR switches. Instead
// of probing along each path, it queries each relevant switch once for its
// per-port state ("Path State Assembling") and assembles the replies into a
// path state vector PV; the flow vector FV counts this host's own elephants
// per path. The queried switch set is exactly the egress switches of the
// switch-to-switch links appearing on any monitored path — for fat-trees
// and Clos this reduces to the paper's four groups (source ToR, source-side
// aggregation switches, cores, destination-side aggregation switches).
//
// A refresh runs the exchanges and snapshots the answered switches' port
// states, then charges the round's messages to the accountant in one call.
// It does not assemble PV: a path's state is assembled from the snapshot,
// judged stale against the refresh's own time, when a round's propose() or
// path_states() reads it, so refreshes that no round consumes cost no
// assembly. At k=32 an inter-pod monitor queries 289 switches for 544
// links over 256 paths and holds 27.5 KiB of heap.
//
// Fault hardening (DESIGN.md §11): each switch query runs through a
// timeout + bounded-retry policy; links whose switch never answered keep
// their last-known-good state, age-stamped and distrusted past a staleness
// cap. Paths whose BoNF collapses to the failure floor are blacklisted
// (never a move target, flows evacuated first) and sit on probation for a
// few healthy refreshes after repair before they may receive flows again.
// A path reads at or under the floor exactly when one of its links does, so
// a refresh runs the blacklist pass only while a snapshotted link reads at
// or under the floor or a path is blacklisted; otherwise the pass would
// change nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "dard/config.h"
#include "fabric/data_plane.h"
#include "fabric/switch_state.h"
#include "obs/spans.h"

namespace dard::core {

// Paper's S_p: state of a path's most congested (smallest-BoNF) link.
struct PathState {
  LinkId bottleneck;
  Bps bandwidth = 0;
  std::uint32_t flow_numbers = 0;
  bool assembled = false;

  [[nodiscard]] double bonf() const {
    return flow_numbers == 0 ? bandwidth
                             : bandwidth / static_cast<double>(flow_numbers);
  }
};

// A proposed selfish move: shift one elephant off `from` onto `to`.
struct ProposedMove {
  FlowId flow;
  PathIndex from = 0;
  PathIndex to = 0;
  double estimated_gain = 0;  // estimated BoNF(to after move) - BoNF(from)
};

// What one propose() call saw, for telemetry: the worst/best paths
// considered and the outcome of the δ test. Filled even when no move is
// proposed, so traces show *why* a round stayed put.
struct RoundEvaluation {
  bool considered = false;  // had >= 2 paths, >= 1 tracked flow, and both
                            // an occupied worst path and a best path
  bool fallback = false;    // every path blacklisted: the pair degraded to
                            // ECMP-style static hashing this round
  PathIndex from = 0;       // smallest-BoNF path this host occupies
  PathIndex to = 0;         // largest-BoNF path overall
  double from_bonf = 0;
  double to_bonf = 0;
  double estimated_gain = 0;   // est. BoNF(to with one more flow) - from_bonf
  bool passed_delta = false;   // estimated_gain > δ
};

// Outcome of one refresh round under the query timeout/retry policy.
struct RefreshStats {
  std::uint32_t queries = 0;         // exchanges attempted (all accounted)
  std::uint32_t timeouts = 0;        // lost exchanges or late replies
  std::uint32_t lost = 0;            // never-delivered subset of timeouts:
                                     // no reply message hit the wire
  std::uint32_t retries = 0;         // re-attempts after a timeout
  std::uint32_t failed_switches = 0; // switches that exhausted every retry
  std::uint32_t newly_blacklisted = 0;  // paths entering the blacklist
  std::uint32_t cleared = 0;            // paths leaving it (probation done)
};

class PathMonitor {
 public:
  PathMonitor(fabric::DataPlane& net, NodeId src_tor, NodeId dst_tor);

  [[nodiscard]] NodeId src_tor() const { return src_tor_; }
  [[nodiscard]] NodeId dst_tor() const { return dst_tor_; }
  [[nodiscard]] std::size_t path_count() const { return pv_.size(); }

  // One query round: query every relevant switch through `service` and
  // snapshot the answered switches' port states; the round's messages are
  // charged once, through service.charge(). Each switch exchange follows
  // cfg's timeout/retry policy; a switch that exhausts its retries leaves
  // its links on last-known-good state, and links staler than
  // cfg.state_staleness_cap at `now` make their paths sit the next rounds
  // out. Also updates the path blacklist when a snapshotted link reads at
  // or under cfg.blacklist_bonf_floor or a path is already blacklisted.
  // `exchanges`, when non-null, is cleared and filled with one per-switch
  // QueryExchange record for span tracing (telemetry only: filling it never
  // changes the refresh outcome).
  RefreshStats refresh(Seconds now, const fabric::StateQueryService& service,
                       const DardConfig& cfg,
                       std::vector<obs::QueryExchange>* exchanges = nullptr);
  // Perfect-channel convenience overload (tests, benches): default policy,
  // identical behavior to the pre-fault-subsystem refresh.
  void refresh(Seconds now, const fabric::StateQueryService& service);

  // FV maintenance, driven by the owning host daemon.
  void add_flow(FlowId flow, PathIndex path);
  void remove_flow(FlowId flow, PathIndex path);
  void record_move(FlowId flow, PathIndex from, PathIndex to);

  [[nodiscard]] bool has_flows() const { return !flows_.empty(); }
  [[nodiscard]] std::size_t tracked_flows() const { return flows_.size(); }
  [[nodiscard]] std::uint32_t flows_on(PathIndex path) const;
  // PV as of the last refresh, assembled on the first read after it. An
  // unassembled path (never answered, or stale past the cap) reads
  // PathState{}.
  [[nodiscard]] const std::vector<PathState>& path_states() const {
    assemble();
    return pv_;
  }

  [[nodiscard]] bool is_blacklisted(PathIndex path) const {
    return blacklisted_[path] != 0;
  }
  // Healthy refreshes a blacklisted path still owes before it clears.
  [[nodiscard]] std::uint32_t probation_left(PathIndex path) const {
    return probation_[path];
  }
  [[nodiscard]] std::size_t blacklisted_count() const {
    return blacklisted_live_;
  }
  [[nodiscard]] bool all_paths_blacklisted() const {
    return !pv_.empty() && blacklisted_live_ == pv_.size();
  }

  // Paper Algorithm 1 ("selfish flow scheduling"), one round:
  //   from = the active path (FV > 0) with the smallest BoNF,
  //   to   = the path with the largest BoNF,
  //   move one flow iff BoNF(to with one more flow) - BoNF(from) > delta.
  // (The TR's pseudocode garbles which index the FV>0 guard applies to; the
  // "inactive path" discussion in Section 2.5 fixes it: a host can only
  // shift a flow *off* a path it contributes to.)
  // Blacklisted paths are never selected as `to`; when every path is
  // blacklisted the pair falls back to its static hash placement (no move,
  // eval->fallback set).
  // Ties on either side are broken uniformly at random via `rng`:
  // deterministic tie-breaking makes every host dump flows onto the same
  // first-indexed idle path and chase each other indefinitely — the same
  // herding the randomized round offsets exist to prevent.
  // `eval`, when non-null, receives what the round saw (telemetry only;
  // filling it draws nothing from `rng` and never changes the decision).
  [[nodiscard]] std::optional<ProposedMove> propose(
      Bps delta, Rng& rng, RoundEvaluation* eval = nullptr) const;

  [[nodiscard]] const std::vector<NodeId>& queried_switches() const {
    return query_set_;
  }

 private:
  // One snapshotted link, 16 bytes: its port state as last answered.
  struct Slot {
    Bps bandwidth = 0;
    std::uint32_t elephants = 0;
    LinkId link;

    // LinkState::bonf(), the same arithmetic.
    [[nodiscard]] double bonf() const {
      return elephants == 0 ? bandwidth
                            : bandwidth / static_cast<double>(elephants);
    }
    // False when bonf() cannot round to `floor` or under: the bandwidth is
    // over twice the floor per elephant. A failed link (1 bps) is near.
    [[nodiscard]] bool near_floor(Bps floor) const {
      return bandwidth <= 2 * floor * (elephants == 0 ? 1.0 : elephants);
    }
  };

  // Rebuilds pv_ from the snapshot when a refresh has changed it since the
  // last assembly: per path, the first strict BoNF minimum over its links
  // in link order, or unassembled when a link's switch never answered or
  // answered longer than the staleness cap before the refresh.
  void assemble() const;
  // Whether a snapshotted slot — of an answered switch, or of any switch
  // that has ever answered when `all` — reads at or under `floor`.
  [[nodiscard]] bool any_dead(Bps floor, bool all) const;

  NodeId src_tor_;
  NodeId dst_tor_;
  // The switches that report some monitored link, sorted by node id: the
  // order they are queried in, and so the order a control-plane fault model
  // draws their losses in.
  std::vector<NodeId> query_set_;
  // When each switch's last accepted reply reflects (-1: never answered).
  std::vector<Seconds> switch_fresh_;
  // Refresh scratch: whether each switch answered this round.
  std::vector<std::uint8_t> answered_;

  // The monitor holds no path set. Its paths are the generator's
  // (src ToR, dst ToR, i), laid out once at construction into "slots": the
  // unique switch-switch links any path crosses, numbered in order of first
  // appearance, each owned by the switch (query_set_ index) that reports
  // it. Path i's slots, in link order, are
  // path_slot_[path_begin_[i] .. path_begin_[i + 1]). Every array is sized
  // once at construction; a refresh touches no topology structure.
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> slot_owner_;   // slot -> query_set_ index
  std::vector<std::uint32_t> path_begin_;   // per path, path_count + 1
  std::vector<std::uint32_t> path_slot_;    // every path's slots, flat

  // The last refresh's time and staleness cap, which assembly judges by.
  Seconds refreshed_at_ = 0;
  Seconds staleness_cap_ = 0;
  mutable bool pv_current_ = true;
  mutable std::vector<PathState> pv_;

  // FV: this host's elephants per path, and every (path, flow) in the
  // order the flows joined their paths (a path's first entry is the flow
  // a move shifts off it).
  std::vector<std::uint32_t> fv_count_;
  std::vector<std::pair<PathIndex, FlowId>> flows_;

  std::vector<std::uint8_t> blacklisted_;   // per path
  std::vector<std::uint32_t> probation_;    // healthy refreshes still owed
  std::size_t blacklisted_live_ = 0;
};

}  // namespace dard::core
