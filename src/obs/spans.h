// Control-plane span recorder (DESIGN.md §17).
//
// The paper's practicality argument is that DARD's distributed control loop
// stays cheap as the fabric grows; `dard.control_msgs` can count the
// messages but cannot say where they went, what each link carried, or how
// long a query→decision→move chain took. The SpanRecorder closes that gap:
// the host daemons report each monitor refresh (with its per-switch query
// exchanges), each scheduling-round evaluation pass and each accepted move,
// and the recorder
//
//   * emits structured Span trace events (schema v6) through the ordinary
//     SimObserver sink, linked by the existing cause-id space — a span's id
//     comes from the same allocator as round ids, its parent references the
//     enclosing span (or, for Move spans, the dard_round that won), and
//     parents always precede children in the stream so `dardscope spans`
//     can audit the chains online. A clean exchange (one attempt, no
//     timeout, no loss) draws its id but is written only as a count on its
//     refresh (TraceEvent::span_clean);
//   * attributes every control message to a (daemon, link) by routing its
//     modeled wire size hop-by-hop over the actual topology — query bytes
//     ride host→switch, reply bytes switch→host, and lost replies never
//     travel — yielding per-link control-byte utilization. A refresh only
//     adds each exchange to its switch's tally; the tallies are routed when
//     link_bytes() or write_link_csv() reads them;
//   * keeps whole-run totals (SpanTotals), an account of the messages built
//     from the exchanges alone, independent of the ControlPlaneAccountant
//     that is the run's ledger, so each can check the other.
//
// Disabled discipline matches obs::Profiler: the recorder is a nullable
// pointer on fabric::DataPlane, every instrumented site pays exactly one
// branch when it is null, no clock is read and no cause id is drawn — so a
// spans-off run is bit-identical to one built without the recorder.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "common/units.h"
#include "obs/observer.h"
#include "topology/topology.h"

namespace dard::obs {

// One per-switch query exchange, as the monitor's retry loop saw it.
// attempts counts wire round-trips (1 + retries used); timeouts counts the
// failed ones (lost or late reply); lost counts the never-delivered subset
// — the replies that put no bytes on the wire. latency is the modeled
// backoff-inclusive duration of the whole exchange.
struct QueryExchange {
  NodeId sw;
  std::uint32_t attempts = 0;
  std::uint32_t timeouts = 0;
  std::uint32_t lost = 0;
  bool delivered = false;
  Seconds reply_delay = 0;
  Seconds latency = 0;
};

// Whole-run span tallies. messages/bytes follow the wire model exactly:
// every attempt is one query message; every attempt that was not lost is
// one reply message — so messages = 2*attempts - lost and
// bytes = query_bytes*attempts + reply_bytes*(attempts - lost), the
// identity the accounting consistency test pins against
// fabric::ControlPlaneAccountant.
struct SpanTotals {
  std::uint64_t spans = 0;
  std::uint64_t query_spans = 0;
  std::uint64_t refresh_spans = 0;
  std::uint64_t decision_spans = 0;
  std::uint64_t move_spans = 0;
  std::uint64_t attempts = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t lost = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

class SpanRecorder {
 public:
  // `observer` receives the Span events (may be null: accounting still
  // accumulates, nothing is emitted); `topology` is the fabric control
  // messages are routed over; query/reply bytes are the modeled wire sizes
  // (fabric::kDardQueryBytes / kDardReplyBytes for the DARD loop).
  SpanRecorder(SimObserver* observer, const topo::Topology* topology,
               std::uint64_t query_bytes, std::uint64_t reply_bytes);

  // Span ids must come from the run's cause-id space so spans, rounds and
  // moves interleave in one ordered id sequence. The harness binds this to
  // fabric::DataPlane::next_cause_id when it attaches the recorder.
  void set_id_allocator(std::function<std::uint64_t()> alloc) {
    next_id_ = std::move(alloc);
  }

  // One monitor refresh: emits the Refresh span, then a Query span (parent
  // = the refresh) for each exchange that is not clean, adds each exchange's
  // attempts and delivered replies to its switch's tally, and remembers the
  // refresh as the head of the (host, dst_tor) chain.
  void record_refresh(Seconds now, NodeId host, NodeId dst_tor,
                      const std::vector<QueryExchange>& exchanges);

  // One scheduling-round evaluation pass on `host`. `evaluations` is the
  // number of monitor evaluations scanned; when a move was accepted,
  // `winner_dst_tor` names the monitor that produced it (the span parents
  // to that monitor's last refresh, and its duration is the age of the
  // state the decision consumed).
  void record_decision(Seconds now, NodeId host, std::size_t evaluations,
                       bool accepted, NodeId winner_dst_tor);

  // The accepted move being applied: parents to the winning dard_round's
  // id and closes the chain; its duration is the chain's, from the
  // monitor's last refresh to the move.
  void record_move(Seconds now, NodeId host, FlowId flow, NodeId dst_tor,
                   std::uint64_t round_id);

  [[nodiscard]] const SpanTotals& totals() const { return totals_; }
  // Control bytes attributed to each directed link (indexed by LinkId):
  // every tallied (host, switch) pair routed over a shortest hop-count
  // route, found by one BFS per host, which hosts with one link share with
  // the switch at its far end. A switch the host cannot reach gets no
  // bytes.
  [[nodiscard]] std::vector<std::uint64_t> link_bytes() const;

  // link,src,dst,control_bytes rows for every link that carried control
  // traffic — the artifact `dardscope spans` reads for its hotlink table.
  void write_link_csv(std::ostream& os) const;

 private:
  void emit(const TraceEvent& e);
  [[nodiscard]] std::uint64_t next_id() {
    return next_id_ ? next_id_() : ++fallback_id_;
  }
  // Query attempts and delivered replies one host sent to one switch.
  struct PairTally {
    NodeId sw;
    std::uint64_t queries = 0;
    std::uint64_t replies = 0;
  };

  SimObserver* observer_;
  const topo::Topology* topo_;
  std::uint64_t query_bytes_;
  std::uint64_t reply_bytes_;
  std::function<std::uint64_t()> next_id_;
  std::uint64_t fallback_id_ = 0;

  SpanTotals totals_;

  // One (host, dst_tor) monitor: the head of its chain (its last refresh
  // span) and what its exchanges sent to each switch.
  struct Monitor {
    std::uint64_t head_id = 0;
    Seconds head_start = 0;
    std::vector<PairTally> tallies;  // in order of first appearance
    // The tally of `sw`: at `i` when the refresh lists its switches in the
    // order they first appeared (a monitor's query set is fixed and
    // sorted), else found or appended.
    PairTally& tally(std::size_t i, NodeId sw);
  };
  // key: host<<32 | dst_tor
  std::unordered_map<std::uint64_t, Monitor> monitors_;
};

}  // namespace dard::obs
