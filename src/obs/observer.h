// Structured trace events and the simulator observer hook interface.
//
// FlowSimulator (flow lifecycle) and the DARD host daemons (scheduling
// decisions) call the SimObserver hooks; implementations either act on the
// typed callbacks directly or forward the flat TraceEvent record to a
// TraceSink (trace.h) for serialization. Every hook has an empty default so
// observers override only what they need, and the simulators guard each
// emission behind a single `observer != nullptr` check — with no observer
// installed, tracing costs one branch per lifecycle event.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "common/units.h"

namespace dard::obs {

enum class TraceEventKind : std::uint8_t {
  FlowArrive,    // flow entered the network and received its initial path
  FlowElephant,  // flow crossed the elephant age threshold
  FlowMove,      // flow re-routed from path_from to path_to
  FlowComplete,  // flow drained its last byte
  DardRound,     // one monitor's evaluation within a DARD scheduling round
  Fault,         // a fault-plan transition was applied to the network
  Snapshot,      // periodic run-health snapshot (schema v3, DESIGN.md §13)
  Span,          // control-plane span (schema v5/v6, DESIGN.md §17)
};

// What a Span event measured (TraceEvent::span_kind). Spans nest:
// query spans hang off their monitor's refresh span, decision spans off the
// freshest refresh they consumed, move spans off the dard_round that won.
enum class SpanKind : std::uint8_t {
  None,      // not a Span event
  Query,     // one per-switch query exchange (initial attempt + retries);
             // since v6 only a retried, timed-out or lost one
  Refresh,   // one monitor refresh over its whole query set
  Decision,  // one host's scheduling-round evaluation pass
  Move,      // an accepted move being applied (closes a chain)
};

// What a Fault event did to the network (TraceEvent::fault_action).
enum class FaultAction : std::uint8_t {
  None,                // not a Fault event
  CableDown,           // cable src_host--dst_host failed
  CableUp,             // cable src_host--dst_host repaired
  ControlWindowStart,  // a control-plane degradation window opened
  ControlWindowEnd,    // ... and closed
  AgentCrash,          // daemon on src_host crashed (soft state lost)
  AgentRestart,        // daemon on src_host restarted and cold-start re-synced
  HostDown,            // host src_host (NIC cables + daemon) went down
  HostUp,              // ... and came back
};

// Version of the JSONL trace schema, emitted as "v" on every line so
// offline tooling (dardscope) can refuse input it would misread. Bump on
// any field change; v1 was the PR-1 schema without cause ids, v2 added
// them, v3 added periodic snapshot events, v4 added agent-level fault
// actions (agent_crash/agent_restart/host_down/host_up), v5 added
// control-plane span events and the p99.9 profile column, v6 folds clean
// query exchanges into their refresh span. A clean exchange is one attempt
// with no timeout and no loss; v6 writes no query line for it, and its
// refresh carries "clean", the number of such exchanges. Only retried,
// timed-out or lost exchanges keep a query line. Every exchange still draws
// its span id, so ids do not change. Readers accept anything in
// [kMinReadableTraceSchemaVersion, kTraceSchemaVersion] under one rule: a
// refresh's clean (0 before v6) counts as that many one-attempt, delivered
// query spans parented to it. A v2 trace is a valid v6 trace that happens
// to contain no snapshot, agent-fault or span lines.
inline constexpr int kTraceSchemaVersion = 6;
inline constexpr int kMinReadableTraceSchemaVersion = 2;

// One profiled section's distribution summary, carried inside snapshots.
struct ProfileSummary {
  std::string section;
  std::uint64_t count = 0;
  double total_s = 0;
  double mean_s = 0;
  double p50_s = 0;
  double p95_s = 0;
  double p99_s = 0;
  double p999_s = 0;  // long-tail pin for control-plane span latencies
  double max_s = 0;
};

// Payload of a Snapshot event: the run's health at one instant. Heap-backed
// and shared (TraceEvent stays a cheap flat value for the five per-flow
// kinds; only snapshots — emitted at human cadence, not event cadence —
// carry the pointer).
struct SnapshotStats {
  std::uint64_t seq = 0;               // 0-based snapshot index
  std::size_t active_flows = 0;
  std::size_t active_elephants = 0;
  std::size_t event_queue_depth = 0;
  double throughput_bps = 0;           // fluid substrate: sum of flow rates
  double max_utilization = 0;          // fluid substrate: hottest link
  double rss_bytes = 0;                // process RSS (0 where unreadable)
  double path_store_bytes = 0;         // CSR path-store pool footprint
  // Counters and gauges mirrored out of the metrics registry (sorted by
  // name; gauges carry their current value). Lets a live reader compute
  // control overhead (dard.*) before the end-of-run metrics.csv exists.
  std::vector<std::pair<std::string, double>> counters;
  // Per-section profiler summaries; empty when profiling is disabled.
  std::vector<ProfileSummary> profile;
};

[[nodiscard]] const char* to_string(TraceEventKind kind);
[[nodiscard]] const char* to_string(FaultAction action);

// One flat trace record. Fields not meaningful for a given kind keep their
// defaults; the per-kind schema is documented in DESIGN.md "Observability"
// and enforced by the JSONL serializer, which only emits relevant fields.
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::FlowArrive;
  Seconds time = 0;

  // Flow events; for DardRound, src_host is the deciding host and dst_host
  // the destination ToR of the evaluating monitor.
  FlowId flow;
  NodeId src_host;
  NodeId dst_host;
  Bytes size = 0;  // flow size (FlowArrive / FlowComplete)

  // FlowMove: old and new path; DardRound: worst (from) and best (to)
  // candidate paths of the evaluation. FlowElephant/FlowArrive: path_to is
  // the current path.
  PathIndex path_from = 0;
  PathIndex path_to = 0;

  // Path BoNF (bandwidth over number of elephant flows, bps) of path_from /
  // path_to as observed when the event fired. For FlowMove these are the
  // simulator's ground-truth values; for DardRound they are the monitor's
  // (possibly stale) assembled view.
  double bonf_from = 0;
  double bonf_to = 0;

  // FlowMove: ground-truth BoNF delta (bonf_to - bonf_from).
  // DardRound: the estimated gain tested against delta_threshold.
  double gain = 0;
  double delta_threshold = 0;  // DardRound: the δ in force
  // DardRound: true when the evaluation produced a candidate move that
  // passed the δ test AND won the host's best-gain comparison (i.e. the
  // flow was actually shifted this round).
  bool accepted = false;

  // Causal link (DESIGN.md §12). Cause ids are assigned monotonically from
  // one per-run space (fabric::DataPlane::next_cause_id). DardRound and
  // Fault events carry their own id; a FlowMove carries the id of the
  // DardRound decision that produced it. 0 = unattributed (tracing off when
  // the cause fired, or a scheduler that does not annotate its moves).
  std::uint64_t cause_id = 0;

  // Fault events only: what the transition did.
  FaultAction fault_action = FaultAction::None;

  // Span events only (schema v5). The span's own id is cause_id (drawn from
  // the same per-run space as round ids); parent_id references the
  // enclosing span — or, for Move spans, the dard_round that accepted the
  // move — and 0 marks a root span. src_host is the daemon's host; dst_host
  // is the queried switch (Query), the monitor's destination ToR (Refresh)
  // or unset. attempts counts query exchanges (Decision spans reuse it for
  // the number of path evaluations), timeouts/lost split failed exchanges
  // into late-reply vs never-delivered, bytes is the modeled wire cost and
  // accepted doubles as the span's ok/failed bit. span_clean (Refresh only,
  // schema v6) counts the refresh's clean exchanges, which have no Query
  // span of their own.
  SpanKind span_kind = SpanKind::None;
  std::uint64_t parent_id = 0;
  std::uint32_t span_attempts = 0;
  std::uint32_t span_timeouts = 0;
  std::uint32_t span_lost = 0;
  std::uint32_t span_clean = 0;
  std::uint64_t span_bytes = 0;
  Seconds span_duration = 0;

  // Snapshot events only; null for every other kind.
  std::shared_ptr<const SnapshotStats> snapshot;
};

// Hook interface the simulators emit into. Hooks fire synchronously at
// simulation-event granularity, in causal order per flow: arrive, then
// (optionally) elephant, then zero or more moves, then complete.
class SimObserver {
 public:
  virtual ~SimObserver() = default;

  virtual void on_flow_arrive(const TraceEvent& /*e*/) {}
  virtual void on_flow_elephant(const TraceEvent& /*e*/) {}
  virtual void on_flow_move(const TraceEvent& /*e*/) {}
  virtual void on_flow_complete(const TraceEvent& /*e*/) {}
  virtual void on_dard_round(const TraceEvent& /*e*/) {}
  virtual void on_fault(const TraceEvent& /*e*/) {}
  virtual void on_snapshot(const TraceEvent& /*e*/) {}
  virtual void on_span(const TraceEvent& /*e*/) {}
};

inline const char* to_string(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::FlowArrive:
      return "flow_arrive";
    case TraceEventKind::FlowElephant:
      return "flow_elephant";
    case TraceEventKind::FlowMove:
      return "flow_move";
    case TraceEventKind::FlowComplete:
      return "flow_complete";
    case TraceEventKind::DardRound:
      return "dard_round";
    case TraceEventKind::Fault:
      return "fault";
    case TraceEventKind::Snapshot:
      return "snapshot";
    case TraceEventKind::Span:
      return "span";
  }
  return "?";
}

inline const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::None:
      return "none";
    case SpanKind::Query:
      return "query";
    case SpanKind::Refresh:
      return "refresh";
    case SpanKind::Decision:
      return "decision";
    case SpanKind::Move:
      return "move";
  }
  return "?";
}

inline const char* to_string(FaultAction action) {
  switch (action) {
    case FaultAction::None:
      return "none";
    case FaultAction::CableDown:
      return "cable_down";
    case FaultAction::CableUp:
      return "cable_up";
    case FaultAction::ControlWindowStart:
      return "control_window_start";
    case FaultAction::ControlWindowEnd:
      return "control_window_end";
    case FaultAction::AgentCrash:
      return "agent_crash";
    case FaultAction::AgentRestart:
      return "agent_restart";
    case FaultAction::HostDown:
      return "host_down";
    case FaultAction::HostUp:
      return "host_up";
  }
  return "?";
}

}  // namespace dard::obs
