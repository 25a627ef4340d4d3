// What dardscope reports about a run (DESIGN.md §12): per-flow timelines,
// causal-link and span audits, convergence diagnostics, churn, utilization
// and control-overhead summaries, and A/B run comparison.
//
// The records here are filled as the trace streams in: StreamingAnalyzer
// (streaming.h) keeps the headline summaries and RunData (run_loader.h) the
// per-flow, per-daemon and per-chain rows only the offline subcommands
// read. No simulator types, no side effects.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/observer.h"

namespace dard::scope {

struct RunData;

// One path change of one flow, with its causal attribution.
struct MoveStep {
  double time = 0;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  double bonf_delta = 0;        // ground-truth gain at move time
  std::uint64_t cause_id = 0;   // 0 = unattributed
  // Trace index (0-based, blank lines not counted) of the latest accepted
  // DardRound with this cause id before the move, or -1 (unattributed /
  // dangling).
  std::ptrdiff_t cause_event = -1;
};

// Lifecycle of one flow reassembled from the event stream.
struct FlowTimeline {
  std::uint32_t flow = 0;
  double arrive_time = -1;    // -1 = the trace starts after the arrival
  double elephant_time = -1;  // -1 = never promoted
  double complete_time = -1;  // -1 = still active at end of trace
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  double size = 0;
  std::uint32_t first_path = 0;
  std::vector<MoveStep> moves;

  [[nodiscard]] double transfer_s() const {
    return complete_time >= 0 && arrive_time >= 0
               ? complete_time - arrive_time
               : -1;
  }
};

// Causal-link audit over every FlowMove in the trace.
struct CauseAudit {
  std::size_t moves = 0;        // all FlowMove events
  std::size_t attributed = 0;   // cause_id != 0
  std::size_t resolved = 0;     // cause resolves to a prior accepted DardRound
  std::size_t dangling = 0;     // cause_id != 0 but no such prior round
  [[nodiscard]] bool clean() const { return dangling == 0; }
};

// Convergence diagnostics. A "round" is one DardRound evaluation (each has
// a unique round id); "scheduling instants" groups evaluations that fired
// at the same simulated time (one host's round visits several monitors).
struct Convergence {
  std::size_t evaluations = 0;          // DardRound events
  std::size_t scheduling_instants = 0;  // distinct DardRound times
  std::size_t moves = 0;                // accepted evaluations
  // Evaluations (resp. instants) up to and including the last accepted
  // move: how much scheduling work it took to reach quiescence. 0 when the
  // trace has no accepted move.
  std::size_t rounds_to_quiescence = 0;
  std::size_t instants_to_quiescence = 0;
  double last_move_time = -1;           // -1 = no moves
  double quiescent_tail_s = 0;          // trace span after the last move
  // Oscillation: a flow moving back to a path it left within the last
  // `window` of its own moves (window measured in moves, i.e. A->B ...
  // ->A with at most `window` intervening moves of that flow).
  std::size_t oscillation_window = 0;
  std::size_t oscillations = 0;
  std::vector<std::uint32_t> oscillating_flows;  // unique, ascending
};

// Path-churn summary over the flows.
struct ChurnSummary {
  std::size_t flows = 0;
  std::size_t elephants = 0;
  std::size_t flows_moved = 0;
  std::size_t total_moves = 0;
  std::size_t max_moves_per_flow = 0;
  std::uint32_t max_moves_flow = 0;  // a flow achieving the max
  [[nodiscard]] double moves_per_elephant() const {
    return elephants == 0 ? 0
                          : static_cast<double>(total_moves) /
                                static_cast<double>(elephants);
  }
};

// Link-utilization summary from the link sampler CSV.
struct UtilizationSummary {
  bool recorded = false;  // false = run had no link samples
  std::size_t links = 0;
  std::size_t samples = 0;
  double mean_utilization = 0;  // over all (link, time) samples
  double peak_utilization = 0;
  std::string peak_link;        // "src->dst" of the hottest sample
  double peak_time = 0;
};

// Agent-level churn (DESIGN.md §16) from the trace's fault events.
struct AgentChurn {
  std::size_t crashes = 0;
  std::size_t restarts = 0;
  // Host down/up transitions; the daemon transition rides along as its own
  // agent_crash / agent_restart event, so these only count here.
  std::size_t host_events = 0;
  double last_restart = -1;  // the last agent_restart's time, -1 = none
  // The accepted DardRounds' times that exceed every earlier accepted
  // round's, in trace order. The first accepted round at or after a time T
  // is the first of these that is >= T.
  std::vector<double> round_records;

  void note_accepted_round(double time) {
    if (round_records.empty() || time > round_records.back())
      round_records.push_back(time);
  }
  // From the last restart to the first accepted round at or after it; -1
  // when there was no restart or no such round.
  [[nodiscard]] double reconvergence_s() const;
};

// Control-plane overhead from the dard.* counters (zeros when the run had
// no metrics file or a non-DARD scheduler).
struct ControlOverhead {
  bool recorded = false;
  double control_msgs = 0;
  double monitor_queries = 0;
  double query_timeouts = 0;
  double query_retries = 0;
  double moves_proposed = 0;
  double moves_accepted = 0;
  double moves_rejected = 0;
  double delta_rejections = 0;
  double fallback_rounds = 0;
};

[[nodiscard]] ControlOverhead summarize_control(const RunData& run);

// --- Control-plane span analyses (DESIGN.md §17; schema v5/v6 traces). ---

// Causal audit plus aggregates over every Span event in the trace. A span's
// parent must reference a strictly earlier span id or accepted DardRound
// round id — the recorder emits parents before children, so a dangling
// parent means a corrupted or truncated-at-the-wrong-place trace. A
// refresh's clean exchanges (TraceEvent::span_clean) count as that many
// one-attempt query spans parented to it, so a v6 trace audits the same as
// the v5 trace that wrote them all.
struct SpanAudit {
  std::size_t spans = 0;
  std::size_t query_spans = 0;
  std::size_t refresh_spans = 0;
  std::size_t decision_spans = 0;
  std::size_t move_spans = 0;
  std::size_t parented = 0;   // parent != 0
  std::size_t resolved = 0;   // parent references an earlier span/round id
  std::size_t dangling = 0;   // parented but unresolved
  std::uint64_t attempts = 0; // query wire round-trips (Query spans)
  std::uint64_t timeouts = 0;
  std::uint64_t lost = 0;
  std::uint64_t bytes = 0;    // control bytes attributed by Refresh spans
  [[nodiscard]] bool clean() const { return dangling == 0; }
};

// Per-daemon span activity, ascending host id.
struct DaemonSpanSummary {
  std::uint32_t host = 0;
  std::size_t refreshes = 0;
  std::size_t queries = 0;
  std::size_t decisions = 0;
  std::size_t moves = 0;
  std::uint64_t attempts = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t lost = 0;
  std::uint64_t bytes = 0;
  double max_chain_s = 0;   // slowest refresh→move chain on this daemon
  double total_chain_s = 0; // summed move-span durations
};

// One complete refresh→decision→move chain (one per Move span).
struct SpanChain {
  double time = 0;            // when the move applied
  std::uint32_t host = 0;
  std::uint32_t flow = 0;
  std::uint64_t round_id = 0; // the winning dard_round (span parent)
  double duration_s = 0;      // refresh start → move
};

// A/B comparison. Metric deltas come from manifest results and counters;
// per-flow regressions match completed flows by id across the two runs
// (meaningful when both runs used the same workload seed — the diff says so
// when seeds differ).
struct MetricDelta {
  std::string name;
  double a = 0;
  double b = 0;
  [[nodiscard]] double delta() const { return b - a; }
  [[nodiscard]] double percent() const {
    return a == 0 ? 0 : (b - a) / a * 100.0;
  }
};

struct FlowRegression {
  std::uint32_t flow = 0;
  double a_transfer_s = 0;
  double b_transfer_s = 0;
  [[nodiscard]] double delta_s() const { return b_transfer_s - a_transfer_s; }
};

struct RunDiff {
  bool same_seed = true;
  bool comparable = true;  // both runs have manifests
  // Same fabric shape: topology name, node/link counts and every
  // "topology_params" field agree. Transfer-time deltas between different
  // fabrics measure the fabric, not the scheduler — the diff warns.
  bool same_fabric = true;
  std::vector<MetricDelta> metrics;
  std::size_t matched_flows = 0;
  std::size_t regressed_flows = 0;  // completion time got worse in B
  std::size_t improved_flows = 0;
  // Flows that completed in only one of the runs: a diff that hides them
  // would call two runs with different flow populations "no regressions".
  std::size_t disappeared_flows = 0;  // completed in A only
  std::size_t appeared_flows = 0;     // completed in B only
  // Ascending flow ids, each capped by the caller's top_n.
  std::vector<std::uint32_t> disappeared_ids;
  std::vector<std::uint32_t> appeared_ids;
  // Worst regressions first, capped by the caller's request.
  std::vector<FlowRegression> top_regressions;
};

[[nodiscard]] RunDiff diff_runs(const RunData& a, const RunData& b,
                                std::size_t top_n = 10);

}  // namespace dard::scope
