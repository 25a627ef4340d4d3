// Report rendering for dardscope: one Report struct per run assembling
// every analysis, written as plain text (terminal) or markdown (CI
// artifacts); plus the A/B diff report.
#pragma once

#include <ostream>
#include <string>

#include "scope/analysis.h"
#include "scope/run_loader.h"

namespace dard::scope {

struct Report {
  std::string source;
  // Scenario line from the manifest; empty fields when analyzing a bare
  // trace file.
  std::string scheduler;
  std::string topology;
  std::string substrate;
  std::string pattern;
  double seed = -1;
  // Fabric shape from manifest "topology_params" (all zero for a bare
  // trace or a pre-shape manifest); printed in the scenario header so an
  // asymmetric run is recognizable at a glance.
  bool has_shape = false;
  bool weighted_paths = false;
  double host_cap_min_bps = 0;
  double host_cap_max_bps = 0;
  double tor_up_cap_min_bps = 0;
  double tor_up_cap_max_bps = 0;
  double agg_up_cap_min_bps = 0;
  double agg_up_cap_max_bps = 0;
  double tor_oversub_max = 0;
  double agg_oversub_max = 0;

  std::size_t trace_events = 0;
  std::size_t fault_events = 0;
  // Agent-level churn (DESIGN.md §16): daemon crash/restart transitions
  // seen in the trace, and the reconvergence time from the last restart
  // (agent_restart or host_up) to the first accepted DARD round after it;
  // -1 when there was no restart or no round accepted afterwards.
  std::size_t agent_crashes = 0;
  std::size_t agent_restarts = 0;
  std::size_t host_events = 0;
  double reconvergence_s = -1;
  CauseAudit causes;
  Convergence convergence;
  ChurnSummary churn;
  UtilizationSummary utilization;
  ControlOverhead control;
  // Control-plane spans (DESIGN.md §17): present only for --spans runs;
  // spans.spans == 0 means the trace carries no span events and the span
  // lines are omitted from the rendered report.
  SpanAudit spans;
  // Overhead-vs-goodput summary from the manifest (zeros for a bare trace
  // or a pre-§17 manifest).
  double goodput_bytes = 0;
  double control_overhead_ratio = 0;
  // Wall-clock phases from the manifest (all zero for a bare trace).
  double setup_s = 0;
  double run_s = 0;
  double collect_s = 0;
};

// The convergence figures use the window the run was loaded with
// (RunData's constructor).
[[nodiscard]] Report build_report(const RunData& run);

void write_text(std::ostream& os, const Report& r);
void write_markdown(std::ostream& os, const Report& r);

// One flow's timeline in detail (the `dardscope flow` subcommand; the flow
// is looked up in RunData::timelines).
void write_flow_text(std::ostream& os, const FlowTimeline& t);

// Control-plane span report (the `dardscope spans` subcommand, DESIGN.md
// §17): audit + per-daemon activity + slowest refresh→move chains + the
// hottest control-byte links. `top_n` caps the chain and hotlink tables.
struct SpansReport {
  std::string source;
  std::string scheduler;
  std::string substrate;
  SpanAudit audit;
  std::vector<DaemonSpanSummary> daemons;
  std::vector<SpanChain> chains;              // slowest first, <= top_n
  std::vector<ControlByteRow> hotlinks;       // hottest first, <= top_n
  std::uint64_t hotlink_total_bytes = 0;      // over every link, not just top_n
  // Manifest overhead summary (zeros for a bare trace / pre-§17 manifest).
  double goodput_bytes = 0;
  double control_overhead_ratio = 0;
};

[[nodiscard]] SpansReport build_spans_report(const RunData& run,
                                             std::size_t top_n = 10);

void write_spans_text(std::ostream& os, const SpansReport& r);
void write_spans_markdown(std::ostream& os, const SpansReport& r);

void write_diff_text(std::ostream& os, const RunData& a, const RunData& b,
                     const RunDiff& d);
void write_diff_markdown(std::ostream& os, const RunData& a, const RunData& b,
                         const RunDiff& d);

}  // namespace dard::scope
