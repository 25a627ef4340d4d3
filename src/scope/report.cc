#include "scope/report.h"

#include <algorithm>
#include <cstdio>

namespace dard::scope {

namespace {

// Fixed-point helper: the reports print seconds with ms precision and
// counts as integers; std::ostream default formatting drifts per value.
std::string fmt(double v, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string fmt_count(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f", v);
  return buf;
}

// "1" or "1-4" in Gbps, for the fabric-shape header line.
std::string fmt_gbps_range(double min_bps, double max_bps) {
  const auto one = [](double bps) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", bps / 1e9);
    return std::string(buf);
  };
  if (min_bps == max_bps) return one(min_bps);
  return one(min_bps) + "-" + one(max_bps);
}

std::string fabric_line(const Report& r) {
  std::string s = "host " + fmt_gbps_range(r.host_cap_min_bps,
                                           r.host_cap_max_bps) +
                  " Gbps, tor-up " +
                  fmt_gbps_range(r.tor_up_cap_min_bps, r.tor_up_cap_max_bps) +
                  " Gbps";
  if (r.agg_up_cap_max_bps > 0)
    s += ", agg-up " +
         fmt_gbps_range(r.agg_up_cap_min_bps, r.agg_up_cap_max_bps) + " Gbps";
  char buf[64];
  std::snprintf(buf, sizeof(buf), ", oversub %.2f:1",
                std::max(r.tor_oversub_max, r.agg_oversub_max));
  s += buf;
  if (r.weighted_paths) s += ", weighted paths";
  return s;
}

}  // namespace

Report build_report(const RunData& run) {
  Report r;
  r.source = run.source;
  r.scheduler = run.manifest_string("scheduler");
  r.topology = run.manifest_string("topology");
  r.substrate = run.manifest_string("substrate");
  r.pattern = run.manifest_string("pattern");
  r.seed = run.manifest_number("seed", -1);
  r.weighted_paths = run.manifest_number("weighted_paths", 0) != 0;
  r.host_cap_min_bps =
      run.manifest_path_number("topology_params.host_cap_min_bps");
  r.host_cap_max_bps =
      run.manifest_path_number("topology_params.host_cap_max_bps");
  r.tor_up_cap_min_bps =
      run.manifest_path_number("topology_params.tor_up_cap_min_bps");
  r.tor_up_cap_max_bps =
      run.manifest_path_number("topology_params.tor_up_cap_max_bps");
  r.agg_up_cap_min_bps =
      run.manifest_path_number("topology_params.agg_up_cap_min_bps");
  r.agg_up_cap_max_bps =
      run.manifest_path_number("topology_params.agg_up_cap_max_bps");
  r.tor_oversub_max =
      run.manifest_path_number("topology_params.tor_oversub_max");
  r.agg_oversub_max =
      run.manifest_path_number("topology_params.agg_oversub_max");
  r.has_shape = r.host_cap_max_bps > 0 || r.tor_up_cap_max_bps > 0;
  const StreamingAnalyzer& a = run.analysis;
  r.trace_events = a.totals().trace_events;
  r.fault_events = a.totals().fault_events;
  r.agent_crashes = run.agents.crashes;
  r.agent_restarts = run.agents.restarts;
  r.host_events = run.agents.host_events;
  r.reconvergence_s = run.agents.reconvergence_s();
  r.causes = a.causes();
  r.convergence = a.convergence();
  r.churn = a.churn();
  r.utilization = a.utilization();
  r.control = summarize_control(run);
  r.spans = a.spans();
  r.goodput_bytes = run.manifest_path_number("results.goodput_bytes");
  r.control_overhead_ratio =
      run.manifest_path_number("results.control_overhead_ratio");
  r.setup_s = run.manifest_path_number("timings.setup_s");
  r.run_s = run.manifest_path_number("timings.run_s");
  r.collect_s = run.manifest_path_number("timings.collect_s");
  return r;
}

void write_text(std::ostream& os, const Report& r) {
  os << "run: " << r.source << '\n';
  if (!r.scheduler.empty()) {
    os << "scenario: " << r.scheduler << " on " << r.topology << " ("
       << r.substrate << " substrate), " << r.pattern << " pattern, seed "
       << fmt_count(r.seed) << '\n';
    if (r.has_shape) os << "fabric: " << fabric_line(r) << '\n';
    os << "wall clock: setup " << fmt(r.setup_s) << " s, run " << fmt(r.run_s)
       << " s, collect " << fmt(r.collect_s) << " s\n";
  }
  os << "trace: " << r.trace_events << " events, " << r.churn.flows
     << " flows";
  if (r.fault_events > 0) os << ", " << r.fault_events << " fault transitions";
  os << '\n';

  if (r.agent_crashes > 0 || r.agent_restarts > 0 || r.host_events > 0) {
    os << "\nagent churn\n";
    os << "  daemon crashes: " << r.agent_crashes << ", restarts: "
       << r.agent_restarts << ", host down/up transitions: " << r.host_events
       << '\n';
    if (r.reconvergence_s >= 0)
      os << "  reconvergence: " << fmt(r.reconvergence_s)
         << " s from the last restart to the first accepted round\n";
    else if (r.agent_restarts > 0)
      os << "  reconvergence: no accepted round after the last restart\n";
  }

  os << "\ncausal links\n";
  os << "  moves: " << r.causes.moves << " (" << r.causes.attributed
     << " attributed to a DARD round)\n";
  os << "  resolved to a prior round: " << r.causes.resolved << '\n';
  os << "  dangling cause ids: " << r.causes.dangling
     << (r.causes.clean() ? " (clean)" : " (BROKEN TRACE)") << '\n';

  os << "\nconvergence\n";
  os << "  evaluations: " << r.convergence.evaluations << " across "
     << r.convergence.scheduling_instants << " scheduling instants\n";
  os << "  accepted moves: " << r.convergence.moves << '\n';
  if (r.convergence.moves > 0) {
    os << "  quiescence: after " << r.convergence.rounds_to_quiescence
       << " evaluations (" << r.convergence.instants_to_quiescence
       << " instants), last move at t=" << fmt(r.convergence.last_move_time)
       << " s, quiet for " << fmt(r.convergence.quiescent_tail_s)
       << " s after\n";
  } else {
    os << "  quiescence: immediate (no moves)\n";
  }
  os << "  oscillations (window " << r.convergence.oscillation_window
     << " moves): " << r.convergence.oscillations;
  if (!r.convergence.oscillating_flows.empty()) {
    os << " [flows";
    for (const auto f : r.convergence.oscillating_flows) os << ' ' << f;
    os << ']';
  }
  os << '\n';

  os << "\npath churn\n";
  os << "  flows: " << r.churn.flows << " (" << r.churn.elephants
     << " elephants), moved: " << r.churn.flows_moved << '\n';
  os << "  total moves: " << r.churn.total_moves << " ("
     << fmt(r.churn.moves_per_elephant(), 2) << " per elephant)\n";
  if (r.churn.max_moves_per_flow > 0)
    os << "  most-moved flow: " << r.churn.max_moves_flow << " with "
       << r.churn.max_moves_per_flow << " moves\n";

  os << "\nlink utilization\n";
  if (r.utilization.recorded) {
    os << "  " << r.utilization.links << " links, " << r.utilization.samples
       << " samples, mean " << fmt(r.utilization.mean_utilization) << '\n';
    os << "  peak " << fmt(r.utilization.peak_utilization) << " on "
       << r.utilization.peak_link << " at t=" << fmt(r.utilization.peak_time)
       << " s\n";
  } else {
    os << "  not recorded (run without --samples / --run-dir)\n";
  }

  os << "\ncontrol overhead\n";
  if (r.control.recorded) {
    os << "  control messages: " << fmt_count(r.control.control_msgs)
       << " (" << fmt_count(r.control.monitor_queries) << " monitor queries, "
       << fmt_count(r.control.query_timeouts) << " timeouts, "
       << fmt_count(r.control.query_retries) << " retries)\n";
    os << "  moves: " << fmt_count(r.control.moves_proposed) << " proposed, "
       << fmt_count(r.control.moves_accepted) << " accepted, "
       << fmt_count(r.control.moves_rejected) << " rejected ("
       << fmt_count(r.control.delta_rejections) << " delta rejections, "
       << fmt_count(r.control.fallback_rounds) << " fallback rounds)\n";
  } else {
    os << "  not recorded (run without --metrics / --run-dir, or non-DARD "
          "scheduler)\n";
  }
  if (r.spans.spans > 0) {
    os << "  spans: " << r.spans.spans << " (" << r.spans.refresh_spans
       << " refreshes, " << r.spans.query_spans << " queries, "
       << r.spans.decision_spans << " decisions, " << r.spans.move_spans
       << " moves), "
       << r.spans.dangling
       << (r.spans.clean() ? " dangling (clean)" : " dangling (BROKEN TRACE)")
       << '\n';
    os << "  span wire bytes: " << r.spans.bytes;
    if (r.goodput_bytes > 0)
      os << " (" << fmt(r.control_overhead_ratio * 100, 4) << "% of "
         << fmt_count(r.goodput_bytes) << " goodput bytes)";
    os << '\n';
  }
}

void write_markdown(std::ostream& os, const Report& r) {
  os << "# dardscope report\n\n";
  os << "run: `" << r.source << "`\n\n";
  if (!r.scheduler.empty()) {
    os << "**" << r.scheduler << "** on " << r.topology << " ("
       << r.substrate << " substrate), " << r.pattern << " pattern, seed "
       << fmt_count(r.seed) << ". Wall clock: setup " << fmt(r.setup_s)
       << " s, run " << fmt(r.run_s) << " s, collect " << fmt(r.collect_s)
       << " s.\n\n";
    if (r.has_shape) os << "Fabric: " << fabric_line(r) << ".\n\n";
  }
  os << "| metric | value |\n|---|---|\n";
  os << "| trace events | " << r.trace_events << " |\n";
  os << "| flows | " << r.churn.flows << " |\n";
  os << "| fault transitions | " << r.fault_events << " |\n";
  if (r.agent_crashes > 0 || r.agent_restarts > 0) {
    os << "| daemon crashes / restarts | " << r.agent_crashes << " / "
       << r.agent_restarts << " |\n";
    if (r.reconvergence_s >= 0)
      os << "| reconvergence after restart | " << fmt(r.reconvergence_s)
         << " s |\n";
  }
  os << "| moves | " << r.causes.moves << " |\n";
  os << "| moves attributed | " << r.causes.attributed << " |\n";
  os << "| moves resolved to a prior round | " << r.causes.resolved << " |\n";
  os << "| dangling cause ids | " << r.causes.dangling << " |\n";
  os << "| DARD evaluations | " << r.convergence.evaluations << " |\n";
  os << "| scheduling instants | " << r.convergence.scheduling_instants
     << " |\n";
  os << "| evaluations to quiescence | " << r.convergence.rounds_to_quiescence
     << " |\n";
  if (r.convergence.moves > 0)
    os << "| last move at | " << fmt(r.convergence.last_move_time)
       << " s |\n";
  os << "| oscillations (window " << r.convergence.oscillation_window
     << ") | " << r.convergence.oscillations << " |\n";
  os << "| elephants | " << r.churn.elephants << " |\n";
  os << "| moves per elephant | " << fmt(r.churn.moves_per_elephant(), 2)
     << " |\n";
  if (r.utilization.recorded) {
    os << "| mean link utilization | " << fmt(r.utilization.mean_utilization)
       << " |\n";
    os << "| peak link utilization | " << fmt(r.utilization.peak_utilization)
       << " (`" << r.utilization.peak_link << "`) |\n";
  }
  if (r.control.recorded) {
    os << "| control messages | " << fmt_count(r.control.control_msgs)
       << " |\n";
    os << "| moves accepted / rejected | "
       << fmt_count(r.control.moves_accepted) << " / "
       << fmt_count(r.control.moves_rejected) << " |\n";
  }
  if (r.spans.spans > 0) {
    os << "| control spans | " << r.spans.spans << " |\n";
    os << "| span wire bytes | " << r.spans.bytes << " |\n";
    if (r.goodput_bytes > 0)
      os << "| control overhead | " << fmt(r.control_overhead_ratio * 100, 4)
         << "% of goodput |\n";
    os << "| dangling span ids | " << r.spans.dangling << " |\n";
  }
  os << '\n';
}

void write_flow_text(std::ostream& os, const FlowTimeline& t) {
  os << "flow " << t.flow << ": " << t.src << " -> " << t.dst << ", "
     << fmt(t.size / 1048576.0, 1) << " MiB\n";
  if (t.arrive_time >= 0)
    os << "  t=" << fmt(t.arrive_time) << "  arrive on path " << t.first_path
       << '\n';
  if (t.elephant_time >= 0)
    os << "  t=" << fmt(t.elephant_time) << "  becomes elephant\n";
  for (const MoveStep& m : t.moves) {
    os << "  t=" << fmt(m.time) << "  move " << m.from << " -> " << m.to
       << " (bonf delta " << fmt(m.bonf_delta / 1e6, 1) << " Mbps, ";
    if (m.cause_id == 0)
      os << "unattributed";
    else if (m.cause_event >= 0)
      os << "round " << m.cause_id;
    else
      os << "DANGLING cause " << m.cause_id;
    os << ")\n";
  }
  if (t.complete_time >= 0)
    os << "  t=" << fmt(t.complete_time) << "  complete (transfer "
       << fmt(t.transfer_s()) << " s)\n";
  else
    os << "  (still active at end of trace)\n";
}

SpansReport build_spans_report(const RunData& run, std::size_t top_n) {
  SpansReport r;
  r.source = run.source;
  r.scheduler = run.manifest_string("scheduler");
  r.substrate = run.manifest_string("substrate");
  r.audit = run.analysis.spans();
  r.daemons.reserve(run.daemons.size());
  for (const auto& [host, d] : run.daemons) r.daemons.push_back(d);
  r.chains = run.chains;
  std::sort(r.chains.begin(), r.chains.end(),
            [](const SpanChain& x, const SpanChain& y) {
              if (x.duration_s != y.duration_s)
                return x.duration_s > y.duration_s;
              if (x.time != y.time) return x.time < y.time;
              return x.host < y.host;
            });
  if (r.chains.size() > top_n) r.chains.resize(top_n);
  r.hotlinks = run.control_bytes;
  for (const ControlByteRow& row : r.hotlinks)
    r.hotlink_total_bytes += row.bytes;
  std::sort(r.hotlinks.begin(), r.hotlinks.end(),
            [](const ControlByteRow& a, const ControlByteRow& b) {
              if (a.bytes != b.bytes) return a.bytes > b.bytes;
              return a.link < b.link;
            });
  if (r.hotlinks.size() > top_n) r.hotlinks.resize(top_n);
  r.goodput_bytes = run.manifest_path_number("results.goodput_bytes");
  r.control_overhead_ratio =
      run.manifest_path_number("results.control_overhead_ratio");
  return r;
}

void write_spans_text(std::ostream& os, const SpansReport& r) {
  os << "run: " << r.source << '\n';
  if (!r.scheduler.empty())
    os << "scenario: " << r.scheduler << " (" << r.substrate
       << " substrate)\n";
  if (r.audit.spans == 0) {
    os << "no span events in trace (run dardsim with --spans)\n";
    return;
  }
  os << "\nspan audit\n";
  os << "  spans: " << r.audit.spans << " (" << r.audit.refresh_spans
     << " refreshes, " << r.audit.query_spans << " queries, "
     << r.audit.decision_spans << " decisions, " << r.audit.move_spans
     << " moves)\n";
  os << "  parented: " << r.audit.parented << ", resolved: "
     << r.audit.resolved << ", dangling: " << r.audit.dangling
     << (r.audit.clean() ? " (clean)" : " (BROKEN TRACE)") << '\n';
  os << "  query attempts: " << r.audit.attempts << " ("
     << r.audit.timeouts << " timeouts, " << r.audit.lost
     << " lost replies)\n";
  os << "  attributed wire bytes: " << r.audit.bytes;
  if (r.goodput_bytes > 0)
    os << " (" << fmt(r.control_overhead_ratio * 100, 4) << "% of "
       << fmt_count(r.goodput_bytes) << " goodput bytes)";
  os << '\n';

  os << "\nper-daemon spans\n";
  os << "  host  refresh  query  decide  move  attempts  timeout  lost  "
        "bytes      max-chain\n";
  for (const DaemonSpanSummary& d : r.daemons) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "  %-5u %-8zu %-6zu %-7zu %-5zu %-9llu %-8llu %-5llu "
                  "%-10llu %.6f s",
                  d.host, d.refreshes, d.queries, d.decisions, d.moves,
                  static_cast<unsigned long long>(d.attempts),
                  static_cast<unsigned long long>(d.timeouts),
                  static_cast<unsigned long long>(d.lost),
                  static_cast<unsigned long long>(d.bytes), d.max_chain_s);
    os << buf << '\n';
  }

  os << "\nslowest refresh->move chains\n";
  if (r.chains.empty()) {
    os << "  none (no accepted moves with span coverage)\n";
  } else {
    for (const SpanChain& c : r.chains)
      os << "  t=" << fmt(c.time) << "  host " << c.host << " moved flow "
         << c.flow << " via round " << c.round_id << " in "
         << fmt(c.duration_s, 6) << " s\n";
  }

  os << "\ncontrol-byte hotlinks\n";
  if (r.hotlinks.empty()) {
    os << "  not recorded (run without --run-dir, or no control traffic)\n";
  } else {
    for (const ControlByteRow& row : r.hotlinks) {
      os << "  " << row.src << " -> " << row.dst << ": " << row.bytes
         << " bytes";
      if (r.hotlink_total_bytes > 0)
        os << " ("
           << fmt(100.0 * static_cast<double>(row.bytes) /
                      static_cast<double>(r.hotlink_total_bytes),
                  1)
           << "%)";
      os << '\n';
    }
  }
}

void write_spans_markdown(std::ostream& os, const SpansReport& r) {
  os << "# dardscope spans\n\n";
  os << "run: `" << r.source << "`\n\n";
  if (r.audit.spans == 0) {
    os << "No span events in trace (run dardsim with `--spans`).\n";
    return;
  }
  os << "| metric | value |\n|---|---|\n";
  os << "| spans | " << r.audit.spans << " |\n";
  os << "| refresh / query / decision / move | " << r.audit.refresh_spans
     << " / " << r.audit.query_spans << " / " << r.audit.decision_spans
     << " / " << r.audit.move_spans << " |\n";
  os << "| dangling span ids | " << r.audit.dangling << " |\n";
  os << "| query attempts (timeouts, lost) | " << r.audit.attempts << " ("
     << r.audit.timeouts << ", " << r.audit.lost << ") |\n";
  os << "| attributed wire bytes | " << r.audit.bytes << " |\n";
  if (r.goodput_bytes > 0)
    os << "| control overhead | " << fmt(r.control_overhead_ratio * 100, 4)
       << "% of goodput |\n";
  os << "\n## Per-daemon spans\n\n";
  os << "| host | refreshes | queries | decisions | moves | attempts | "
        "timeouts | lost | bytes | max chain (s) |\n"
        "|---|---|---|---|---|---|---|---|---|---|\n";
  for (const DaemonSpanSummary& d : r.daemons)
    os << "| " << d.host << " | " << d.refreshes << " | " << d.queries
       << " | " << d.decisions << " | " << d.moves << " | " << d.attempts
       << " | " << d.timeouts << " | " << d.lost << " | " << d.bytes
       << " | " << fmt(d.max_chain_s, 6) << " |\n";
  if (!r.chains.empty()) {
    os << "\n## Slowest refresh→move chains\n\n";
    os << "| t (s) | host | flow | round | duration (s) |\n"
          "|---|---|---|---|---|\n";
    for (const SpanChain& c : r.chains)
      os << "| " << fmt(c.time) << " | " << c.host << " | " << c.flow
         << " | " << c.round_id << " | " << fmt(c.duration_s, 6) << " |\n";
  }
  if (!r.hotlinks.empty()) {
    os << "\n## Control-byte hotlinks\n\n";
    os << "| link | bytes | share |\n|---|---|---|\n";
    for (const ControlByteRow& row : r.hotlinks) {
      os << "| " << row.src << " → " << row.dst << " | " << row.bytes
         << " | ";
      if (r.hotlink_total_bytes > 0)
        os << fmt(100.0 * static_cast<double>(row.bytes) /
                      static_cast<double>(r.hotlink_total_bytes),
                  1)
           << "%";
      os << " |\n";
    }
  }
  os << '\n';
}

namespace {

void write_diff_header(std::ostream& os, const RunData& a, const RunData& b,
                       const RunDiff& d, bool markdown) {
  if (markdown) {
    os << "# dardscope diff\n\n";
    os << "A: `" << a.source << "` (" << a.manifest_string("scheduler", "?")
       << ")\n";
    os << "B: `" << b.source << "` (" << b.manifest_string("scheduler", "?")
       << ")\n\n";
  } else {
    os << "A: " << a.source << " (" << a.manifest_string("scheduler", "?")
       << ")\n";
    os << "B: " << b.source << " (" << b.manifest_string("scheduler", "?")
       << ")\n";
  }
  if (!d.comparable)
    os << (markdown ? "\n> " : "")
       << "note: at least one run has no manifest; metric deltas are "
          "limited to counters\n";
  if (!d.same_seed)
    os << (markdown ? "\n> " : "")
       << "note: runs used different workload seeds; per-flow comparison "
          "matches different workloads\n";
  if (!d.same_fabric)
    os << (markdown ? "\n> " : "")
       << "note: runs used different fabric shapes (topology parameters "
          "differ); transfer-time deltas measure the fabric, not the "
          "scheduler\n";
  os << '\n';
}

}  // namespace

void write_diff_text(std::ostream& os, const RunData& a, const RunData& b,
                     const RunDiff& d) {
  write_diff_header(os, a, b, d, /*markdown=*/false);
  os << "metric deltas (B - A)\n";
  for (const MetricDelta& m : d.metrics) {
    os << "  " << m.name << ": " << m.a << " -> " << m.b << " ("
       << (m.delta() >= 0 ? "+" : "") << m.delta();
    if (m.a != 0)
      os << ", " << (m.percent() >= 0 ? "+" : "") << fmt(m.percent(), 1)
         << '%';
    os << ")\n";
  }
  os << "\nper-flow completion times (" << d.matched_flows
     << " matched flows)\n";
  os << "  regressed: " << d.regressed_flows
     << ", improved: " << d.improved_flows << '\n';
  for (const FlowRegression& f : d.top_regressions)
    os << "  flow " << f.flow << ": " << fmt(f.a_transfer_s) << " s -> "
       << fmt(f.b_transfer_s) << " s (+" << fmt(f.delta_s()) << " s)\n";
  if (d.disappeared_flows > 0 || d.appeared_flows > 0) {
    os << "\nflow population changed between the runs\n";
    if (d.disappeared_flows > 0) {
      os << "  disappeared (completed in A only): " << d.disappeared_flows
         << " [flows";
      for (const auto f : d.disappeared_ids) os << ' ' << f;
      if (d.disappeared_ids.size() < d.disappeared_flows) os << " ...";
      os << "]\n";
    }
    if (d.appeared_flows > 0) {
      os << "  appeared (completed in B only): " << d.appeared_flows
         << " [flows";
      for (const auto f : d.appeared_ids) os << ' ' << f;
      if (d.appeared_ids.size() < d.appeared_flows) os << " ...";
      os << "]\n";
    }
  }
}

void write_diff_markdown(std::ostream& os, const RunData& a, const RunData& b,
                         const RunDiff& d) {
  write_diff_header(os, a, b, d, /*markdown=*/true);
  os << "| metric | A | B | delta |\n|---|---|---|---|\n";
  for (const MetricDelta& m : d.metrics) {
    os << "| " << m.name << " | " << m.a << " | " << m.b << " | "
       << (m.delta() >= 0 ? "+" : "") << m.delta();
    if (m.a != 0)
      os << " (" << (m.percent() >= 0 ? "+" : "") << fmt(m.percent(), 1)
         << "%)";
    os << " |\n";
  }
  os << "\n**Per-flow completion times** — " << d.matched_flows
     << " matched, " << d.regressed_flows << " regressed, "
     << d.improved_flows << " improved.\n";
  if (!d.top_regressions.empty()) {
    os << "\n| flow | A (s) | B (s) | delta (s) |\n|---|---|---|---|\n";
    for (const FlowRegression& f : d.top_regressions)
      os << "| " << f.flow << " | " << fmt(f.a_transfer_s) << " | "
         << fmt(f.b_transfer_s) << " | +" << fmt(f.delta_s()) << " |\n";
  }
  if (d.disappeared_flows > 0 || d.appeared_flows > 0) {
    os << "\n**Flow population changed** — " << d.disappeared_flows
       << " disappeared (completed in A only), " << d.appeared_flows
       << " appeared (completed in B only).\n";
    const auto list = [&os](const char* label,
                            const std::vector<std::uint32_t>& ids,
                            std::size_t total) {
      if (ids.empty()) return;
      os << "- " << label << ":";
      for (const auto f : ids) os << ' ' << f;
      if (ids.size() < total) os << " ...";
      os << '\n';
    };
    list("disappeared", d.disappeared_ids, d.disappeared_flows);
    list("appeared", d.appeared_ids, d.appeared_flows);
  }
}

}  // namespace dard::scope
