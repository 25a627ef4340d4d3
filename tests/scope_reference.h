// Reference copy of dardscope's former whole-trace analysis, for tests only.
//
// Before load_run digested the trace as it streamed in, dardscope held every
// event in a std::vector<obs::TraceEvent> (and every link-sample row in
// another) and ran one pass over the vector per analysis. Those passes and
// the report assembly on top of them are kept here, unchanged in substance,
// as the reference the streamed RunData and StreamingAnalyzer must equal
// report for report (tests/scope_reference_test.cc). They share the record
// types and the renderers with src/scope, and nothing else. The span passes
// count a refresh's schema-v6 clean exchanges as the readers do.
#pragma once

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/manifest.h"
#include "obs/observer.h"
#include "scope/analysis.h"
#include "scope/report.h"
#include "scope/run_loader.h"
#include "scope/trace_load.h"

namespace dard::scope::reference {

using obs::TraceEvent;
using obs::TraceEventKind;

// A run as the former loader held it. `meta` carries what the reference
// does not recompute (source, manifest, metrics, control bytes); its digest
// is never read here.
struct Run {
  RunData meta;
  std::vector<TraceEvent> trace;
  std::vector<LinkSample> link_samples;
};

inline bool load_trace_file(const std::string& path,
                            std::vector<TraceEvent>* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open trace file: " + path;
    return false;
  }
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    TraceEvent e;
    std::string line_error;
    if (!parse_trace_line(line, &e, &line_error)) {
      std::ostringstream os;
      os << path << ':' << line_no << ": " << line_error;
      *error = os.str();
      return false;
    }
    out->push_back(std::move(e));
  }
  return true;
}

inline bool load_link_samples_csv(const std::string& path,
                                  std::vector<LinkSample>* out,
                                  std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open link samples file: " + path;
    return false;
  }
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    LinkSample s;
    if (!parse_link_sample_row(line, &s)) {
      *error = "malformed link sample row in " + path + ": " + line;
      return false;
    }
    out->push_back(std::move(s));
  }
  return true;
}

// A bare trace, or a run directory with the canonical artifact names.
inline bool load_run(const std::string& path, Run* out, std::string* error) {
  if (!scope::load_run(path, &out->meta, error)) return false;
  if (!out->meta.is_directory) return load_trace_file(path, &out->trace, error);
  const std::filesystem::path dir(path);
  if (!load_trace_file((dir / harness::kTraceFile).string(), &out->trace,
                       error))
    return false;
  const std::filesystem::path samples = dir / harness::kLinkSamplesFile;
  return !std::filesystem::exists(samples) ||
         load_link_samples_csv(samples.string(), &out->link_samples, error);
}

inline std::vector<FlowTimeline> build_timelines(
    const std::vector<TraceEvent>& trace) {
  std::map<std::uint32_t, FlowTimeline> by_flow;
  // cause_id -> trace index of an *accepted* DardRound already seen; used to
  // resolve each move's causal link as the stream replays in order.
  std::unordered_map<std::uint64_t, std::ptrdiff_t> rounds_seen;

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceEvent& e = trace[i];
    switch (e.kind) {
      case TraceEventKind::FlowArrive: {
        FlowTimeline& t = by_flow[e.flow.value()];
        t.flow = e.flow.value();
        t.arrive_time = e.time;
        t.src = e.src_host.value();
        t.dst = e.dst_host.value();
        t.size = static_cast<double>(e.size);
        t.first_path = e.path_to;
        break;
      }
      case TraceEventKind::FlowElephant: {
        FlowTimeline& t = by_flow[e.flow.value()];
        t.flow = e.flow.value();
        t.elephant_time = e.time;
        break;
      }
      case TraceEventKind::FlowMove: {
        FlowTimeline& t = by_flow[e.flow.value()];
        t.flow = e.flow.value();
        MoveStep step;
        step.time = e.time;
        step.from = e.path_from;
        step.to = e.path_to;
        step.bonf_delta = e.gain;
        step.cause_id = e.cause_id;
        if (e.cause_id != 0) {
          const auto it = rounds_seen.find(e.cause_id);
          if (it != rounds_seen.end()) step.cause_event = it->second;
        }
        t.moves.push_back(step);
        break;
      }
      case TraceEventKind::FlowComplete: {
        FlowTimeline& t = by_flow[e.flow.value()];
        t.flow = e.flow.value();
        t.complete_time = e.time;
        break;
      }
      case TraceEventKind::DardRound:
        if (e.accepted && e.cause_id != 0)
          rounds_seen[e.cause_id] = static_cast<std::ptrdiff_t>(i);
        break;
      case TraceEventKind::Fault:
      case TraceEventKind::Snapshot:
      case TraceEventKind::Span:
        break;
    }
  }

  std::vector<FlowTimeline> out;
  out.reserve(by_flow.size());
  for (auto& [id, t] : by_flow) out.push_back(std::move(t));
  return out;
}

inline CauseAudit audit_causes(const std::vector<TraceEvent>& trace) {
  CauseAudit audit;
  std::set<std::uint64_t> rounds_seen;
  for (const TraceEvent& e : trace) {
    if (e.kind == TraceEventKind::DardRound && e.accepted && e.cause_id != 0) {
      rounds_seen.insert(e.cause_id);
    } else if (e.kind == TraceEventKind::FlowMove) {
      ++audit.moves;
      if (e.cause_id == 0) continue;
      ++audit.attributed;
      if (rounds_seen.count(e.cause_id) > 0)
        ++audit.resolved;
      else
        ++audit.dangling;
    }
  }
  return audit;
}

inline Convergence analyze_convergence(const std::vector<TraceEvent>& trace,
                                       std::size_t window = 4) {
  Convergence c;
  c.oscillation_window = window;

  std::set<double> instants;
  std::size_t instants_at_last_move = 0;
  double trace_end = 0;
  std::size_t evals_at_last_move = 0;

  // Per-flow recent path history: the last `window` paths each flow left,
  // most recent last. Returning to any of them is one oscillation.
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> left_paths;
  std::set<std::uint32_t> oscillating;

  for (const TraceEvent& e : trace) {
    trace_end = std::max(trace_end, e.time);
    if (e.kind == TraceEventKind::DardRound) {
      ++c.evaluations;
      instants.insert(e.time);
    } else if (e.kind == TraceEventKind::FlowMove) {
      ++c.moves;
      c.last_move_time = e.time;
      evals_at_last_move = c.evaluations;
      instants_at_last_move = instants.size();

      auto& history = left_paths[e.flow.value()];
      if (std::find(history.begin(), history.end(), e.path_to) !=
          history.end()) {
        ++c.oscillations;
        oscillating.insert(e.flow.value());
      }
      history.push_back(e.path_from);
      if (history.size() > window) history.erase(history.begin());
    }
  }

  c.scheduling_instants = instants.size();
  c.rounds_to_quiescence = evals_at_last_move;
  c.instants_to_quiescence = instants_at_last_move;
  if (c.last_move_time >= 0) c.quiescent_tail_s = trace_end - c.last_move_time;
  c.oscillating_flows.assign(oscillating.begin(), oscillating.end());
  return c;
}

inline ChurnSummary summarize_churn(
    const std::vector<FlowTimeline>& timelines) {
  ChurnSummary s;
  s.flows = timelines.size();
  for (const FlowTimeline& t : timelines) {
    if (t.elephant_time >= 0) ++s.elephants;
    if (t.moves.empty()) continue;
    ++s.flows_moved;
    s.total_moves += t.moves.size();
    if (t.moves.size() > s.max_moves_per_flow) {
      s.max_moves_per_flow = t.moves.size();
      s.max_moves_flow = t.flow;
    }
  }
  return s;
}

inline UtilizationSummary summarize_utilization(
    const std::vector<LinkSample>& samples) {
  UtilizationSummary s;
  if (samples.empty()) return s;
  s.recorded = true;
  s.samples = samples.size();
  std::set<std::uint32_t> links;
  double total = 0;
  for (const LinkSample& sample : samples) {
    links.insert(sample.link);
    total += sample.utilization;
    if (sample.utilization > s.peak_utilization) {
      s.peak_utilization = sample.utilization;
      s.peak_link = sample.src + "->" + sample.dst;
      s.peak_time = sample.time;
    }
  }
  s.links = links.size();
  s.mean_utilization = total / static_cast<double>(samples.size());
  return s;
}

inline SpanAudit audit_spans(const std::vector<TraceEvent>& trace) {
  SpanAudit a;
  // Ids a parent may legally reference: earlier span ids plus earlier
  // accepted round ids (Move spans cite the dard_round that won).
  std::set<std::uint64_t> ids_seen;
  for (const TraceEvent& e : trace) {
    if (e.kind == TraceEventKind::DardRound) {
      if (e.accepted && e.cause_id != 0) ids_seen.insert(e.cause_id);
      continue;
    }
    if (e.kind != TraceEventKind::Span) continue;
    ++a.spans;
    switch (e.span_kind) {
      case obs::SpanKind::Query: ++a.query_spans; break;
      case obs::SpanKind::Refresh: ++a.refresh_spans; break;
      case obs::SpanKind::Decision: ++a.decision_spans; break;
      case obs::SpanKind::Move: ++a.move_spans; break;
      case obs::SpanKind::None: break;
    }
    if (e.span_kind == obs::SpanKind::Query) {
      a.attempts += e.span_attempts;
      a.timeouts += e.span_timeouts;
      a.lost += e.span_lost;
    }
    if (e.span_kind == obs::SpanKind::Refresh) a.bytes += e.span_bytes;
    if (e.parent_id != 0) {
      ++a.parented;
      if (ids_seen.count(e.parent_id) > 0)
        ++a.resolved;
      else
        ++a.dangling;
    }
    if (e.cause_id != 0) ids_seen.insert(e.cause_id);
    // Schema v6: a refresh's clean exchanges are one-attempt query spans
    // parented to it, which the trace does not write out.
    if (e.span_kind == obs::SpanKind::Refresh) {
      a.spans += e.span_clean;
      a.query_spans += e.span_clean;
      a.attempts += e.span_clean;
      if (e.cause_id != 0) {
        a.parented += e.span_clean;
        if (ids_seen.count(e.cause_id) > 0) a.resolved += e.span_clean;
      }
    }
  }
  return a;
}

inline std::vector<DaemonSpanSummary> summarize_daemon_spans(
    const std::vector<TraceEvent>& trace) {
  std::map<std::uint32_t, DaemonSpanSummary> by_host;
  for (const TraceEvent& e : trace) {
    if (e.kind != TraceEventKind::Span) continue;
    DaemonSpanSummary& d = by_host[e.src_host.value()];
    d.host = e.src_host.value();
    switch (e.span_kind) {
      case obs::SpanKind::Query:
        ++d.queries;
        d.attempts += e.span_attempts;
        d.timeouts += e.span_timeouts;
        d.lost += e.span_lost;
        break;
      case obs::SpanKind::Refresh:
        ++d.refreshes;
        d.bytes += e.span_bytes;
        d.queries += e.span_clean;   // schema v6: the folded clean
        d.attempts += e.span_clean;  // exchanges, one attempt each
        break;
      case obs::SpanKind::Decision:
        ++d.decisions;
        break;
      case obs::SpanKind::Move:
        ++d.moves;
        d.max_chain_s = std::max(d.max_chain_s, e.span_duration);
        d.total_chain_s += e.span_duration;
        break;
      case obs::SpanKind::None:
        break;
    }
  }
  std::vector<DaemonSpanSummary> out;
  out.reserve(by_host.size());
  for (auto& [host, d] : by_host) out.push_back(d);
  return out;
}

inline std::vector<SpanChain> slowest_chains(
    const std::vector<TraceEvent>& trace, std::size_t top_n = 10) {
  std::vector<SpanChain> chains;
  for (const TraceEvent& e : trace) {
    if (e.kind != TraceEventKind::Span ||
        e.span_kind != obs::SpanKind::Move)
      continue;
    SpanChain c;
    c.time = e.time;
    c.host = e.src_host.value();
    c.flow = e.flow.valid() ? e.flow.value() : 0;
    c.round_id = e.parent_id;
    c.duration_s = e.span_duration;
    chains.push_back(c);
  }
  std::sort(chains.begin(), chains.end(),
            [](const SpanChain& x, const SpanChain& y) {
              if (x.duration_s != y.duration_s)
                return x.duration_s > y.duration_s;
              if (x.time != y.time) return x.time < y.time;
              return x.host < y.host;
            });
  if (chains.size() > top_n) chains.resize(top_n);
  return chains;
}

inline RunDiff diff_runs(const Run& ra, const Run& rb,
                         std::size_t top_n = 10) {
  const RunData& a = ra.meta;
  const RunData& b = rb.meta;
  RunDiff d;
  d.comparable = a.manifest != nullptr && b.manifest != nullptr;
  d.same_seed = a.manifest_number("seed", -1) == b.manifest_number("seed", -2);
  if (d.comparable) {
    d.same_fabric =
        a.manifest_string("topology") == b.manifest_string("topology") &&
        a.manifest_number("hosts", -1) == b.manifest_number("hosts", -2) &&
        a.manifest_number("switches", -1) ==
            b.manifest_number("switches", -2) &&
        a.manifest_number("links", -1) == b.manifest_number("links", -2);
    static constexpr const char* kShapeKeys[] = {
        "host_cap_min_bps",   "host_cap_max_bps",   "tor_up_cap_min_bps",
        "tor_up_cap_max_bps", "agg_up_cap_min_bps", "agg_up_cap_max_bps",
        "tor_oversub_max",    "agg_oversub_max",    "tor_uplinks_min",
        "tor_uplinks_max",    "agg_uplinks_min",    "agg_uplinks_max",
        "delay_min_s",        "delay_max_s"};
    for (const char* key : kShapeKeys) {
      const std::string dotted = std::string("topology_params.") + key;
      if (a.manifest_path_number(dotted, -1) !=
          b.manifest_path_number(dotted, -1))
        d.same_fabric = false;
    }
  }

  const auto add = [&](const char* name, double va, double vb) {
    d.metrics.push_back(MetricDelta{name, va, vb});
  };
  if (d.comparable) {
    for (const char* name :
         {"flows", "avg_transfer_s", "p50_transfer_s", "p99_transfer_s",
          "reroutes", "control_bytes", "peak_elephants"}) {
      const std::string dotted = std::string("results.") + name;
      add(name, a.manifest_path_number(dotted),
          b.manifest_path_number(dotted));
    }
  }
  if (!a.metrics.empty() || !b.metrics.empty()) {
    for (const char* name :
         {"dard.moves_accepted", "dard.moves_rejected", "dard.control_msgs",
          "dard.monitor_queries", "dard.query_timeouts"}) {
      const double va = a.metric_value(name);
      const double vb = b.metric_value(name);
      if (va != 0 || vb != 0) add(name, va, vb);
    }
  }

  std::unordered_map<std::uint32_t, double> a_transfer;
  std::set<std::uint32_t> a_unmatched;
  for (const FlowTimeline& t : build_timelines(ra.trace)) {
    if (t.transfer_s() < 0) continue;
    a_transfer[t.flow] = t.transfer_s();
    a_unmatched.insert(t.flow);
  }
  std::vector<FlowRegression> regressions;
  for (const FlowTimeline& t : build_timelines(rb.trace)) {
    if (t.transfer_s() < 0) continue;
    const auto it = a_transfer.find(t.flow);
    if (it == a_transfer.end()) {
      ++d.appeared_flows;
      if (d.appeared_ids.size() < top_n) d.appeared_ids.push_back(t.flow);
      continue;
    }
    a_unmatched.erase(t.flow);
    ++d.matched_flows;
    FlowRegression r;
    r.flow = t.flow;
    r.a_transfer_s = it->second;
    r.b_transfer_s = t.transfer_s();
    if (r.delta_s() > 1e-9) {
      ++d.regressed_flows;
      regressions.push_back(r);
    } else if (r.delta_s() < -1e-9) {
      ++d.improved_flows;
    }
  }
  std::sort(regressions.begin(), regressions.end(),
            [](const FlowRegression& x, const FlowRegression& y) {
              return x.delta_s() > y.delta_s() ||
                     (x.delta_s() == y.delta_s() && x.flow < y.flow);
            });
  if (regressions.size() > top_n) regressions.resize(top_n);
  d.top_regressions = std::move(regressions);
  d.disappeared_flows = a_unmatched.size();
  for (const std::uint32_t flow : a_unmatched) {
    if (d.disappeared_ids.size() >= top_n) break;
    d.disappeared_ids.push_back(flow);
  }
  return d;
}

inline Report build_report(const Run& ref, std::size_t oscillation_window) {
  const RunData& run = ref.meta;
  Report r;
  r.source = run.source;
  r.scheduler = run.manifest_string("scheduler");
  r.topology = run.manifest_string("topology");
  r.substrate = run.manifest_string("substrate");
  r.pattern = run.manifest_string("pattern");
  r.seed = run.manifest_number("seed", -1);
  r.weighted_paths = run.manifest_number("weighted_paths", 0) != 0;
  const auto shape = [&](const char* key) {
    return run.manifest_path_number(std::string("topology_params.") + key);
  };
  r.host_cap_min_bps = shape("host_cap_min_bps");
  r.host_cap_max_bps = shape("host_cap_max_bps");
  r.tor_up_cap_min_bps = shape("tor_up_cap_min_bps");
  r.tor_up_cap_max_bps = shape("tor_up_cap_max_bps");
  r.agg_up_cap_min_bps = shape("agg_up_cap_min_bps");
  r.agg_up_cap_max_bps = shape("agg_up_cap_max_bps");
  r.tor_oversub_max = shape("tor_oversub_max");
  r.agg_oversub_max = shape("agg_oversub_max");
  r.has_shape = r.host_cap_max_bps > 0 || r.tor_up_cap_max_bps > 0;
  r.trace_events = ref.trace.size();
  double last_restart = -1;
  for (const auto& e : ref.trace) {
    if (e.kind != TraceEventKind::Fault) continue;
    ++r.fault_events;
    switch (e.fault_action) {
      case obs::FaultAction::AgentCrash:
        ++r.agent_crashes;
        break;
      case obs::FaultAction::AgentRestart:
        ++r.agent_restarts;
        last_restart = e.time;
        break;
      case obs::FaultAction::HostDown:
      case obs::FaultAction::HostUp:
        ++r.host_events;
        break;
      default:
        break;
    }
  }
  if (last_restart >= 0)
    for (const auto& e : ref.trace)
      if (e.kind == TraceEventKind::DardRound && e.accepted &&
          e.time >= last_restart) {
        r.reconvergence_s = e.time - last_restart;
        break;
      }
  r.causes = audit_causes(ref.trace);
  r.convergence = analyze_convergence(ref.trace, oscillation_window);
  r.churn = summarize_churn(build_timelines(ref.trace));
  r.utilization = summarize_utilization(ref.link_samples);
  r.control = summarize_control(run);
  r.spans = audit_spans(ref.trace);
  r.goodput_bytes = run.manifest_path_number("results.goodput_bytes");
  r.control_overhead_ratio =
      run.manifest_path_number("results.control_overhead_ratio");
  r.setup_s = run.manifest_path_number("timings.setup_s");
  r.run_s = run.manifest_path_number("timings.run_s");
  r.collect_s = run.manifest_path_number("timings.collect_s");
  return r;
}

inline SpansReport build_spans_report(const Run& ref, std::size_t top_n) {
  const RunData& run = ref.meta;
  SpansReport r;
  r.source = run.source;
  r.scheduler = run.manifest_string("scheduler");
  r.substrate = run.manifest_string("substrate");
  r.audit = audit_spans(ref.trace);
  r.daemons = summarize_daemon_spans(ref.trace);
  r.chains = slowest_chains(ref.trace, top_n);
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

}  // namespace dard::scope::reference
