#include "scope/analysis.h"

#include <algorithm>

#include "scope/run_loader.h"

namespace dard::scope {

double AgentChurn::reconvergence_s() const {
  if (last_restart < 0) return -1;
  const auto it =
      std::lower_bound(round_records.begin(), round_records.end(),
                       last_restart);
  return it == round_records.end() ? -1 : *it - last_restart;
}

ControlOverhead summarize_control(const RunData& run) {
  ControlOverhead c;
  if (run.metrics.empty()) return c;
  c.recorded = run.metrics.count("dard.control_msgs") > 0;
  c.control_msgs = run.metric_value("dard.control_msgs");
  c.monitor_queries = run.metric_value("dard.monitor_queries");
  c.query_timeouts = run.metric_value("dard.query_timeouts");
  c.query_retries = run.metric_value("dard.query_retries");
  c.moves_proposed = run.metric_value("dard.moves_proposed");
  c.moves_accepted = run.metric_value("dard.moves_accepted");
  c.moves_rejected = run.metric_value("dard.moves_rejected");
  c.delta_rejections = run.metric_value("dard.delta_rejections");
  c.fallback_rounds = run.metric_value("dard.fallback_rounds");
  return c;
}

RunDiff diff_runs(const RunData& a, const RunData& b, std::size_t top_n) {
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
    // Counts can agree while capacities differ (a speed-skewed fat-tree has
    // the same cabling as the uniform one); compare every shape field too.
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
    add("flows", a.manifest_path_number("results.flows"),
        b.manifest_path_number("results.flows"));
    add("avg_transfer_s", a.manifest_path_number("results.avg_transfer_s"),
        b.manifest_path_number("results.avg_transfer_s"));
    add("p50_transfer_s", a.manifest_path_number("results.p50_transfer_s"),
        b.manifest_path_number("results.p50_transfer_s"));
    add("p99_transfer_s", a.manifest_path_number("results.p99_transfer_s"),
        b.manifest_path_number("results.p99_transfer_s"));
    add("reroutes", a.manifest_path_number("results.reroutes"),
        b.manifest_path_number("results.reroutes"));
    add("control_bytes", a.manifest_path_number("results.control_bytes"),
        b.manifest_path_number("results.control_bytes"));
    add("peak_elephants", a.manifest_path_number("results.peak_elephants"),
        b.manifest_path_number("results.peak_elephants"));
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

  // Per-flow completion-time comparison, matched by flow id. Flows that
  // completed in only one run cannot be compared, but silently skipping
  // them hides population changes — report them as appeared/disappeared.
  const auto completed = [](const RunData& run, std::uint32_t flow) {
    const auto it = run.timelines.find(flow);
    return it != run.timelines.end() && it->second.transfer_s() >= 0
               ? &it->second
               : nullptr;
  };
  std::vector<FlowRegression> regressions;
  for (const auto& [flow, t] : b.timelines) {
    if (t.transfer_s() < 0) continue;
    const FlowTimeline* in_a = completed(a, flow);
    if (in_a == nullptr) {
      ++d.appeared_flows;
      if (d.appeared_ids.size() < top_n) d.appeared_ids.push_back(flow);
      continue;
    }
    ++d.matched_flows;
    FlowRegression r;
    r.flow = flow;
    r.a_transfer_s = in_a->transfer_s();
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
  for (const auto& [flow, t] : a.timelines) {
    if (t.transfer_s() < 0 || completed(b, flow) != nullptr) continue;
    ++d.disappeared_flows;
    if (d.disappeared_ids.size() < top_n) d.disappeared_ids.push_back(flow);
  }
  return d;
}

}  // namespace dard::scope
