// The streamed digest equals the former whole-trace analysis: load_run's
// RunData (and a RunData fed event by event) must render byte-for-byte the
// same `report`, `flow`, `spans` and `diff` text and markdown as the
// vector-based passes kept in tests/scope_reference.h, for every
// oscillation window and table cap dardscope offers.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "fabric/wire.h"
#include "harness/experiment.h"
#include "harness/manifest.h"
#include "obs/metrics.h"
#include "obs/spans.h"
#include "obs/trace.h"
#include "scope/report.h"
#include "scope/run_loader.h"
#include "scope_reference.h"
#include "topology/builders.h"

namespace dard::scope {
namespace {

namespace fs = std::filesystem;
using harness::ExperimentConfig;
using harness::SchedulerKind;
using harness::Substrate;
using obs::FaultAction;
using obs::SpanKind;
using obs::TraceEvent;
using obs::TraceEventKind;

constexpr std::size_t kWindows[] = {1, 2, 4, 8};
constexpr std::size_t kTops[] = {0, 1, 10};

topo::Topology testbed() {
  return topo::build_fat_tree(
      {.p = 4, .hosts_per_tor = -1, .link_capacity = 1 * kGbps,
       .link_delay = 0.0001});
}

// Second-scale stride workload with tight control intervals, so elephants
// exist, daemons query and flows move (the shape spans_test pins).
ExperimentConfig stride_config(Substrate substrate, SchedulerKind scheduler) {
  ExperimentConfig cfg;
  cfg.substrate = substrate;
  cfg.scheduler = scheduler;
  cfg.workload.pattern.kind = traffic::PatternKind::Stride;
  cfg.workload.flow_size = 32 * kMiB;
  cfg.workload.mean_interarrival = 1.0;
  cfg.workload.duration = 1.0;
  cfg.workload.seed = 7;
  cfg.elephant_threshold = 0.1;
  cfg.dard.query_interval = 0.1;
  cfg.dard.schedule_base = 0.25;
  cfg.dard.schedule_jitter = 0.25;
  cfg.dard.delta = 1 * kMbps;
  cfg.hedera.interval = 0.25;
  return cfg;
}

// The fluid DARD run with everything a trace can carry: a link flap, a
// lossy control window, a daemon crash and restart, a host down and up,
// snapshots and spans.
ExperimentConfig faulty_config() {
  ExperimentConfig cfg = stride_config(Substrate::Fluid, SchedulerKind::Dard);
  cfg.faults.seed = 77;
  cfg.faults.plan.add_link_flap("agg0_0", "core0", 0.2, 1, 0.3, 0.3);
  cfg.faults.plan.add_control_window(
      faults::ControlWindow{0.1, 0.8, 0.3, 0.005, false});
  cfg.faults.plan.crash_daemon(0.3, "host0_0", 0.2);
  cfg.faults.plan.fail_host(0.4, "host2_0");
  cfg.faults.plan.revive_host(0.6, "host2_0");
  cfg.telemetry.snapshot_period = 0.25;
  return cfg;
}

// Runs `cfg` and writes what `dardsim --run-dir --spans` writes.
std::string write_run_dir(const std::string& name, ExperimentConfig cfg) {
  const fs::path dir =
      fs::path(testing::TempDir()) / ("scope_reference_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  const topo::Topology t = testbed();
  obs::MetricsRegistry metrics;
  std::ofstream trace(dir / harness::kTraceFile);
  obs::JsonlTraceSink sink(trace);
  obs::TraceObserver observer(sink);
  obs::SpanRecorder spans(&observer, &t, fabric::kDardQueryBytes,
                          fabric::kDardReplyBytes);
  cfg.telemetry.observer = &observer;
  cfg.telemetry.metrics = &metrics;
  cfg.telemetry.spans = &spans;
  cfg.telemetry.sample_period = 0.25;
  const harness::ExperimentResult result = harness::run_experiment(t, cfg);
  sink.flush();
  trace.flush();

  const auto write = [&](const char* file,
                         const std::function<void(std::ostream&)>& body) {
    std::ofstream out(dir / file);
    body(out);
  };
  write(harness::kMetricsFile, [&](std::ostream& os) { metrics.write_csv(os); });
  if (result.series != nullptr) {  // the packet substrate samples nothing
    write(harness::kLinkSamplesFile,
          [&](std::ostream& os) { result.series->write_link_csv(os); });
    write(harness::kAggSamplesFile,
          [&](std::ostream& os) { result.series->write_aggregate_csv(os); });
  }
  write(harness::kControlBytesFile,
        [&](std::ostream& os) { spans.write_link_csv(os); });
  harness::RunManifest m = harness::build_manifest(t, cfg, result);
  m.topology = "fattree";
  m.pattern = "stride";
  m.trace_file = harness::kTraceFile;
  m.metrics_file = harness::kMetricsFile;
  if (result.series != nullptr) {
    m.link_samples_file = harness::kLinkSamplesFile;
    m.agg_samples_file = harness::kAggSamplesFile;
  }
  m.control_bytes_file = harness::kControlBytesFile;
  write(harness::kManifestFile,
        [&](std::ostream& os) { harness::write_manifest_json(os, m); });
  return dir.string();
}

// ------------------------------------------------ hand-built sequences

TraceEvent flow_event(TraceEventKind kind, double t, std::uint32_t flow) {
  TraceEvent e;
  e.kind = kind;
  e.time = t;
  e.flow = FlowId(flow);
  return e;
}

TraceEvent arrive(double t, std::uint32_t flow, std::uint32_t path) {
  TraceEvent e = flow_event(TraceEventKind::FlowArrive, t, flow);
  e.src_host = NodeId(flow);
  e.dst_host = NodeId(flow + 8);
  e.size = 64 * kMiB;
  e.path_to = path;
  return e;
}

TraceEvent move(double t, std::uint32_t flow, std::uint32_t from,
                std::uint32_t to, std::uint64_t cause) {
  TraceEvent e = flow_event(TraceEventKind::FlowMove, t, flow);
  e.path_from = from;
  e.path_to = to;
  e.gain = 1e8 * (to + 1);
  e.cause_id = cause;
  return e;
}

TraceEvent round(double t, std::uint32_t host, std::uint64_t id,
                 bool accepted) {
  TraceEvent e;
  e.kind = TraceEventKind::DardRound;
  e.time = t;
  e.src_host = NodeId(host);
  e.accepted = accepted;
  e.cause_id = id;
  return e;
}

TraceEvent span(double t, SpanKind kind, std::uint64_t id,
                std::uint64_t parent, std::uint32_t host, double duration) {
  TraceEvent e;
  e.kind = TraceEventKind::Span;
  e.time = t;
  e.span_kind = kind;
  e.cause_id = id;
  e.parent_id = parent;
  e.src_host = NodeId(host);
  e.span_attempts = 2;
  e.span_timeouts = 1;
  e.span_lost = kind == SpanKind::Query ? 1 : 0;
  e.span_bytes = kind == SpanKind::Refresh ? 208 : 0;
  e.span_duration = duration;
  return e;
}

TraceEvent fault(double t, FaultAction action, std::uint64_t id) {
  TraceEvent e;
  e.kind = TraceEventKind::Fault;
  e.time = t;
  e.fault_action = action;
  e.cause_id = id;
  return e;
}

LinkSample sample(double t, std::uint32_t link, double utilization) {
  LinkSample s;
  s.time = t;
  s.link = link;
  s.src = "tor" + std::to_string(link);
  s.dst = "agg" + std::to_string(link % 2);
  s.capacity_bps = 1e9;
  s.used_bps = utilization * 1e9;
  s.utilization = utilization;
  return s;
}

// Times out of order; a move citing a later round, and one citing a span
// id; a duplicated accepted round id; flows first seen at a move or only
// at their completion; accepted rounds at the last restart's time on both
// sides of it, and an earlier restart at a later time; a round id past
// every other (the id bitmap's fallback).
std::vector<TraceEvent> hand_built_a() {
  using K = TraceEventKind;
  TraceEvent move_span = span(3, SpanKind::Move, 6, 2, 5, 0.5);
  move_span.flow = FlowId(1);
  return {
      fault(0.5, FaultAction::AgentCrash, 1),
      fault(9, FaultAction::AgentRestart, 40),
      arrive(1, 1, 0),
      arrive(1, 2, 0),
      flow_event(K::FlowElephant, 2, 1),
      round(3, 5, 2, true),
      span(3, SpanKind::Refresh, 3, 0, 5, 0.25),
      span(3, SpanKind::Query, 4, 3, 5, 0.125),
      span(3, SpanKind::Decision, 5, 3, 5, 0.5),
      move(3, 1, 0, 1, 2),
      move_span,
      move(2.5, 2, 0, 1, 9),  // cites a round that comes later
      move(3.5, 1, 1, 0, 5),  // cites a span id
      round(4, 6, 8, true),
      fault(4, FaultAction::AgentRestart, 7),
      round(4, 7, 9, true),
      round(1.5, 5, 10, false),
      round(3, 6, 2, true),  // a duplicate id
      move(3, 3, 2, 3, 2),
      span(3, SpanKind::Query, 11, 99, 6, 0.25),  // dangling parent
      move(5, 2, 1, 2, 0),
      move(6, 2, 2, 0, 0),
      flow_event(K::FlowComplete, 5, 1),
      flow_event(K::FlowComplete, 5.5, 4),
      fault(6, FaultAction::HostDown, 12),
      fault(6.5, FaultAction::HostUp, 13),
      flow_event(K::FlowComplete, 7, 2),
      round(8, 5, 1ULL << 40, true),
      move(8, 3, 3, 2, 1ULL << 40),
  };
}

// For diffs against hand_built_a: flow 1 slower, flow 2 faster, flow 4
// gone, flows 5 and 6 new.
std::vector<TraceEvent> hand_built_b() {
  using K = TraceEventKind;
  return {
      arrive(1, 1, 0),
      arrive(1, 2, 0),
      arrive(1.5, 5, 1),
      flow_event(K::FlowComplete, 6, 1),
      flow_event(K::FlowComplete, 3, 2),
      flow_event(K::FlowComplete, 4, 5),
      flow_event(K::FlowComplete, 4.5, 6),
  };
}

std::vector<LinkSample> hand_built_samples() {
  return {sample(1, 3, 0.5), sample(0.5, 1, 0.9), sample(2, 3, 0.9),
          sample(1.5, 2, 0.25)};
}

// ---------------------------------------------------------- rendering

template <class Write, class R>
std::string render(Write write, const R& r) {
  std::ostringstream os;
  write(os, r);
  return os.str();
}

std::string diff_text(const RunData& a, const RunData& b, const RunDiff& d,
                      bool markdown) {
  std::ostringstream os;
  if (markdown)
    write_diff_markdown(os, a, b, d);
  else
    write_diff_text(os, a, b, d);
  return os.str();
}

// One input at one window: the streamed run against the reference run.
void expect_same_reports(const RunData& run, const reference::Run& ref,
                         std::size_t window, const std::string& where) {
  const Report got = build_report(run);
  const Report want = reference::build_report(ref, window);
  EXPECT_EQ(render(write_text, got), render(write_text, want)) << where;
  EXPECT_EQ(render(write_markdown, got), render(write_markdown, want))
      << where;

  for (const std::size_t top : kTops) {
    const SpansReport got_spans = build_spans_report(run, top);
    const SpansReport want_spans = reference::build_spans_report(ref, top);
    EXPECT_EQ(render(write_spans_text, got_spans),
              render(write_spans_text, want_spans))
        << where << " top " << top;
    EXPECT_EQ(render(write_spans_markdown, got_spans),
              render(write_spans_markdown, want_spans))
        << where << " top " << top;
  }

  const std::vector<FlowTimeline> flows = reference::build_timelines(ref.trace);
  ASSERT_EQ(run.timelines.size(), flows.size()) << where;
  for (const FlowTimeline& t : flows) {
    const auto it = run.timelines.find(t.flow);
    ASSERT_NE(it, run.timelines.end()) << where << " flow " << t.flow;
    EXPECT_EQ(render(write_flow_text, it->second), render(write_flow_text, t))
        << where << " flow " << t.flow;
  }
}

void expect_same_diffs(const RunData& a, const RunData& b,
                       const reference::Run& ref_a,
                       const reference::Run& ref_b, const std::string& where) {
  for (const std::size_t top : kTops) {
    const RunDiff got = diff_runs(a, b, top);
    const RunDiff want = reference::diff_runs(ref_a, ref_b, top);
    for (const bool markdown : {false, true})
      EXPECT_EQ(diff_text(a, b, got, markdown),
                diff_text(ref_a.meta, ref_b.meta, want, markdown))
          << where << " top " << top << (markdown ? " (markdown)" : "");
  }
}

RunData loaded(const std::string& path, std::size_t window) {
  RunData run(window);
  std::string error;
  EXPECT_TRUE(load_run(path, &run, &error)) << error;
  return run;
}

reference::Run reference_loaded(const std::string& path) {
  reference::Run ref;
  std::string error;
  EXPECT_TRUE(reference::load_run(path, &ref, &error)) << error;
  return ref;
}

RunData fed(const std::vector<TraceEvent>& events,
            const std::vector<LinkSample>& samples, std::size_t window) {
  RunData run(window);
  run.source = "hand-built";
  for (const TraceEvent& e : events) run.add_event(e);
  for (const LinkSample& s : samples) run.analysis.on_link_sample(s);
  return run;
}

reference::Run reference_fed(const std::vector<TraceEvent>& events,
                             const std::vector<LinkSample>& samples) {
  reference::Run ref;
  ref.meta.source = "hand-built";
  ref.trace = events;
  ref.link_samples = samples;
  return ref;
}

// ----------------------------------------------------------------- tests

TEST(ScopeReference, SimulatedRunDirsMatchTheWholeTracePasses) {
  const std::vector<std::pair<std::string, std::string>> dirs = {
      {"fluid-dard", write_run_dir("fluid_dard", faulty_config())},
      {"packet-dard",
       write_run_dir("packet_dard",
                     stride_config(Substrate::Packet, SchedulerKind::Dard))},
      {"fluid-hedera",
       write_run_dir("fluid_hedera",
                     stride_config(Substrate::Fluid, SchedulerKind::Hedera))},
  };
  std::vector<reference::Run> refs;
  for (const auto& [name, path] : dirs) refs.push_back(reference_loaded(path));

  // The inputs carry what the reports cover.
  const RunData fluid = loaded(dirs[0].second, 4);
  EXPECT_GT(fluid.analysis.causes().moves, 0u);
  EXPECT_GT(fluid.analysis.spans().spans, 0u);
  EXPECT_GT(fluid.analysis.totals().snapshot_events, 0u);
  EXPECT_GT(fluid.agents.restarts, 0u);
  EXPECT_GT(fluid.agents.host_events, 0u);
  EXPECT_TRUE(fluid.analysis.utilization().recorded);
  EXPECT_GT(loaded(dirs[1].second, 4).analysis.causes().moves, 0u);
  EXPECT_GT(loaded(dirs[2].second, 4).analysis.causes().moves, 0u);

  for (const std::size_t window : kWindows) {
    std::vector<RunData> runs;
    for (std::size_t i = 0; i < dirs.size(); ++i) {
      runs.push_back(loaded(dirs[i].second, window));
      expect_same_reports(runs.back(), refs[i], window,
                          dirs[i].first + " window " + std::to_string(window));
    }
    if (window != 4) continue;  // the diff does not read the window
    for (std::size_t i = 0; i < dirs.size(); ++i)
      for (std::size_t j = 0; j < dirs.size(); ++j)
        expect_same_diffs(runs[i], runs[j], refs[i], refs[j],
                          dirs[i].first + " vs " + dirs[j].first);
  }
  for (const auto& [name, path] : dirs) fs::remove_all(path);
}

TEST(ScopeReference, HandBuiltSequencesMatchTheWholeTracePasses) {
  const std::vector<TraceEvent> a = hand_built_a();
  const std::vector<TraceEvent> b = hand_built_b();
  const std::vector<LinkSample> samples = hand_built_samples();
  const reference::Run ref_a = reference_fed(a, samples);
  const reference::Run ref_b = reference_fed(b, {});

  for (const std::size_t window : kWindows) {
    const RunData run_a = fed(a, samples, window);
    const RunData run_b = fed(b, {}, window);
    const std::string where = "window " + std::to_string(window);
    expect_same_reports(run_a, ref_a, window, "sequence a, " + where);
    expect_same_reports(run_b, ref_b, window, "sequence b, " + where);
    expect_same_diffs(run_a, run_b, ref_a, ref_b, "a vs b, " + where);
    expect_same_diffs(run_b, run_a, ref_b, ref_a, "b vs a, " + where);
  }

  // The cases the sequence is built to show, read off the streamed run.
  const RunData run = fed(a, samples, 2);
  const Report r = build_report(run);
  EXPECT_EQ(r.causes.dangling, 2u) << "a later round and a span id";
  EXPECT_EQ(r.spans.dangling, 1u);
  EXPECT_EQ(r.convergence.scheduling_instants, 4u) << "3, 4, 1.5 and 8";
  EXPECT_EQ(r.churn.flows, 4u);
  EXPECT_DOUBLE_EQ(r.reconvergence_s, 0.0)
      << "the accepted round at the restart's time, before it in the trace";
  EXPECT_EQ(run.timelines.at(3).moves[0].cause_event, 17)
      << "the duplicate id resolves to its latest round";
  EXPECT_EQ(run.timelines.at(3).moves[1].cause_event, 27);
  EXPECT_EQ(r.convergence.oscillations, 3u);
}

}  // namespace
}  // namespace dard::scope
