// StreamingAnalyzer and `dardscope live`: the incremental analyses must
// agree with the whole-trace passes they replaced (tests/scope_reference.h)
// — field by field, at every prefix of the stream, on a fault-laden trace
// with snapshots — plus the LineTailer's partial-line buffering and the live
// driver end to end.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scope/analysis.h"
#include "scope/live.h"
#include "scope/report.h"
#include "scope/streaming.h"
#include "scope/trace_load.h"
#include "scope_reference.h"
#include "topology/builders.h"

namespace dard::scope {
namespace {

namespace fs = std::filesystem;
using harness::ExperimentConfig;
using harness::run_experiment;
using harness::SchedulerKind;
using obs::TraceEvent;
using obs::TraceEventKind;

// Fault-laden DARD fluid run with snapshots: a link flap plus a lossy
// control window, tight control intervals so elephants move, and periodic
// snapshot events in the stream.
ExperimentConfig faulty_config() {
  ExperimentConfig cfg;
  cfg.workload.pattern.kind = traffic::PatternKind::Stride;
  cfg.workload.flow_size = 32 * kMiB;
  cfg.workload.mean_interarrival = 1.0;
  cfg.workload.duration = 1.0;
  cfg.workload.seed = 7;
  cfg.scheduler = SchedulerKind::Dard;
  cfg.elephant_threshold = 0.1;
  cfg.dard.query_interval = 0.1;
  cfg.dard.schedule_base = 0.25;
  cfg.dard.schedule_jitter = 0.25;
  cfg.dard.delta = 1 * kMbps;
  cfg.faults.seed = 77;
  cfg.faults.plan.add_link_flap("agg0_0", "core0", 0.2, 1, 0.3, 0.3);
  cfg.faults.plan.add_control_window(
      faults::ControlWindow{0.1, 0.8, 0.3, 0.005, false});
  cfg.telemetry.snapshot_period = 0.25;
  return cfg;
}

std::string traced_jsonl(harness::ExperimentResult* result,
                         obs::MetricsRegistry* metrics = nullptr) {
  const topo::Topology t = topo::build_fat_tree(
      {.p = 4, .hosts_per_tor = -1, .link_capacity = 1 * kGbps,
       .link_delay = 0.0001});
  std::ostringstream buf;
  obs::JsonlTraceSink sink(buf);
  obs::TraceObserver observer(sink);
  ExperimentConfig cfg = faulty_config();
  cfg.telemetry.observer = &observer;
  cfg.telemetry.metrics = metrics;
  *result = run_experiment(t, cfg);
  return buf.str();
}

std::vector<TraceEvent> parse_all(const std::string& jsonl) {
  std::vector<TraceEvent> events;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    TraceEvent e;
    std::string error;
    EXPECT_TRUE(parse_trace_line(line, &e, &error)) << error << "\n" << line;
    events.push_back(e);
  }
  return events;
}

void expect_equal(const StreamingAnalyzer& a,
                  const std::vector<TraceEvent>& trace, std::size_t window,
                  const std::string& where) {
  const CauseAudit oc = reference::audit_causes(trace);
  const CauseAudit& sc = a.causes();
  EXPECT_EQ(sc.moves, oc.moves) << where;
  EXPECT_EQ(sc.attributed, oc.attributed) << where;
  EXPECT_EQ(sc.resolved, oc.resolved) << where;
  EXPECT_EQ(sc.dangling, oc.dangling) << where;

  const Convergence ov = reference::analyze_convergence(trace, window);
  const Convergence sv = a.convergence();
  EXPECT_EQ(sv.evaluations, ov.evaluations) << where;
  EXPECT_EQ(sv.scheduling_instants, ov.scheduling_instants) << where;
  EXPECT_EQ(sv.moves, ov.moves) << where;
  EXPECT_EQ(sv.rounds_to_quiescence, ov.rounds_to_quiescence) << where;
  EXPECT_EQ(sv.instants_to_quiescence, ov.instants_to_quiescence) << where;
  EXPECT_EQ(sv.last_move_time, ov.last_move_time) << where;
  EXPECT_EQ(sv.quiescent_tail_s, ov.quiescent_tail_s) << where;
  EXPECT_EQ(sv.oscillations, ov.oscillations) << where;
  EXPECT_EQ(sv.oscillating_flows, ov.oscillating_flows) << where;

  const ChurnSummary oh =
      reference::summarize_churn(reference::build_timelines(trace));
  const ChurnSummary sh = a.churn();
  EXPECT_EQ(sh.flows, oh.flows) << where;
  EXPECT_EQ(sh.elephants, oh.elephants) << where;
  EXPECT_EQ(sh.flows_moved, oh.flows_moved) << where;
  EXPECT_EQ(sh.total_moves, oh.total_moves) << where;
  EXPECT_EQ(sh.max_moves_per_flow, oh.max_moves_per_flow) << where;
  if (oh.max_moves_per_flow > 0) {
    EXPECT_EQ(sh.max_moves_flow, oh.max_moves_flow) << where;
  }
}

TEST(Streaming, MatchesOfflineAtEveryPrefixOfAFaultLadenTrace) {
  harness::ExperimentResult result;
  const auto events = parse_all(traced_jsonl(&result));
  ASSERT_GT(result.reroutes, 0u) << "run must move flows to be interesting";
  ASSERT_GT(result.faults_injected, 0u);

  StreamingAnalyzer a(4);
  std::vector<TraceEvent> prefix;
  const std::size_t n = events.size();
  std::size_t next_check = n / 4;
  for (std::size_t i = 0; i < n; ++i) {
    a.on_event(events[i]);
    prefix.push_back(events[i]);
    // The stream has no "end": the analyzer must agree with an offline
    // pass over the same prefix at any cut point, not just the last.
    if (i + 1 == next_check || i + 1 == n) {
      expect_equal(a, prefix, 4,
                   "prefix of " + std::to_string(i + 1) + " events");
      next_check += n / 4;
    }
  }

  const auto& t = a.totals();
  EXPECT_EQ(t.trace_events, n);
  EXPECT_GT(t.fault_events, 0u);
  EXPECT_GT(t.snapshot_events, 0u);
  EXPECT_EQ(t.flows_seen, reference::build_timelines(events).size());
  EXPECT_EQ(t.flows_seen, t.live_flows + t.completed_flows);
  ASSERT_NE(a.last_snapshot(), nullptr);
  EXPECT_GT(a.last_snapshot()->seq, 0u);
}

TEST(Streaming, UtilizationMatchesOffline) {
  std::vector<LinkSample> samples;
  const auto add = [&](double time, std::uint32_t link, double util) {
    LinkSample s;
    s.time = time;
    s.link = link;
    s.src = "tor" + std::to_string(link);
    s.dst = "agg0";
    s.utilization = util;
    samples.push_back(s);
  };
  add(0.5, 1, 0.25);
  add(0.5, 2, 0.75);
  add(1.0, 1, 0.5);
  add(1.0, 2, 0.95);

  StreamingAnalyzer a;
  for (const LinkSample& s : samples) a.on_link_sample(s);
  const UtilizationSummary offline = reference::summarize_utilization(samples);
  const UtilizationSummary live = a.utilization();
  EXPECT_EQ(live.recorded, offline.recorded);
  EXPECT_EQ(live.links, offline.links);
  EXPECT_EQ(live.samples, offline.samples);
  EXPECT_DOUBLE_EQ(live.mean_utilization, offline.mean_utilization);
  EXPECT_DOUBLE_EQ(live.peak_utilization, offline.peak_utilization);
  EXPECT_EQ(live.peak_link, offline.peak_link);
  EXPECT_EQ(live.peak_time, offline.peak_time);

  StreamingAnalyzer empty;
  EXPECT_FALSE(empty.utilization().recorded);
}

// ------------------------------------------------------------ tailer

TEST(LineTailer, BuffersPartialLinesAcrossPolls) {
  const fs::path path =
      fs::temp_directory_path() / "dard_tailer_test.jsonl";
  std::remove(path.string().c_str());

  LineTailer tail(path.string());
  std::vector<std::string> got;
  const auto sink = [&](const std::string& line) { got.push_back(line); };

  // Missing file: zero lines, no error.
  EXPECT_EQ(tail.poll(sink), 0u);

  std::ofstream out(path, std::ios::app);
  out << "alpha\nbra";  // one complete line, one partial
  out.flush();
  EXPECT_EQ(tail.poll(sink), 1u);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "alpha");

  out << "vo\ncharlie\n";  // completes "bravo", adds "charlie"
  out.flush();
  EXPECT_EQ(tail.poll(sink), 2u);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[1], "bravo");
  EXPECT_EQ(got[2], "charlie");

  out << "tail-no-newline";
  out.flush();
  EXPECT_EQ(tail.poll(sink), 0u);          // still buffered
  EXPECT_EQ(tail.poll(sink, true), 1u);    // final flush delivers it
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[3], "tail-no-newline");

  std::remove(path.string().c_str());
}

TEST(LineTailer, RestartsFromZeroAfterTruncationOrRotation) {
  const fs::path path =
      fs::temp_directory_path() / "dard_tailer_truncate_test.jsonl";
  std::remove(path.string().c_str());

  LineTailer tail(path.string());
  std::vector<std::string> got;
  const auto sink = [&](const std::string& line) { got.push_back(line); };

  {
    std::ofstream out(path);
    out << "alpha\nbravo\npart";  // buffered partial line at the cut
  }
  EXPECT_EQ(tail.poll(sink), 2u);
  EXPECT_GT(tail.offset(), 0u);

  // Truncate-and-rewrite (what a writer rotating the file in place looks
  // like): the new file is shorter than the saved offset. The tailer must
  // start over from byte 0 and must NOT stitch the dead "part" fragment
  // onto the replacement's first line.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "fresh\n";
  }
  EXPECT_EQ(tail.poll(sink), 1u);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[2], "fresh");

  // Growth after the reset tails normally.
  {
    std::ofstream out(path, std::ios::app);
    out << "more\n";
  }
  EXPECT_EQ(tail.poll(sink), 1u);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[3], "more");

  std::remove(path.string().c_str());
}

// -------------------------------------------------------- live driver

TEST(Live, OncePassOverAFinishedRunDirMatchesTheOfflineReport) {
  harness::ExperimentResult result;
  obs::MetricsRegistry metrics;
  const std::string jsonl = traced_jsonl(&result, &metrics);

  const fs::path dir = fs::temp_directory_path() / "dard_live_test_run";
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    std::ofstream trace(dir / harness::kTraceFile);
    trace << jsonl;
    std::ofstream mcsv(dir / harness::kMetricsFile);
    metrics.write_csv(mcsv);
    std::ofstream manifest(dir / harness::kManifestFile);
    manifest << "{}\n";
  }

  LiveOptions opt;
  opt.path = dir.string();
  opt.once = true;
  opt.summary_out = (dir / "live_summary.jsonl").string();
  std::ostringstream view;
  ASSERT_EQ(run_live(opt, view), 0);

  // The final streaming state IS the offline report (acceptance pin).
  const auto events = parse_all(jsonl);
  StreamingAnalyzer expected(opt.window);
  for (const TraceEvent& e : events) expected.on_event(e);
  expect_equal(expected, events, opt.window, "live once-pass");

  const std::string status = view.str();
  EXPECT_NE(status.find("[finished]"), std::string::npos) << status;
  EXPECT_NE(status.find("convergence:"), std::string::npos);
  EXPECT_NE(status.find("snapshot #"), std::string::npos)
      << "snapshot events must surface in the live view";
  EXPECT_NE(status.find("control:"), std::string::npos)
      << "metrics.csv must fold into the final view";

  // The machine-readable summary ends on a finished line whose counts
  // agree with the offline analyses.
  std::ifstream summary(opt.summary_out);
  std::string line;
  std::string last;
  while (std::getline(summary, line))
    if (!line.empty()) last = line;
  const Convergence conv = reference::analyze_convergence(events, opt.window);
  EXPECT_NE(last.find("\"finished\":true"), std::string::npos) << last;
  EXPECT_NE(last.find("\"moves\":" + std::to_string(conv.moves)),
            std::string::npos)
      << last;
  EXPECT_NE(
      last.find("\"events\":" + std::to_string(events.size())),
      std::string::npos)
      << last;

  fs::remove_all(dir);
}

TEST(Live, OnceWithoutATraceFailsCleanly) {
  LiveOptions opt;
  opt.path = (fs::temp_directory_path() / "dard_live_no_such_run").string();
  opt.once = true;
  std::ostringstream view;
  EXPECT_EQ(run_live(opt, view), 2);
}

}  // namespace
}  // namespace dard::scope
