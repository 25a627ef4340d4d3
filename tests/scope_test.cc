// dardscope toolkit: run loading, causal-link validation, convergence and
// churn analyses, manifest round-trip, and the pinned contract that every
// FlowMove in a traced DARD fluid run resolves to a prior DardRound.
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
#include "scope/report.h"
#include "scope/run_loader.h"
#include "scope/streaming.h"
#include "scope/trace_load.h"
#include "topology/builders.h"

namespace dard::scope {
namespace {

using harness::ExperimentConfig;
using harness::run_experiment;
using harness::SchedulerKind;
using obs::TraceEvent;
using obs::TraceEventKind;
using topo::build_fat_tree;
using topo::Topology;

// Small DARD fluid run with enough load that elephants exist and the
// daemons make several moves (mirrors obs_test's traced_config).
ExperimentConfig traced_config() {
  ExperimentConfig cfg;
  cfg.workload.pattern.kind = traffic::PatternKind::Stride;
  cfg.workload.mean_interarrival = 1.0;
  cfg.workload.flow_size = 128 * kMiB;
  cfg.workload.duration = 20.0;
  cfg.workload.seed = 42;
  cfg.scheduler = SchedulerKind::Dard;
  cfg.realloc_interval = 0;
  cfg.dard.query_interval = 0.5;
  cfg.dard.schedule_base = 2.0;
  cfg.dard.schedule_jitter = 2.0;
  return cfg;
}

// Runs the experiment with a JSONL trace, parses it back through the scope
// loader, and returns (events, result).
std::vector<TraceEvent> traced_run(const ExperimentConfig& base,
                                   harness::ExperimentResult* result_out,
                                   obs::MetricsRegistry* metrics = nullptr) {
  const Topology t = build_fat_tree({.p = 4});
  std::ostringstream buf;
  obs::JsonlTraceSink sink(buf);
  obs::TraceObserver observer(sink);
  auto cfg = base;
  cfg.telemetry.observer = &observer;
  cfg.telemetry.metrics = metrics;
  *result_out = run_experiment(t, cfg);

  std::vector<TraceEvent> events;
  std::istringstream in(buf.str());
  std::string line;
  while (std::getline(in, line)) {
    TraceEvent e;
    std::string error;
    EXPECT_TRUE(parse_trace_line(line, &e, &error)) << error << "\n" << line;
    events.push_back(e);
  }
  return events;
}

// Feeds `events` to a RunData one at a time, as load_run does per line.
RunData digest(const std::vector<TraceEvent>& events, std::size_t window = 4) {
  RunData run(window);
  for (const TraceEvent& e : events) run.add_event(e);
  return run;
}

// ------------------------------------------------------- causal contract

TEST(CausalChain, EveryMoveResolvesToAPriorAcceptedRound) {
  harness::ExperimentResult result;
  const auto events = traced_run(traced_config(), &result);
  ASSERT_GT(result.reroutes, 0u) << "run must make moves to test the chain";

  const CauseAudit audit = digest(events).analysis.causes();
  EXPECT_EQ(audit.moves, result.reroutes);
  EXPECT_EQ(audit.attributed, audit.moves)
      << "every DARD move must carry a cause id";
  EXPECT_EQ(audit.resolved, audit.moves)
      << "every cause id must resolve to a PRIOR accepted DardRound";
  EXPECT_EQ(audit.dangling, 0u);
  EXPECT_TRUE(audit.clean());

  // Field-level agreement: the round a move cites must be accepted and must
  // name exactly the paths the move then took.
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind != TraceEventKind::FlowMove) continue;
    const TraceEvent& move = events[i];
    ASSERT_NE(move.cause_id, 0u);
    bool found = false;
    for (std::size_t j = 0; j < i; ++j) {
      const TraceEvent& e = events[j];
      if (e.kind != TraceEventKind::DardRound || e.cause_id != move.cause_id)
        continue;
      found = true;
      EXPECT_TRUE(e.accepted);
      EXPECT_EQ(e.path_from, move.path_from)
          << "round's worst path must be the path the flow left";
      EXPECT_EQ(e.path_to, move.path_to)
          << "round's best path must be the path the flow joined";
      EXPECT_EQ(e.time, move.time)
          << "decision and move fire in the same simulation instant";
    }
    EXPECT_TRUE(found) << "move at index " << i << " cites round "
                       << move.cause_id << " which never appears before it";
  }
}

TEST(CausalChain, RoundIdsAreUniqueAndMonotonic) {
  harness::ExperimentResult result;
  const auto events = traced_run(traced_config(), &result);
  std::uint64_t last = 0;
  for (const TraceEvent& e : events) {
    if (e.kind != TraceEventKind::DardRound) continue;
    EXPECT_GT(e.cause_id, last) << "round ids must strictly increase";
    last = e.cause_id;
  }
  EXPECT_GT(last, 0u);
}

TEST(Report, MoveCountMatchesDardCounter) {
  obs::MetricsRegistry metrics;
  harness::ExperimentResult result;
  RunData run = digest(traced_run(traced_config(), &result, &metrics));
  MetricRow row;
  row.kind = "counter";
  row.value = static_cast<double>(metrics.counter("dard.moves_accepted").value);
  run.metrics["dard.moves_accepted"] = row;

  const Report report = build_report(run);
  ASSERT_GT(report.causes.moves, 0u);
  EXPECT_EQ(static_cast<double>(report.causes.moves),
            run.metric_value("dard.moves_accepted"))
      << "dardscope's move count must agree with the dard.moves counter";
  EXPECT_EQ(report.causes.moves, result.reroutes);
  EXPECT_EQ(report.convergence.moves, report.causes.moves);

  // The renderers must run (and mention the numbers) without a manifest.
  std::ostringstream text;
  write_text(text, report);
  EXPECT_NE(text.str().find("dangling cause ids: 0"), std::string::npos);
  std::ostringstream md;
  write_markdown(md, report);
  EXPECT_NE(md.str().find("| moves | "), std::string::npos);
}

// ------------------------------------------------------------ trace load

TEST(TraceLoad, RejectsUnknownSchemaVersion) {
  TraceEvent e;
  std::string error;
  EXPECT_FALSE(parse_trace_line(
      R"({"v":1,"kind":"flow_arrive","t":0,"flow":0,"src":1,"dst":2,"size":8,"path":0})",
      &e, &error));
  EXPECT_NE(error.find("unsupported trace schema version 1"),
            std::string::npos)
      << error;

  EXPECT_FALSE(parse_trace_line(R"({"kind":"flow_arrive","t":0})", &e, &error))
      << "a line without a version field must be refused";
}

TEST(TraceLoad, RejectsUnknownKindAndMalformedJson) {
  TraceEvent e;
  std::string error;
  EXPECT_FALSE(parse_trace_line(R"({"v":2,"kind":"warp_drive","t":0})", &e,
                                &error));
  EXPECT_NE(error.find("unknown trace event kind"), std::string::npos);
  EXPECT_FALSE(parse_trace_line("{not json", &e, &error));
  EXPECT_FALSE(parse_trace_line(R"(["v",2])", &e, &error));
}

// -------------------------------------------------------------- analyses

// Synthetic move event helper.
TraceEvent move_event(double t, std::uint32_t flow, std::uint32_t from,
                      std::uint32_t to) {
  TraceEvent e;
  e.kind = TraceEventKind::FlowMove;
  e.time = t;
  e.flow = FlowId(flow);
  e.path_from = from;
  e.path_to = to;
  return e;
}

TEST(Convergence, DetectsOscillationWithinWindow) {
  // Flow 1 ping-pongs 0 -> 1 -> 0 -> 1: two returns to a recently-left
  // path. Flow 2 walks 0 -> 1 -> 2 -> 3 and never returns.
  std::vector<TraceEvent> trace = {
      move_event(1, 1, 0, 1), move_event(2, 2, 0, 1),
      move_event(3, 1, 1, 0), move_event(4, 2, 1, 2),
      move_event(5, 1, 0, 1), move_event(6, 2, 2, 3),
  };
  const Convergence c = digest(trace, /*window=*/4).analysis.convergence();
  EXPECT_EQ(c.moves, 6u);
  EXPECT_EQ(c.oscillations, 2u);
  ASSERT_EQ(c.oscillating_flows.size(), 1u);
  EXPECT_EQ(c.oscillating_flows[0], 1u);
}

TEST(Convergence, OldMovesAgeOutOfTheWindow) {
  // With window 1 only the immediately-previous path counts: A->B->A is an
  // oscillation, but A->B->C->A is not.
  std::vector<TraceEvent> pingpong = {
      move_event(1, 1, 0, 1),
      move_event(2, 1, 1, 0),
  };
  EXPECT_EQ(digest(pingpong, 1).analysis.convergence().oscillations, 1u);
  std::vector<TraceEvent> cycle = {
      move_event(1, 1, 0, 1),
      move_event(2, 1, 1, 2),
      move_event(3, 1, 2, 0),
  };
  EXPECT_EQ(digest(cycle, 1).analysis.convergence().oscillations, 0u);
  EXPECT_EQ(digest(cycle, 2).analysis.convergence().oscillations, 1u);
}

TEST(Convergence, QuiescenceCountsWorkUpToTheLastMove) {
  TraceEvent round1;
  round1.kind = TraceEventKind::DardRound;
  round1.time = 1;
  round1.accepted = true;
  round1.cause_id = 1;
  TraceEvent move = move_event(1, 7, 0, 1);
  move.cause_id = 1;
  TraceEvent round2;
  round2.kind = TraceEventKind::DardRound;
  round2.time = 5;
  round2.accepted = false;
  round2.cause_id = 2;
  TraceEvent complete;
  complete.kind = TraceEventKind::FlowComplete;
  complete.time = 9;
  complete.flow = FlowId(7);

  const Convergence c =
      digest({round1, move, round2, complete}, 4).analysis.convergence();
  EXPECT_EQ(c.evaluations, 2u);
  EXPECT_EQ(c.scheduling_instants, 2u);
  EXPECT_EQ(c.rounds_to_quiescence, 1u)
      << "only evaluations up to the last accepted move count";
  EXPECT_DOUBLE_EQ(c.last_move_time, 1.0);
  EXPECT_DOUBLE_EQ(c.quiescent_tail_s, 8.0);
}

TEST(Timelines, ReassembleLifecycleAndCauses) {
  TraceEvent arrive;
  arrive.kind = TraceEventKind::FlowArrive;
  arrive.time = 0.5;
  arrive.flow = FlowId(4);
  arrive.src_host = NodeId(1);
  arrive.dst_host = NodeId(2);
  arrive.size = 1000;
  arrive.path_to = 3;
  TraceEvent elephant;
  elephant.kind = TraceEventKind::FlowElephant;
  elephant.time = 1.5;
  elephant.flow = FlowId(4);
  TraceEvent round;
  round.kind = TraceEventKind::DardRound;
  round.time = 2.0;
  round.accepted = true;
  round.cause_id = 11;
  TraceEvent move = move_event(2.0, 4, 3, 1);
  move.cause_id = 11;
  TraceEvent complete;
  complete.kind = TraceEventKind::FlowComplete;
  complete.time = 4.0;
  complete.flow = FlowId(4);

  const RunData run = digest({arrive, elephant, round, move, complete});
  ASSERT_EQ(run.timelines.size(), 1u);
  const FlowTimeline& t = run.timelines.begin()->second;
  EXPECT_EQ(t.flow, 4u);
  EXPECT_DOUBLE_EQ(t.arrive_time, 0.5);
  EXPECT_DOUBLE_EQ(t.elephant_time, 1.5);
  EXPECT_DOUBLE_EQ(t.complete_time, 4.0);
  EXPECT_DOUBLE_EQ(t.transfer_s(), 3.5);
  EXPECT_EQ(t.first_path, 3u);
  ASSERT_EQ(t.moves.size(), 1u);
  EXPECT_EQ(t.moves[0].cause_id, 11u);
  EXPECT_EQ(t.moves[0].cause_event, 2) << "resolves to the round's index";

  // A move citing a round that never streamed by stays dangling.
  const RunData broken = digest({arrive, move, complete});
  ASSERT_EQ(broken.timelines.size(), 1u);
  EXPECT_EQ(broken.timelines.begin()->second.moves[0].cause_event, -1);
  EXPECT_EQ(broken.analysis.causes().dangling, 1u);
}

// ---------------------------------------------------- manifest round trip

TEST(Manifest, RoundTripsThroughJson) {
  harness::RunManifest m;
  m.tool = "dardsim";
  m.argv = {"--topo=fattree", "--seed=7"};
  m.topology = "fattree";
  m.hosts = 16;
  m.switches = 20;
  m.links = 96;
  m.pattern = "stride";
  m.scheduler = "DARD";
  m.substrate = "fluid";
  m.seed = 7;
  m.fault_seed = 1234;
  m.elephant_threshold_s = 1.0;
  m.timings.setup_s = 0.25;
  m.timings.run_s = 1.5;
  m.timings.collect_s = 0.125;
  m.flows = 38;
  m.avg_transfer_s = 62.5;
  m.reroutes = 17;
  m.trace_file = harness::kTraceFile;
  m.metrics_file = harness::kMetricsFile;

  std::ostringstream os;
  harness::write_manifest_json(os, m);

  std::string error;
  auto parsed = json::parse(os.str(), &error);
  ASSERT_NE(parsed, nullptr) << error;

  RunData run;
  run.manifest = std::move(parsed);
  EXPECT_EQ(run.manifest_string("scheduler"), "DARD");
  EXPECT_EQ(run.manifest_string("topology"), "fattree");
  EXPECT_EQ(run.manifest_string("substrate"), "fluid");
  EXPECT_DOUBLE_EQ(run.manifest_number("seed"), 7);
  EXPECT_DOUBLE_EQ(run.manifest_number("manifest_version"),
                   harness::kManifestVersion);
  EXPECT_DOUBLE_EQ(run.manifest_number("trace_schema_version"),
                   obs::kTraceSchemaVersion);
  EXPECT_DOUBLE_EQ(run.manifest_path_number("timings.run_s"), 1.5);
  EXPECT_DOUBLE_EQ(run.manifest_path_number("results.flows"), 38);
  EXPECT_DOUBLE_EQ(run.manifest_path_number("results.reroutes"), 17);
  EXPECT_EQ(run.manifest_string("files.trace"), harness::kTraceFile);
  EXPECT_EQ(run.manifest_string("files.metrics"), harness::kMetricsFile);
}

// -------------------------------------------------------- run dir loading

TEST(RunLoader, LoadsADirectoryAndRejectsNewerManifests) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(testing::TempDir()) / "scope_test_run";
  fs::create_directories(dir);

  {
    std::ofstream trace(dir / harness::kTraceFile);
    trace << R"({"v":2,"kind":"flow_arrive","t":0.5,"flow":0,"src":1,"dst":2,"size":64,"path":1})"
          << '\n'
          << R"({"v":2,"kind":"flow_complete","t":1.5,"flow":0,"size":64})"
          << '\n';
    std::ofstream metrics(dir / harness::kMetricsFile);
    metrics << "name,kind,count,value,mean,min,max\n"
            << "dard.moves_accepted,counter,3,3,,,\n";
    harness::RunManifest m;
    m.scheduler = "DARD";
    m.trace_file = harness::kTraceFile;
    m.metrics_file = harness::kMetricsFile;
    std::ofstream manifest(dir / harness::kManifestFile);
    harness::write_manifest_json(manifest, m);
  }

  RunData run;
  std::string error;
  ASSERT_TRUE(load_run(dir.string(), &run, &error)) << error;
  EXPECT_TRUE(run.is_directory);
  ASSERT_NE(run.manifest, nullptr);
  EXPECT_EQ(run.manifest_string("scheduler"), "DARD");
  ASSERT_EQ(run.analysis.totals().trace_events, 2u);
  // The first line decoded as the flow's arrival.
  ASSERT_EQ(run.timelines.count(0), 1u);
  EXPECT_DOUBLE_EQ(run.timelines.at(0).arrive_time, 0.5);
  EXPECT_DOUBLE_EQ(run.metric_value("dard.moves_accepted"), 3);
  EXPECT_FALSE(run.analysis.utilization().recorded)
      << "absent artifacts stay empty";

  // A manifest from a future dardsim is refused, not misread.
  {
    std::ofstream manifest(dir / harness::kManifestFile);
    manifest << "{\"manifest_version\": "
             << (harness::kManifestVersion + 1) << "}\n";
  }
  RunData newer;
  EXPECT_FALSE(load_run(dir.string(), &newer, &error));
  EXPECT_NE(error.find("newer than this dardscope"), std::string::npos)
      << error;

  fs::remove_all(dir);
}

TEST(RunLoader, LoadsABareTraceFile) {
  const std::string path = testing::TempDir() + "/scope_bare_trace.jsonl";
  {
    std::ofstream out(path);
    out << R"({"v":2,"kind":"flow_arrive","t":0,"flow":1,"src":0,"dst":4,"size":8,"path":0})"
        << '\n';
  }
  RunData run;
  std::string error;
  ASSERT_TRUE(load_run(path, &run, &error)) << error;
  EXPECT_FALSE(run.is_directory);
  EXPECT_EQ(run.manifest, nullptr);
  ASSERT_EQ(run.analysis.totals().trace_events, 1u);
  const Report report = build_report(run);
  EXPECT_EQ(report.scheduler, "") << "bare traces have no scenario line";
  EXPECT_EQ(run.timelines.size(), 1u);
  EXPECT_EQ(report.churn.flows, 1u);
  std::remove(path.c_str());
}

// ----------------------------------------------------------------- diff

TEST(Diff, ComputesDeltasAndPerFlowRegressions) {
  const auto mk_run = [](double t0, double t1) {
    RunData run;
    for (std::uint32_t f : {0u, 1u}) {
      TraceEvent arrive;
      arrive.kind = TraceEventKind::FlowArrive;
      arrive.time = 0;
      arrive.flow = FlowId(f);
      TraceEvent complete;
      complete.kind = TraceEventKind::FlowComplete;
      complete.time = f == 0 ? t0 : t1;
      complete.flow = FlowId(f);
      run.add_event(arrive);
      run.add_event(complete);
    }
    return run;
  };
  RunData a = mk_run(1.0, 2.0);
  RunData b = mk_run(1.0, 5.0);  // flow 1 regresses by 3 s

  const RunDiff d = diff_runs(a, b, /*top_n=*/10);
  EXPECT_EQ(d.matched_flows, 2u);
  EXPECT_EQ(d.regressed_flows, 1u);
  EXPECT_EQ(d.improved_flows, 0u);
  ASSERT_EQ(d.top_regressions.size(), 1u);
  EXPECT_EQ(d.top_regressions[0].flow, 1u);
  EXPECT_DOUBLE_EQ(d.top_regressions[0].delta_s(), 3.0);

  std::ostringstream text;
  write_diff_text(text, a, b, d);
  EXPECT_NE(text.str().find("regressed: 1"), std::string::npos);
  // Same populations: no appeared/disappeared section at all.
  EXPECT_EQ(d.appeared_flows, 0u);
  EXPECT_EQ(d.disappeared_flows, 0u);
  EXPECT_EQ(text.str().find("appeared"), std::string::npos);
  std::ostringstream md;
  write_diff_markdown(md, a, b, d);
  EXPECT_NE(md.str().find("1 regressed"), std::string::npos);
}

TEST(Diff, ReportsFlowsCompletedInOnlyOneRun) {
  const auto mk_run = [](std::initializer_list<std::uint32_t> flows) {
    RunData run;
    for (const std::uint32_t f : flows) {
      TraceEvent arrive;
      arrive.kind = TraceEventKind::FlowArrive;
      arrive.time = 0;
      arrive.flow = FlowId(f);
      TraceEvent complete;
      complete.kind = TraceEventKind::FlowComplete;
      complete.time = 1.0;
      complete.flow = FlowId(f);
      run.add_event(arrive);
      run.add_event(complete);
    }
    return run;
  };
  // Flows 2 and 3 finished only in A; flow 9 only in B; 0 and 1 match.
  RunData a = mk_run({0, 1, 2, 3});
  RunData b = mk_run({0, 1, 9});

  const RunDiff d = diff_runs(a, b, /*top_n=*/10);
  EXPECT_EQ(d.matched_flows, 2u);
  EXPECT_EQ(d.disappeared_flows, 2u);
  EXPECT_EQ(d.appeared_flows, 1u);
  ASSERT_EQ(d.disappeared_ids.size(), 2u);
  EXPECT_EQ(d.disappeared_ids[0], 2u);
  EXPECT_EQ(d.disappeared_ids[1], 3u);
  ASSERT_EQ(d.appeared_ids.size(), 1u);
  EXPECT_EQ(d.appeared_ids[0], 9u);

  std::ostringstream text;
  write_diff_text(text, a, b, d);
  EXPECT_NE(text.str().find("disappeared (completed in A only): 2"),
            std::string::npos)
      << text.str();
  EXPECT_NE(text.str().find("appeared (completed in B only): 1"),
            std::string::npos);
  std::ostringstream md;
  write_diff_markdown(md, a, b, d);
  EXPECT_NE(md.str().find("2 disappeared"), std::string::npos) << md.str();
  EXPECT_NE(md.str().find("1 appeared"), std::string::npos);

  // The id lists cap at top_n but the counts stay exact.
  const RunDiff capped = diff_runs(a, b, /*top_n=*/1);
  EXPECT_EQ(capped.disappeared_flows, 2u);
  EXPECT_EQ(capped.disappeared_ids.size(), 1u);
  std::ostringstream capped_text;
  write_diff_text(capped_text, a, b, capped);
  EXPECT_NE(capped_text.str().find("..."), std::string::npos);
}

}  // namespace
}  // namespace dard::scope
