// Telemetry subsystem: metrics registry, trace sinks, time-series samplers,
// and the end-to-end guarantees the observability layer makes — causally
// consistent per-flow traces, capacity-bounded utilization samples, and
// bit-identical experiment results when everything is disabled.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/samplers.h"
#include "obs/trace.h"
#include "scope/trace_load.h"
#include "topology/builders.h"

namespace dard::obs {
namespace {

using harness::ExperimentConfig;
using harness::run_experiment;
using harness::SchedulerKind;
using topo::build_fat_tree;
using topo::Topology;

// ---------------------------------------------------------------- metrics

TEST(Metrics, CounterAccumulates) {
  MetricsRegistry m;
  Counter& c = m.counter("a.b");
  c.add();
  c.add(4);
  EXPECT_EQ(m.counter("a.b").value, 5u);
  EXPECT_EQ(&m.counter("a.b"), &c) << "handles must be stable";
}

TEST(Metrics, GaugeTracksPeak) {
  MetricsRegistry m;
  Gauge& g = m.gauge("depth");
  g.set(3);
  g.set(10);
  g.set(2);
  EXPECT_DOUBLE_EQ(g.value, 2.0);
  EXPECT_DOUBLE_EQ(g.peak, 10.0);
}

TEST(Metrics, CsvListsEveryMetric) {
  MetricsRegistry m;
  m.counter("c").add(7);
  m.gauge("g").set(1.5);
  std::ostringstream os;
  m.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("name,kind,count,value,mean,min,max"), std::string::npos);
  EXPECT_NE(csv.find("c,counter,7,7"), std::string::npos);
  EXPECT_NE(csv.find("g,gauge,,1.5"), std::string::npos);
}

TEST(Metrics, SummaryIsOneLine) {
  MetricsRegistry m;
  m.counter("moves").add(3);
  m.gauge("depth").set(9);
  const std::string s = m.summary();
  EXPECT_EQ(s.find('\n'), std::string::npos);
  EXPECT_NE(s.find("moves=3"), std::string::npos);
  EXPECT_NE(s.find("depth=9"), std::string::npos);
}

// ------------------------------------------------------------ trace sinks

TraceEvent event_at(Seconds t) {
  TraceEvent e;
  e.kind = TraceEventKind::FlowArrive;
  e.time = t;
  e.flow = FlowId(static_cast<FlowId::value_type>(t));
  return e;
}

TEST(Trace, RingBufferKeepsMostRecentOldestFirst) {
  RingBufferTraceSink sink(4);
  for (int i = 0; i < 10; ++i) sink.write(event_at(i));
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.dropped(), 6u);
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(events[i].time, 6.0 + i);
}

TEST(Trace, RingBufferBelowCapacityIsInOrder) {
  RingBufferTraceSink sink(8);
  for (int i = 0; i < 3; ++i) sink.write(event_at(i));
  EXPECT_EQ(sink.size(), 3u);
  EXPECT_EQ(sink.dropped(), 0u);
  const auto events = sink.events();
  for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(events[i].time, i);
}

TEST(Trace, JsonlWritesOneObjectPerLine) {
  std::ostringstream os;
  JsonlTraceSink sink(os);
  sink.write(event_at(1));
  sink.write(event_at(2));
  EXPECT_EQ(sink.written(), 2u);
  std::istringstream is(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    ++lines;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"kind\":"), std::string::npos);
    EXPECT_NE(line.find("\"t\":"), std::string::npos);
  }
  EXPECT_EQ(lines, 2u);
}

TEST(Trace, JsonSchemasCarryKindSpecificFields) {
  TraceEvent move;
  move.kind = TraceEventKind::FlowMove;
  move.flow = FlowId(3);
  move.path_from = 1;
  move.path_to = 2;
  move.bonf_from = 1e8;
  move.bonf_to = 5e8;
  move.gain = 4e8;
  const std::string mj = to_json(move);
  EXPECT_NE(mj.find("\"kind\":\"flow_move\""), std::string::npos);
  EXPECT_NE(mj.find("\"from\":1"), std::string::npos);
  EXPECT_NE(mj.find("\"to\":2"), std::string::npos);
  EXPECT_NE(mj.find("\"bonf_delta\":4e+08"), std::string::npos);

  TraceEvent round;
  round.kind = TraceEventKind::DardRound;
  round.src_host = NodeId(7);
  round.dst_host = NodeId(9);
  round.bonf_from = 1e8;
  round.bonf_to = 1e9;
  round.delta_threshold = 1e7;
  round.accepted = true;
  const std::string rj = to_json(round);
  EXPECT_NE(rj.find("\"kind\":\"dard_round\""), std::string::npos);
  EXPECT_NE(rj.find("\"host\":7"), std::string::npos);
  EXPECT_NE(rj.find("\"worst_bonf\":1e+08"), std::string::npos);
  EXPECT_NE(rj.find("\"best_bonf\":1e+09"), std::string::npos);
  EXPECT_NE(rj.find("\"accepted\":true"), std::string::npos);
}

TEST(Trace, KindNamesAreStable) {
  EXPECT_STREQ(to_string(TraceEventKind::FlowArrive), "flow_arrive");
  EXPECT_STREQ(to_string(TraceEventKind::FlowElephant), "flow_elephant");
  EXPECT_STREQ(to_string(TraceEventKind::FlowMove), "flow_move");
  EXPECT_STREQ(to_string(TraceEventKind::FlowComplete), "flow_complete");
  EXPECT_STREQ(to_string(TraceEventKind::DardRound), "dard_round");
  EXPECT_STREQ(to_string(TraceEventKind::Fault), "fault");
  EXPECT_STREQ(to_string(TraceEventKind::Snapshot), "snapshot");
}

// One fully-populated event of each kind; the serializer only emits the
// fields relevant to the kind, so the expectations below are per-kind.
std::vector<TraceEvent> one_event_per_kind() {
  TraceEvent arrive;
  arrive.kind = TraceEventKind::FlowArrive;
  arrive.time = 0.25;
  arrive.flow = FlowId(3);
  arrive.src_host = NodeId(8);
  arrive.dst_host = NodeId(19);
  arrive.size = 1u << 30;
  arrive.path_to = 2;

  TraceEvent elephant;
  elephant.kind = TraceEventKind::FlowElephant;
  elephant.time = 1.25;
  elephant.flow = FlowId(3);
  elephant.path_to = 2;

  TraceEvent move;
  move.kind = TraceEventKind::FlowMove;
  move.time = 6.5;
  move.flow = FlowId(3);
  move.path_from = 2;
  move.path_to = 0;
  move.bonf_from = 1.25e8;
  move.bonf_to = 5e8;
  move.gain = 3.75e8;
  move.cause_id = 17;

  TraceEvent complete;
  complete.kind = TraceEventKind::FlowComplete;
  complete.time = 12.0;
  complete.flow = FlowId(3);
  complete.size = 1u << 30;

  TraceEvent round;
  round.kind = TraceEventKind::DardRound;
  round.time = 6.5;
  round.src_host = NodeId(8);
  round.dst_host = NodeId(30);
  round.path_from = 2;
  round.path_to = 0;
  round.bonf_from = 1.25e8;
  round.bonf_to = 5e8;
  round.gain = 1.875e8;
  round.delta_threshold = 1e7;
  round.accepted = true;
  round.cause_id = 17;

  TraceEvent fault;
  fault.kind = TraceEventKind::Fault;
  fault.time = 4.0;
  fault.src_host = NodeId(20);
  fault.dst_host = NodeId(24);
  fault.fault_action = FaultAction::CableDown;
  fault.cause_id = 9;

  TraceEvent snapshot;
  snapshot.kind = TraceEventKind::Snapshot;
  snapshot.time = 5.0;
  {
    auto stats = std::make_shared<obs::SnapshotStats>();
    stats->seq = 7;
    stats->active_flows = 12;
    stats->active_elephants = 3;
    stats->event_queue_depth = 40;
    stats->throughput_bps = 2.5e9;
    stats->max_utilization = 0.875;
    stats->rss_bytes = 1.5e7;
    stats->path_store_bytes = 4096;
    stats->counters.emplace_back("dard.moves_accepted", 5.0);
    stats->counters.emplace_back("flowsim.reallocations", 220.0);
    obs::ProfileSummary p;
    p.section = "maxmin_realloc";
    p.count = 220;
    // Values exactly representable at the writer's 6 significant digits,
    // so the round trip is bit-exact.
    p.total_s = 0.0125;
    p.mean_s = 5.75e-5;
    p.p50_s = 4.5e-5;
    p.p95_s = 9e-5;
    p.p99_s = 1.25e-4;
    p.max_s = 3e-4;
    stats->profile.push_back(p);
    snapshot.snapshot = std::move(stats);
  }

  return {arrive, elephant, move, complete, round, fault, snapshot};
}

TEST(Trace, JsonRoundTripsEveryKind) {
  // Serialize one event of every kind and parse it back through the
  // dardscope loader: every field the serializer emits must survive, and
  // every line must carry the schema version.
  for (const TraceEvent& e : one_event_per_kind()) {
    const std::string line = to_json(e);
    SCOPED_TRACE(line);
    EXPECT_NE(line.find("\"v\":" + std::to_string(kTraceSchemaVersion)),
              std::string::npos);

    TraceEvent back;
    std::string error;
    ASSERT_TRUE(scope::parse_trace_line(line, &back, &error)) << error;
    EXPECT_EQ(back.kind, e.kind);
    EXPECT_DOUBLE_EQ(back.time, e.time);
    EXPECT_EQ(back.cause_id, e.cause_id);
    switch (e.kind) {
      case TraceEventKind::FlowArrive:
        EXPECT_EQ(back.flow, e.flow);
        EXPECT_EQ(back.src_host, e.src_host);
        EXPECT_EQ(back.dst_host, e.dst_host);
        EXPECT_EQ(back.size, e.size);
        EXPECT_EQ(back.path_to, e.path_to);
        break;
      case TraceEventKind::FlowElephant:
        EXPECT_EQ(back.flow, e.flow);
        EXPECT_EQ(back.path_to, e.path_to);
        break;
      case TraceEventKind::FlowMove:
        EXPECT_EQ(back.flow, e.flow);
        EXPECT_EQ(back.path_from, e.path_from);
        EXPECT_EQ(back.path_to, e.path_to);
        EXPECT_DOUBLE_EQ(back.bonf_from, e.bonf_from);
        EXPECT_DOUBLE_EQ(back.bonf_to, e.bonf_to);
        EXPECT_DOUBLE_EQ(back.gain, e.gain);
        break;
      case TraceEventKind::FlowComplete:
        EXPECT_EQ(back.flow, e.flow);
        EXPECT_EQ(back.size, e.size);
        break;
      case TraceEventKind::DardRound:
        EXPECT_EQ(back.src_host, e.src_host);
        EXPECT_EQ(back.dst_host, e.dst_host);
        EXPECT_EQ(back.path_from, e.path_from);
        EXPECT_EQ(back.path_to, e.path_to);
        EXPECT_DOUBLE_EQ(back.bonf_from, e.bonf_from);
        EXPECT_DOUBLE_EQ(back.bonf_to, e.bonf_to);
        EXPECT_DOUBLE_EQ(back.gain, e.gain);
        EXPECT_DOUBLE_EQ(back.delta_threshold, e.delta_threshold);
        EXPECT_EQ(back.accepted, e.accepted);
        break;
      case TraceEventKind::Fault:
        EXPECT_EQ(back.fault_action, e.fault_action);
        EXPECT_EQ(back.src_host, e.src_host);
        EXPECT_EQ(back.dst_host, e.dst_host);
        break;
      case TraceEventKind::Snapshot: {
        ASSERT_NE(back.snapshot, nullptr);
        const obs::SnapshotStats& a = *e.snapshot;
        const obs::SnapshotStats& b = *back.snapshot;
        EXPECT_EQ(b.seq, a.seq);
        EXPECT_EQ(b.active_flows, a.active_flows);
        EXPECT_EQ(b.active_elephants, a.active_elephants);
        EXPECT_EQ(b.event_queue_depth, a.event_queue_depth);
        EXPECT_DOUBLE_EQ(b.throughput_bps, a.throughput_bps);
        EXPECT_DOUBLE_EQ(b.max_utilization, a.max_utilization);
        EXPECT_DOUBLE_EQ(b.rss_bytes, a.rss_bytes);
        EXPECT_DOUBLE_EQ(b.path_store_bytes, a.path_store_bytes);
        ASSERT_EQ(b.counters.size(), a.counters.size());
        for (std::size_t i = 0; i < a.counters.size(); ++i) {
          EXPECT_EQ(b.counters[i].first, a.counters[i].first);
          EXPECT_DOUBLE_EQ(b.counters[i].second, a.counters[i].second);
        }
        ASSERT_EQ(b.profile.size(), a.profile.size());
        for (std::size_t i = 0; i < a.profile.size(); ++i) {
          EXPECT_EQ(b.profile[i].section, a.profile[i].section);
          EXPECT_EQ(b.profile[i].count, a.profile[i].count);
          EXPECT_DOUBLE_EQ(b.profile[i].total_s, a.profile[i].total_s);
          EXPECT_DOUBLE_EQ(b.profile[i].mean_s, a.profile[i].mean_s);
          EXPECT_DOUBLE_EQ(b.profile[i].p50_s, a.profile[i].p50_s);
          EXPECT_DOUBLE_EQ(b.profile[i].p95_s, a.profile[i].p95_s);
          EXPECT_DOUBLE_EQ(b.profile[i].p99_s, a.profile[i].p99_s);
          EXPECT_DOUBLE_EQ(b.profile[i].max_s, a.profile[i].max_s);
        }
        break;
      }
    }
  }
}

TEST(Trace, JsonRoundTripsAgentFaultActions) {
  // The v4 additions: agent-level fault transitions survive the loader.
  for (const FaultAction a :
       {FaultAction::AgentCrash, FaultAction::AgentRestart,
        FaultAction::HostDown, FaultAction::HostUp}) {
    TraceEvent e;
    e.kind = TraceEventKind::Fault;
    e.time = 1.5;
    e.src_host = NodeId(3);
    e.cause_id = 11;
    e.fault_action = a;
    const std::string line = to_json(e);
    SCOPED_TRACE(line);
    TraceEvent back;
    std::string error;
    ASSERT_TRUE(scope::parse_trace_line(line, &back, &error)) << error;
    EXPECT_EQ(back.fault_action, a);
    EXPECT_EQ(back.src_host, e.src_host);
    EXPECT_EQ(back.cause_id, e.cause_id);
  }
}

// ------------------------------------------------- end-to-end experiments

// Small fat-tree DARD run with enough load that elephants exist and DARD
// makes moves; exact reallocation keeps rates honest for the utilization
// bound.
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

TEST(ObsIntegration, TracedRunIsCausallyConsistentPerFlow) {
  const Topology t = build_fat_tree({.p = 4});
  RingBufferTraceSink sink(1u << 20);
  TraceObserver observer(sink);
  auto cfg = traced_config();
  cfg.telemetry.observer = &observer;

  const auto result = run_experiment(t, cfg);
  ASSERT_GT(result.flows, 0u);
  EXPECT_EQ(sink.dropped(), 0u);

  struct FlowTrail {
    std::size_t arrives = 0, elephants = 0, moves = 0, completes = 0;
    Seconds last_time = -1;
    bool complete_seen = false;
  };
  std::map<FlowId, FlowTrail> trails;
  std::size_t rounds = 0;
  Seconds last_time = 0;
  for (const TraceEvent& e : sink.events()) {
    EXPECT_GE(e.time, last_time) << "trace must be time-ordered";
    last_time = e.time;
    if (e.kind == TraceEventKind::DardRound) {
      ++rounds;
      EXPECT_GE(e.bonf_to, e.bonf_from)
          << "best path BoNF cannot be below worst path BoNF";
      EXPECT_GT(e.delta_threshold, 0.0);
      continue;
    }
    // Faults and snapshots are not flow-lifecycle events.
    if (e.kind == TraceEventKind::Fault ||
        e.kind == TraceEventKind::Snapshot)
      continue;
    FlowTrail& trail = trails[e.flow];
    EXPECT_FALSE(trail.complete_seen) << "no events after flow_complete";
    switch (e.kind) {
      case TraceEventKind::FlowArrive:
        EXPECT_EQ(trail.arrives, 0u);
        EXPECT_EQ(trail.elephants + trail.moves + trail.completes, 0u)
            << "arrive must be the flow's first event";
        ++trail.arrives;
        break;
      case TraceEventKind::FlowElephant:
        EXPECT_EQ(trail.arrives, 1u);
        EXPECT_EQ(trail.elephants, 0u);
        ++trail.elephants;
        break;
      case TraceEventKind::FlowMove:
        EXPECT_EQ(trail.arrives, 1u);
        EXPECT_NE(e.path_from, e.path_to);
        ++trail.moves;
        break;
      case TraceEventKind::FlowComplete:
        EXPECT_EQ(trail.arrives, 1u);
        ++trail.completes;
        trail.complete_seen = true;
        break;
      case TraceEventKind::DardRound:
      case TraceEventKind::Fault:
      case TraceEventKind::Snapshot:
        break;
    }
    trail.last_time = e.time;
  }

  EXPECT_EQ(trails.size(), result.flows);
  std::size_t total_moves = 0;
  for (const auto& [flow, trail] : trails) {
    EXPECT_EQ(trail.arrives, 1u);
    EXPECT_EQ(trail.completes, 1u) << "every flow must complete";
    total_moves += trail.moves;
  }
  EXPECT_EQ(total_moves, result.reroutes)
      << "trace moves must match the experiment's accepted-move count";
  EXPECT_GT(rounds, 0u) << "DARD rounds must be traced";
}

TEST(ObsIntegration, JsonlTraceFileIsParseable) {
  const Topology t = build_fat_tree({.p = 4});
  const std::string path = testing::TempDir() + "/dard_trace.jsonl";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.is_open());
    JsonlTraceSink sink(out);
    TraceObserver observer(sink);
    auto cfg = traced_config();
    cfg.telemetry.observer = &observer;
    const auto result = run_experiment(t, cfg);
    ASSERT_GT(result.flows, 0u);
    EXPECT_GT(sink.written(), 2 * result.flows)
        << "at least arrive + complete per flow";
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t lines = 0;
  bool saw_arrive = false, saw_elephant = false, saw_move = false,
       saw_complete = false;
  while (std::getline(in, line)) {
    ++lines;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ASSERT_NE(line.find("\"kind\":\""), std::string::npos);
    saw_arrive |= line.find("\"kind\":\"flow_arrive\"") != std::string::npos;
    saw_elephant |=
        line.find("\"kind\":\"flow_elephant\"") != std::string::npos;
    saw_move |= line.find("\"kind\":\"flow_move\"") != std::string::npos;
    saw_complete |=
        line.find("\"kind\":\"flow_complete\"") != std::string::npos;
  }
  EXPECT_GT(lines, 0u);
  EXPECT_TRUE(saw_arrive);
  EXPECT_TRUE(saw_elephant);
  EXPECT_TRUE(saw_move);
  EXPECT_TRUE(saw_complete);
  std::remove(path.c_str());
}

TEST(ObsIntegration, SampledUtilizationNeverExceedsCapacity) {
  const Topology t = build_fat_tree({.p = 4});
  auto cfg = traced_config();
  cfg.telemetry.sample_period = 0.25;
  const auto result = run_experiment(t, cfg);
  ASSERT_NE(result.series, nullptr);
  ASSERT_FALSE(result.series->empty());
  ASSERT_EQ(result.series->links.size(), t.link_count());

  bool saw_traffic = false;
  for (const auto& sample : result.series->link_samples) {
    ASSERT_EQ(sample.utilization.size(), t.link_count());
    for (std::size_t l = 0; l < sample.utilization.size(); ++l) {
      EXPECT_GE(sample.utilization[l], 0.0);
      EXPECT_LE(sample.utilization[l], 1.0)
          << "link " << l << " oversubscribed at t=" << sample.time;
      saw_traffic |= sample.utilization[l] > 0;
    }
  }
  EXPECT_TRUE(saw_traffic);

  // The aggregate series must track the simulator's own counters.
  std::size_t peak_elephants = 0;
  for (const auto& agg : result.series->aggregate_samples) {
    EXPECT_LE(agg.max_utilization, 1.0);
    EXPECT_GE(agg.throughput_bps, 0.0);
    peak_elephants = std::max(peak_elephants, agg.active_elephants);
  }
  EXPECT_LE(peak_elephants, result.peak_elephants);
  EXPECT_GT(peak_elephants, 0u);

  // CSV exports carry the data and the documented headers.
  std::ostringstream links_csv;
  result.series->write_link_csv(links_csv);
  EXPECT_NE(links_csv.str().find(
                "time,link,src,dst,capacity_bps,used_bps,utilization"),
            std::string::npos);
  std::ostringstream agg_csv;
  result.series->write_aggregate_csv(agg_csv);
  EXPECT_NE(
      agg_csv.str().find(
          "time,active_flows,active_elephants,throughput_bps,max_utilization"),
      std::string::npos);
}

TEST(ObsIntegration, MetricsCoverTheRun) {
  const Topology t = build_fat_tree({.p = 4});
  MetricsRegistry metrics;
  Profiler profiler;
  auto cfg = traced_config();
  cfg.telemetry.metrics = &metrics;
  cfg.telemetry.profiler = &profiler;
  const auto result = run_experiment(t, cfg);
  ASSERT_GT(result.reroutes, 0u);

  EXPECT_GT(metrics.counter("flowsim.reallocations").value, 0u);
  EXPECT_GT(metrics.counter("dard.monitor_queries").value, 0u);
  EXPECT_EQ(metrics.counter("dard.moves_accepted").value, result.reroutes);
  EXPECT_GE(metrics.counter("dard.moves_proposed").value,
            metrics.counter("dard.moves_accepted").value);
  EXPECT_EQ(metrics.counter("dard.moves_proposed").value,
            metrics.counter("dard.moves_accepted").value +
                metrics.counter("dard.moves_rejected").value);
  EXPECT_GT(metrics.gauge("flowsim.event_queue_depth").peak, 0.0);
  // Max-min wall time has one ledger, the profiler: one sample per
  // reallocation.
  EXPECT_EQ(profiler.section(ProfileSection::MaxMinRealloc).count(),
            metrics.counter("flowsim.reallocations").value);
}

TEST(ObsIntegration, DisabledTelemetryIsBitIdentical) {
  // The overhead-when-disabled contract's observable half: running with
  // telemetry fully enabled must not change a single experiment metric,
  // because observers and samplers only read simulator state.
  const Topology t = build_fat_tree({.p = 4});
  const auto plain = run_experiment(t, traced_config());

  RingBufferTraceSink sink(1u << 20);
  TraceObserver observer(sink);
  MetricsRegistry metrics;
  auto cfg = traced_config();
  cfg.telemetry.observer = &observer;
  cfg.telemetry.metrics = &metrics;
  cfg.telemetry.sample_period = 0.25;
  const auto traced = run_experiment(t, cfg);

  EXPECT_EQ(plain.flows, traced.flows);
  EXPECT_EQ(plain.avg_transfer_time, traced.avg_transfer_time);
  EXPECT_EQ(plain.reroutes, traced.reroutes);
  EXPECT_EQ(plain.control_bytes, traced.control_bytes);
  EXPECT_EQ(plain.peak_elephants, traced.peak_elephants);
  EXPECT_EQ(plain.transfer_times.count(), traced.transfer_times.count());
  for (std::size_t i = 0; i < plain.transfer_times.count(); ++i) {
    EXPECT_EQ(plain.transfer_times.samples()[i],
              traced.transfer_times.samples()[i]);
  }
}

TEST(ObsIntegration, SamplerOnEcmpRunHasNoDardEvents) {
  const Topology t = build_fat_tree({.p = 4});
  RingBufferTraceSink sink(1u << 18);
  TraceObserver observer(sink);
  auto cfg = traced_config();
  cfg.scheduler = SchedulerKind::Ecmp;
  cfg.telemetry.observer = &observer;
  const auto result = run_experiment(t, cfg);
  ASSERT_GT(result.flows, 0u);
  for (const TraceEvent& e : sink.events()) {
    EXPECT_NE(e.kind, TraceEventKind::DardRound);
    EXPECT_NE(e.kind, TraceEventKind::FlowMove) << "ECMP never re-routes";
  }
}

}  // namespace
}  // namespace dard::obs
