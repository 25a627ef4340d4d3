// Control-plane span tracing (DESIGN.md §17): the SpanRecorder's emitted
// spans must audit clean, its byte accounting must agree exactly with
// fabric::ControlPlaneAccountant and the modeled wire sizes, a disabled
// recorder must leave the run untouched, and the daemon-side query tallies
// must match the mirrored metrics counters on both substrates.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "dard/dard_agent.h"
#include "fabric/wire.h"
#include "flowsim/simulator.h"
#include "harness/experiment.h"
#include "obs/metrics.h"
#include "obs/spans.h"
#include "obs/trace.h"
#include "pktsim/agent_router.h"
#include "pktsim/session.h"
#include "scope/analysis.h"
#include "scope/streaming.h"
#include "scope/trace_load.h"
#include "scope_reference.h"
#include "topology/builders.h"

namespace dard {
namespace {

using harness::ExperimentConfig;
using harness::ExperimentResult;
using harness::run_experiment;
using harness::SchedulerKind;
using harness::Substrate;

topo::Topology testbed() {
  return topo::build_fat_tree(
      {.p = 4, .hosts_per_tor = -1, .link_capacity = 1 * kGbps,
       .link_delay = 0.0001});
}

// Second-scale stride workload with tight control intervals: elephants
// exist, daemons query, moves happen (same shape substrate_test pins).
ExperimentConfig stride_config(Substrate substrate) {
  ExperimentConfig cfg;
  cfg.substrate = substrate;
  cfg.scheduler = SchedulerKind::Dard;
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
  return cfg;
}

std::vector<obs::TraceEvent> parse_all(const std::string& jsonl) {
  std::vector<obs::TraceEvent> events;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    obs::TraceEvent e;
    std::string error;
    EXPECT_TRUE(scope::parse_trace_line(line, &e, &error))
        << error << "\n" << line;
    events.push_back(e);
  }
  return events;
}

struct SpannedRun {
  ExperimentResult result;
  obs::SpanTotals totals;
  std::vector<std::uint64_t> link_bytes;
  std::vector<obs::TraceEvent> trace;
  obs::MetricsRegistry metrics;
};

SpannedRun run_with_spans(Substrate substrate) {
  SpannedRun out;
  const topo::Topology t = testbed();
  std::ostringstream buf;
  obs::JsonlTraceSink sink(buf);
  obs::TraceObserver observer(sink);
  obs::SpanRecorder spans(&observer, &t, fabric::kDardQueryBytes,
                          fabric::kDardReplyBytes);
  ExperimentConfig cfg = stride_config(substrate);
  cfg.telemetry.observer = &observer;
  cfg.telemetry.metrics = &out.metrics;
  cfg.telemetry.spans = &spans;
  out.result = run_experiment(t, cfg);
  out.totals = spans.totals();
  out.link_bytes = spans.link_bytes();
  out.trace = parse_all(buf.str());
  return out;
}

TEST(SpanTest, RecorderEmitsAuditCleanSpans) {
  const SpannedRun run = run_with_spans(Substrate::Fluid);
  ASSERT_GT(run.result.reroutes, 0u);

  scope::StreamingAnalyzer analyzer;
  for (const obs::TraceEvent& e : run.trace) analyzer.on_event(e);
  const scope::SpanAudit& audit = analyzer.spans();
  EXPECT_GT(audit.spans, 0u);
  EXPECT_GT(audit.refresh_spans, 0u);
  EXPECT_GT(audit.query_spans, 0u);
  EXPECT_GT(audit.decision_spans, 0u);
  // One Move span per applied move.
  EXPECT_EQ(audit.move_spans, run.result.reroutes);
  // Every parent id precedes its child in the stream: no dangling links.
  EXPECT_GT(audit.parented, 0u);
  EXPECT_EQ(audit.resolved, audit.parented);
  EXPECT_EQ(audit.dangling, 0u);
  EXPECT_TRUE(audit.clean());

  // The trace-side tallies equal the recorder's own (the emitter and the
  // parser agree on every field).
  EXPECT_EQ(audit.attempts, run.totals.attempts);
  EXPECT_EQ(audit.timeouts, run.totals.timeouts);
  EXPECT_EQ(audit.lost, run.totals.lost);
  EXPECT_EQ(audit.bytes, run.totals.bytes);

  // Result plumbing mirrors the recorder.
  EXPECT_EQ(run.result.span_count, run.totals.spans);
  EXPECT_EQ(run.result.span_messages, run.totals.messages);
  EXPECT_EQ(run.result.span_bytes, run.totals.bytes);
  EXPECT_GT(run.result.goodput_bytes, 0u);
  EXPECT_GT(run.result.control_overhead_ratio(), 0.0);
}

TEST(SpanTest, AccountingIdentityHoldsOnBothSubstrates) {
  for (const Substrate s : {Substrate::Fluid, Substrate::Packet}) {
    const SpannedRun run = run_with_spans(s);
    const obs::SpanTotals& t = run.totals;
    ASSERT_GT(t.attempts, 0u) << harness::to_string(s);
    // The wire model: every attempt is one 48-byte query; every attempt
    // whose reply was delivered (even late) is one 32-byte reply; only
    // lost replies put no bytes on the wire.
    EXPECT_EQ(t.messages, 2 * t.attempts - t.lost) << harness::to_string(s);
    EXPECT_EQ(t.bytes,
              fabric::kDardQueryBytes * t.attempts +
                  fabric::kDardReplyBytes * (t.attempts - t.lost))
        << harness::to_string(s);
    // Every control message the accountant counted is attributed to
    // exactly one span — same message count, same bytes.
    const auto& msgs = run.metrics.counters().at("dard.control_msgs");
    EXPECT_EQ(t.messages, static_cast<std::uint64_t>(msgs.value))
        << harness::to_string(s);
    EXPECT_EQ(t.bytes, run.result.control_bytes) << harness::to_string(s);
    // Hop-by-hop routing conserves bytes: the per-link attribution sums to
    // at least the totals (multi-hop routes count each hop).
    std::uint64_t link_sum = 0;
    for (const std::uint64_t b : run.link_bytes) link_sum += b;
    EXPECT_GE(link_sum, t.bytes) << harness::to_string(s);
    EXPECT_GT(link_sum, 0u) << harness::to_string(s);
  }
}

TEST(SpanTest, StreamingSpanAuditMatchesOffline) {
  const SpannedRun run = run_with_spans(Substrate::Fluid);
  scope::StreamingAnalyzer analyzer(4);
  for (const obs::TraceEvent& e : run.trace) analyzer.on_event(e);
  const scope::SpanAudit offline = scope::reference::audit_spans(run.trace);
  const scope::SpanAudit& streamed = analyzer.spans();
  EXPECT_EQ(streamed.spans, offline.spans);
  EXPECT_EQ(streamed.query_spans, offline.query_spans);
  EXPECT_EQ(streamed.refresh_spans, offline.refresh_spans);
  EXPECT_EQ(streamed.decision_spans, offline.decision_spans);
  EXPECT_EQ(streamed.move_spans, offline.move_spans);
  EXPECT_EQ(streamed.parented, offline.parented);
  EXPECT_EQ(streamed.resolved, offline.resolved);
  EXPECT_EQ(streamed.dangling, offline.dangling);
  EXPECT_EQ(streamed.attempts, offline.attempts);
  EXPECT_EQ(streamed.timeouts, offline.timeouts);
  EXPECT_EQ(streamed.lost, offline.lost);
  EXPECT_EQ(streamed.bytes, offline.bytes);
  EXPECT_EQ(analyzer.totals().span_events, offline.spans);
}

TEST(SpanTest, DisabledRecorderLeavesResultsIdentical) {
  // Spans off: no recorder, plain run. Spans on: same config plus the
  // recorder. Simulation results must agree exactly — the recorder only
  // observes (the extra span ids live in the trace, not the simulation).
  const topo::Topology t = testbed();
  const ExperimentResult off = run_experiment(t, stride_config(Substrate::Fluid));
  const SpannedRun on = run_with_spans(Substrate::Fluid);
  EXPECT_EQ(off.flows, on.result.flows);
  EXPECT_EQ(off.avg_transfer_time, on.result.avg_transfer_time);
  EXPECT_EQ(off.reroutes, on.result.reroutes);
  EXPECT_EQ(off.control_bytes, on.result.control_bytes);
  EXPECT_EQ(off.goodput_bytes, on.result.goodput_bytes);
  EXPECT_EQ(off.span_count, 0u);
  EXPECT_EQ(off.span_bytes, 0u);
  EXPECT_GT(on.result.span_count, 0u);
}

TEST(SpanTest, FluidMetricsMatchDaemonTallies) {
  // Cross-check the mirrored metrics counters against the daemon-side
  // aggregates the agent keeps — the two tallies take different paths
  // (counter mirror at refresh vs. per-daemon sums at read) and must agree.
  const topo::Topology t = testbed();
  obs::MetricsRegistry metrics;
  flowsim::SimConfig sim_cfg;
  sim_cfg.elephant_threshold = 0.1;
  flowsim::FlowSimulator sim(t, sim_cfg);
  sim.set_metrics(&metrics);
  core::DardConfig cfg;
  cfg.query_interval = 0.1;
  cfg.schedule_base = 0.25;
  cfg.schedule_jitter = 0.25;
  cfg.delta = 1 * kMbps;
  core::DardAgent agent(cfg);
  sim.set_agent(&agent);
  const auto& hosts = t.hosts();
  for (int i = 0; i < 4; ++i) {
    flowsim::FlowSpec s;
    s.src_host = hosts[i];
    s.dst_host = hosts[12 + i];
    s.size = 32 * kMiB;
    s.arrival = 0.0;
    s.src_port = static_cast<std::uint16_t>(i + 1);
    s.dst_port = 5001;
    sim.submit(s);
  }
  sim.run_until_flows_done();

  ASSERT_GT(agent.total_query_attempts(), 0u);
  const auto counter = [&](const char* name) -> std::uint64_t {
    const auto it = metrics.counters().find(name);
    return it == metrics.counters().end()
               ? 0
               : static_cast<std::uint64_t>(it->second.value);
  };
  EXPECT_EQ(counter("dard.query_timeouts"), agent.total_query_timeouts());
  EXPECT_EQ(counter("dard.query_retries"), agent.total_query_retries());
  EXPECT_EQ(counter("dard.control_msgs"),
            2 * agent.total_query_attempts() - agent.total_query_lost());
}

TEST(SpanTest, PacketMetricsMatchDaemonTallies) {
  const topo::Topology t = testbed();
  obs::MetricsRegistry metrics;
  core::DardConfig cfg;
  cfg.query_interval = 0.1;
  cfg.schedule_base = 0.25;
  cfg.schedule_jitter = 0.25;
  cfg.delta = 1 * kMbps;
  core::DardAgent agent(cfg);
  auto router = std::make_unique<pktsim::AgentRouter>(
      t, agent, /*elephant_threshold=*/0.1);
  router->set_metrics(&metrics);
  pktsim::PktSession session(t, std::move(router));
  const auto& hosts = t.hosts();
  for (int i = 0; i < 4; ++i)
    session.add_flow({hosts[i], hosts[12 + i], 32 * kMiB, 0.0});
  ASSERT_TRUE(session.run(300.0));

  ASSERT_GT(agent.total_query_attempts(), 0u);
  const auto counter = [&](const char* name) -> std::uint64_t {
    const auto it = metrics.counters().find(name);
    return it == metrics.counters().end()
               ? 0
               : static_cast<std::uint64_t>(it->second.value);
  };
  EXPECT_EQ(counter("dard.query_timeouts"), agent.total_query_timeouts());
  EXPECT_EQ(counter("dard.query_retries"), agent.total_query_retries());
  EXPECT_EQ(counter("dard.control_msgs"),
            2 * agent.total_query_attempts() - agent.total_query_lost());
}

TEST(SpanTest, SpanEventsRoundTripThroughJsonl) {
  // Emit one of each span kind through the JSONL sink and parse it back:
  // every field survives.
  std::ostringstream buf;
  obs::JsonlTraceSink sink(buf);
  obs::TraceObserver observer(sink);
  const topo::Topology t = testbed();
  obs::SpanRecorder spans(&observer, &t, fabric::kDardQueryBytes,
                          fabric::kDardReplyBytes);
  std::uint64_t next = 100;
  spans.set_id_allocator([&next] { return ++next; });

  const NodeId host = t.hosts().front();
  const NodeId dst_tor = t.tor_of_host(t.hosts().back());
  const NodeId sw = t.tor_of_host(host);
  std::vector<obs::QueryExchange> exchanges(1);
  exchanges[0].sw = sw;
  exchanges[0].attempts = 3;
  exchanges[0].timeouts = 2;
  exchanges[0].lost = 1;
  exchanges[0].delivered = true;
  exchanges[0].reply_delay = 0.004;
  exchanges[0].latency = 0.125;
  spans.record_refresh(1.0, host, dst_tor, exchanges);
  spans.record_decision(1.25, host, 2, true, dst_tor);
  spans.record_move(1.25, host, FlowId{7}, dst_tor, 42);

  const auto events = parse_all(buf.str());
  ASSERT_EQ(events.size(), 4u);  // refresh + query + decision + move
  EXPECT_EQ(events[0].span_kind, obs::SpanKind::Refresh);
  EXPECT_EQ(events[1].span_kind, obs::SpanKind::Query);
  EXPECT_EQ(events[2].span_kind, obs::SpanKind::Decision);
  EXPECT_EQ(events[3].span_kind, obs::SpanKind::Move);
  // The query parents to the refresh; the move to the given round id.
  EXPECT_EQ(events[1].parent_id, events[0].cause_id);
  EXPECT_EQ(events[3].parent_id, 42u);
  EXPECT_EQ(events[1].span_attempts, 3u);
  EXPECT_EQ(events[1].span_timeouts, 2u);
  EXPECT_EQ(events[1].span_lost, 1u);
  EXPECT_DOUBLE_EQ(events[1].span_duration, 0.125);
  // Refresh carries the attributed bytes: 48*3 + 32*(3-1).
  EXPECT_EQ(events[0].span_bytes, 48u * 3 + 32u * 2);
  EXPECT_TRUE(events[2].accepted);
}

}  // namespace
}  // namespace dard
