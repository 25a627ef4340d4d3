// Control-plane span tracing (DESIGN.md §17): the SpanRecorder's emitted
// spans must audit clean, its byte accounting must agree exactly with
// fabric::ControlPlaneAccountant and the modeled wire sizes, a disabled
// recorder must leave the run untouched, and under faults the ledger, the
// recovery counts, the metrics counters and the span books must agree on
// both substrates.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "fabric/wire.h"
#include "faults/fault_plan.h"
#include "harness/experiment.h"
#include "obs/metrics.h"
#include "obs/spans.h"
#include "obs/trace.h"
#include "scope/analysis.h"
#include "scope/report.h"
#include "scope/run_loader.h"
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
  std::size_t lines = 0;  // what the sink wrote
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
  out.lines = sink.written();
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
  // Schema v6: the logical spans, clean exchanges folded into their
  // refreshes included, are the recorder's; the lines are the sink's.
  EXPECT_EQ(streamed.spans, run.totals.spans);
  EXPECT_EQ(streamed.query_spans, run.totals.query_spans);
  EXPECT_EQ(analyzer.totals().trace_events, run.lines);
  const auto span_lines = static_cast<std::size_t>(
      std::count_if(run.trace.begin(), run.trace.end(),
                    [](const obs::TraceEvent& e) {
                      return e.kind == obs::TraceEventKind::Span;
                    }));
  EXPECT_EQ(analyzer.totals().span_events, span_lines);
  EXPECT_LT(span_lines, run.totals.spans) << "no clean exchange was folded";
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

TEST(SpanTest, LedgerMatchesEveryBookUnderFaults) {
  // One control ledger (DESIGN.md §17): the data plane's accountant. Under
  // a lossy, stale control plane (chaos) and under daemon crashes and a
  // host outage (agent-churn), on both substrates, the recovery counts, the
  // metrics counters and the span books must agree with it exactly. At
  // 100 Mbps the 32 MiB flows outlive every preset event.
  const topo::Topology t = topo::build_fat_tree(
      {.p = 4, .hosts_per_tor = -1, .link_capacity = 100 * kMbps,
       .link_delay = 0.0001});
  for (const Substrate s : {Substrate::Fluid, Substrate::Packet}) {
    for (const char* preset : {"chaos", "agent-churn"}) {
      const std::string cell =
          std::string(harness::to_string(s)) + " " + preset;
      obs::MetricsRegistry metrics;
      obs::SpanRecorder spans(nullptr, &t, fabric::kDardQueryBytes,
                              fabric::kDardReplyBytes);
      ExperimentConfig cfg = stride_config(s);
      cfg.telemetry.metrics = &metrics;
      cfg.telemetry.spans = &spans;
      cfg.faults.plan = *faults::FaultPlan::preset(preset);
      const ExperimentResult r = run_experiment(t, cfg);

      const auto messages = [&r](fabric::ControlCategory c) {
        return r.control_messages[static_cast<std::size_t>(c)];
      };
      const std::uint64_t queries =
          messages(fabric::ControlCategory::DardQuery);
      const std::uint64_t replies =
          messages(fabric::ControlCategory::DardReply);
      const auto counter = [&metrics](const char* name) {
        return static_cast<std::uint64_t>(metrics.counters().at(name).value);
      };
      ASSERT_GT(queries, 0u) << cell;
      EXPECT_GT(r.faults_injected, 0u) << cell;
      if (std::string(preset) == "chaos") {
        EXPECT_GT(queries, replies) << cell << ": no exchange was lost";
      } else {
        EXPECT_EQ(r.recovery.agent_crashes, 3u) << cell;
      }

      EXPECT_EQ(r.recovery.queries_attempted, queries) << cell;
      EXPECT_EQ(r.recovery.queries_lost, queries - replies) << cell;
      std::uint64_t all_messages = 0;
      for (const std::uint64_t n : r.control_messages) all_messages += n;
      EXPECT_EQ(counter("dard.control_msgs"), all_messages) << cell;
      EXPECT_EQ(counter("dard.monitor_queries"), queries) << cell;
      EXPECT_EQ(r.control_bytes, fabric::kDardQueryBytes * queries +
                                     fabric::kDardReplyBytes * replies)
          << cell;
      EXPECT_EQ(spans.totals().bytes, r.control_bytes) << cell;
      EXPECT_EQ(spans.totals().attempts, queries) << cell;
      EXPECT_EQ(spans.totals().lost, queries - replies) << cell;
    }
  }
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

// Two components: host0 - tor0 - agg0 (links 0-3) and host1 - tor1 (links
// 4, 5).
struct TwoComponents {
  topo::Topology t;
  NodeId host0, tor0, agg0, host1, tor1;
  TwoComponents() {
    host0 = t.add_node(topo::NodeKind::Host, 0, 0);
    tor0 = t.add_node(topo::NodeKind::Tor, 0, 0);
    agg0 = t.add_node(topo::NodeKind::Agg, 0, 0);
    host1 = t.add_node(topo::NodeKind::Host, 1, 0);
    tor1 = t.add_node(topo::NodeKind::Tor, 1, 0);
    t.add_cable(host0, tor0, kGbps, 0);
    t.add_cable(tor0, agg0, kGbps, 0);
    t.add_cable(host1, tor1, kGbps, 0);
  }
};

obs::QueryExchange exchange(NodeId sw, std::uint32_t attempts = 1,
                            std::uint32_t lost = 0) {
  obs::QueryExchange q;
  q.sw = sw;
  q.attempts = attempts;
  q.timeouts = lost;
  q.lost = lost;
  q.delivered = attempts > lost;
  return q;
}

TEST(SpanTest, UnreachableSwitchesGetNoLinkBytes) {
  // Each daemon queries one switch of the other component, which no wire
  // reaches.
  const TwoComponents f;
  obs::SpanRecorder spans(nullptr, &f.t, fabric::kDardQueryBytes,
                          fabric::kDardReplyBytes);
  spans.record_refresh(1.0, f.host0, f.tor1,
                       {exchange(f.tor0), exchange(f.agg0, 2, 1),
                        exchange(f.tor1)});
  spans.record_refresh(1.0, f.host1, f.tor0,
                       {exchange(f.tor1), exchange(f.agg0)});

  // The books count every exchange, reachable or not.
  EXPECT_EQ(spans.totals().attempts, 6u);
  EXPECT_EQ(spans.totals().lost, 1u);
  // host0 sends 4 queries: 3 over link 0, 2 of them on over link 2; 2
  // replies come back from tor0 and agg0, 1 of them over link 3.
  const std::vector<std::uint64_t> want = {3 * 48, 2 * 32, 2 * 48, 1 * 32,
                                           48, 32};
  EXPECT_EQ(spans.link_bytes(), want);
  std::ostringstream csv;
  spans.write_link_csv(csv);
  EXPECT_EQ(csv.str(),
            "link,src,dst,control_bytes\n"
            "0,host0_0,tor0_0,144\n"
            "1,tor0_0,host0_0,64\n"
            "2,tor0_0,agg0_0,96\n"
            "3,agg0_0,tor0_0,32\n"
            "4,host1_0,tor1_0,48\n"
            "5,tor1_0,host1_0,32\n");
}

TEST(SpanTest, LinkBytesCountEveryExchangeOfEveryRefresh) {
  // One monitor refreshed four ways: with a retried exchange, all clean
  // over its first switch list, all clean over that list reordered, and
  // all clean over a shorter list. Then a second monitor whose first
  // refresh has no exchanges.
  const TwoComponents f;
  obs::SpanRecorder spans(nullptr, &f.t, fabric::kDardQueryBytes,
                          fabric::kDardReplyBytes);
  spans.record_refresh(1.0, f.host0, f.tor1,
                       {exchange(f.tor0), exchange(f.agg0, 3, 2)});
  spans.record_refresh(2.0, f.host0, f.tor1,
                       {exchange(f.tor0), exchange(f.agg0)});
  spans.record_refresh(3.0, f.host0, f.tor1,
                       {exchange(f.agg0), exchange(f.tor0)});
  spans.record_refresh(4.0, f.host0, f.tor1, {exchange(f.agg0)});

  // tor0: 3 queries and 3 replies; agg0: 6 queries and 4 replies.
  EXPECT_EQ(spans.totals().attempts, 9u);
  EXPECT_EQ(spans.totals().lost, 2u);
  const std::vector<std::uint64_t> want = {9 * 48, 7 * 32, 6 * 48, 4 * 32,
                                           0, 0};
  EXPECT_EQ(spans.link_bytes(), want);

  // The empty refresh sends nothing; the next one sends one query to tor0
  // and gets one reply.
  obs::SpanRecorder empty_first(nullptr, &f.t, fabric::kDardQueryBytes,
                                fabric::kDardReplyBytes);
  empty_first.record_refresh(1.0, f.host0, f.tor1, {});
  empty_first.record_refresh(2.0, f.host0, f.tor1, {exchange(f.tor0)});
  EXPECT_EQ(empty_first.totals().attempts, 1u);
  const std::vector<std::uint64_t> one = {48, 32, 0, 0, 0, 0};
  EXPECT_EQ(empty_first.link_bytes(), one);
}

// link_bytes() shares one BFS among the hosts behind a switch; route every
// exchange on its own, over a BFS from its host, and compare.
std::vector<std::uint64_t> route_each_exchange(
    const topo::Topology& t,
    const std::vector<std::pair<NodeId, obs::QueryExchange>>& sent) {
  std::vector<std::uint64_t> bytes(t.link_count(), 0);
  for (const auto& [host, q] : sent) {
    std::vector<NodeId> parent(t.node_count());
    std::vector<bool> seen(t.node_count(), false);
    std::deque<NodeId> frontier{host};
    seen[host.value()] = true;
    while (!frontier.empty()) {
      const NodeId n = frontier.front();
      frontier.pop_front();
      for (const LinkId l : t.out_links(n)) {
        const NodeId next = t.link(l).dst;
        if (seen[next.value()]) continue;
        seen[next.value()] = true;
        parent[next.value()] = n;
        frontier.push_back(next);
      }
    }
    if (!seen[q.sw.value()]) continue;
    for (NodeId n = q.sw; n != host; n = parent[n.value()]) {
      bytes[t.find_link(parent[n.value()], n).value()] +=
          fabric::kDardQueryBytes * q.attempts;
      bytes[t.find_link(n, parent[n.value()]).value()] +=
          fabric::kDardReplyBytes * (q.attempts - q.lost);
    }
  }
  return bytes;
}

TEST(SpanTest, LinkBytesMatchABfsPerExchange) {
  // A p=4 fat tree plus a host cabled to two ToRs, which gets a BFS of its
  // own. Every host refreshes monitors towards random ToRs, each over a
  // shuffled set of switches with random retries and losses.
  topo::Topology t = testbed();
  const NodeId dual = t.add_node(topo::NodeKind::Host, 9, 0);
  t.add_cable(dual, t.tors().front(), kGbps, 0);
  t.add_cable(dual, t.tors().back(), kGbps, 0);
  std::vector<NodeId> switches = t.tors();
  switches.insert(switches.end(), t.aggs().begin(), t.aggs().end());
  switches.insert(switches.end(), t.cores().begin(), t.cores().end());

  std::mt19937 rng(11);
  obs::SpanRecorder spans(nullptr, &t, fabric::kDardQueryBytes,
                          fabric::kDardReplyBytes);
  std::vector<std::pair<NodeId, obs::QueryExchange>> sent;
  for (const NodeId host : t.hosts()) {
    for (int refresh = 0; refresh < 6; ++refresh) {
      const NodeId dst_tor = t.tors()[rng() % 3];
      std::vector<NodeId> queried = switches;
      std::shuffle(queried.begin(), queried.end(), rng);
      queried.resize(1 + rng() % 6);
      std::vector<obs::QueryExchange> exchanges;
      for (const NodeId sw : queried) {
        const std::uint32_t attempts = 1 + rng() % 3;
        exchanges.push_back(exchange(sw, attempts, rng() % (attempts + 1)));
        sent.emplace_back(host, exchanges.back());
      }
      spans.record_refresh(refresh, host, dst_tor, exchanges);
    }
  }
  EXPECT_EQ(spans.link_bytes(), route_each_exchange(t, sent));
}

// One refresh over four switches, one exchange retried, written as v5
// wrote it (every query line) and as v6 writes it (a clean count and the
// retried line), among the same rounds, decision and move.
std::string refresh_trace(bool v6) {
  const char* v = v6 ? "{\"v\":6," : "{\"v\":5,";
  std::string out;
  const auto line = [&](const std::string& body) { out += v + body + "}\n"; };
  line(R"("kind":"flow_arrive","t":0.5,"flow":3,"src":10,"dst":18,)"
       R"("size":536870912,"path":0)");
  line(R"("kind":"span","t":1,"span":"refresh","id":2,"parent":0,)"
       R"("host":10,"peer":15,"attempts":5,"timeouts":1,"lost":1,)" +
       std::string(v6 ? R"("clean":3,)" : "") +
       R"("bytes":368,"dur_s":0.125,"ok":true)");
  const auto query = [&](int id, int peer, bool retried) {
    line(R"("kind":"span","t":1,"span":"query","id":)" + std::to_string(id) +
         R"(,"parent":2,"host":10,"peer":)" + std::to_string(peer) +
         (retried ? R"(,"attempts":2,"timeouts":1,"lost":1,"bytes":128,)"
                    R"("dur_s":0.125,"ok":true)"
                  : R"(,"attempts":1,"timeouts":0,"lost":0,"bytes":80,)"
                    R"("dur_s":0,"ok":true)"));
  };
  if (!v6) query(3, 0, false);
  query(4, 4, true);
  if (!v6) {
    query(5, 8, false);
    query(6, 15, false);
  }
  line(R"("kind":"dard_round","t":1.25,"host":10,"dst_tor":15,)"
       R"("worst_path":0,"best_path":2,"worst_bonf":2e+08,"best_bonf":5e+08,)"
       R"("est_gain":3e+08,"delta":1e+07,"accepted":true,"round_id":7)");
  line(R"("kind":"span","t":1.25,"span":"decision","id":8,"parent":2,)"
       R"("host":10,"peer":15,"attempts":2,"timeouts":0,"lost":0,"bytes":0,)"
       R"("dur_s":0.25,"ok":true)");
  line(R"("kind":"flow_move","t":1.25,"flow":3,"from":0,"to":2,)"
       R"("bonf_from":2e+08,"bonf_to":5e+08,"bonf_delta":3e+08,"cause_id":7)");
  line(R"("kind":"span","t":1.25,"span":"move","id":9,"parent":7,"host":10,)"
       R"("peer":15,"flow":3,"attempts":0,"timeouts":0,"lost":0,"bytes":0,)"
       R"("dur_s":0.25,"ok":true)");
  line(R"("kind":"flow_complete","t":4,"flow":3,"size":536870912)");
  return out;
}

TEST(SpanTest, V5AndV6TracesOfOneRefreshReadTheSame) {
  // One path, so both runs carry the same source line.
  const std::string path = testing::TempDir() + "/refresh_v5_v6.jsonl";
  const auto load = [&](bool v6) {
    {
      std::ofstream out(path);
      out << refresh_trace(v6);
    }
    auto run = std::make_unique<scope::RunData>();
    std::string error;
    EXPECT_TRUE(scope::load_run(path, run.get(), &error)) << error;
    return run;
  };
  const auto v5 = load(false);
  const auto v6 = load(true);
  EXPECT_EQ(v5->analysis.totals().trace_events, 11u);
  EXPECT_EQ(v6->analysis.totals().trace_events, 8u);

  const scope::SpanAudit& a = v5->analysis.spans();
  const scope::SpanAudit& b = v6->analysis.spans();
  EXPECT_EQ(a.spans, 7u);
  EXPECT_EQ(a.query_spans, 4u);
  EXPECT_EQ(a.attempts, 5u);
  EXPECT_EQ(a.resolved, 6u);
  EXPECT_EQ(b.spans, a.spans);
  EXPECT_EQ(b.query_spans, a.query_spans);
  EXPECT_EQ(b.refresh_spans, a.refresh_spans);
  EXPECT_EQ(b.decision_spans, a.decision_spans);
  EXPECT_EQ(b.move_spans, a.move_spans);
  EXPECT_EQ(b.parented, a.parented);
  EXPECT_EQ(b.resolved, a.resolved);
  EXPECT_EQ(b.dangling, a.dangling);
  EXPECT_EQ(b.attempts, a.attempts);
  EXPECT_EQ(b.timeouts, a.timeouts);
  EXPECT_EQ(b.lost, a.lost);
  EXPECT_EQ(b.bytes, a.bytes);

  ASSERT_EQ(v5->daemons.size(), 1u);
  ASSERT_EQ(v6->daemons.size(), 1u);
  const scope::DaemonSpanSummary& d5 = v5->daemons.begin()->second;
  const scope::DaemonSpanSummary& d6 = v6->daemons.begin()->second;
  EXPECT_EQ(d5.queries, 4u);
  EXPECT_EQ(d6.host, d5.host);
  EXPECT_EQ(d6.refreshes, d5.refreshes);
  EXPECT_EQ(d6.queries, d5.queries);
  EXPECT_EQ(d6.decisions, d5.decisions);
  EXPECT_EQ(d6.moves, d5.moves);
  EXPECT_EQ(d6.attempts, d5.attempts);
  EXPECT_EQ(d6.timeouts, d5.timeouts);
  EXPECT_EQ(d6.lost, d5.lost);
  EXPECT_EQ(d6.bytes, d5.bytes);
  EXPECT_EQ(d6.max_chain_s, d5.max_chain_s);
  EXPECT_EQ(d6.total_chain_s, d5.total_chain_s);

  // `dardscope spans` reads the same, text and markdown.
  const auto spans_text = [](const scope::RunData& run, bool markdown) {
    std::ostringstream os;
    const scope::SpansReport r = scope::build_spans_report(run);
    if (markdown)
      scope::write_spans_markdown(os, r);
    else
      scope::write_spans_text(os, r);
    return os.str();
  };
  for (const bool md : {false, true})
    EXPECT_EQ(spans_text(*v6, md), spans_text(*v5, md));

  // `dardscope report` differs only in the line counting trace events.
  const auto report_lines = [](const scope::RunData& run, bool markdown) {
    std::ostringstream os;
    const scope::Report r = scope::build_report(run);
    if (markdown)
      scope::write_markdown(os, r);
    else
      scope::write_text(os, r);
    std::vector<std::string> lines;
    std::istringstream in(os.str());
    for (std::string l; std::getline(in, l);) lines.push_back(l);
    return lines;
  };
  for (const bool md : {false, true}) {
    const std::vector<std::string> want = report_lines(*v5, md);
    const std::vector<std::string> got = report_lines(*v6, md);
    ASSERT_EQ(got.size(), want.size());
    std::size_t differing = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (got[i] == want[i]) continue;
      ++differing;
      EXPECT_NE(got[i].find(md ? "| trace events | 8 |" : "trace: 8 events"),
                std::string::npos)
          << got[i];
      EXPECT_NE(want[i].find(md ? "| trace events | 11 |" : "trace: 11 events"),
                std::string::npos)
          << want[i];
    }
    EXPECT_EQ(differing, 1u);
  }
}

}  // namespace
}  // namespace dard
