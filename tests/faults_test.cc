// Fault-injection subsystem units (DESIGN.md §11): plan building and JSON
// parsing, injector cable ref-counting, the control-plane degradation model,
// and the monitor's timeout/retry/blacklist hardening against it.
#include <gtest/gtest.h>

#include "baselines/ecmp.h"
#include "dard/monitor.h"
#include "fabric/wire.h"
#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "flowsim/simulator.h"
#include "topology/builders.h"

namespace dard::faults {
namespace {

using core::DardConfig;
using core::PathMonitor;
using fabric::ControlPlaneModel;
using fabric::StateQueryService;
using flowsim::FlowSimulator;
using topo::build_fat_tree;
using topo::Topology;

// ---------------------------------------------------------------- FaultPlan

TEST(FaultPlanTest, BuildersRecordEventsAndTimes) {
  FaultPlan p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.first_fault_time(), -1);
  EXPECT_EQ(p.last_change_time(), -1);

  p.fail_link(2.0, "agg0_0", "core0");
  p.repair_link(4.0, "agg0_0", "core0");
  p.fail_switch(3.0, "agg1_0");
  p.repair_switch(5.0, "agg1_0");
  p.add_control_window(ControlWindow{1.0, 6.0, 0.5, 0.02, false});

  EXPECT_FALSE(p.empty());
  ASSERT_EQ(p.link_events().size(), 2u);
  EXPECT_TRUE(p.link_events()[0].fail);
  EXPECT_FALSE(p.link_events()[1].fail);
  ASSERT_EQ(p.switch_events().size(), 2u);
  ASSERT_EQ(p.control_windows().size(), 1u);
  // First *fault* is the window start (repairs are not faults); the last
  // change is the window end.
  EXPECT_DOUBLE_EQ(p.first_fault_time(), 1.0);
  EXPECT_DOUBLE_EQ(p.last_change_time(), 6.0);
}

TEST(FaultPlanTest, FlapExpandsToAlternatingFailRepairPairs) {
  FaultPlan p;
  p.add_link_flap("agg0_0", "core0", 1.0, 3, 0.5, 0.25);
  ASSERT_EQ(p.link_events().size(), 6u);
  const auto& ev = p.link_events();
  // fail @1, repair @1.5, fail @1.75, repair @2.25, fail @2.5, repair @3.
  EXPECT_DOUBLE_EQ(ev[0].time, 1.0);
  EXPECT_TRUE(ev[0].fail);
  EXPECT_DOUBLE_EQ(ev[1].time, 1.5);
  EXPECT_FALSE(ev[1].fail);
  EXPECT_DOUBLE_EQ(ev[2].time, 1.75);
  EXPECT_DOUBLE_EQ(ev[5].time, 3.0);
  EXPECT_FALSE(ev[5].fail);
  EXPECT_DOUBLE_EQ(p.first_fault_time(), 1.0);
}

TEST(FaultPlanTest, EveryPresetExistsAndEventuallyRepairsEverything) {
  for (const std::string& name : FaultPlan::preset_names()) {
    const auto p = FaultPlan::preset(name);
    ASSERT_TRUE(p.has_value()) << name;
    EXPECT_FALSE(p->empty()) << name;
    // Presets must leave the network healthy at the end (the packet
    // substrate cannot finish flows across a permanently dead link): every
    // fail has a matching later repair.
    int down = 0;
    for (const auto& e : p->link_events()) down += e.fail ? 1 : -1;
    EXPECT_EQ(down, 0) << name << ": unrepaired link failure";
    down = 0;
    for (const auto& e : p->switch_events()) down += e.fail ? 1 : -1;
    EXPECT_EQ(down, 0) << name << ": unrepaired switch failure";
    // Host outages fail NIC cables, so they must balance too. (A daemon
    // left down for good is fine — the data plane keeps forwarding.)
    down = 0;
    for (const auto& e : p->host_events()) down += e.fail ? 1 : -1;
    EXPECT_EQ(down, 0) << name << ": unrevived host";
  }
  EXPECT_FALSE(FaultPlan::preset("no-such-preset").has_value());
}

TEST(FaultPlanTest, ParsesTheDocumentedJsonSchema) {
  const std::string text = R"({
    "links":    [{"time": 2, "a": "agg0_0", "b": "core0"},
                 {"time": 4, "a": "agg0_0", "b": "core0", "fail": false}],
    "flaps":    [{"a": "agg0_1", "b": "core2", "first": 1,
                  "cycles": 2, "down": 0.5, "up": 0.5}],
    "switches": [{"time": 3, "node": "agg1_0"},
                 {"time": 5, "node": "agg1_0", "fail": false}],
    "control":  [{"start": 1, "end": 6, "loss": 0.5,
                  "delay": 0.02, "stale": true}]
  })";
  std::string error;
  const auto p = FaultPlan::parse_json(text, &error);
  ASSERT_TRUE(p.has_value()) << error;
  EXPECT_EQ(p->link_events().size(), 2u + 4u);  // 2 explicit + flap(2 cycles)
  EXPECT_EQ(p->switch_events().size(), 2u);
  ASSERT_EQ(p->control_windows().size(), 1u);
  EXPECT_TRUE(p->control_windows()[0].stale);
  EXPECT_DOUBLE_EQ(p->control_windows()[0].query_loss, 0.5);
  // "fail" defaults to true when omitted.
  EXPECT_TRUE(p->link_events()[0].fail);
  EXPECT_FALSE(p->link_events()[1].fail);
}

TEST(FaultPlanTest, MalformedJsonReportsAnErrorInsteadOfAborting) {
  std::string error;
  // Syntax error.
  EXPECT_FALSE(FaultPlan::parse_json("{\"links\": [", &error).has_value());
  EXPECT_FALSE(error.empty());
  // Wrong type.
  error.clear();
  EXPECT_FALSE(
      FaultPlan::parse_json(R"({"links": "not-an-array"})", &error)
          .has_value());
  EXPECT_FALSE(error.empty());
  // Missing required field.
  error.clear();
  EXPECT_FALSE(
      FaultPlan::parse_json(R"({"links": [{"a": "x", "b": "y"}]})", &error)
          .has_value());
  EXPECT_NE(error.find("time"), std::string::npos);
  // Semantically invalid (self-loop cable).
  error.clear();
  EXPECT_FALSE(FaultPlan::parse_json(
                   R"({"links": [{"time": 1, "a": "x", "b": "x"}]})", &error)
                   .has_value());
  EXPECT_FALSE(error.empty());
}

TEST(FaultPlanTest, ParsesAgentHostAndPartialSections) {
  const std::string text = R"({
    "agents":  [{"time": 1, "host": "host0_0", "restart": 0.5},
                {"time": 2, "host": "host1_0"}],
    "hosts":   [{"time": 2.5, "host": "host2_0"},
                {"time": 3, "host": "host2_0", "fail": false}],
    "partial": {"dard_fraction": 0.5, "seed": 11}
  })";
  std::string error;
  const auto p = FaultPlan::parse_json(text, &error);
  ASSERT_TRUE(p.has_value()) << error;
  ASSERT_EQ(p->agent_events().size(), 2u);
  EXPECT_DOUBLE_EQ(p->agent_events()[0].restart_after, 0.5);
  EXPECT_LT(p->agent_events()[1].restart_after, 0.0);  // down for good
  ASSERT_EQ(p->host_events().size(), 2u);
  EXPECT_TRUE(p->host_events()[0].fail);
  EXPECT_FALSE(p->host_events()[1].fail);
  ASSERT_TRUE(p->partial_deployment().has_value());
  EXPECT_DOUBLE_EQ(p->partial_deployment()->dard_fraction, 0.5);
  EXPECT_EQ(p->partial_deployment()->seed, 11u);
  EXPECT_DOUBLE_EQ(p->first_fault_time(), 1.0);
}

TEST(FaultPlanTest, UnknownKeysAreRejectedNamingTheKey) {
  // A typo'd key must fail the plan naming the key and where it sits — a
  // plan that silently ignores "faill" tests nothing.
  std::string error;
  EXPECT_FALSE(
      FaultPlan::parse_json(
          R"({"links": [{"time": 1, "a": "x", "b": "y", "bogus": 3}]})",
          &error)
          .has_value());
  EXPECT_NE(error.find("bogus"), std::string::npos) << error;
  EXPECT_NE(error.find("links[0]"), std::string::npos) << error;

  error.clear();
  EXPECT_FALSE(FaultPlan::parse_json(R"({"wibble": []})", &error).has_value());
  EXPECT_NE(error.find("wibble"), std::string::npos) << error;

  error.clear();
  EXPECT_FALSE(FaultPlan::parse_json(
                   R"({"agents": [{"time": 1, "host": "h", "retsart": 2}]})",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("retsart"), std::string::npos) << error;
  EXPECT_NE(error.find("agents[0]"), std::string::npos) << error;
}

TEST(FaultPlanTest, OutOfRangeValuesNameTheOffendingKey) {
  std::string error;
  EXPECT_FALSE(
      FaultPlan::parse_json(
          R"({"links": [{"time": 1, "a": "x", "b": "y"},
                        {"time": -2, "a": "x", "b": "y"}]})",
          &error)
          .has_value());
  EXPECT_NE(error.find("links[1].time"), std::string::npos) << error;

  error.clear();
  EXPECT_FALSE(FaultPlan::parse_json(
                   R"({"control": [{"start": 3, "end": 2, "loss": 0.5}]})",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("control[0].end"), std::string::npos) << error;

  error.clear();
  EXPECT_FALSE(
      FaultPlan::parse_json(
          R"({"agents": [{"time": 1, "host": "h", "restart": -0.5}]})", &error)
          .has_value());
  EXPECT_NE(error.find("agents[0].restart"), std::string::npos) << error;

  error.clear();
  EXPECT_FALSE(FaultPlan::parse_json(R"({"partial": {"dard_fraction": 1.5}})",
                                     &error)
                   .has_value());
  EXPECT_NE(error.find("partial.dard_fraction"), std::string::npos) << error;
}

TEST(FaultPlanTest, LoadResolvesPresetsAndRejectsUnknownSpecs) {
  std::string error;
  EXPECT_TRUE(FaultPlan::load("link-flap", &error).has_value()) << error;
  EXPECT_FALSE(FaultPlan::load("/no/such/file.json", &error).has_value());
  // The error names the presets so a typo is self-diagnosing.
  EXPECT_NE(error.find("link-flap"), std::string::npos);
}

// ------------------------------------------------------------ FaultInjector

class InjectorTest : public ::testing::Test {
 protected:
  InjectorTest() : topo_(build_fat_tree({.p = 4})), sim_(topo_) {
    sim_.set_agent(&agent_);
  }

  [[nodiscard]] NodeId node(const std::string& name) const {
    for (const topo::Node& n : topo_.nodes())
      if (n.name == name) return n.id;
    ADD_FAILURE() << "unknown node " << name;
    return NodeId{};
  }

  [[nodiscard]] bool cable_failed(const std::string& a,
                                  const std::string& b) const {
    const LinkId l = topo_.find_link(node(a), node(b));
    return sim_.link_state().failed(l);
  }

  Topology topo_;
  FlowSimulator sim_;
  baselines::EcmpAgent agent_;
};

TEST_F(InjectorTest, OverlappingSwitchAndLinkFailuresRefCount) {
  // The cable agg0_0--core0 fails twice: once by itself, once as part of
  // the whole-switch outage. It must stay down until BOTH causes repair.
  FaultPlan plan;
  plan.fail_link(1.0, "agg0_0", "core0");
  plan.fail_switch(2.0, "agg0_0");
  plan.repair_link(3.0, "agg0_0", "core0");  // switch cause still live
  plan.repair_switch(4.0, "agg0_0");

  FaultInjector inj(sim_, plan, /*seed=*/1);
  inj.install();

  sim_.run_until(1.5);
  EXPECT_TRUE(cable_failed("agg0_0", "core0"));
  EXPECT_EQ(inj.cables_down(), 1u);

  sim_.run_until(2.5);  // switch outage downs every agg0_0 cable
  EXPECT_TRUE(cable_failed("agg0_0", "core0"));
  EXPECT_TRUE(cable_failed("agg0_0", "core1"));
  EXPECT_GT(inj.cables_down(), 1u);

  sim_.run_until(3.5);  // link repair alone must NOT bring the cable up
  EXPECT_TRUE(cable_failed("agg0_0", "core0"));

  sim_.run_until(4.5);
  EXPECT_FALSE(cable_failed("agg0_0", "core0"));
  EXPECT_FALSE(cable_failed("agg0_0", "core1"));
  EXPECT_EQ(inj.cables_down(), 0u);
}

TEST_F(InjectorTest, CountsOnlyAppliedTransitions) {
  // agg0_0 on a p=4 fat-tree has 4 cables (2 ToRs down, 2 cores up). The
  // individually-failed cable contributes its own fail+repair transitions;
  // the switch outage only transitions the cables it exclusively owns.
  FaultPlan plan;
  plan.fail_link(1.0, "agg0_0", "core0");
  plan.fail_switch(2.0, "agg0_0");
  plan.repair_link(3.0, "agg0_0", "core0");
  plan.repair_switch(4.0, "agg0_0");
  FaultInjector inj(sim_, plan, 1);
  inj.install();
  sim_.run_until(10.0);
  // fail@1: 1 transition. switch fail@2: 3 new cables down (core0 already
  // down). repair@3: 0 (ref-counted). switch repair@4: all 4 come up.
  EXPECT_EQ(inj.injected(), 1u + 3u + 0u + 4u);
}

TEST_F(InjectorTest, ControlWindowDrivesTheDegradationModel) {
  FaultPlan plan;
  plan.add_control_window(ControlWindow{1.0, 2.0, 1.0, 0.02, true});
  FaultInjector inj(sim_, plan, 1);
  inj.install();

  sim_.run_until(0.5);
  EXPECT_FALSE(inj.model().attempt_lost());
  EXPECT_DOUBLE_EQ(inj.model().reply_delay(), 0.0);
  EXPECT_FALSE(inj.model().stale_active());

  sim_.run_until(1.5);
  EXPECT_TRUE(inj.model().attempt_lost());  // loss = 1.0
  EXPECT_DOUBLE_EQ(inj.model().reply_delay(), 0.02);
  EXPECT_TRUE(inj.model().stale_active());

  sim_.run_until(2.5);
  EXPECT_FALSE(inj.model().attempt_lost());
  EXPECT_FALSE(inj.model().stale_active());
  EXPECT_EQ(inj.injected(), 2u);  // window start + end
}

TEST_F(InjectorTest, UnknownPlanNodeAborts) {
  FaultPlan plan;
  plan.fail_link(1.0, "agg0_0", "no_such_switch");
  EXPECT_DEATH(FaultInjector(sim_, plan, 1), "unknown topology node");
}

// ------------------------------------------------- ControlPlaneModel + SQS

TEST(ControlModelTest, LossDrawsComeFromItsOwnSeededRng) {
  ControlPlaneModel a(7), b(7), c(8);
  a.set_degradation(0.5, 0.0);
  b.set_degradation(0.5, 0.0);
  c.set_degradation(0.5, 0.0);
  bool differs = false;
  int lost = 0;
  for (int i = 0; i < 64; ++i) {
    const bool la = a.attempt_lost();
    EXPECT_EQ(la, b.attempt_lost());  // same seed, same draws
    if (la != c.attempt_lost()) differs = true;
    if (la) ++lost;
  }
  EXPECT_TRUE(differs);  // different seed, different stream
  EXPECT_GT(lost, 0);
  EXPECT_LT(lost, 64);
}

TEST(ControlModelTest, StaleSnapshotFreezesBoardState) {
  const Topology t = build_fat_tree({.p = 4});
  fabric::LinkStateBoard board(t);
  const LinkId some_link(0);
  board.add_elephant(some_link);

  ControlPlaneModel model(1);
  model.capture_stale(board);
  ASSERT_TRUE(model.stale_active());
  const auto [bw0, flows0] = model.stale_state(some_link.value());
  EXPECT_EQ(flows0, 1u);

  // Board moves on; the snapshot must not.
  board.add_elephant(some_link);
  board.set_failed(some_link, true);
  const auto [bw1, flows1] = model.stale_state(some_link.value());
  EXPECT_EQ(flows1, 1u);
  EXPECT_DOUBLE_EQ(bw1, bw0);

  // The service serves the frozen state while stale, live state after.
  fabric::StateQueryService service(board, nullptr);
  service.set_model(&model);
  EXPECT_EQ(service.link_state(some_link).elephant_flows, 1u);
  model.clear_stale();
  EXPECT_EQ(service.link_state(some_link).elephant_flows, 2u);
  EXPECT_DOUBLE_EQ(service.link_state(some_link).bandwidth, 1.0);  // failed
}

TEST(ControlModelTest, LostExchangesChargeQueryBytesButNoReply) {
  const Topology t = build_fat_tree({.p = 4});
  fabric::LinkStateBoard board(t);
  fabric::ControlPlaneAccountant accountant;
  StateQueryService service(board, &accountant);
  ControlPlaneModel model(1);
  model.set_degradation(1.0, 0.0);
  service.set_model(&model);

  // Attempts charge nothing; the round's tally is charged once, a lost
  // exchange with its query and no reply.
  std::size_t delivered = 0;
  for (int i = 0; i < 5; ++i) {
    const fabric::QueryAttempt qa = service.attempt_query();
    EXPECT_FALSE(qa.delivered);
    if (qa.delivered) ++delivered;
  }
  EXPECT_EQ(accountant.message_count(), 0u);
  service.charge(0.0, 5, delivered);
  // The host sent 5 queries into the void: query bytes accounted, zero
  // reply bytes, counters consistent.
  EXPECT_EQ(accountant.total_bytes(fabric::ControlCategory::DardQuery),
            5 * fabric::kDardQueryBytes);
  EXPECT_EQ(accountant.total_bytes(fabric::ControlCategory::DardReply), 0u);
  EXPECT_EQ(accountant.message_count(), 5u);
  EXPECT_EQ(accountant.message_count(fabric::ControlCategory::DardQuery), 5u);
  EXPECT_EQ(accountant.message_count(fabric::ControlCategory::DardReply), 0u);

  model.clear_degradation();
  const fabric::QueryAttempt qa = service.attempt_query();
  EXPECT_TRUE(qa.delivered);
  service.charge(0.0, 1, qa.delivered ? 1 : 0);
  EXPECT_EQ(accountant.total_bytes(fabric::ControlCategory::DardReply),
            fabric::kDardReplyBytes);
}

// --------------------------------------------- PathMonitor fault hardening

class MonitorFaultTest : public ::testing::Test {
 protected:
  MonitorFaultTest() : topo_(build_fat_tree({.p = 4})), sim_(topo_) {
    sim_.set_agent(&agent_);
    src_tor_ = topo_.tors().front();
    dst_tor_ = topo_.tors().back();
    service_.emplace(sim_.link_state(), &sim_.accountant());
    service_->set_model(&model_);
  }

  Topology topo_;
  FlowSimulator sim_;
  baselines::EcmpAgent agent_;
  NodeId src_tor_, dst_tor_;
  ControlPlaneModel model_{/*seed=*/99};
  std::optional<StateQueryService> service_;
};

TEST_F(MonitorFaultTest, TotalQueryLossBoundsTheRoundAndFailsEverySwitch) {
  model_.set_degradation(1.0, 0.0);
  PathMonitor m(sim_, src_tor_, dst_tor_);
  const DardConfig cfg;  // 3 retries
  const core::RefreshStats stats = m.refresh(0.0, *service_, cfg);
  // 9 switches x (1 + 3 retries) exchanges, all timed out, none answered —
  // and refresh returned (the no-blocking guarantee is structural: the
  // retry loop is bounded, there is nothing to wait on).
  const std::uint32_t expected =
      static_cast<std::uint32_t>(m.queried_switches().size()) *
      (1 + cfg.query_max_retries);
  EXPECT_EQ(stats.queries, expected);
  EXPECT_EQ(stats.timeouts, expected);
  EXPECT_EQ(stats.retries, expected - m.queried_switches().size());
  EXPECT_EQ(stats.failed_switches, m.queried_switches().size());
  // Never-assembled paths sit the round out instead of scheduling on air.
  for (const auto& s : m.path_states()) EXPECT_FALSE(s.assembled);
  Rng rng(1);
  EXPECT_FALSE(m.propose(0, rng).has_value());
}

TEST_F(MonitorFaultTest, LateRepliesTimeOutAndRetriesAgeTheFreshnessStamp) {
  PathMonitor m(sim_, src_tor_, dst_tor_);
  DardConfig cfg;
  cfg.query_timeout = 0.05;
  model_.set_degradation(0.0, 0.1);  // delivered, but later than the timeout
  core::RefreshStats stats = m.refresh(0.0, *service_, cfg);
  EXPECT_EQ(stats.failed_switches, m.queried_switches().size());

  // Under the timeout the reply is accepted and the data usable.
  model_.set_degradation(0.0, 0.02);
  stats = m.refresh(1.0, *service_, cfg);
  EXPECT_EQ(stats.failed_switches, 0u);
  EXPECT_EQ(stats.timeouts, 0u);
  for (const auto& s : m.path_states()) EXPECT_TRUE(s.assembled);
}

TEST_F(MonitorFaultTest, LastKnownGoodServesUntilTheStalenessCap) {
  PathMonitor m(sim_, src_tor_, dst_tor_);
  DardConfig cfg;
  cfg.state_staleness_cap = 5.0;

  // A clean refresh at t=1 populates the last-known-good cache.
  m.refresh(1.0, *service_, cfg);
  for (const auto& s : m.path_states()) ASSERT_TRUE(s.assembled);

  // Channel dies. Within the cap, paths still assemble from the cache.
  model_.set_degradation(1.0, 0.0);
  m.refresh(3.0, *service_, cfg);
  for (const auto& s : m.path_states()) EXPECT_TRUE(s.assembled);

  // Past the cap the cached state is distrusted and paths sit out.
  m.refresh(7.0, *service_, cfg);
  for (const auto& s : m.path_states()) EXPECT_FALSE(s.assembled);
}

TEST_F(MonitorFaultTest, DeadPathsBlacklistThenClearAfterProbation) {
  PathMonitor m(sim_, src_tor_, dst_tor_);
  DardConfig cfg;
  cfg.probation_rounds = 1;

  // Fail a link unique to path 0: its agg->core hop. (The ToR->agg hop is
  // shared with the sibling path through the same aggregation switch and
  // would blacklist both.)
  m.refresh(0.0, *service_, cfg);
  const auto& path0 = sim_.paths().tor_paths(src_tor_, dst_tor_)[0];
  LinkId victim;
  for (const LinkId l : path0.links) {
    const topo::Link& link = topo_.link(l);
    if (topo_.node(link.src).kind == topo::NodeKind::Agg &&
        topo_.node(link.dst).kind == topo::NodeKind::Core) {
      victim = l;
      break;
    }
  }
  ASSERT_TRUE(victim.valid());
  sim_.link_state().set_failed(victim, true);

  core::RefreshStats stats = m.refresh(1.0, *service_, cfg);
  EXPECT_EQ(stats.newly_blacklisted, 1u);
  EXPECT_TRUE(m.is_blacklisted(0));
  EXPECT_EQ(m.blacklisted_count(), 1u);
  EXPECT_FALSE(m.all_paths_blacklisted());

  // Re-reading the same dead link never double-counts.
  stats = m.refresh(2.0, *service_, cfg);
  EXPECT_EQ(stats.newly_blacklisted, 0u);
  EXPECT_TRUE(m.is_blacklisted(0));

  // A blacklisted path is never a move target: with a flow on healthy
  // path 1 and path 0 idle (BoNF = full bandwidth, normally the best
  // target), propose must not pick path 0.
  m.add_flow(FlowId(0), 1);
  sim_.link_state().set_failed(victim, false);
  Rng rng(1);
  for (int round = 0; round < 16; ++round) {
    const auto move = m.propose(0, rng);
    if (move.has_value()) {
      EXPECT_NE(move->to, 0u);
    }
  }
  m.remove_flow(FlowId(0), 1);

  // Repaired: healthy readings walk probation down, then clear.
  stats = m.refresh(3.0, *service_, cfg);  // probation 1 -> 0
  EXPECT_TRUE(m.is_blacklisted(0));
  EXPECT_EQ(stats.cleared, 0u);
  stats = m.refresh(4.0, *service_, cfg);
  EXPECT_EQ(stats.cleared, 1u);
  EXPECT_FALSE(m.is_blacklisted(0));
  EXPECT_EQ(m.blacklisted_count(), 0u);
}

TEST_F(MonitorFaultTest, AllPathsBlacklistedFallsBackWithoutRngDraws) {
  PathMonitor m(sim_, src_tor_, dst_tor_);
  const DardConfig cfg;
  // Fail every switch-switch link so all 4 paths collapse to the floor.
  for (const topo::Link& l : topo_.links())
    if (topo_.is_switch_switch(l.id)) sim_.link_state().set_failed(l.id, true);
  m.refresh(0.0, *service_, cfg);
  EXPECT_TRUE(m.all_paths_blacklisted());

  m.add_flow(FlowId(0), 0);
  Rng a(42), b(42);
  core::RoundEvaluation eval;
  EXPECT_FALSE(m.propose(0, a, &eval).has_value());
  EXPECT_TRUE(eval.fallback);
  EXPECT_FALSE(eval.considered);
  // The fallback consumed nothing from the stream: both clones still agree.
  EXPECT_EQ(a.next_below(1000), b.next_below(1000));
}

}  // namespace
}  // namespace dard::faults
