// Agent-level fault tolerance (DESIGN.md §16): daemon crash/restart with
// cold-start re-sync, host churn, partial DARD deployment, and the
// fabric::Auditor runtime invariant checker. The daemons' soft state
// (monitors, selfish-moves history, blacklists) is lost on a crash and
// rebuilt through the ordinary StateQueryService machinery on restart;
// incarnation stamps make stale in-flight decisions no-ops instead of
// corruption.
#include <gtest/gtest.h>

#include "baselines/ecmp.h"
#include "dard/dard_agent.h"
#include "fabric/auditor.h"
#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "flowsim/simulator.h"
#include "harness/experiment.h"
#include "topology/builders.h"

namespace dard {
namespace {

using core::DardAgent;
using core::DardConfig;
using flowsim::FlowSimulator;
using flowsim::FlowSpec;
using topo::build_fat_tree;
using topo::Topology;

FlowSpec long_flow(NodeId src, NodeId dst, std::uint16_t port) {
  FlowSpec s;
  s.src_host = src;
  s.dst_host = dst;
  s.size = 4'000'000'000ull;
  s.arrival = 0.0;
  s.src_port = port;
  s.dst_port = 80;
  return s;
}

DardConfig tight_dard() {
  DardConfig cfg;
  cfg.query_interval = 0.5;
  cfg.schedule_base = 1.0;
  cfg.schedule_jitter = 1.0;
  return cfg;
}

// ------------------------------------------------- daemon crash and restart

TEST(AgentCrash, CrashDropsSoftStateAndRestartReadopts) {
  const Topology t = build_fat_tree({.p = 4});
  FlowSimulator sim(t);
  DardAgent agent(tight_dard());
  sim.set_agent(&agent);

  const NodeId host = t.hosts().front();
  sim.submit(long_flow(host, t.hosts().back(), 1));
  sim.run_until(2.0);  // promoted and monitored
  ASSERT_GT(agent.live_monitor_count(), 0u);
  const core::DardHostDaemon* d = agent.daemon(host);
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->alive());
  EXPECT_EQ(d->incarnation(), 1u);

  // Crash: monitors and tracked elephants are gone, the incarnation bumps.
  agent.on_daemon_crash(sim, host);
  EXPECT_FALSE(d->alive());
  EXPECT_EQ(d->incarnation(), 2u);
  EXPECT_EQ(agent.live_monitor_count(), 0u);

  // A second crash of an already-dead daemon is a no-op (host outage
  // overlapping an explicit agent crash must not double-bump).
  agent.on_daemon_crash(sim, host);
  EXPECT_EQ(d->incarnation(), 2u);

  // Restart: same incarnation (only crashes bump it), and the cold-start
  // walk re-adopts the still-live elephant into a fresh monitor.
  agent.on_daemon_restart(sim, host);
  EXPECT_TRUE(d->alive());
  EXPECT_EQ(d->incarnation(), 2u);
  EXPECT_GT(agent.live_monitor_count(), 0u);

  sim.run_until_flows_done();
}

TEST(AgentCrash, DeadDaemonIgnoresElephantsUntilRestart) {
  const Topology t = build_fat_tree({.p = 4});
  FlowSimulator sim(t);
  DardAgent agent(tight_dard());
  sim.set_agent(&agent);

  const NodeId host = t.hosts().front();
  sim.submit(long_flow(host, t.hosts().back(), 1));
  sim.run_until(2.0);
  agent.on_daemon_crash(sim, host);

  // A new elephant born while the daemon is down is not adopted: scheduled
  // query/round ticks from the dead incarnation no-op, and on_elephant
  // drops straight through.
  FlowSpec late = long_flow(host, t.hosts()[13], 2);
  late.arrival = 2.0;
  sim.submit(late);
  sim.run_until(4.0);
  EXPECT_EQ(agent.live_monitor_count(), 0u);

  // Restart adopts BOTH live elephants in one cold-start walk.
  agent.on_daemon_restart(sim, host);
  sim.run_until(4.5);
  EXPECT_GT(agent.live_monitor_count(), 0u);
  sim.run_until_flows_done();
}

TEST(AgentCrash, CrashWithoutRestartStillCompletesTheRun) {
  // The fault outlives the run: the daemon never comes back, but the data
  // plane is untouched — every transfer still completes on its last
  // installed path.
  const Topology t = build_fat_tree({.p = 4});
  harness::ExperimentConfig cfg;
  cfg.scheduler = harness::SchedulerKind::Dard;
  cfg.workload.pattern.kind = traffic::PatternKind::Stride;
  cfg.workload.flow_size = 64 * kMiB;
  cfg.workload.mean_interarrival = 0.1;
  cfg.workload.duration = 0.3;
  cfg.workload.seed = 7;
  cfg.elephant_threshold = 0.1;
  cfg.dard.query_interval = 0.1;
  cfg.dard.schedule_base = 0.1;
  cfg.dard.schedule_jitter = 0.1;
  cfg.faults.plan.crash_daemon(0.2, "host0_0");  // never restarts

  const harness::ExperimentResult r = run_experiment(t, cfg);
  ASSERT_GT(r.flows, 0u);
  EXPECT_EQ(r.recovery.agent_crashes, 1u);
  EXPECT_EQ(r.recovery.agent_restarts, 0u);
  EXPECT_EQ(r.recovery.reconvergence_s, -1);
}

TEST(AgentCrash, AgentChurnPresetRunsEndToEnd) {
  // The shipped agent-churn preset, auditor on: daemon crash+restart, a
  // daemon down for good, and a host off the fabric and back. Completion
  // with zero auditor violations (fail-fast would abort) is the core
  // assertion; 512 MiB flows at 1 Gbps outlive the last preset event at
  // t=2.75, so every crash and restart must fire and flow into
  // ExperimentResult.recovery.
  const Topology t = build_fat_tree({.p = 4});
  harness::ExperimentConfig cfg;
  cfg.scheduler = harness::SchedulerKind::Dard;
  cfg.audit = true;
  cfg.workload.pattern.kind = traffic::PatternKind::Stride;
  cfg.workload.flow_size = 512 * kMiB;
  cfg.workload.mean_interarrival = 0.1;
  cfg.workload.duration = 0.5;
  cfg.workload.seed = 7;
  cfg.elephant_threshold = 0.1;
  cfg.dard.query_interval = 0.1;
  cfg.dard.schedule_base = 0.25;
  cfg.dard.schedule_jitter = 0.25;
  cfg.dard.delta = 1 * kMbps;
  cfg.faults.plan = *faults::FaultPlan::preset("agent-churn");

  const harness::ExperimentResult r = run_experiment(t, cfg);
  ASSERT_GT(r.flows, 0u);
  // crash host0_0 (restarts), crash host1_0 (for good), host2_0 outage
  // (crash at fail, restart at revive).
  EXPECT_EQ(r.recovery.agent_crashes, 3u);
  EXPECT_EQ(r.recovery.agent_restarts, 2u);
}

TEST(AgentCrash, OverlappingCrashWindowsReadoptEachElephantOnce) {
  // Two crash windows on one host overlap: the second crash (t=0.5) hits a
  // dead daemon and is a no-op, but its restart (t=1.0) still fires on the
  // daemon the first restart (t=0.7) revived. That restart's re-adopt walk
  // must not register live elephants a second time: a duplicate outlives
  // its flow, keeps the monitor alive, and a later round moves the
  // finished flow (the auditor run aborts).
  {
    const Topology t = build_fat_tree({.p = 4});
    harness::ExperimentConfig cfg;
    cfg.scheduler = harness::SchedulerKind::Dard;
    cfg.audit = true;
    cfg.workload.pattern.kind = traffic::PatternKind::Stride;
    cfg.workload.flow_size = 512 * kMiB;
    cfg.workload.mean_interarrival = 0.1;
    cfg.workload.duration = 0.5;
    cfg.workload.seed = 7;
    cfg.elephant_threshold = 0.1;
    cfg.dard.query_interval = 0.1;
    cfg.dard.schedule_base = 0.25;
    cfg.dard.schedule_jitter = 0.25;
    cfg.dard.delta = 1 * kMbps;
    cfg.faults.plan.crash_daemon(0.3, "host0_0", 0.4);
    cfg.faults.plan.crash_daemon(0.5, "host0_0", 0.5);

    const harness::ExperimentResult r = run_experiment(t, cfg);
    ASSERT_GT(r.flows, 0u);
    EXPECT_EQ(r.recovery.agent_crashes, 2u);
    EXPECT_EQ(r.recovery.agent_restarts, 2u);
  }

  // The same sequence driven directly: crash, restart, restart.
  const Topology t = build_fat_tree({.p = 4});
  FlowSimulator sim(t);
  DardAgent agent(tight_dard());
  sim.set_agent(&agent);

  const NodeId host = t.hosts().front();
  const NodeId dst = t.hosts().back();
  sim.submit(long_flow(host, dst, 1));
  sim.run_until(2.0);  // promoted and monitored
  agent.on_daemon_crash(sim, host);
  agent.on_daemon_restart(sim, host);
  agent.on_daemon_restart(sim, host);  // the daemon is already up

  const core::DardHostDaemon* d = agent.daemon(host);
  ASSERT_NE(d, nullptr);
  const core::PathMonitor* m = d->monitor_for(t.tor_of_host(dst));
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->tracked_flows(), 1u);

  sim.run_until_flows_done();
  EXPECT_EQ(agent.live_monitor_count(), 0u);
}

TEST(AgentCrash, PacketSubstrateDeliversAgentFaultsThroughTheSameHooks) {
  // Substrate-neutrality: the identical plan mechanism drives the packet
  // simulator's shared ControlAgent, with the auditor checking the packet
  // router's refcount books every period.
  const Topology t = build_fat_tree({.p = 4});
  harness::ExperimentConfig cfg;
  cfg.substrate = harness::Substrate::Packet;
  cfg.scheduler = harness::SchedulerKind::Dard;
  cfg.audit = true;
  cfg.workload.pattern.kind = traffic::PatternKind::Stride;
  cfg.workload.flow_size = 8 * kMiB;
  cfg.workload.mean_interarrival = 0.5;
  cfg.workload.duration = 1.0;
  cfg.workload.seed = 7;
  cfg.elephant_threshold = 0.1;
  cfg.dard.query_interval = 0.1;
  cfg.dard.schedule_base = 0.1;
  cfg.dard.schedule_jitter = 0.1;
  cfg.faults.plan.crash_daemon(0.05, "host0_0", 0.1);

  const harness::ExperimentResult r = run_experiment(t, cfg);
  ASSERT_GT(r.flows, 0u);
  EXPECT_EQ(r.recovery.agent_crashes, 1u);
  EXPECT_EQ(r.recovery.agent_restarts, 1u);
}

// ------------------------------------------------------------- host churn

TEST(HostChurn, HostOutageOrphansFlowsAndRevivalCompletesThem) {
  const Topology t = build_fat_tree({.p = 4});
  FlowSimulator sim(t);
  DardAgent agent(tight_dard());
  sim.set_agent(&agent);

  const NodeId victim = t.hosts().front();
  const FlowId id = sim.submit(long_flow(victim, t.hosts().back(), 1));
  // The outage starts after the flow's elephant promotion at t=1 so the
  // victim's daemon exists (and is monitoring) when its host dies.
  faults::FaultPlan plan;
  plan.fail_host(1.25, "host0_0");
  plan.revive_host(2.0, "host0_0");
  faults::FaultInjector inj(sim, plan, 1);
  inj.set_agent(&agent);
  inj.install();

  sim.run_until(1.5);
  // Off the fabric: the NIC cable is down, the flow starves, the daemon is
  // dead (crashed by the outage, not merely idle).
  EXPECT_LT(sim.rate_of(id), 1e3);
  ASSERT_NE(agent.daemon(victim), nullptr);
  EXPECT_FALSE(agent.daemon(victim)->alive());
  EXPECT_EQ(inj.agent_crashes(), 1u);

  sim.run_until(2.5);
  // Revived: cables repaired first, then the daemon cold-starts and
  // re-adopts its orphaned elephant.
  EXPECT_TRUE(agent.daemon(victim)->alive());
  EXPECT_EQ(inj.agent_restarts(), 1u);
  EXPECT_GT(sim.rate_of(id), 1e8);
  sim.run_until_flows_done();
}

TEST(HostChurn, InjectorRequiresAnAgentForAgentLevelFaults) {
  const Topology t = build_fat_tree({.p = 4});
  FlowSimulator sim(t);
  baselines::EcmpAgent agent;
  sim.set_agent(&agent);
  faults::FaultPlan plan;
  plan.crash_daemon(1.0, "host0_0");
  faults::FaultInjector inj(sim, plan, 1);
  EXPECT_DEATH(inj.install(), "set_agent");
}

TEST(HostChurn, AgentFaultOnASwitchAborts) {
  const Topology t = build_fat_tree({.p = 4});
  FlowSimulator sim(t);
  baselines::EcmpAgent agent;
  sim.set_agent(&agent);
  faults::FaultPlan plan;
  plan.crash_daemon(1.0, "agg0_0");
  EXPECT_DEATH(faults::FaultInjector(sim, plan, 1), "non-host");
}

// ----------------------------------------------------- partial deployment

TEST(PartialDeployment, FullDeploymentDrawsNoRngAndMatchesTheDefault) {
  const Topology t = build_fat_tree({.p = 4});
  harness::ExperimentConfig cfg;
  cfg.scheduler = harness::SchedulerKind::Dard;
  cfg.workload.pattern.kind = traffic::PatternKind::Stride;
  cfg.workload.flow_size = 128 * kMiB;
  cfg.workload.mean_interarrival = 0.2;
  cfg.workload.duration = 1.0;
  cfg.workload.seed = 3;

  const harness::ExperimentResult base = run_experiment(t, cfg);
  cfg.dard.deploy_fraction = 1.0;  // explicit full deployment
  cfg.dard.deploy_seed = 99;       // must be irrelevant at fraction 1
  const harness::ExperimentResult full = run_experiment(t, cfg);
  EXPECT_EQ(base.avg_transfer_time, full.avg_transfer_time);
  EXPECT_EQ(base.reroutes, full.reroutes);
  EXPECT_EQ(base.control_bytes, full.control_bytes);
}

TEST(PartialDeployment, FractionZeroIsPlainEcmpAndHalfIsDeterministic) {
  const Topology t = build_fat_tree({.p = 4});
  harness::ExperimentConfig cfg;
  cfg.scheduler = harness::SchedulerKind::Dard;
  cfg.workload.pattern.kind = traffic::PatternKind::Stride;
  cfg.workload.flow_size = 256 * kMiB;
  cfg.workload.mean_interarrival = 0.1;
  cfg.workload.duration = 0.5;
  cfg.workload.seed = 3;
  cfg.elephant_threshold = 0.1;
  cfg.dard.query_interval = 0.1;
  cfg.dard.schedule_base = 0.1;
  cfg.dard.schedule_jitter = 0.1;
  cfg.dard.delta = 1 * kMbps;

  cfg.dard.deploy_fraction = 0.0;
  const harness::ExperimentResult none = run_experiment(t, cfg);
  EXPECT_EQ(none.reroutes, 0u)
      << "a 0% rollout must never schedule a selfish move";
  EXPECT_EQ(none.control_bytes, 0u);

  cfg.dard.deploy_fraction = 0.5;
  cfg.dard.deploy_seed = 7;
  const harness::ExperimentResult a = run_experiment(t, cfg);
  const harness::ExperimentResult b = run_experiment(t, cfg);
  EXPECT_EQ(a.avg_transfer_time, b.avg_transfer_time);
  EXPECT_EQ(a.reroutes, b.reroutes);
  EXPECT_EQ(a.control_bytes, b.control_bytes);
}

TEST(PartialDeployment, PlanPartialSectionReachesTheAgent) {
  // A plan-declared rollout flows through make_agent into DardConfig.
  harness::ExperimentConfig cfg;
  cfg.scheduler = harness::SchedulerKind::Dard;
  cfg.faults.plan.set_partial_deployment(0.25, 42);
  const auto agent = harness::make_agent(cfg);
  const auto* dard = dynamic_cast<const DardAgent*>(agent.get());
  ASSERT_NE(dard, nullptr);
  EXPECT_DOUBLE_EQ(dard->config().deploy_fraction, 0.25);
  EXPECT_EQ(dard->config().deploy_seed, 42u);
}

TEST(PartialDeployment, DeployedSubsetIsSeededAndCoversOnlyHosts) {
  const Topology t = build_fat_tree({.p = 4});
  DardConfig cfg = tight_dard();
  cfg.deploy_fraction = 0.5;
  cfg.deploy_seed = 7;

  FlowSimulator sim_a(t), sim_b(t);
  DardAgent a(cfg), b(cfg);
  sim_a.set_agent(&a);
  sim_b.set_agent(&b);
  EXPECT_EQ(a.deployed_hosts(), b.deployed_hosts());
  EXPECT_GT(a.deployed_hosts(), 0u);
  EXPECT_LT(a.deployed_hosts(), t.hosts().size());

  cfg.deploy_seed = 8;
  FlowSimulator sim_c(t);
  DardAgent c(cfg);
  sim_c.set_agent(&c);
  // Same fraction, fresh seed: the subset is redrawn (its size may or may
  // not coincide; membership deciding a host either way is all we pin).
  bool membership_differs = false;
  for (const NodeId h : t.hosts())
    if (a.deployed(h) != c.deployed(h)) membership_differs = true;
  EXPECT_TRUE(membership_differs);
}

// ----------------------------------------------------------------- auditor

TEST(Auditor, CleanRunPassesEveryPeriodicCheck) {
  const Topology t = build_fat_tree({.p = 4});
  FlowSimulator sim(t);
  DardAgent agent(tight_dard());
  sim.set_agent(&agent);
  fabric::Auditor auditor(sim, /*period=*/0.25, /*fail_fast=*/false);
  sim.set_auditor(&auditor);
  auditor.start();

  sim.submit(long_flow(t.hosts().front(), t.hosts().back(), 1));
  sim.submit(long_flow(t.hosts()[1], t.hosts()[14], 2));
  sim.run_until_flows_done();
  auditor.check_now();

  EXPECT_GT(auditor.passes(), 1u);
  EXPECT_GT(auditor.checks_run(), 0u);
  EXPECT_TRUE(auditor.violations().empty());
}

TEST(Auditor, CollectModeRecordsIncarnationRegression) {
  const Topology t = build_fat_tree({.p = 4});
  FlowSimulator sim(t);
  fabric::Auditor auditor(sim, 0.25, /*fail_fast=*/false);
  const NodeId host = t.hosts().front();
  auditor.note_incarnation(host, 3);
  auditor.note_incarnation(host, 3);  // same incarnation re-reported: fine
  EXPECT_TRUE(auditor.violations().empty());
  auditor.note_incarnation(host, 2);  // moved backwards: a stale closure ran
  ASSERT_EQ(auditor.violations().size(), 1u);
  EXPECT_NE(auditor.violations()[0].what.find("incarnation"),
            std::string::npos);
}

TEST(Auditor, FlagsAFlowWithoutACompletionTimer) {
  const Topology t = build_fat_tree({.p = 4});
  FlowSimulator sim(t);
  baselines::EcmpAgent agent;
  sim.set_agent(&agent);
  fabric::Auditor auditor(sim, 0.25, /*fail_fast=*/false);
  const FlowId id =
      sim.submit(long_flow(t.hosts().front(), t.hosts().back(), 1));
  sim.run_until(0.1);
  auditor.check_now();
  EXPECT_TRUE(auditor.violations().empty());

  // A live flow with a rate but no completion deadline would never finish.
  sim.events().disarm(FlowSimulator::completion_key(id));
  auditor.check_now();
  ASSERT_EQ(auditor.violations().size(), 1u);
  EXPECT_NE(auditor.violations()[0].what.find("no completion timer"),
            std::string::npos);
}

TEST(AuditorDeathTest, CorruptedRefcountAbortsInFailFastMode) {
  const Topology t = build_fat_tree({.p = 4});
  FlowSimulator sim(t);
  baselines::EcmpAgent agent;
  sim.set_agent(&agent);
  fabric::Auditor auditor(sim, 0.25, /*fail_fast=*/true);
  sim.set_auditor(&auditor);
  // Deliberately corrupt the shared link-state board: an elephant count
  // with no flow behind it. The recount-from-flows walk must catch it.
  sim.link_state().add_elephant(t.links().front().id);
  EXPECT_DEATH(auditor.check_now(), "invariant violated");
}

}  // namespace
}  // namespace dard
