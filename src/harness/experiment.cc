#include "harness/experiment.h"

#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "common/thread_pool.h"
#include "fabric/auditor.h"
#include "fabric/snapshot.h"
#include "obs/spans.h"
#include "pktsim/agent_router.h"

namespace dard::harness {

namespace {

using WallClock = std::chrono::steady_clock;

double seconds_since(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

bool audit_enabled(const ExperimentConfig& cfg) {
  return cfg.audit || std::getenv("DARD_AUDIT") != nullptr;
}

// When the fault plan declares a partial DARD rollout, the fraction/seed
// ride into the agent config; a directly-set DardConfig::deploy_fraction
// still wins when the plan is silent (its default fraction is 1.0).
void apply_partial_deployment(const ExperimentConfig& cfg,
                              core::DardConfig* dard) {
  const auto& pd = cfg.faults.plan.partial_deployment();
  if (pd.has_value() && pd->dard_fraction < 1.0) {
    dard->deploy_fraction = pd->dard_fraction;
    dard->deploy_seed = pd->seed;
  }
}

// Attaches the span recorder (if any) to a substrate's DataPlane and binds
// its span-id allocator into the run's cause-id space, so span, round and
// move ids interleave in one ordered sequence.
void attach_spans(fabric::DataPlane& net, obs::SpanRecorder* spans) {
  if (spans == nullptr) return;
  net.set_spans(spans);
  spans->set_id_allocator([&net] { return net.next_cause_id(); });
}

// Copies the recorder's whole-run tallies into the result.
void collect_spans(const obs::SpanRecorder* spans, ExperimentResult* result) {
  if (spans == nullptr) return;
  const obs::SpanTotals& t = spans->totals();
  result->span_count = t.spans;
  result->span_messages = t.messages;
  result->span_bytes = t.bytes;
}

// Copies the data plane's control ledger into the result: bytes, rates
// over the generation window, and messages per category.
void collect_control(const fabric::DataPlane& net,
                     const ExperimentConfig& cfg, ExperimentResult* result) {
  const fabric::ControlPlaneAccountant& ledger = net.accountant();
  result->control_bytes = ledger.total_bytes();
  result->control_peak_rate = ledger.peak_rate(cfg.workload.duration);
  result->control_mean_rate = ledger.mean_rate(cfg.workload.duration);
  for (std::size_t c = 0; c < fabric::kControlCategories; ++c)
    result->control_messages[c] =
        ledger.message_count(static_cast<fabric::ControlCategory>(c));
}

// A fault run's reductions: the tracker's recovery metrics, the injector's
// counts, and the query exchanges and losses the ledger recorded (a lost
// exchange sent its query and no reply).
void collect_recovery(const faults::RecoveryTracker& tracker,
                      const faults::FaultInjector& injector,
                      const fabric::DataPlane& net,
                      ExperimentResult* result) {
  using fabric::ControlCategory;
  const fabric::ControlPlaneAccountant& ledger = net.accountant();
  faults::RecoveryMetrics& m = result->recovery;
  m = tracker.finalize();
  m.queries_attempted = ledger.message_count(ControlCategory::DardQuery);
  m.queries_lost = m.queries_attempted -
                   ledger.message_count(ControlCategory::DardReply);
  m.agent_crashes = injector.agent_crashes();
  m.agent_restarts = injector.agent_restarts();
  result->faults_injected = injector.injected();
}

// Reconvergence plumbing shared by both substrates: the tracker samples
// DARD's cumulative accepted-move counter, and the injector tells it when a
// daemon restart fires so time-to-first-accepted-round and the churn window
// measure from the right origin.
void wire_agent_recovery(faults::FaultInjector* injector,
                         faults::RecoveryTracker* tracker,
                         fabric::ControlAgent* agent) {
  if (injector == nullptr || tracker == nullptr) return;
  if (auto* dard = dynamic_cast<core::DardAgent*>(agent))
    tracker->set_moves_probe([dard] {
      return static_cast<std::uint64_t>(dard->total_moves());
    });
  injector->set_restart_listener(
      [tracker](Seconds time, NodeId) { tracker->on_agent_restart(time); });
}

}  // namespace

const char* to_string(SchedulerKind k) {
  switch (k) {
    case SchedulerKind::Ecmp:
      return "ECMP";
    case SchedulerKind::Pvlb:
      return "pVLB";
    case SchedulerKind::Dard:
      return "DARD";
    case SchedulerKind::Hedera:
      return "SimAnneal";
    case SchedulerKind::Texcp:
      return "TeXCP";
  }
  return "?";
}

const char* to_string(Substrate s) {
  switch (s) {
    case Substrate::Fluid:
      return "fluid";
    case Substrate::Packet:
      return "packet";
  }
  return "?";
}

std::unique_ptr<fabric::ControlAgent> make_agent(
    const ExperimentConfig& cfg) {
  switch (cfg.scheduler) {
    case SchedulerKind::Ecmp:
      return std::make_unique<baselines::EcmpAgent>(cfg.weighted_paths);
    case SchedulerKind::Pvlb:
      return std::make_unique<baselines::PvlbAgent>(
          cfg.pvlb_repick_interval, cfg.workload.seed ^ 0x5f5f5f5f,
          cfg.weighted_paths);
    case SchedulerKind::Dard: {
      core::DardConfig dard = cfg.dard;
      dard.weighted_placement |= cfg.weighted_paths;
      apply_partial_deployment(cfg, &dard);
      return std::make_unique<core::DardAgent>(dard);
    }
    case SchedulerKind::Hedera: {
      baselines::HederaConfig hedera = cfg.hedera;
      hedera.weighted_default_routing |= cfg.weighted_paths;
      return std::make_unique<baselines::HederaAgent>(hedera);
    }
    case SchedulerKind::Texcp:
      DCN_CHECK_MSG(false, "TeXCP has no flow-level agent (packet-only)");
  }
  DCN_CHECK(false);
  return nullptr;
}

namespace {

ExperimentResult run_fluid(const topo::Topology& t,
                           const ExperimentConfig& cfg) {
  const auto wall_start = WallClock::now();
  flowsim::SimConfig sim_cfg;
  sim_cfg.elephant_threshold = cfg.elephant_threshold;
  sim_cfg.realloc_interval = cfg.realloc_interval;
  flowsim::FlowSimulator sim(t, sim_cfg);

  // Telemetry installs before the agent starts so agents can pick up the
  // registry in start().
  sim.set_observer(cfg.telemetry.observer);
  sim.set_metrics(cfg.telemetry.metrics);
  sim.set_profiler(cfg.telemetry.profiler);
  attach_spans(sim, cfg.telemetry.spans);
  std::unique_ptr<obs::TimeSeriesSampler> sampler;
  if (cfg.telemetry.sample_period > 0) {
    sampler =
        std::make_unique<obs::TimeSeriesSampler>(sim, cfg.telemetry.sample_period);
    sampler->start();
  }
  // Run-health snapshots (schema v3): periodic Snapshot trace events with
  // counters, gauges and profiler summaries. The enricher adds what only
  // the fluid substrate knows — elephants, throughput, peak utilization,
  // path-store footprint.
  std::unique_ptr<fabric::SnapshotEmitter> snapshots;
  if (cfg.telemetry.observer != nullptr && cfg.telemetry.snapshot_period > 0) {
    snapshots = std::make_unique<fabric::SnapshotEmitter>(
        sim, cfg.telemetry.snapshot_period,
        [&sim, scratch = std::vector<double>{}](obs::SnapshotStats* s) mutable {
          s->active_elephants = sim.active_elephants();
          s->path_store_bytes = static_cast<double>(sim.path_store_bytes());
          sim.link_loads(&scratch);
          double max_util = 0;
          for (std::size_t l = 0; l < scratch.size(); ++l) {
            const Bps cap = sim.link_state().capacity(
                LinkId(static_cast<LinkId::value_type>(l)));
            if (cap > 0)
              max_util = std::max(max_util, std::min(scratch[l] / cap, 1.0));
          }
          s->max_utilization = max_util;
          double throughput = 0;
          for (const FlowId id : sim.active_flows())
            throughput += sim.rate_of(id);
          s->throughput_bps = throughput;
        });
    snapshots->start();
  }

  // Fault injection, when configured: the degradation model must be on the
  // data plane before the agent starts (DardAgent wires its query service
  // to it in start()). Nothing here runs on an empty plan.
  std::unique_ptr<faults::FaultInjector> injector;
  std::unique_ptr<faults::RecoveryTracker> tracker;
  if (cfg.faults.active()) {
    injector = std::make_unique<faults::FaultInjector>(sim, cfg.faults.plan,
                                                       cfg.faults.seed);
    sim.set_control_model(&injector->model());
  }

  // The invariant auditor installs before the agent starts so daemon
  // incarnations report from the first crash onward; its periodic pass and
  // the final check_now() below are read-only.
  std::unique_ptr<fabric::Auditor> auditor;
  if (audit_enabled(cfg)) {
    auditor = std::make_unique<fabric::Auditor>(sim);
    sim.set_auditor(auditor.get());
    auditor->start();
  }

  const auto agent = make_agent(cfg);
  sim.set_agent(agent.get());

  if (injector != nullptr) {
    injector->set_agent(agent.get());
    injector->install();
    tracker = std::make_unique<faults::RecoveryTracker>(
        sim.events(),
        [&sim] {
          double bps = 0;
          for (const FlowId id : sim.active_flows()) bps += sim.rate_of(id);
          return bps;
        },
        cfg.faults, cfg.faults.plan.first_fault_time());
    wire_agent_recovery(injector.get(), tracker.get(), agent.get());
    tracker->start();
  }

  ExperimentResult result;
  for (const auto& spec : traffic::generate_workload(t, cfg.workload)) {
    result.goodput_bytes += spec.size;
    sim.submit(spec);
  }
  result.timings.setup_s = seconds_since(wall_start);
  const auto wall_run = WallClock::now();
  sim.run_until_flows_done();
  result.timings.run_s = seconds_since(wall_run);
  const auto wall_collect = WallClock::now();

  result.scheduler = agent->name();
  result.flows = sim.records().size();

  OnlineStats transfer;
  for (const auto& rec : sim.records()) {
    transfer.add(rec.transfer_time());
    result.transfer_times.add(rec.transfer_time());
    if (rec.was_elephant)
      result.path_switch_counts.add(static_cast<double>(rec.path_switches));
  }
  result.avg_transfer_time = transfer.mean();
  result.peak_elephants = sim.peak_active_elephants();
  collect_control(sim, cfg, &result);

  if (const auto* dard = dynamic_cast<const core::DardAgent*>(agent.get()))
    result.reroutes = dard->total_moves();
  if (const auto* hedera =
          dynamic_cast<const baselines::HederaAgent*>(agent.get()))
    result.reroutes = hedera->total_reassignments();
  collect_spans(cfg.telemetry.spans, &result);
  if (auditor != nullptr) auditor->check_now();
  if (tracker != nullptr) collect_recovery(*tracker, *injector, sim, &result);
  if (sampler != nullptr) {
    // One final snapshot so the series covers the tail of the run.
    sampler->sample_now();
    result.series = std::make_shared<obs::TimeSeries>(sampler->take());
  }
  // Likewise, one final health snapshot covering the end-of-run state.
  if (snapshots != nullptr) snapshots->emit_now();
  result.timings.collect_s = seconds_since(wall_collect);
  return result;
}

ExperimentResult run_packet(const topo::Topology& t,
                            const ExperimentConfig& cfg) {
  const auto wall_start = WallClock::now();
  // TeXCP routes packets itself; everything else is a ControlAgent behind
  // the AgentRouter adapter — the same objects the fluid substrate runs.
  std::unique_ptr<fabric::ControlAgent> agent;
  std::unique_ptr<pktsim::PacketRouter> router;
  pktsim::AgentRouter* adapter = nullptr;
  if (cfg.scheduler == SchedulerKind::Texcp) {
    DCN_CHECK_MSG(!cfg.faults.active(),
                  "TeXCP has no fault-injection adapter (it is not a "
                  "fabric::DataPlane); run faults on an agent scheduler");
    router = std::make_unique<pktsim::TexcpRouter>(
        t, cfg.texcp_probe_interval, cfg.workload.seed ^ 0x1f1f1f1f,
        cfg.texcp_flowlet_gap);
  } else {
    agent = make_agent(cfg);
    auto ar = std::make_unique<pktsim::AgentRouter>(t, *agent,
                                                    cfg.elephant_threshold);
    ar->set_observer(cfg.telemetry.observer);
    ar->set_metrics(cfg.telemetry.metrics);
    ar->set_profiler(cfg.telemetry.profiler);
    attach_spans(*ar, cfg.telemetry.spans);
    adapter = ar.get();
    router = std::move(ar);
  }

  // The degradation model must be installed before the session constructor:
  // constructing the session attaches the router, which starts the agent,
  // which wires its query service to the model. Scheduling the plan's
  // events (install) must wait until after attach, when the adapter can
  // reach the session's event queue.
  std::unique_ptr<faults::FaultInjector> injector;
  std::unique_ptr<faults::RecoveryTracker> tracker;
  if (cfg.faults.active()) {
    DCN_CHECK_MSG(adapter != nullptr, "fault injection needs an agent router");
    injector = std::make_unique<faults::FaultInjector>(
        *adapter, cfg.faults.plan, cfg.faults.seed);
    adapter->set_control_model(&injector->model());
    injector->set_agent(agent.get());
  }

  // The auditor installs on the adapter before the session constructor runs
  // (attach starts the agent); its ticking waits until the adapter has an
  // event queue. TeXCP has no adapter and is never audited.
  std::unique_ptr<fabric::Auditor> auditor;
  if (adapter != nullptr && audit_enabled(cfg)) {
    auditor = std::make_unique<fabric::Auditor>(*adapter);
    adapter->set_auditor(auditor.get());
  }

  ExperimentResult result;
  result.scheduler = router->name();
  pktsim::PktSession session(t, std::move(router), cfg.tcp, cfg.queue_bytes);
  session.set_metrics(cfg.telemetry.metrics);
  session.set_profiler(cfg.telemetry.profiler);

  // Run-health snapshots ride the adapter's DataPlane view; they need the
  // session constructed first (attach hands the adapter its event queue).
  // TeXCP has no adapter, hence no snapshot source.
  std::unique_ptr<fabric::SnapshotEmitter> snapshots;
  if (adapter != nullptr && cfg.telemetry.observer != nullptr &&
      cfg.telemetry.snapshot_period > 0) {
    snapshots = std::make_unique<fabric::SnapshotEmitter>(
        *adapter, cfg.telemetry.snapshot_period,
        [adapter](obs::SnapshotStats* s) {
          s->active_elephants = adapter->active_elephants();
        });
    snapshots->start();
  }

  if (auditor != nullptr) auditor->start();

  if (injector != nullptr) {
    injector->install();
    // Packet goodput probe: the derivative of cumulatively acked bytes over
    // the sample period (the fluid probe's instantaneous-rate analogue).
    tracker = std::make_unique<faults::RecoveryTracker>(
        session.events(),
        [&session, last = Bytes{0},
         period = cfg.faults.sample_period]() mutable {
          const Bytes acked = session.total_acked_bytes();
          const double bps = static_cast<double>(acked - last) * 8.0 / period;
          last = acked;
          return bps;
        },
        cfg.faults, cfg.faults.plan.first_fault_time());
    wire_agent_recovery(injector.get(), tracker.get(), agent.get());
    tracker->start();
  }

  std::vector<FlowId> ids;
  for (const auto& spec : traffic::generate_workload(t, cfg.workload)) {
    result.goodput_bytes += spec.size;
    ids.push_back(session.add_flow({spec.src_host, spec.dst_host, spec.size,
                                    spec.arrival, spec.src_port,
                                    spec.dst_port}));
  }
  result.timings.setup_s = seconds_since(wall_start);
  const auto wall_run = WallClock::now();
  DCN_CHECK_MSG(session.run(cfg.packet_max_time),
                "packet experiment still running at packet_max_time");
  result.timings.run_s = seconds_since(wall_run);
  const auto wall_collect = WallClock::now();

  result.flows = ids.size();
  OnlineStats transfer;
  for (const FlowId id : ids) {
    const pktsim::TcpResult& r = session.result(id);
    transfer.add(r.transfer_time());
    result.transfer_times.add(r.transfer_time());
    result.retransmission_rates.add(r.retransmission_rate());
    result.retransmissions += r.retransmissions;
  }
  result.avg_transfer_time = transfer.mean();
  result.packet_drops = session.network().drops();

  if (adapter != nullptr) {
    for (const FlowId id : ids)
      if (adapter->was_elephant(id))
        result.path_switch_counts.add(
            static_cast<double>(adapter->path_switches(id)));
    result.peak_elephants = adapter->peak_active_elephants();
    collect_control(*adapter, cfg, &result);
  }
  if (const auto* dard = dynamic_cast<const core::DardAgent*>(agent.get()))
    result.reroutes = dard->total_moves();
  if (const auto* hedera =
          dynamic_cast<const baselines::HederaAgent*>(agent.get()))
    result.reroutes = hedera->total_reassignments();
  collect_spans(cfg.telemetry.spans, &result);
  if (auditor != nullptr) auditor->check_now();
  if (tracker != nullptr)
    collect_recovery(*tracker, *injector, *adapter, &result);
  if (snapshots != nullptr) snapshots->emit_now();
  result.timings.collect_s = seconds_since(wall_collect);
  return result;
}

}  // namespace

ExperimentResult run_experiment(const topo::Topology& t,
                                const ExperimentConfig& cfg) {
  return cfg.substrate == Substrate::Packet ? run_packet(t, cfg)
                                            : run_fluid(t, cfg);
}

double ExperimentResult::path_switch_percentile(double q) const {
  return path_switch_counts.empty() ? 0.0 : path_switch_counts.percentile(q);
}

double ExperimentResult::max_path_switches() const {
  return path_switch_counts.empty() ? 0.0 : path_switch_counts.max();
}

std::vector<ExperimentResult> run_experiments_parallel(
    const std::vector<ExperimentCell>& cells, unsigned jobs,
    const std::function<void(std::size_t, const ExperimentResult&)>& on_done) {
  std::vector<ExperimentResult> results(cells.size());
  if (cells.empty()) return results;
  if (jobs == 0) jobs = std::thread::hardware_concurrency();
  jobs = std::max(1u, std::min<unsigned>(jobs, cells.size()));

  // Cells are distributed over the fork-join pool. Which thread runs a
  // cell never affects its result — every cell builds its own simulator,
  // RNGs and agent from the config alone.
  common::ThreadPool pool(jobs);
  std::mutex done_mutex;
  pool.run_indexed(cells.size(), [&](std::size_t i) {
    DCN_CHECK_MSG(cells[i].topology != nullptr, "cell without topology");
    ExperimentResult r = run_experiment(*cells[i].topology, cells[i].config);
    if (on_done) {
      const std::lock_guard<std::mutex> lock(done_mutex);
      on_done(i, r);
    }
    results[i] = std::move(r);
  });
  return results;
}

double improvement_over(const ExperimentResult& baseline,
                        const ExperimentResult& other) {
  DCN_CHECK(baseline.avg_transfer_time > 0);
  return (baseline.avg_transfer_time - other.avg_transfer_time) /
         baseline.avg_transfer_time;
}

}  // namespace dard::harness
