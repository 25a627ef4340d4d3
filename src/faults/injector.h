// Executes a FaultPlan against a running substrate (DESIGN.md §11).
//
// The injector resolves the plan's node names against the data plane's
// topology once, then schedules every transition on the substrate's own
// EventQueue — so an identical plan produces identical fault timing on the
// fluid and packet simulators, interleaved deterministically with flow
// events (the queue breaks ties by insertion order).
//
// Cable state is reference-counted: a switch outage downs every attached
// cable, and a cable both individually failed and covered by a failed
// switch stays down until BOTH causes are repaired. The substrate's
// set_cable_failed only fires on 0 <-> nonzero transitions.
//
// Control-plane windows drive the injector-owned ControlPlaneModel; the
// harness installs that model on the substrate before agents start, so
// DARD's monitors observe the loss/delay/staleness through their ordinary
// StateQueryService queries.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "fabric/control_model.h"
#include "fabric/data_plane.h"
#include "faults/fault_plan.h"

namespace dard::faults {

// Checks every node and cable `plan` names against `t`. Returns "" when the
// injector can run the plan, else a message naming the first node or cable
// the fabric lacks, or the node an event cannot target (a switch fault on
// a host, an agent or host fault on a switch).
[[nodiscard]] std::string check_plan(const FaultPlan& plan,
                                     const topo::Topology& t);

class FaultInjector {
 public:
  // Resolves every node name in `plan` against net's topology (aborts with
  // check_plan()'s message on a plan it rejects: a plan that silently does
  // nothing is worse than a crash).
  // `seed` feeds the control-plane model's private RNG only — fault noise
  // never perturbs scheduler or workload RNG streams.
  FaultInjector(fabric::DataPlane& net, const FaultPlan& plan,
                std::uint64_t seed);

  // Agent-level faults (daemon crash/restart, host churn) are delivered to
  // this agent's on_daemon_crash/on_daemon_restart hooks. Set it after the
  // agent exists and before install(); a plan with agent or host events and
  // no agent installed aborts at install() — the plan would silently test
  // nothing.
  void set_agent(fabric::ControlAgent* agent) { agent_ = agent; }

  // Invoked at every daemon-restart instant (after the agent's hook ran),
  // with the fire time and host. The harness points this at the
  // RecoveryTracker so reconvergence windows start at the restart edge. May
  // be set before or after install(); callbacks read it at fire time.
  void set_restart_listener(std::function<void(Seconds, NodeId)> listener) {
    restart_listener_ = std::move(listener);
  }

  // Schedules every plan transition on net.events(). Call once, after the
  // substrate exists and before (or at) t = first event time.
  void install();

  [[nodiscard]] fabric::ControlPlaneModel& model() { return model_; }
  [[nodiscard]] const fabric::ControlPlaneModel& model() const {
    return model_;
  }

  // Transitions actually applied so far (cable fail/repair edges that
  // changed state, control window starts/ends).
  [[nodiscard]] std::uint64_t injected() const { return injected_; }
  // Cables currently down (distinct cables, not causes).
  [[nodiscard]] std::size_t cables_down() const;
  // Daemon crashes applied so far (including the crash half of host-down
  // transitions) and restarts completed (including host revivals).
  [[nodiscard]] std::uint64_t agent_crashes() const { return agent_crashes_; }
  [[nodiscard]] std::uint64_t agent_restarts() const {
    return agent_restarts_;
  }

 private:
  // A resolved undirected cable, keyed by normalized endpoint pair.
  using CableKey = std::pair<std::uint32_t, std::uint32_t>;
  static CableKey key(NodeId a, NodeId b);

  [[nodiscard]] NodeId resolve(const std::string& name) const;
  void apply_cable(NodeId a, NodeId b, bool fail);
  void apply_daemon_crash(NodeId host);
  void apply_daemon_restart(NodeId host);
  void count_injection();
  // Emits a Fault trace event (no-op without an observer). Cable
  // transitions pass the endpoints; control windows leave them invalid.
  void emit_fault(obs::FaultAction action, NodeId a = {}, NodeId b = {});

  fabric::DataPlane* net_;
  fabric::ControlPlaneModel model_;
  bool installed_ = false;

  struct ResolvedLinkEvent {
    Seconds time;
    NodeId a, b;
    bool fail;
  };
  struct ResolvedSwitchEvent {
    Seconds time;
    NodeId node;
    std::vector<NodeId> neighbors;  // every cable peer of the switch
    bool fail;
  };
  struct ResolvedAgentEvent {
    Seconds time;
    NodeId host;
    Seconds restart_after;  // < 0: stays down
  };
  struct ResolvedHostEvent {
    Seconds time;
    NodeId host;
    std::vector<NodeId> tors;  // NIC cable peers (the host's ToRs)
    bool fail;
  };
  std::vector<ResolvedLinkEvent> link_events_;
  std::vector<ResolvedSwitchEvent> switch_events_;
  std::vector<ControlWindow> windows_;
  std::vector<ResolvedAgentEvent> agent_events_;
  std::vector<ResolvedHostEvent> host_events_;

  std::map<CableKey, int> down_causes_;  // cable -> live failure causes
  std::uint64_t injected_ = 0;
  std::uint64_t agent_crashes_ = 0;
  std::uint64_t agent_restarts_ = 0;
  obs::Counter* m_injected_ = nullptr;
  fabric::ControlAgent* agent_ = nullptr;
  std::function<void(Seconds, NodeId)> restart_listener_;
};

}  // namespace dard::faults
