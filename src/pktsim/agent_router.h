// The packet-substrate adapter for fabric::ControlAgent schedulers.
//
// AgentRouter is both a PacketRouter (it answers route_for every data
// packet) and a fabric::DataPlane (the control-plane boundary of
// data_plane.h): the SAME DardAgent / EcmpAgent / PvlbAgent / HederaAgent
// objects that schedule the fluid simulator schedule TCP flows over
// drop-tail queues here — the selfish scheduling logic lives only in
// src/dard.
//
// The adapter mirrors the fluid substrate's control-plane contract:
//  * flows are placed by agent->place() at start, hashed or otherwise;
//  * a flow alive for `elephant_threshold` seconds is promoted: counted on
//    every link of its current route in the LinkStateBoard and announced
//    via agent->on_elephant() — DARD's host daemons then monitor it through
//    an accounted StateQueryService exactly as on flowsim;
//  * move_flow() re-routes the whole flow (packets in flight finish on the
//    old path; the next route_for returns the new one) and shifts the
//    board;
//  * control messages land in the same ControlPlaneAccountant.
#pragma once

#include <map>
#include <vector>

#include "addressing/tunnel.h"
#include "fabric/data_plane.h"
#include "pktsim/routing.h"

namespace dard::pktsim {

class AgentRouter : public PathSetRouter, public fabric::DataPlane {
 public:
  // The agent is borrowed and must outlive the router; its start() runs at
  // attach time (PktSession construction), before any flow begins.
  AgentRouter(const topo::Topology& t, fabric::ControlAgent& agent,
              Seconds elephant_threshold = 1.0);

  // --- PacketRouter ---
  [[nodiscard]] const char* name() const override { return agent_->name(); }
  void attach(PacketNetwork& net, flowsim::EventQueue& events) override;
  void on_flow_started(FlowId flow, NodeId src, NodeId dst,
                       std::uint16_t src_port, std::uint16_t dst_port) override;
  void on_flow_finished(FlowId flow) override;
  const std::vector<LinkId>& route_for(FlowId flow, std::uint64_t) override;
  // Stays queryable after the flow finishes (harness reads per-flow switch
  // counts post-run).
  [[nodiscard]] std::uint64_t path_switches(FlowId flow) const override;

  // Telemetry installs before the owning PktSession is constructed (attach
  // — and with it agent->start() — runs in the session's constructor).
  void set_observer(obs::SimObserver* observer) { observer_ = observer; }
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }
  void set_profiler(obs::Profiler* profiler) {
    profiler_ = profiler;
    repo_.set_profiler(profiler);
  }

  // --- fabric::DataPlane ---
  [[nodiscard]] const topo::Topology& topology() const override {
    return *topo_;
  }
  topo::PathRepository& paths() override { return repo_; }
  [[nodiscard]] Seconds now() const override { return events_->now(); }
  flowsim::EventQueue& events() override { return *events_; }
  [[nodiscard]] const fabric::LinkStateBoard& link_state() const override {
    return board_;
  }
  // Fails the cable on the board (so the shared daemons observe it through
  // their queries) AND in the packet network (so packets crossing it drop).
  void set_cable_failed(NodeId a, NodeId b, bool failed) override;
  // Invariant walk for fabric::Auditor (DESIGN.md §16): per-link elephant
  // refcounts recounted from the active flows' current routes, and
  // board/network agreement on which links are failed. Read-only.
  void audit(fabric::Auditor& auditor) override;
  void move_flow(FlowId id, PathIndex new_path) override;
  void move_flows(
      const std::vector<std::pair<FlowId, PathIndex>>& moves) override;
  [[nodiscard]] const std::vector<FlowId>& active_flows() const override {
    return active_;
  }
  [[nodiscard]] fabric::FlowView flow_view(FlowId id) const override;
  [[nodiscard]] obs::SimObserver* observer() const override {
    return observer_;
  }
  [[nodiscard]] obs::MetricsRegistry* metrics() const override {
    return metrics_;
  }
  [[nodiscard]] obs::Profiler* profiler() const override { return profiler_; }

  [[nodiscard]] std::uint64_t total_moves() const { return moves_; }
  [[nodiscard]] std::size_t active_elephants() const {
    return active_elephants_;
  }
  [[nodiscard]] std::size_t peak_active_elephants() const {
    return peak_elephants_;
  }
  // Like path_switches(), stays queryable after the flow finishes.
  [[nodiscard]] bool was_elephant(FlowId flow) const;

 private:
  void promote(FlowId flow);
  void board_add(const FlowPaths& fp);
  void board_remove(const FlowPaths& fp);

  fabric::ControlAgent* agent_;
  Seconds elephant_threshold_;
  fabric::LinkStateBoard board_;

  std::vector<FlowId> active_;  // insertion order
  struct FinishedFlow {
    std::uint64_t switches = 0;
    bool was_elephant = false;
  };
  std::map<FlowId, FinishedFlow> finished_;
  std::uint64_t moves_ = 0;
  std::size_t active_elephants_ = 0;
  std::size_t peak_elephants_ = 0;

  obs::SimObserver* observer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
};

// AgentRouter with the full addressing stack: each candidate path is
// realized as an IP-in-IP tunnel — an (outer source, outer destination)
// hierarchical address pair — and packet routes come from tracing the
// *installed* downhill/uphill tables rather than from path enumeration.
// Packets pay the 20-byte outer-header tax. Scheduling is whatever agent it
// wraps; used to validate that encapsulated forwarding delivers exactly the
// scheduled paths (paper Sections 2.3 and 3.1).
class TunneledAgentRouter : public AgentRouter {
 public:
  TunneledAgentRouter(const topo::Topology& t, const addr::AddressingPlan& plan,
                      fabric::ControlAgent& agent,
                      Seconds elephant_threshold = 1.0)
      : AgentRouter(t, agent, elephant_threshold), plan_(&plan) {}

  [[nodiscard]] Bytes encap_overhead() const override;

  // The tunnel header currently stamped on `flow`'s packets.
  [[nodiscard]] addr::EncapHeader header_for(FlowId flow) const;

 protected:
  FlowPaths make_flow_paths(NodeId src_host, NodeId dst_host) override;

 private:
  const addr::AddressingPlan* plan_;
};

}  // namespace dard::pktsim
