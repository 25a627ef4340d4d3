// The substrate-neutral control-plane boundary (see DESIGN.md §10).
//
// The paper validates one control-plane design — Algorithm 1 running on end
// hosts, reading switch state through OpenFlow-style queries — on two very
// different data planes: a fluid-rate testbed model and a packet-level
// simulator. This header is that boundary in code. Everything a scheduling
// agent may do to a network goes through DataPlane:
//
//   * equal-cost ToR paths, addressed by (src ToR, dst ToR, index),
//   * per-link state reads via the LinkStateBoard, queried through
//     StateQueryService so control messages are accounted identically on
//     either substrate,
//   * flow placement at arrival and whole-flow path moves,
//   * elephant / finish notifications (delivered to the ControlAgent),
//   * event scheduling against the shared flowsim::EventQueue.
//
// Two adapters implement it: flowsim::FlowSimulator (fluid rates) and
// pktsim::AgentRouter (TCP packets over drop-tail queues). A scheduler
// written against ControlAgent therefore runs, unmodified, on both — the
// property the paper's testbed/ns-2 comparison quietly relies on.
#pragma once

#include <utility>
#include <vector>

#include "common/types.h"
#include "common/units.h"
#include "fabric/accounting.h"
#include "fabric/switch_state.h"
#include "flowsim/event_queue.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/profiler.h"
#include "topology/path_gen.h"
#include "topology/paths.h"

namespace dard::obs {
class SpanRecorder;
}  // namespace dard::obs

namespace dard::fabric {

class Auditor;

// One flow as the control plane sees it: endpoints, the five-tuple ports
// ECMP hashes, the current path choice, and elephant status. Substrates own
// the authoritative flow state; views are cheap value snapshots.
struct FlowView {
  FlowId id;
  NodeId src_host;
  NodeId dst_host;
  NodeId src_tor;
  NodeId dst_tor;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  PathIndex path_index = 0;
  bool is_elephant = false;
};

class DataPlane {
 public:
  virtual ~DataPlane() = default;

  [[nodiscard]] virtual const topo::Topology& topology() const = 0;
  // The fabric's equal-cost ToR paths. Path indices handed to
  // place()/move_flow() address generator().path(src ToR, dst ToR, i), and
  // DARD monitors walk the generator's tables; holders of a whole set
  // (Hedera's rounds) pin it from the repository's cache.
  virtual topo::PathRepository& paths() = 0;

  [[nodiscard]] virtual Seconds now() const = 0;
  // The event queue driving this substrate; agents schedule their periodic
  // control work (query ticks, scheduling rounds) here.
  virtual flowsim::EventQueue& events() = 0;

  // Live per-link elephant counts and effective capacities. Monitors must
  // not read this directly — build a StateQueryService over it (and the
  // accountant) so every read is a modeled, accounted control message.
  [[nodiscard]] virtual const LinkStateBoard& link_state() const = 0;
  // The run's one ledger of control messages, whichever substrate and
  // agent send them: every count and byte total of control traffic is
  // read from here.
  [[nodiscard]] ControlPlaneAccountant& accountant() { return accountant_; }
  [[nodiscard]] const ControlPlaneAccountant& accountant() const {
    return accountant_;
  }

  // Fails (or repairs) both directions of the cable between `a` and `b`.
  // Substrate semantics: the fluid simulator collapses the links' effective
  // capacity (flows pinned across them starve); the packet simulator
  // additionally drops every packet offered to a failed link. Either way the
  // LinkStateBoard reflects the failure, so schedulers observe it through
  // their ordinary query path. This is the substrate-neutral hook the fault
  // injector drives (see faults/injector.h).
  virtual void set_cable_failed(NodeId a, NodeId b, bool failed) = 0;

  // Control-plane degradation model for fault experiments; null (the
  // default) means a perfect query channel. The fault injector's model is
  // installed before the agent starts; agents pass it to their
  // StateQueryService in start().
  void set_control_model(ControlPlaneModel* model) { control_model_ = model; }
  [[nodiscard]] ControlPlaneModel* control_model() const {
    return control_model_;
  }

  // Whole-flow path change; packets/bytes already in flight stay on the old
  // path, subsequent traffic uses the new one. A no-op when new_path is the
  // flow's current path.
  virtual void move_flow(FlowId id, PathIndex new_path) = 0;
  // Batch variant: apply all moves, settle once (centralized schedulers).
  virtual void move_flows(
      const std::vector<std::pair<FlowId, PathIndex>>& moves) = 0;

  // Flows currently in the network, in substrate-deterministic order.
  [[nodiscard]] virtual const std::vector<FlowId>& active_flows() const = 0;
  [[nodiscard]] virtual FlowView flow_view(FlowId id) const = 0;

  // Telemetry hooks; null when disabled (the default).
  [[nodiscard]] virtual obs::SimObserver* observer() const { return nullptr; }
  [[nodiscard]] virtual obs::MetricsRegistry* metrics() const {
    return nullptr;
  }
  // The in-sim profiler (DESIGN.md §13); null when profiling is disabled.
  // Shared through the data plane so agents (DARD host daemons) time their
  // rounds into the same per-run histograms as the substrate's hot paths.
  [[nodiscard]] virtual obs::Profiler* profiler() const { return nullptr; }

  // --- Causal tracing (DESIGN.md §12; inert unless an observer is set). ---
  // One per-run id space shared by everything that can cause a path move:
  // DARD scheduling-round decisions and fault-plan transitions draw their
  // ids here, so a FlowMove trace event can name the exact decision that
  // produced it. Only trace emitters call these; with tracing disabled the
  // counter never advances and results stay bit-identical.
  [[nodiscard]] std::uint64_t next_cause_id() { return ++last_cause_id_; }
  // Annotates the next move_flow() call's FlowMove event with `id`. Callers
  // set it immediately before the move and clear it after; substrates
  // consume it with take_move_cause() when they emit the event.
  void set_move_cause(std::uint64_t id) { move_cause_ = id; }
  void clear_move_cause() { move_cause_ = 0; }
  [[nodiscard]] std::uint64_t take_move_cause() {
    const std::uint64_t id = move_cause_;
    move_cause_ = 0;
    return id;
  }

  // --- Control-plane span tracing (DESIGN.md §17; off by default). ---
  // The harness installs the recorder alongside the other telemetry; null
  // means spans are off and the instrumented daemon sites pay one branch —
  // no clock read, no cause-id draw, bit-identical results (the same
  // discipline as observer()/profiler()).
  void set_spans(obs::SpanRecorder* spans) { spans_ = spans; }
  [[nodiscard]] obs::SpanRecorder* spans() const { return spans_; }

  // How many equal-cost paths `v` selects among. Computed from the path
  // generator's tables: no path is built and the repository's cache is not
  // touched, so placement costs no path-set materialization.
  [[nodiscard]] std::size_t path_count(const FlowView& v) {
    return paths().generator().count(v.src_tor, v.dst_tor);
  }

  // --- Runtime invariant auditing (DESIGN.md §16; off by default). ---
  // The harness installs an Auditor before the run; null means no auditing
  // and the substrates' audit() is never called. Agents also use this to
  // report incarnation bumps for the monotonicity invariant.
  void set_auditor(Auditor* auditor) { auditor_ = auditor; }
  [[nodiscard]] Auditor* auditor() const { return auditor_; }
  // Substrate-side invariant walk: recount per-link elephant registrations
  // against the LinkStateBoard, check byte conservation per live flow, and
  // flag meaningful rates across failed cables. Default no-op for
  // substrates that predate the auditor.
  virtual void audit(Auditor& /*auditor*/) {}

 private:
  ControlPlaneAccountant accountant_;
  ControlPlaneModel* control_model_ = nullptr;  // borrowed; may be null
  std::uint64_t last_cause_id_ = 0;
  std::uint64_t move_cause_ = 0;
  Auditor* auditor_ = nullptr;
  obs::SpanRecorder* spans_ = nullptr;
};

// A flow-scheduling policy — ECMP, pVLB, the DARD host-daemon stack, or the
// centralized scheduler — written once against DataPlane and run on either
// substrate. Agents pick initial paths at arrival and may re-route active
// flows from periodic work they schedule on the event queue in start().
class ControlAgent {
 public:
  virtual ~ControlAgent() = default;
  [[nodiscard]] virtual const char* name() const = 0;

  // Called once, before any flow arrives on `net`.
  virtual void start(DataPlane& /*net*/) {}

  // Initial path for an arriving flow: an index below net.path_count(flow),
  // which the substrate resolves with the generator's path(src ToR, dst
  // ToR, index). Hash- and draw-based policies need only the count, so an
  // arrival builds no path set.
  virtual PathIndex place(DataPlane& net, const FlowView& flow) = 0;

  virtual void on_elephant(DataPlane& /*net*/, const FlowView& /*flow*/) {}
  virtual void on_finished(DataPlane& /*net*/, const FlowView& /*flow*/) {}

  // Agent-level fault hooks (faults/injector.h). A crash wipes the daemon's
  // soft state on `host` — in-flight flows keep their last-installed paths;
  // a restart cold-start re-syncs and re-adopts still-live elephants.
  // Default no-ops: agents without per-host state (ECMP, pVLB) are immune.
  virtual void on_daemon_crash(DataPlane& /*net*/, NodeId /*host*/) {}
  virtual void on_daemon_restart(DataPlane& /*net*/, NodeId /*host*/) {}
};

}  // namespace dard::fabric
