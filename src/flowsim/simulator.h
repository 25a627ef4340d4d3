// Event-driven fluid flow simulator.
//
// Flows arrive, receive a path from the active scheduling agent, share
// bandwidth max-min fairly with every other active flow, and finish when
// their bytes drain. Rates are recomputed on every arrival / completion /
// path move. Each active flow holds at most two keyed timers on the event
// queue (event_queue.h): its completion (key 2·id), which every rate change
// moves, and while it is a mouse its elephant promotion (key 2·id + 1),
// which its completion cancels. So the queue holds only live deadlines.
// Elephant promotion follows the paper: a flow that has lasted
// `elephant_threshold` seconds becomes an elephant, is counted on its
// links' state boards, and becomes schedulable.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "fabric/accounting.h"
#include "fabric/data_plane.h"
#include "fabric/switch_state.h"
#include "flowsim/event_queue.h"
#include "flowsim/flow.h"
#include "flowsim/max_min.h"
#include "flowsim/path_store.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "topology/paths.h"

namespace dard::flowsim {

struct SimConfig {
  // Seconds a flow must live before it is considered an elephant (paper:
  // TR text lost the digit; restored as 1 s — see DESIGN.md).
  Seconds elephant_threshold = 1.0;

  // Minimum spacing between global rate re-allocations. 0 recomputes
  // synchronously on every arrival/completion/move (exact; right for unit
  // tests and small runs). A few milliseconds batches the recomputation
  // across bursts of events — the dominant cost on large topologies —
  // at the price of rates being stale for at most that long.
  Seconds realloc_interval = 0.0;

  // Cross-checks every scoped reallocation against a from-scratch
  // computation and aborts on divergence beyond 1e-9 relative. Test-only:
  // it makes every event as expensive as a full recompute.
  bool validate_incremental = false;

  // Hyperscale-run options (bench_hyperscale, DESIGN.md §14). With
  // recycle_flow_ids, a finished flow's dense id returns to a free list and
  // is handed to a later submit(), so every per-flow array is bounded by
  // the peak *concurrent* flow count instead of total arrivals. A finished
  // flow leaves no timer armed, so nothing pending can reach the slot's
  // next flow. Flow handles and records of recycled flows are invalidated,
  // so this stays off outside open-ended soak runs.
  bool recycle_flow_ids = false;
  // When false, finished flows append no FlowRecord (records() stays
  // empty) — the other monotone buffer an unbounded run cannot afford.
  bool keep_records = true;
};

// The fluid-substrate adapter: FlowSimulator *is* a fabric::DataPlane, so
// any fabric::ControlAgent schedules flows on it directly.
class FlowSimulator : public fabric::DataPlane {
 public:
  FlowSimulator(const topo::Topology& t, SimConfig cfg = {});
  // The event queue's timer handler and every pending event hold `this`.
  FlowSimulator(const FlowSimulator&) = delete;
  FlowSimulator& operator=(const FlowSimulator&) = delete;

  // Installs the scheduling policy and lets it set up its periodic work.
  void set_agent(fabric::ControlAgent* agent) {
    agent_ = agent;
    agent_->start(*this);
  }

  // Registers a flow to arrive at spec.arrival (>= current time).
  FlowId submit(const FlowSpec& spec);

  void run_until(Seconds t) { events_.run_until(t); }
  // Runs until every submitted flow has finished. (The event queue itself
  // never drains while an agent keeps periodic ticks scheduled, so this —
  // not queue emptiness — is the termination condition.)
  void run_until_flows_done();

  // --- fabric::DataPlane (accessors for agents and experiments) ---
  [[nodiscard]] Seconds now() const override { return events_.now(); }
  EventQueue& events() override { return events_; }
  [[nodiscard]] const topo::Topology& topology() const override {
    return *topo_;
  }
  topo::PathRepository& paths() override { return paths_; }
  fabric::LinkStateBoard& link_state() { return board_; }
  [[nodiscard]] const fabric::LinkStateBoard& link_state() const override {
    return board_;
  }

  [[nodiscard]] const Flow& flow(FlowId id) const {
    DCN_CHECK(id.value() < flows_.size());
    return flows_[id.value()];
  }
  // Current allocated rate (bps). Hot state lives in SoA lanes, not Flow.
  [[nodiscard]] Bps rate_of(FlowId id) const {
    DCN_CHECK(id.value() < rate_.size());
    return rate_[id.value()];
  }
  [[nodiscard]] const std::vector<FlowId>& active_flows() const override {
    return active_;
  }
  [[nodiscard]] fabric::FlowView flow_view(FlowId id) const override {
    const Flow& f = flow(id);
    return fabric::FlowView{f.id,           f.spec.src_host, f.spec.dst_host,
                            f.src_tor,      f.dst_tor,       f.spec.src_port,
                            f.spec.dst_port, f.path_index,   f.is_elephant};
  }
  // The flow's current host-to-host link list (a view into the pooled
  // path store). Valid for *active* flows only, and only until the next
  // arrival / move / completion mutates the store.
  [[nodiscard]] std::span<const LinkId> links_of(const Flow& f) const {
    return store_.span(f.id.value());
  }

  // --- telemetry (see DESIGN.md "Observability") ---
  // Installs the lifecycle-event observer. Must be set before the first
  // flow arrives; null disables tracing (the default), leaving one branch
  // per lifecycle event as the only cost.
  void set_observer(obs::SimObserver* observer) { observer_ = observer; }
  [[nodiscard]] obs::SimObserver* observer() const override {
    return observer_;
  }

  // Installs the metrics registry and caches the simulator's own metric
  // handles. Null (the default) disables metrics collection; the hot path
  // then pays one null check per reallocation and never reads the clock.
  void set_metrics(obs::MetricsRegistry* metrics);
  [[nodiscard]] obs::MetricsRegistry* metrics() const override {
    return metrics_;
  }

  // Installs the in-sim profiler (DESIGN.md §13): times max-min recomputes
  // and path enumerations, and keeps queue-depth / live-flow / path-store
  // gauges current. Null (the default) disables profiling; the hot path then
  // pays one null check per reallocation and never reads the clock.
  void set_profiler(obs::Profiler* profiler) {
    profiler_ = profiler;
    paths_.set_profiler(profiler);
  }
  [[nodiscard]] obs::Profiler* profiler() const override { return profiler_; }

  // Approximate heap footprint of the pooled path store, for the
  // PathStoreBytes gauge and snapshot events.
  [[nodiscard]] std::size_t path_store_bytes() const {
    return store_.pool_links() * sizeof(LinkId);
  }

  // Ground-truth BoNF of path `index` of `f`'s ToR pair: min over the
  // path's switch-switch links of effective capacity / elephant count.
  // Mirrors what a DARD monitor would assemble from fresh switch state.
  [[nodiscard]] double path_bonf(const Flow& f, PathIndex index);

  // Per-link allocated rate (bps, by LinkId value): the sum of active flow
  // rates crossing each link. Resizes `out` to link_count().
  void link_loads(std::vector<double>* out) const;

  // Fails (or restores) both directions of the cable between a and b:
  // effective capacity collapses, flows pinned across it starve, adaptive
  // schedulers observe the near-zero BoNF and route around it.
  void set_cable_failed(NodeId a, NodeId b, bool failed) override;

  // Invariant walk for fabric::Auditor (DESIGN.md §16): byte conservation
  // per live flow, per-link elephant refcounts vs the board, no meaningful
  // rate across a failed cable, and each flow's timers armed exactly when
  // it has a deadline pending. Read-only.
  void audit(fabric::Auditor& auditor) override;

  // Re-route one active flow; a real path change counts as a path switch
  // and triggers reallocation.
  void move_flow(FlowId id, PathIndex new_path) override;
  // Batch variant: apply all moves, reallocate once (centralized scheduler).
  void move_flows(
      const std::vector<std::pair<FlowId, PathIndex>>& moves) override;

  [[nodiscard]] const std::vector<FlowRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t submitted_flows() const { return submitted_; }
  [[nodiscard]] std::size_t finished_flows() const { return finished_; }
  [[nodiscard]] std::size_t active_elephants() const {
    return active_elephants_;
  }
  [[nodiscard]] std::size_t peak_active_elephants() const {
    return peak_active_elephants_;
  }
  // A flow's two keyed timers on events(): its completion, and (while it is
  // a mouse) its elephant promotion.
  [[nodiscard]] static std::uint32_t completion_key(FlowId id) {
    return 2 * id.value();
  }
  [[nodiscard]] static std::uint32_t promotion_key(FlowId id) {
    return 2 * id.value() + 1;
  }

 private:
  void arrive(FlowId id);
  void complete(FlowId id);
  void promote_elephant(FlowId id);
  void apply_move(Flow& f, PathIndex new_path);
  // Runs reallocate() now (exact mode) or schedules one settle event no
  // earlier than realloc_interval after the previous one.
  void request_reallocate();
  void reallocate();
  // validate_incremental: abort if the scoped rates diverge from scratch.
  void validate_rates();
  void set_path_links(Flow& f, PathIndex index);
  void board_add(const Flow& f);
  void board_remove(const Flow& f);

  const topo::Topology* topo_;
  SimConfig cfg_;
  topo::PathRepository paths_;
  fabric::LinkStateBoard board_;
  EventQueue events_;
  fabric::ControlAgent* agent_ = nullptr;

  std::vector<Flow> flows_;  // by FlowId (cold per-flow state)
  // Hot per-flow SoA lanes, by FlowId. `remaining_` is exact as of
  // `last_update_`; the live value is remaining - rate/8 * (now - last).
  std::vector<double> remaining_;      // fractional bytes
  std::vector<Bps> rate_;
  std::vector<Seconds> last_update_;
  std::vector<FlowId::value_type> free_fids_;  // recycle_flow_ids pool
  std::size_t submitted_ = 0;
  std::size_t finished_ = 0;
  std::vector<FlowId> active_;
  std::vector<std::uint32_t> active_pos_;  // FlowId -> index in active_
  std::vector<FlowRecord> records_;
  PathStore store_;  // active flows' link lists, CSR-pooled
  MaxMinAllocator allocator_;
  // validate_incremental scratch: a second allocator re-solves every
  // active path with one full one-shot compute() for comparison.
  std::unique_ptr<MaxMinAllocator> check_alloc_;
  std::vector<std::span<const LinkId>> check_paths_;

  std::size_t active_elephants_ = 0;
  std::size_t peak_active_elephants_ = 0;
  bool realloc_pending_ = false;
  Seconds last_realloc_ = -1;

  // Telemetry; all null when observability is disabled.
  obs::SimObserver* observer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
  obs::Counter* m_reallocs_ = nullptr;
  obs::Counter* m_realloc_full_ = nullptr;
  obs::Counter* m_realloc_scoped_ = nullptr;
  obs::Counter* m_realloc_region_ = nullptr;
  obs::Gauge* m_queue_depth_ = nullptr;
  obs::Gauge* m_dirty_flows_ = nullptr;
};

}  // namespace dard::flowsim
