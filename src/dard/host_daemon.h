// The per-end-host DARD daemon (paper Section 3.1).
//
// Mirrors the paper's three components:
//  * elephant detection is delegated to the substrate (on_elephant fires
//    when a flow crosses the age threshold);
//  * Monitors: one per destination ToR with live elephants, created on
//    demand and released when the last tracked elephant finishes;
//  * Flow Scheduler: every schedule_base + U[0, jitter] seconds, each
//    monitor may shift one elephant from its smallest-BoNF active path to
//    the largest-BoNF path (Algorithm 1).
// Query ticks and scheduling rounds only run while the daemon has monitors,
// so idle hosts cost nothing.
#pragma once

#include <map>
#include <memory>

#include "common/rng.h"
#include "dard/config.h"
#include "dard/monitor.h"
#include "obs/metrics.h"

namespace dard::core {

// Cached handles into the experiment's MetricsRegistry, owned by DardAgent
// and shared by every host daemon. All null when metrics are disabled, in
// which case each instrumentation site costs one null check.
struct DardCounters {
  obs::Counter* moves_proposed = nullptr;   // candidate moves passing δ
  obs::Counter* moves_accepted = nullptr;   // moves actually applied
  obs::Counter* moves_rejected = nullptr;   // candidates losing the per-host
                                            // best-gain comparison
  obs::Counter* delta_rejections = nullptr; // evaluations failing the δ test
  obs::Counter* monitor_queries = nullptr;  // switch state queries issued
  obs::Counter* query_timeouts = nullptr;   // lost or late query exchanges
  obs::Counter* query_retries = nullptr;    // re-attempts after a timeout
  obs::Counter* fallback_rounds = nullptr;  // rounds degraded to static hash
                                            // (every path blacklisted)
  obs::Gauge* blacklisted_paths = nullptr;  // live blacklisted paths, fleet-
                                            // wide across all monitors
};

class DardHostDaemon {
 public:
  DardHostDaemon(fabric::DataPlane& net,
                 const fabric::StateQueryService& service, NodeId host,
                 const DardConfig& cfg, Rng rng,
                 const DardCounters* counters = nullptr);

  // Substrate callbacks (routed through DardAgent).
  void on_elephant(const fabric::FlowView& flow);
  void on_finished(const fabric::FlowView& flow);

  // Agent-fault lifecycle (faults/injector.h via DardAgent). crash() models
  // the daemon process dying: every monitor, the tracked-elephant map, the
  // blacklist, and any pending query/round ticks are lost, and the
  // incarnation number is bumped so closures scheduled by the dead
  // incarnation no-op when they fire (the daemon object itself must outlive
  // them — the EventQueue holds raw `this`). Flows keep their last-installed
  // paths. restart() brings the daemon back with cold, empty state; the
  // agent then re-feeds still-live elephants through on_elephant.
  void crash();
  void restart();
  [[nodiscard]] bool alive() const { return alive_; }
  [[nodiscard]] std::uint64_t incarnation() const { return incarnation_; }

  [[nodiscard]] NodeId host() const { return host_; }
  [[nodiscard]] std::size_t monitor_count() const { return monitors_.size(); }
  [[nodiscard]] std::size_t total_moves() const { return total_moves_; }
  [[nodiscard]] const PathMonitor* monitor_for(NodeId dst_tor) const;

 private:
  void ensure_query_ticking();
  void ensure_round_scheduled();
  void query_tick();
  void run_round();
  // Reports the current incarnation to the run's Auditor (if installed) for
  // the monotonicity invariant; no-op otherwise.
  void report_incarnation() const;

  // Folds one refresh's outcome into the dard.* counters; does nothing
  // when metrics are disabled. Its messages are already on the ledger.
  void account_refresh(const RefreshStats& stats);
  // Blacklisted paths across this daemon's monitors.
  [[nodiscard]] std::size_t blacklisted_paths() const;
  // One monitor refresh with span tracing when a recorder is attached to
  // the data plane: collects per-switch exchanges and reports them. With no
  // recorder this is account_refresh(refresh(...)) exactly — one branch.
  void refresh_monitor(PathMonitor& monitor, NodeId dst_tor);

  fabric::DataPlane* net_;
  const fabric::StateQueryService* service_;
  NodeId host_;
  NodeId src_tor_;
  const DardConfig* cfg_;
  Rng rng_;
  const DardCounters* counters_;  // may be null

  std::map<NodeId, PathMonitor> monitors_;   // keyed by destination ToR
  std::map<FlowId, NodeId> tracked_;         // flow -> destination ToR
  bool query_ticking_ = false;
  bool round_scheduled_ = false;
  bool alive_ = true;
  // Bumped on every crash(); scheduled closures carry the incarnation that
  // scheduled them and drop themselves on mismatch, so a decision in flight
  // when the daemon died can never act on the reborn daemon's state.
  std::uint64_t incarnation_ = 1;
  std::size_t total_moves_ = 0;
  // Per-refresh scratch for span tracing; only populated (and only
  // allocated) when a SpanRecorder is attached.
  std::vector<obs::QueryExchange> span_scratch_;
};

}  // namespace dard::core
