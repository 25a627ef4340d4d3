// DARD as a substrate-neutral control agent (see fabric/data_plane.h).
//
// Initial placement is the paper's default routing, ECMP (five-tuple hash),
// or its capacity-weighted WCMP variant on asymmetric fabrics
// (DardConfig::weighted_placement); once a flow is detected as an elephant
// its source host's daemon monitors and selfishly re-schedules it. Host daemons are created lazily on the
// first elephant a host sources. The same agent — daemons, monitors,
// Algorithm 1 — runs over the fluid simulator and the packet substrate.
#pragma once

#include <memory>
#include <vector>

#include "dard/host_daemon.h"
#include "fabric/data_plane.h"
#include "topology/paths.h"

namespace dard::core {

class DardAgent : public fabric::ControlAgent {
 public:
  explicit DardAgent(DardConfig cfg = {}) : cfg_(cfg) {}

  [[nodiscard]] const char* name() const override { return "DARD"; }

  void start(fabric::DataPlane& net) override;
  PathIndex place(fabric::DataPlane& net,
                  const fabric::FlowView& flow) override;
  void on_elephant(fabric::DataPlane& net,
                   const fabric::FlowView& flow) override;
  void on_finished(fabric::DataPlane& net,
                   const fabric::FlowView& flow) override;

  // Agent-fault hooks (faults/injector.h): crash wipes the host's daemon
  // soft state; restart cold-starts it and re-adopts still-live elephants
  // sourced at the host (fresh monitors rebuild path state through the
  // ordinary StateQueryService retry machinery). A restart of a daemon
  // that is already up re-offers tracked elephants; each is registered
  // once.
  void on_daemon_crash(fabric::DataPlane& net, NodeId host) override;
  void on_daemon_restart(fabric::DataPlane& net, NodeId host) override;

  [[nodiscard]] const DardConfig& config() const { return cfg_; }
  [[nodiscard]] const DardHostDaemon* daemon(NodeId host) const;
  [[nodiscard]] std::size_t total_moves() const;
  [[nodiscard]] std::size_t live_monitor_count() const;

  // Partial deployment (DardConfig::deploy_fraction): whether `host` runs
  // the adaptive daemon, and how many hosts do. Full deployment when the
  // fraction is 1.0 (the default).
  [[nodiscard]] bool deployed(NodeId host) const {
    return deployed_.empty() || deployed_[host.value()] != 0;
  }
  [[nodiscard]] std::size_t deployed_hosts() const;

 private:
  DardHostDaemon& daemon_for(fabric::DataPlane& net, NodeId host);

  DardConfig cfg_;
  std::unique_ptr<Rng> rng_;
  topo::WeightedPathSelector wcmp_;  // initial placement, weighted mode only
  std::unique_ptr<fabric::StateQueryService> service_;
  std::vector<std::unique_ptr<DardHostDaemon>> daemons_;  // by node id value
  // Per-node deployment bitmap (by node id value); empty = everyone runs
  // DARD. Non-deployed hosts keep the plain ECMP hash for their lifetime.
  std::vector<char> deployed_;
  DardCounters counters_;  // shared by all daemons; null fields = disabled
};

}  // namespace dard::core
