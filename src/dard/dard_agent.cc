#include "dard/dard_agent.h"

#include "common/hash.h"

namespace dard::core {

using fabric::DataPlane;
using fabric::FlowView;

void DardAgent::start(DataPlane& net) {
  rng_ = std::make_unique<Rng>(cfg_.seed);
  if (cfg_.weighted_placement) wcmp_.attach(net.paths().generator());
  service_ = std::make_unique<fabric::StateQueryService>(net.link_state(),
                                                         &net.accountant());
  // The fault subsystem (if any) installed its degradation model on the
  // data plane before agents start; route monitor queries through it.
  service_->set_model(net.control_model());
  daemons_.clear();
  daemons_.resize(net.topology().node_count());

  // Partial deployment: draw the DARD-running host subset once from its own
  // seed. Full deployment leaves the bitmap empty — no RNG draws, and
  // deployed() short-circuits to true, keeping results bit-identical to a
  // run without the knob.
  deployed_.clear();
  if (cfg_.deploy_fraction < 1.0) {
    // Only host slots are meaningful; switch slots stay 0 and are never
    // queried (deployed() takes host ids).
    deployed_.assign(net.topology().node_count(), 0);
    Rng deploy_rng(cfg_.deploy_seed);
    for (const topo::Node& n : net.topology().nodes()) {
      if (n.kind != topo::NodeKind::Host) continue;
      deployed_[n.id.value()] =
          deploy_rng.uniform() < cfg_.deploy_fraction ? 1 : 0;
    }
  }

  counters_ = DardCounters{};
  if (obs::MetricsRegistry* m = net.metrics()) {
    counters_.moves_proposed = &m->counter("dard.moves_proposed");
    counters_.moves_accepted = &m->counter("dard.moves_accepted");
    counters_.moves_rejected = &m->counter("dard.moves_rejected");
    counters_.delta_rejections = &m->counter("dard.delta_rejections");
    counters_.monitor_queries = &m->counter("dard.monitor_queries");
    counters_.query_timeouts = &m->counter("dard.query_timeouts");
    counters_.query_retries = &m->counter("dard.query_retries");
    counters_.fallback_rounds = &m->counter("dard.fallback_rounds");
    counters_.blacklisted_paths = &m->gauge("dard.blacklisted_paths");
    net.accountant().set_message_counter(&m->counter("dard.control_msgs"));
  }
}

PathIndex DardAgent::place(DataPlane& net, const FlowView& flow) {
  const std::size_t count = net.path_count(flow);
  // Non-deployed hosts run stock ECMP end to end — even the weighted
  // placement is the DARD rollout's, not theirs.
  if (cfg_.weighted_placement && deployed(flow.src_host))
    return wcmp_.pick(flow.src_host, flow.dst_host, flow.src_port,
                      flow.dst_port, count);
  return ecmp_path_index(flow.src_host, flow.dst_host, flow.src_port,
                         flow.dst_port, count);
}

DardHostDaemon& DardAgent::daemon_for(DataPlane& net, NodeId host) {
  auto& slot = daemons_[host.value()];
  if (!slot) {
    slot = std::make_unique<DardHostDaemon>(net, *service_, host, cfg_,
                                            rng_->fork(host.value()),
                                            &counters_);
  }
  return *slot;
}

void DardAgent::on_elephant(DataPlane& net, const FlowView& flow) {
  if (!deployed(flow.src_host)) return;
  daemon_for(net, flow.src_host).on_elephant(flow);
}

void DardAgent::on_finished(DataPlane& net, const FlowView& flow) {
  if (!flow.is_elephant || !deployed(flow.src_host)) return;
  daemon_for(net, flow.src_host).on_finished(flow);
}

void DardAgent::on_daemon_crash(DataPlane& net, NodeId host) {
  (void)net;
  // A host that never sourced an elephant has no daemon yet; nothing to
  // lose. Non-deployed hosts have no daemon either.
  DardHostDaemon* const d =
      host.value() < daemons_.size() ? daemons_[host.value()].get() : nullptr;
  if (d != nullptr && d->alive()) d->crash();
}

void DardAgent::on_daemon_restart(DataPlane& net, NodeId host) {
  DardHostDaemon* const d =
      host.value() < daemons_.size() ? daemons_[host.value()].get() : nullptr;
  if (d != nullptr && !d->alive()) d->restart();
  if (!deployed(host)) return;
  // Cold-start re-sync: walk the substrate's live flows and re-adopt the
  // elephants this host sources, through the ordinary StateQueryService
  // query/retry machinery. After a real restart each lands in a freshly
  // created monitor (the crashed incarnation's monitors are gone). The walk
  // also runs when the daemon was already up — a restart closing the
  // second of two overlapping crash windows — and then offers elephants
  // this incarnation already tracks; on_elephant registers a flow only when
  // its tracked-map emplace inserts it, so none is counted twice.
  for (const FlowId id : net.active_flows()) {
    const FlowView view = net.flow_view(id);
    if (view.src_host != host || !view.is_elephant) continue;
    daemon_for(net, host).on_elephant(view);
  }
}

const DardHostDaemon* DardAgent::daemon(NodeId host) const {
  if (host.value() >= daemons_.size()) return nullptr;
  return daemons_[host.value()].get();
}

std::size_t DardAgent::total_moves() const {
  std::size_t n = 0;
  for (const auto& d : daemons_)
    if (d) n += d->total_moves();
  return n;
}

std::size_t DardAgent::live_monitor_count() const {
  std::size_t n = 0;
  for (const auto& d : daemons_)
    if (d) n += d->monitor_count();
  return n;
}

std::size_t DardAgent::deployed_hosts() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < deployed_.size(); ++i)
    if (deployed_[i] != 0) ++n;
  return n;
}

}  // namespace dard::core
