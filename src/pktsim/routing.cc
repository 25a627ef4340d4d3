#include "pktsim/routing.h"

#include <algorithm>

#include "topology/path_gen.h"

namespace dard::pktsim {

PathSetRouter::FlowPaths PathSetRouter::make_flow_paths(NodeId src_host,
                                                        NodeId dst_host) {
  FlowPaths fp;
  fp.src_host = src_host;
  fp.dst_host = dst_host;
  const NodeId src_tor = topo_->tor_of_host(src_host);
  const NodeId dst_tor = topo_->tor_of_host(dst_host);
  for (const topo::Path& p : repo_.generator().all(src_tor, dst_tor))
    fp.routes.push_back(topo::host_path(*topo_, src_host, dst_host, p).links);
  return fp;
}

void TexcpRouter::attach(PacketNetwork& net, flowsim::EventQueue& events) {
  PacketRouter::attach(net, events);
}

void TexcpRouter::on_flow_started(FlowId flow, NodeId src, NodeId dst,
                                  std::uint16_t, std::uint16_t) {
  FlowPaths fp = make_flow_paths(src, dst);
  const auto key = std::make_pair(topo_->tor_of_host(src),
                                  topo_->tor_of_host(dst));
  auto it = pairs_.find(key);
  if (it == pairs_.end()) {
    PairState state;
    state.weights.assign(fp.routes.size(), 1.0 / fp.routes.size());
    state.utilization.assign(fp.routes.size(), 0.0);
    pairs_.emplace(key, std::move(state));
  }
  flow_pair_.emplace(flow, key);
  flows_.emplace(flow, std::move(fp));
  if (!ticking_) {
    ticking_ = true;
    net_->reset_counters();
    events_->schedule(events_->now() + probe_interval_,
                      [this] { probe_tick(); });
  }
}

std::uint32_t TexcpRouter::sample_path(const PairState& state) {
  double coin = rng_.uniform();
  for (std::uint32_t i = 0; i < state.weights.size(); ++i) {
    coin -= state.weights[i];
    if (coin <= 0) return i;
  }
  return static_cast<std::uint32_t>(state.weights.size() - 1);
}

const std::vector<LinkId>& TexcpRouter::route_for(FlowId flow,
                                                  std::uint64_t) {
  FlowPaths& fp = flows_.at(flow);
  const PairState& state = pairs_.at(flow_pair_.at(flow));
  if (flowlet_gap_ <= 0) {
    // Per-packet scattering.
    fp.current = sample_path(state);
    return fp.routes[fp.current];
  }
  // Flowlet switching: re-sample only after an idle gap, so back-to-back
  // packets stay on one path and cannot reorder.
  FlowletState& fl = flowlets_[flow];
  const Seconds now = events_->now();
  if (now - fl.last_packet > flowlet_gap_) {
    const std::uint32_t pick = sample_path(state);
    if (pick != fp.current) ++fp.switches;
    fp.current = pick;
    ++fl.flowlets;
  }
  fl.last_packet = now;
  return fp.routes[fp.current];
}

std::uint64_t TexcpRouter::flowlet_count(FlowId flow) const {
  const auto it = flowlets_.find(flow);
  return it == flowlets_.end() ? 0 : it->second.flowlets;
}

void TexcpRouter::probe_tick() {
  // Probe: utilization of each path over the last probe window.
  for (auto& [key, state] : pairs_) {
    // Rebuild a representative route set for this ToR pair from any flow.
    const auto& paths = repo_.tor_paths(key.first, key.second);
    for (std::uint32_t i = 0; i < paths.size(); ++i) {
      double util = 0;
      for (const LinkId l : paths[i].links)
        util = std::max(util, net_->utilization(l, probe_interval_));
      state.utilization[i] = util;
    }
  }
  net_->reset_counters();

  if (++probes_since_control_ >= 5) {
    probes_since_control_ = 0;
    // TeXCP control law (simplified): move weight toward paths whose
    // utilization is below the pair average.
    constexpr double kStep = 0.3;
    for (auto& [key, state] : pairs_) {
      double avg = 0;
      for (const double u : state.utilization) avg += u;
      avg /= static_cast<double>(state.utilization.size());
      double total = 0;
      for (std::size_t i = 0; i < state.weights.size(); ++i) {
        state.weights[i] =
            std::max(0.01, state.weights[i] + kStep * (avg - state.utilization[i]));
        total += state.weights[i];
      }
      for (double& w : state.weights) w /= total;
    }
  }

  if (flows_.empty()) {
    ticking_ = false;
    return;
  }
  events_->schedule(events_->now() + probe_interval_, [this] { probe_tick(); });
}

}  // namespace dard::pktsim
