#include "baselines/ecmp.h"

#include "common/hash.h"

namespace dard::baselines {

using fabric::DataPlane;
using fabric::FlowView;

void EcmpAgent::start(DataPlane& net) {
  if (weighted_) selector_.attach(net.paths().generator());
}

PathIndex EcmpAgent::place(DataPlane& net, const FlowView& flow) {
  const std::size_t count = net.path_count(flow);
  if (weighted_)
    return selector_.pick(flow.src_host, flow.dst_host, flow.src_port,
                          flow.dst_port, count);
  return ecmp_path_index(flow.src_host, flow.dst_host, flow.src_port,
                         flow.dst_port, count);
}

void PvlbAgent::start(DataPlane& net) {
  rng_ = std::make_unique<Rng>(seed_);
  if (weighted_) selector_.attach(net.paths().generator());
  live_.clear();
  net.events().schedule(net.now() + repick_interval_, [this, &net] {
    tick(net);
  });
}

// Uniform fabrics (and the unweighted agent) draw next_below(count) exactly
// as before — same RNG consumption, same result — so weighted mode perturbs
// nothing unless capacities actually differ.
PathIndex PvlbAgent::random_pick(const FlowView& flow, std::size_t count) {
  if (!weighted_ || selector_.uniform_capacity() || count < 2)
    return static_cast<PathIndex>(rng_->next_below(count));
  const auto& w = selector_.weights(flow.src_tor, flow.dst_tor);
  std::uint64_t total = 0;
  for (const std::uint64_t wi : w) total += wi;
  std::uint64_t slot = rng_->next_below(total);
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (slot < w[i]) return static_cast<PathIndex>(i);
    slot -= w[i];
  }
  return static_cast<PathIndex>(w.size() - 1);  // unreachable
}

PathIndex PvlbAgent::place(DataPlane& net, const FlowView& flow) {
  live_.insert(flow.id);
  return random_pick(flow, net.path_count(flow));
}

void PvlbAgent::on_finished(DataPlane& /*net*/, const FlowView& flow) {
  live_.erase(flow.id);
}

void PvlbAgent::tick(DataPlane& net) {
  // Each live flow re-picks a random path; unchanged picks are no-ops.
  std::vector<std::pair<FlowId, PathIndex>> moves;
  moves.reserve(live_.size());
  for (const FlowId id : live_) {
    const fabric::FlowView f = net.flow_view(id);
    moves.emplace_back(id, random_pick(f, net.path_count(f)));
  }
  net.move_flows(moves);
  net.events().schedule(net.now() + repick_interval_, [this, &net] {
    tick(net);
  });
}

}  // namespace dard::baselines
