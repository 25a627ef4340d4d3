#include "baselines/hedera.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/hash.h"
#include "fabric/wire.h"

namespace dard::baselines {

using fabric::DataPlane;
using fabric::FlowView;

std::vector<double> estimate_demands(const std::vector<std::uint32_t>& srcs,
                                     const std::vector<std::uint32_t>& dsts,
                                     std::uint32_t host_count) {
  DCN_CHECK(srcs.size() == dsts.size());
  const std::size_t n = srcs.size();
  std::vector<double> demand(n, 0.0);
  std::vector<bool> receiver_limited(n, false);

  std::vector<std::vector<std::uint32_t>> by_src(host_count), by_dst(host_count);
  for (std::size_t f = 0; f < n; ++f) {
    by_src[srcs[f]].push_back(static_cast<std::uint32_t>(f));
    by_dst[dsts[f]].push_back(static_cast<std::uint32_t>(f));
  }

  constexpr double kEps = 1e-9;
  bool changed = true;
  int guard = 0;
  while (changed && guard++ < 1000) {
    changed = false;

    // Sender step: unconverged flows split the sender's leftover equally.
    for (std::uint32_t s = 0; s < host_count; ++s) {
      double converged_sum = 0.0;
      std::uint32_t unconverged = 0;
      for (const std::uint32_t f : by_src[s]) {
        if (receiver_limited[f])
          converged_sum += demand[f];
        else
          ++unconverged;
      }
      if (unconverged == 0) continue;
      const double share =
          std::max(0.0, 1.0 - converged_sum) / static_cast<double>(unconverged);
      for (const std::uint32_t f : by_src[s]) {
        if (receiver_limited[f]) continue;
        if (std::abs(demand[f] - share) > kEps) {
          demand[f] = share;
          changed = true;
        }
      }
    }

    // Receiver step: oversubscribed receivers clamp their largest senders
    // to an equal share; senders already below the share keep theirs.
    for (std::uint32_t d = 0; d < host_count; ++d) {
      const auto& flows = by_dst[d];
      if (flows.empty()) continue;
      double total = 0.0;
      for (const std::uint32_t f : flows) total += demand[f];
      if (total <= 1.0 + kEps) continue;

      double spare = 1.0;
      std::uint32_t limited = static_cast<std::uint32_t>(flows.size());
      // Iterate the equal share until the small senders are separated out.
      double share = spare / limited;
      bool share_changed = true;
      while (share_changed) {
        share_changed = false;
        spare = 1.0;
        limited = 0;
        for (const std::uint32_t f : flows) {
          if (demand[f] < share - kEps)
            spare -= demand[f];
          else
            ++limited;
        }
        if (limited == 0) break;
        const double next = spare / limited;
        if (std::abs(next - share) > kEps) {
          share = next;
          share_changed = true;
        }
      }
      for (const std::uint32_t f : flows) {
        if (demand[f] >= share - kEps) {
          if (!receiver_limited[f] || std::abs(demand[f] - share) > kEps)
            changed = true;
          demand[f] = share;
          receiver_limited[f] = true;
        }
      }
    }
  }
  return demand;
}

void HederaAgent::start(DataPlane& net) {
  rng_ = std::make_unique<Rng>(cfg_.seed);
  if (cfg_.weighted_default_routing) wcmp_.attach(net.paths().generator());
  selector_.clear();
  rounds_ = 0;
  reassignments_ = 0;
  net.events().schedule(net.now() + cfg_.interval,
                        [this, &net] { control_round(net); });
}

PathIndex HederaAgent::place(DataPlane& net, const FlowView& flow) {
  const std::size_t count = net.path_count(flow);
  if (cfg_.weighted_default_routing)
    return wcmp_.pick(flow.src_host, flow.dst_host, flow.src_port,
                      flow.dst_port, count);
  return ecmp_path_index(flow.src_host, flow.dst_host, flow.src_port,
                         flow.dst_port, count);
}

void HederaAgent::control_round(DataPlane& sim) {
  ++rounds_;
  const topo::Topology& t = sim.topology();
  const Seconds now = sim.now();

  // 1. Edge switches report every live elephant to the controller.
  struct Entry {
    FlowId id;
    std::uint32_t src_dense, dst_dense;
    const std::vector<topo::Path>* paths;
    NodeId src_host, dst_host;
    double demand_bps = 0;
    PathIndex current;
  };
  // Dense host indexing for the demand estimator.
  std::unordered_map<std::uint32_t, std::uint32_t> dense;
  auto dense_of = [&](NodeId host) {
    const auto [it, inserted] =
        dense.emplace(host.value(), static_cast<std::uint32_t>(dense.size()));
    (void)inserted;
    return it->second;
  };

  // The controller polls every edge switch each round (Hedera "detects
  // elephant flows at the edge switches and collects the flow information
  // at a centralized server"), then receives one report per elephant.
  for (std::size_t i = 0; i < t.tors().size(); ++i)
    sim.accountant().record(now, fabric::kHederaReportBytes,
                            fabric::ControlCategory::SchedulerReport);

  // Entries point into these sets for the whole round, long after later
  // lookups may have evicted their cache entries, so each distinct ToR pair
  // is pinned once for the round.
  std::unordered_map<std::uint64_t, topo::PathRepository::PathSetPtr> pins;
  std::vector<Entry> entries;
  for (const FlowId id : sim.active_flows()) {
    const FlowView f = sim.flow_view(id);
    if (!f.is_elephant) continue;
    sim.accountant().record(now, fabric::kHederaReportBytes,
                            fabric::ControlCategory::SchedulerReport);
    auto& pin = pins[(static_cast<std::uint64_t>(f.src_tor.value()) << 32) |
                     f.dst_tor.value()];
    if (!pin) pin = sim.paths().pinned(f.src_tor, f.dst_tor);
    const auto& paths = *pin;
    if (paths.size() < 2) continue;  // nothing to schedule
    Entry e;
    e.id = id;
    e.src_dense = dense_of(f.src_host);
    e.dst_dense = dense_of(f.dst_host);
    e.paths = &paths;
    e.src_host = f.src_host;
    e.dst_host = f.dst_host;
    e.current = f.path_index;
    entries.push_back(e);
  }

  if (!entries.empty()) {
    // 2. Demand estimation, scaled by each sender's NIC capacity.
    std::vector<std::uint32_t> srcs, dsts;
    srcs.reserve(entries.size());
    dsts.reserve(entries.size());
    for (const Entry& e : entries) {
      srcs.push_back(e.src_dense);
      dsts.push_back(e.dst_dense);
    }
    const auto demands = estimate_demands(
        srcs, dsts, static_cast<std::uint32_t>(dense.size()));
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const auto& uplinks = t.out_links(entries[i].src_host);
      entries[i].demand_bps = demands[i] * t.link(uplinks.front()).capacity;
    }

    // 3. Simulated annealing over per-destination-host selectors.
    std::vector<std::uint32_t> dst_hosts;  // hosts with schedulable flows
    std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> flows_by_dst;
    std::uint32_t selector_range = 2;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const std::uint32_t key = entries[i].dst_host.value();
      auto& list = flows_by_dst[key];
      if (list.empty()) dst_hosts.push_back(key);
      list.push_back(static_cast<std::uint32_t>(i));
      selector_range = std::max(
          selector_range, static_cast<std::uint32_t>(entries[i].paths->size()));
      if (!selector_.count(key))
        selector_.emplace(key,
                          static_cast<std::uint32_t>(rng_->next_below(
                              entries[i].paths->size())));
    }

    auto path_of = [&](const Entry& e, std::uint32_t sel) -> const topo::Path& {
      return (*e.paths)[sel % e.paths->size()];
    };

    // Link loads and the over-capacity energy under current selectors.
    std::vector<double> load(t.link_count(), 0.0);
    auto exceed = [&](LinkId l) {
      return std::max(0.0, load[l.value()] - t.link(l).capacity);
    };
    double energy = 0.0;
    {
      for (const Entry& e : entries)
        for (const LinkId l :
             path_of(e, selector_.at(e.dst_host.value())).links)
          load[l.value()] += e.demand_bps;
      for (const auto& link : t.links()) energy += exceed(link.id);
    }

    // Track the best assignment seen; only strictly better states are
    // kept, so zero-delta plateau wandering never churns installed routes.
    auto best_selectors = selector_;
    double best_energy = energy;

    const double capacity_scale = t.links().front().capacity;
    double temperature = cfg_.initial_temperature * capacity_scale;
    const int iterations =
        std::max(cfg_.sa_iterations,
                 cfg_.sa_iterations_per_host *
                     static_cast<int>(dst_hosts.size()));
    for (int iter = 0; iter < iterations && !dst_hosts.empty(); ++iter) {
      // Bias the neighbourhood toward hosts whose flows currently traverse
      // an over-subscribed link (Hedera's swap neighbours are similarly
      // guided); fall back to uniform when the sample is clean.
      std::uint32_t host = dst_hosts[rng_->next_below(dst_hosts.size())];
      for (int probe = 0; probe < 4; ++probe) {
        const std::uint32_t candidate =
            dst_hosts[rng_->next_below(dst_hosts.size())];
        bool congested = false;
        for (const std::uint32_t fi : flows_by_dst.at(candidate)) {
          const Entry& e = entries[fi];
          for (const LinkId l :
               path_of(e, selector_.at(candidate)).links) {
            if (load[l.value()] > t.link(l).capacity * (1 + 1e-9)) {
              congested = true;
              break;
            }
          }
          if (congested) break;
        }
        if (congested) {
          host = candidate;
          break;
        }
      }
      const std::uint32_t old_sel = selector_.at(host);
      const std::uint32_t new_sel =
          static_cast<std::uint32_t>(rng_->next_below(selector_range));
      if (new_sel == old_sel) continue;

      // Apply tentatively, tracking the energy delta on touched links.
      double delta = 0.0;
      auto shift = [&](LinkId l, double amount) {
        const double before = exceed(l);
        load[l.value()] += amount;
        delta += exceed(l) - before;
      };
      for (const std::uint32_t fi : flows_by_dst.at(host)) {
        const Entry& e = entries[fi];
        for (const LinkId l : path_of(e, old_sel).links)
          shift(l, -e.demand_bps);
        for (const LinkId l : path_of(e, new_sel).links)
          shift(l, e.demand_bps);
      }

      const bool accept =
          delta < 0 ||
          (temperature > 0 &&
           rng_->uniform() < std::exp(-delta / temperature));
      if (accept) {
        selector_[host] = new_sel;
        energy += delta;
        if (energy < best_energy - 1e-6) {
          best_energy = energy;
          best_selectors = selector_;
        }
      } else {
        for (const std::uint32_t fi : flows_by_dst.at(host)) {
          const Entry& e = entries[fi];
          for (const LinkId l : path_of(e, new_sel).links)
            load[l.value()] -= e.demand_bps;
          for (const LinkId l : path_of(e, old_sel).links)
            load[l.value()] += e.demand_bps;
        }
      }
      temperature *= cfg_.cooling;
    }
    selector_ = std::move(best_selectors);

    // 4. Push changed assignments.
    std::vector<std::pair<FlowId, PathIndex>> moves;
    for (const Entry& e : entries) {
      const auto target = static_cast<PathIndex>(
          selector_.at(e.dst_host.value()) % e.paths->size());
      if (target != e.current) {
        moves.emplace_back(e.id, target);
        // One table update per switch on the flow's new path.
        const auto hops = (*e.paths)[target % e.paths->size()].links.size();
        for (std::size_t h = 0; h < hops; ++h)
          sim.accountant().record(now, fabric::kHederaUpdateBytes,
                                  fabric::ControlCategory::SchedulerUpdate);
      }
    }
    reassignments_ += moves.size();
    sim.move_flows(moves);
  }

  sim.events().schedule(now + cfg_.interval,
                        [this, &sim] { control_round(sim); });
}

}  // namespace dard::baselines
