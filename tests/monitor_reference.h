// Reference copy of the former eager DARD path monitor, for tests only.
//
// Before a refresh snapshotted port states and left path-state assembly to
// the round, every refresh charged each query and reply to the accountant
// as it was attempted, assembled every path's state from the slot cache,
// and ran the blacklist pass over every path. That monitor is kept here,
// unchanged in substance, as the reference core::PathMonitor must equal
// step for step (tests/monitor_reference_test.cc): the same refresh
// outcome, exchanges, path states, blacklist and probation, proposals and
// round evaluations, and the same accountant state. It shares the record
// types with src/dard and nothing else; its only change is that it charges
// its own accountant, since StateQueryService::attempt_query no longer
// charges anything.
#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "dard/config.h"
#include "dard/monitor.h"
#include "fabric/accounting.h"
#include "fabric/data_plane.h"
#include "fabric/switch_state.h"
#include "fabric/wire.h"
#include "obs/spans.h"
#include "topology/path_gen.h"

namespace dard::core::reference {

class EagerMonitor {
 public:
  // Charges every attempt to `accountant` (may be null).
  EagerMonitor(fabric::DataPlane& net, NodeId src_tor, NodeId dst_tor,
               fabric::ControlPlaneAccountant* accountant)
      : accountant_(accountant) {
    const topo::PathGenerator& gen = net.paths().generator();
    const topo::Topology& t = net.topology();
    const std::size_t count = gen.count(src_tor, dst_tor);
    pv_.resize(count);
    fv_.resize(count);
    blacklisted_.assign(count, 0);
    probation_.assign(count, 0);

    // Slots in order of first appearance; the query set sorted by node id.
    std::vector<std::int64_t> slot_of(t.link_count(), -1);
    std::vector<char> in_set(t.node_count(), 0);
    path_begin_.push_back(0);
    gen.for_each_path(src_tor, dst_tor, [&](std::span<const LinkId> links,
                                            std::span<const NodeId>) {
      for (const LinkId l : links) {
        if (slot_of[l.value()] < 0) {
          slot_of[l.value()] = static_cast<std::int64_t>(slot_links_.size());
          slot_links_.push_back(l);
          const NodeId sw = t.link(l).src;
          if (in_set[sw.value()] == 0) {
            in_set[sw.value()] = 1;
            query_set_.push_back(sw);
          }
        }
        path_slot_.push_back(
            static_cast<std::uint32_t>(slot_of[l.value()]));
      }
      path_begin_.push_back(static_cast<std::uint32_t>(path_slot_.size()));
    });
    std::sort(query_set_.begin(), query_set_.end());
    for (const LinkId l : slot_links_) {
      const NodeId sw = t.link(l).src;
      slot_owner_.push_back(static_cast<std::uint32_t>(
          std::lower_bound(query_set_.begin(), query_set_.end(), sw) -
          query_set_.begin()));
    }
    cache_.resize(slot_links_.size());
    switch_ok_.resize(query_set_.size());
    switch_fresh_.resize(query_set_.size());
  }

  [[nodiscard]] std::size_t path_count() const { return pv_.size(); }
  [[nodiscard]] const std::vector<NodeId>& queried_switches() const {
    return query_set_;
  }

  RefreshStats refresh(Seconds now, const fabric::StateQueryService& service,
                       const DardConfig& cfg,
                       std::vector<obs::QueryExchange>* exchanges) {
    RefreshStats stats;
    if (exchanges != nullptr) exchanges->clear();

    for (std::size_t i = 0; i < query_set_.size(); ++i) {
      switch_ok_[i] = 0;
      obs::QueryExchange ex;
      ex.sw = query_set_[i];
      for (std::uint32_t attempt = 0; attempt <= cfg.query_max_retries;
           ++attempt) {
        ++stats.queries;
        ++ex.attempts;
        if (attempt > 0) ++stats.retries;
        // The query is always charged; the reply only when delivered.
        if (accountant_ != nullptr)
          accountant_->record(now, fabric::kDardQueryBytes,
                              fabric::ControlCategory::DardQuery);
        const fabric::QueryAttempt qa = service.attempt_query();
        if (qa.delivered && accountant_ != nullptr)
          accountant_->record(now, fabric::kDardReplyBytes,
                              fabric::ControlCategory::DardReply);
        if (!qa.delivered) {
          ++stats.lost;
          ++ex.lost;
        }
        if (!qa.delivered || qa.reply_delay > cfg.query_timeout) {
          ++stats.timeouts;
          ++ex.timeouts;
          ex.latency += cfg.query_timeout + cfg.retry_backoff;
          continue;
        }
        switch_ok_[i] = 1;
        ex.delivered = true;
        ex.reply_delay = qa.reply_delay;
        ex.latency += qa.reply_delay;
        switch_fresh_[i] =
            now - qa.reply_delay - attempt * cfg.retry_backoff;
        break;
      }
      if (switch_ok_[i] == 0) ++stats.failed_switches;
      if (exchanges != nullptr) exchanges->push_back(ex);
    }

    for (std::size_t s = 0; s < slot_links_.size(); ++s) {
      const std::uint32_t owner = slot_owner_[s];
      if (switch_ok_[owner] == 0) continue;
      cache_[s].state = service.link_state(slot_links_[s]);
      cache_[s].fresh_at = switch_fresh_[owner];
    }

    for (std::size_t i = 0; i < pv_.size(); ++i) {
      const std::uint32_t* const first = path_slot_.data() + path_begin_[i];
      const std::uint32_t* const last =
          path_slot_.data() + path_begin_[i + 1];
      PathState state;
      bool usable = first != last;
      for (const std::uint32_t* s = first; s != last; ++s) {
        const CachedLink& c = cache_[*s];
        if (c.fresh_at < 0 || now - c.fresh_at > cfg.state_staleness_cap) {
          usable = false;
          break;
        }
        const fabric::LinkState& ls = c.state;
        if (!state.assembled || ls.bonf() < state.bonf()) {
          state.bottleneck = ls.link;
          state.bandwidth = ls.bandwidth;
          state.flow_numbers = ls.elephant_flows;
          state.assembled = true;
        }
      }
      if (first == last) continue;
      if (usable) {
        pv_[i] = state;
      } else {
        pv_[i].assembled = false;
      }
    }

    for (std::size_t i = 0; i < pv_.size(); ++i) {
      if (path_begin_[i] == path_begin_[i + 1] || !pv_[i].assembled) continue;
      const bool dead = pv_[i].bonf() <= cfg.blacklist_bonf_floor;
      if (dead) {
        probation_[i] = cfg.probation_rounds;
        if (blacklisted_[i] == 0) {
          blacklisted_[i] = 1;
          ++blacklisted_live_;
          ++stats.newly_blacklisted;
        }
      } else if (blacklisted_[i] != 0) {
        if (probation_[i] > 0) {
          --probation_[i];
        } else {
          blacklisted_[i] = 0;
          --blacklisted_live_;
          ++stats.cleared;
        }
      }
    }
    return stats;
  }

  void add_flow(FlowId flow, PathIndex path) {
    fv_[path].push_back(flow);
    ++tracked_flows_;
  }
  void remove_flow(FlowId flow, PathIndex path) {
    auto& flows = fv_[path];
    flows.erase(std::find(flows.begin(), flows.end(), flow));
    --tracked_flows_;
  }
  void record_move(FlowId flow, PathIndex from, PathIndex to) {
    remove_flow(flow, from);
    add_flow(flow, to);
  }

  [[nodiscard]] std::size_t tracked_flows() const { return tracked_flows_; }
  [[nodiscard]] std::uint32_t flows_on(PathIndex path) const {
    return static_cast<std::uint32_t>(fv_[path].size());
  }
  [[nodiscard]] const std::vector<PathState>& path_states() const {
    return pv_;
  }
  [[nodiscard]] bool is_blacklisted(PathIndex path) const {
    return blacklisted_[path] != 0;
  }
  [[nodiscard]] std::uint32_t probation_left(PathIndex path) const {
    return probation_[path];
  }
  [[nodiscard]] std::size_t blacklisted_count() const {
    return blacklisted_live_;
  }
  [[nodiscard]] bool all_paths_blacklisted() const {
    return !pv_.empty() && blacklisted_live_ == pv_.size();
  }

  [[nodiscard]] std::optional<ProposedMove> propose(
      Bps delta, Rng& rng, RoundEvaluation* eval) const {
    if (eval != nullptr) *eval = RoundEvaluation{};
    if (pv_.size() < 2 || tracked_flows_ == 0) return std::nullopt;
    if (all_paths_blacklisted()) {
      if (eval != nullptr) eval->fallback = true;
      return std::nullopt;
    }
    constexpr double kTieEps = 1.0;
    std::optional<PathIndex> from, to;
    std::uint64_t from_ties = 0, to_ties = 0;
    for (PathIndex i = 0; i < pv_.size(); ++i) {
      if (!pv_[i].assembled) continue;
      if (!fv_[i].empty()) {
        if (!from || pv_[i].bonf() < pv_[*from].bonf() - kTieEps) {
          from = i;
          from_ties = 1;
        } else if (pv_[i].bonf() < pv_[*from].bonf() + kTieEps &&
                   rng.next_below(++from_ties) == 0) {
          from = i;
        }
      }
      if (blacklisted_[i] != 0) continue;
      if (!to || pv_[i].bonf() > pv_[*to].bonf() + kTieEps) {
        to = i;
        to_ties = 1;
      } else if (pv_[i].bonf() > pv_[*to].bonf() - kTieEps &&
                 rng.next_below(++to_ties) == 0) {
        to = i;
      }
    }
    if (!from || !to || *from == *to) return std::nullopt;

    const PathState& target = pv_[*to];
    const double estimation =
        target.bandwidth / static_cast<double>(target.flow_numbers + 1);
    const double gain = estimation - pv_[*from].bonf();
    if (eval != nullptr) {
      eval->considered = true;
      eval->from = *from;
      eval->to = *to;
      eval->from_bonf = pv_[*from].bonf();
      eval->to_bonf = pv_[*to].bonf();
      eval->estimated_gain = gain;
      eval->passed_delta = gain > delta;
    }
    if (gain <= delta) return std::nullopt;
    return ProposedMove{fv_[*from].front(), *from, *to, gain};
  }

 private:
  fabric::ControlPlaneAccountant* accountant_;
  std::vector<NodeId> query_set_;
  std::vector<LinkId> slot_links_;
  std::vector<std::uint32_t> slot_owner_;
  std::vector<std::uint32_t> path_begin_;
  std::vector<std::uint32_t> path_slot_;

  struct CachedLink {
    fabric::LinkState state;
    Seconds fresh_at = -1;
  };
  std::vector<CachedLink> cache_;
  std::vector<std::uint8_t> switch_ok_;
  std::vector<Seconds> switch_fresh_;

  std::vector<PathState> pv_;
  std::vector<std::vector<FlowId>> fv_;
  std::size_t tracked_flows_ = 0;

  std::vector<std::uint8_t> blacklisted_;
  std::vector<std::uint32_t> probation_;
  std::size_t blacklisted_live_ = 0;
};

}  // namespace dard::core::reference
