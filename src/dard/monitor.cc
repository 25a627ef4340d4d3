#include "dard/monitor.h"

#include <algorithm>
#include <span>

#include "topology/path_gen.h"

namespace dard::core {

namespace {

// Construction scratch shared by the monitors built on one thread: per link
// id the slot the link was given, per node id the switch's query_set_
// index. An entry is valid only while its stamp equals the current build's
// generation, so starting a build clears nothing.
struct BuildScratch {
  struct Mark {
    std::uint32_t gen = 0;
    std::uint32_t index = 0;
  };
  std::vector<Mark> link;
  std::vector<Mark> node;
  std::uint32_t gen = 0;

  void begin(const topo::Topology& t) {
    if (link.size() < t.link_count()) link.resize(t.link_count());
    if (node.size() < t.node_count()) node.resize(t.node_count());
    if (++gen == 0) {  // wrapped: a stale stamp could match again
      std::fill(link.begin(), link.end(), Mark{});
      std::fill(node.begin(), node.end(), Mark{});
      gen = 1;
    }
  }
};

thread_local BuildScratch scratch;

}  // namespace

PathMonitor::PathMonitor(fabric::DataPlane& net, NodeId src_tor,
                         NodeId dst_tor)
    : src_tor_(src_tor), dst_tor_(dst_tor) {
  const topo::PathGenerator& gen = net.paths().generator();
  const topo::Topology& t = net.topology();
  const std::size_t count = gen.count(src_tor, dst_tor);
  pv_.resize(count);
  fv_.resize(count);
  blacklisted_.assign(count, 0);
  probation_.assign(count, 0);

  // One pass over the paths in index order. Links shared between paths
  // collapse to one slot so each is queried and cached once per round; a
  // switch joins the query set with the first link it reports. ToR paths
  // cross only switch-switch links.
  BuildScratch& s = scratch;
  s.begin(t);
  path_begin_.reserve(count + 1);
  path_begin_.push_back(0);
  gen.for_each_path(src_tor, dst_tor, [&](std::span<const LinkId> links) {
    for (const LinkId l : links) {
      BuildScratch::Mark& slot = s.link[l.value()];
      if (slot.gen != s.gen) {
        slot = {s.gen, static_cast<std::uint32_t>(slot_links_.size())};
        slot_links_.push_back(l);
        const NodeId sw = t.link(l).src;
        if (s.node[sw.value()].gen != s.gen) {
          s.node[sw.value()].gen = s.gen;
          query_set_.push_back(sw);
        }
      }
      path_slot_.push_back(slot.index);
    }
    path_begin_.push_back(static_cast<std::uint32_t>(path_slot_.size()));
  });
  std::sort(query_set_.begin(), query_set_.end());
  for (std::size_t i = 0; i < query_set_.size(); ++i)
    s.node[query_set_[i].value()].index = static_cast<std::uint32_t>(i);

  slot_owner_.resize(slot_links_.size());
  for (std::size_t k = 0; k < slot_links_.size(); ++k)
    slot_owner_[k] = s.node[t.link(slot_links_[k]).src.value()].index;
  cache_.resize(slot_links_.size());
  switch_ok_.resize(query_set_.size());
  switch_fresh_.resize(query_set_.size());
}

RefreshStats PathMonitor::refresh(Seconds now,
                                  const fabric::StateQueryService& service,
                                  const DardConfig& cfg,
                                  std::vector<obs::QueryExchange>* exchanges) {
  RefreshStats stats;
  if (exchanges != nullptr) {
    exchanges->clear();
    exchanges->reserve(query_set_.size());
  }

  // One exchange per switch, retried on loss or a late reply. Every attempt
  // is bounded, so a round costs at most (1+retries) * |query set| messages
  // and never blocks — even at 100% loss the switch just stays failed.
  for (std::size_t i = 0; i < query_set_.size(); ++i) {
    switch_ok_[i] = 0;
    obs::QueryExchange ex;
    ex.sw = query_set_[i];
    for (std::uint32_t attempt = 0; attempt <= cfg.query_max_retries;
         ++attempt) {
      ++stats.queries;
      ++ex.attempts;
      if (attempt > 0) ++stats.retries;
      const fabric::QueryAttempt qa = service.attempt_query(now);
      if (!qa.delivered) {
        ++stats.lost;
        ++ex.lost;
      }
      if (!qa.delivered || qa.reply_delay > cfg.query_timeout) {
        ++stats.timeouts;
        ++ex.timeouts;
        // A failed exchange costs the full timeout window plus the backoff
        // before the next attempt (modeled, never the virtual clock).
        ex.latency += cfg.query_timeout + cfg.retry_backoff;
        continue;
      }
      switch_ok_[i] = 1;
      ex.delivered = true;
      ex.reply_delay = qa.reply_delay;
      ex.latency += qa.reply_delay;
      // The reply reflects switch state one delay ago; waiting out earlier
      // timeouts ages it further. (Perfect channel: fresh_at == now.)
      switch_fresh_[i] =
          now - qa.reply_delay - attempt * cfg.retry_backoff;
      break;
    }
    if (switch_ok_[i] == 0) ++stats.failed_switches;
    if (exchanges != nullptr) exchanges->push_back(ex);
  }

  // Pull answered switches' port states into the slot cache; unanswered
  // switches leave their slots on last-known-good (age-stamped) state.
  for (std::size_t s = 0; s < slot_links_.size(); ++s) {
    const std::uint32_t owner = slot_owner_[s];
    if (switch_ok_[owner] == 0) continue;
    cache_[s].state = service.link_state(slot_links_[s]);
    cache_[s].fresh_at = switch_fresh_[owner];
  }

  // Assemble PV per path from the cache (first strict minimum, path order —
  // identical arithmetic to querying live). A path whose freshest available
  // state is older than the staleness cap sits this round out (unassembled)
  // rather than scheduling on fiction.
  for (std::size_t i = 0; i < pv_.size(); ++i) {
    const std::uint32_t* const first = path_slot_.data() + path_begin_[i];
    const std::uint32_t* const last = path_slot_.data() + path_begin_[i + 1];
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
    // Intra-ToR "paths" have no switch-switch link; they are never
    // scheduled (path_count == 1) so leave them unassembled.
    if (first == last) continue;
    if (usable) {
      pv_[i] = state;
    } else {
      pv_[i].assembled = false;
    }
  }

  // Blacklist maintenance: a path reading at (or under) the failure floor
  // carries a dead link; a blacklisted path must string together
  // `probation_rounds` healthy readings before it may receive flows again.
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

void PathMonitor::refresh(Seconds now,
                          const fabric::StateQueryService& service) {
  static const DardConfig kDefault;
  (void)refresh(now, service, kDefault);
}

void PathMonitor::add_flow(FlowId flow, PathIndex path) {
  DCN_CHECK(path < fv_.size());
  fv_[path].push_back(flow);
  ++tracked_flows_;
}

void PathMonitor::remove_flow(FlowId flow, PathIndex path) {
  DCN_CHECK(path < fv_.size());
  auto& flows = fv_[path];
  const auto it = std::find(flows.begin(), flows.end(), flow);
  DCN_CHECK_MSG(it != flows.end(), "removing untracked flow");
  flows.erase(it);
  --tracked_flows_;
}

void PathMonitor::record_move(FlowId flow, PathIndex from, PathIndex to) {
  remove_flow(flow, from);
  add_flow(flow, to);
}

std::uint32_t PathMonitor::flows_on(PathIndex path) const {
  DCN_CHECK(path < fv_.size());
  return static_cast<std::uint32_t>(fv_[path].size());
}

std::optional<ProposedMove> PathMonitor::propose(Bps delta, Rng& rng,
                                                 RoundEvaluation* eval) const {
  if (eval != nullptr) *eval = RoundEvaluation{};
  if (pv_.size() < 2 || tracked_flows_ == 0) return std::nullopt;
  if (all_paths_blacklisted()) {
    // Nowhere sane to move: degrade to the static hash placement (ECMP-like)
    // until at least one path clears probation. No RNG draws — the fallback
    // leaves the stream exactly where a healthy skip would.
    if (eval != nullptr) eval->fallback = true;
    return std::nullopt;
  }

  // from: smallest BoNF among paths this host has elephants on;
  // to:   largest BoNF over all non-blacklisted paths. Ties broken uniformly
  // (reservoir sampling) to avoid cross-host herding onto one path.
  constexpr double kTieEps = 1.0;  // BoNFs within 1 bps are tied
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
    // A blacklisted path is a legal `from` (its flows need evacuating) but
    // never a `to`.
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

  // Estimated BoNF of the target if one more elephant joins it (the paper's
  // deliberate non-overlap approximation).
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

}  // namespace dard::core
