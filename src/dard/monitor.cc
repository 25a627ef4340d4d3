#include "dard/monitor.h"

#include <algorithm>
#include <array>
#include <span>

#include "topology/path_gen.h"

namespace dard::core {

namespace {

// Construction scratch shared by the monitors built on one thread: per link
// id the slot the link was given, per node id the switch's query_set_
// index. An entry is valid only while its stamp equals the current build's
// generation, so starting a build clears nothing. The walk's lists keep
// their capacity between builds, so a warm build allocates only the
// monitor's own arrays, each once and at its final size.
struct BuildScratch {
  struct Mark {
    std::uint32_t gen = 0;
    std::uint32_t index = 0;
  };
  std::vector<Mark> link;
  std::vector<Mark> node;
  std::uint32_t gen = 0;
  // Per path position j, the switches first seen as the tail of a path's
  // j-th link, in walk order.
  std::array<std::vector<NodeId>, topo::kMaxTorPathLinks> switches;
  std::vector<LinkId> slot_link;         // per slot
  std::vector<NodeId> slot_switch;       // per slot: the link's tail
  std::vector<std::uint32_t> path_slot;  // every path's slots, flat

  void begin(const topo::Topology& t) {
    if (link.size() < t.link_count()) link.resize(t.link_count());
    if (node.size() < t.node_count()) node.resize(t.node_count());
    if (++gen == 0) {  // wrapped: a stale stamp could match again
      std::fill(link.begin(), link.end(), Mark{});
      std::fill(node.begin(), node.end(), Mark{});
      gen = 1;
    }
    for (auto& run : switches) run.clear();
    slot_link.clear();
    slot_switch.clear();
    path_slot.clear();
  }
};

thread_local BuildScratch scratch;

}  // namespace

PathMonitor::PathMonitor(fabric::DataPlane& net, NodeId src_tor,
                         NodeId dst_tor)
    : src_tor_(src_tor), dst_tor_(dst_tor) {
  const topo::PathGenerator& gen = net.paths().generator();
  const std::size_t count = gen.count(src_tor, dst_tor);

  // One walk over the paths in index order. Links shared between paths
  // collapse to one slot so each is queried and snapshotted once per round;
  // a switch joins the query set with the first link it reports. ToR paths
  // cross only switch-switch links, each reported by its tail switch.
  BuildScratch& b = scratch;
  b.begin(net.topology());
  path_begin_.resize(count + 1);
  std::size_t path = 0;
  gen.for_each_path(src_tor, dst_tor, [&](std::span<const LinkId> links,
                                          std::span<const NodeId> nodes) {
    for (std::size_t j = 0; j < links.size(); ++j) {
      BuildScratch::Mark& slot = b.link[links[j].value()];
      if (slot.gen != b.gen) {
        slot = {b.gen, static_cast<std::uint32_t>(b.slot_link.size())};
        b.slot_link.push_back(links[j]);
        b.slot_switch.push_back(nodes[j]);
        BuildScratch::Mark& sw = b.node[nodes[j].value()];
        if (sw.gen != b.gen) {
          sw.gen = b.gen;
          b.switches[j].push_back(nodes[j]);
        }
      }
      b.path_slot.push_back(slot.index);
    }
    path_begin_[++path] = static_cast<std::uint32_t>(b.path_slot.size());
  });

  // The query set in node id order. On the fabrics built here each
  // position's run ascends and the runs' id ranges do not overlap, so the
  // runs laid end to end by first id are already sorted; otherwise the set
  // is sorted outright.
  std::array<const std::vector<NodeId>*, topo::kMaxTorPathLinks> runs;
  std::size_t switches = 0;
  for (std::size_t j = 0; j < runs.size(); ++j) {
    runs[j] = &b.switches[j];
    switches += b.switches[j].size();
  }
  std::sort(runs.begin(), runs.end(), [](const auto* x, const auto* y) {
    return !x->empty() && (y->empty() || x->front() < y->front());
  });
  query_set_.resize(switches);
  auto at = query_set_.begin();
  for (const auto* run : runs) at = std::copy(run->begin(), run->end(), at);
  if (!std::is_sorted(query_set_.begin(), query_set_.end()))
    std::sort(query_set_.begin(), query_set_.end());
  for (std::size_t k = 0; k < switches; ++k)
    b.node[query_set_[k].value()].index = static_cast<std::uint32_t>(k);

  slots_.resize(b.slot_link.size());
  slot_owner_.resize(b.slot_link.size());
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    slots_[s].link = b.slot_link[s];
    slot_owner_[s] = b.node[b.slot_switch[s].value()].index;
  }
  path_slot_.assign(b.path_slot.begin(), b.path_slot.end());
  switch_fresh_.assign(switches, -1.0);
  answered_.assign(switches, 0);
  pv_.resize(count);
  fv_count_.assign(count, 0);
  blacklisted_.assign(count, 0);
  probation_.assign(count, 0);
}

bool PathMonitor::any_dead(Bps floor, bool all) const {
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    const std::uint32_t owner = slot_owner_[s];
    if (all ? switch_fresh_[owner] < 0 : answered_[owner] == 0) continue;
    if (slots_[s].near_floor(floor) && slots_[s].bonf() <= floor) return true;
  }
  return false;
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
    obs::QueryExchange ex;
    ex.sw = query_set_[i];
    for (std::uint32_t attempt = 0; attempt <= cfg.query_max_retries;
         ++attempt) {
      ++stats.queries;
      ++ex.attempts;
      if (attempt > 0) ++stats.retries;
      const fabric::QueryAttempt qa = service.attempt_query();
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
      ex.delivered = true;
      ex.reply_delay = qa.reply_delay;
      ex.latency += qa.reply_delay;
      // The reply reflects switch state one delay ago; waiting out earlier
      // timeouts ages it further. (Perfect channel: fresh == now.)
      switch_fresh_[i] = now - qa.reply_delay - attempt * cfg.retry_backoff;
      break;
    }
    answered_[i] = ex.delivered ? 1 : 0;
    if (!ex.delivered) ++stats.failed_switches;
    if (exchanges != nullptr) exchanges->push_back(ex);
  }
  // Every attempt sent a query; every delivered one (late or not) a reply.
  service.charge(now, stats.queries, stats.queries - stats.lost);

  // Pull answered switches' port states into the snapshot; unanswered
  // switches leave their slots on last-known-good (age-stamped) state.
  // Path state is assembled from it when a round reads it.
  const Bps floor = cfg.blacklist_bonf_floor;
  bool near = false;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (answered_[slot_owner_[s]] == 0) continue;
    Slot& slot = slots_[s];
    const fabric::LinkState ls = service.link_state(slot.link);
    slot.bandwidth = ls.bandwidth;
    slot.elephants = ls.elephant_flows;
    near |= slot.near_floor(floor);
  }
  refreshed_at_ = now;
  staleness_cap_ = cfg.state_staleness_cap;
  pv_current_ = false;

  // Blacklist maintenance: a path reading at (or under) the failure floor
  // carries a dead link; a blacklisted path must string together
  // `probation_rounds` healthy readings before it may receive flows again.
  // A path reads at or under the floor exactly when one of its links does,
  // so with no snapshotted link there (an unanswered switch's older
  // snapshot included) and nothing blacklisted, the pass would change
  // nothing.
  const bool unanswered = stats.failed_switches > 0;
  const bool dead = (near || unanswered) && any_dead(floor, unanswered);
  if (!dead && blacklisted_live_ == 0) return stats;
  assemble();
  for (std::size_t i = 0; i < pv_.size(); ++i) {
    if (!pv_[i].assembled) continue;
    const bool dead_path = pv_[i].bonf() <= floor;
    if (dead_path) {
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

void PathMonitor::assemble() const {
  if (pv_current_) return;
  pv_current_ = true;
  // A switch that never answered, or whose freshest reply is older than the
  // cap at the refresh, takes its slots out: a path crossing one sits the
  // round out (unassembled) rather than scheduling on fiction.
  const auto stale = [this](Seconds fresh) {
    return fresh < 0 || refreshed_at_ - fresh > staleness_cap_;
  };
  const bool any_stale =
      std::any_of(switch_fresh_.begin(), switch_fresh_.end(), stale);

  // Per path, the first strict minimum in link order — identical
  // arithmetic to querying live. Intra-ToR "paths" have no switch-switch
  // link; they are never scheduled (path_count == 1) and stay unassembled.
  for (std::size_t i = 0; i < pv_.size(); ++i) {
    const std::uint32_t* const first = path_slot_.data() + path_begin_[i];
    const std::uint32_t* const last = path_slot_.data() + path_begin_[i + 1];
    PathState state;
    double best = 0;
    for (const std::uint32_t* s = first; s != last; ++s) {
      if (any_stale && stale(switch_fresh_[slot_owner_[*s]])) {
        state = PathState{};
        break;
      }
      const Slot& slot = slots_[*s];
      const double bonf = slot.bonf();
      if (!state.assembled || bonf < best) {
        state.bottleneck = slot.link;
        state.bandwidth = slot.bandwidth;
        state.flow_numbers = slot.elephants;
        state.assembled = true;
        best = bonf;
      }
    }
    pv_[i] = state;
  }
}

void PathMonitor::add_flow(FlowId flow, PathIndex path) {
  DCN_CHECK(path < fv_count_.size());
  flows_.emplace_back(path, flow);
  ++fv_count_[path];
}

void PathMonitor::remove_flow(FlowId flow, PathIndex path) {
  DCN_CHECK(path < fv_count_.size());
  const auto it = std::find(flows_.begin(), flows_.end(),
                            std::pair<PathIndex, FlowId>(path, flow));
  DCN_CHECK_MSG(it != flows_.end(), "removing untracked flow");
  flows_.erase(it);
  --fv_count_[path];
}

void PathMonitor::record_move(FlowId flow, PathIndex from, PathIndex to) {
  remove_flow(flow, from);
  add_flow(flow, to);
}

std::uint32_t PathMonitor::flows_on(PathIndex path) const {
  DCN_CHECK(path < fv_count_.size());
  return fv_count_[path];
}

std::optional<ProposedMove> PathMonitor::propose(Bps delta, Rng& rng,
                                                 RoundEvaluation* eval) const {
  if (eval != nullptr) *eval = RoundEvaluation{};
  if (pv_.size() < 2 || flows_.empty()) return std::nullopt;
  if (all_paths_blacklisted()) {
    // Nowhere sane to move: degrade to the static hash placement (ECMP-like)
    // until at least one path clears probation. No RNG draws — the fallback
    // leaves the stream exactly where a healthy skip would.
    if (eval != nullptr) eval->fallback = true;
    return std::nullopt;
  }
  assemble();

  // from: smallest BoNF among paths this host has elephants on;
  // to:   largest BoNF over all non-blacklisted paths. Ties broken uniformly
  // (reservoir sampling) to avoid cross-host herding onto one path.
  constexpr double kTieEps = 1.0;  // BoNFs within 1 bps are tied
  std::optional<PathIndex> from, to;
  std::uint64_t from_ties = 0, to_ties = 0;
  for (PathIndex i = 0; i < pv_.size(); ++i) {
    if (!pv_[i].assembled) continue;
    if (fv_count_[i] != 0) {
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

  // The first of this host's flows to have joined `from` moves.
  const auto first = std::find_if(
      flows_.begin(), flows_.end(),
      [&](const std::pair<PathIndex, FlowId>& f) { return f.first == *from; });
  return ProposedMove{first->second, *from, *to, gain};
}

}  // namespace dard::core
