#include "dard/host_daemon.h"

#include "fabric/auditor.h"

namespace dard::core {

using fabric::FlowView;

DardHostDaemon::DardHostDaemon(fabric::DataPlane& net,
                               const fabric::StateQueryService& service,
                               NodeId host, const DardConfig& cfg, Rng rng,
                               const DardCounters* counters)
    : net_(&net),
      service_(&service),
      host_(host),
      src_tor_(net.topology().tor_of_host(host)),
      cfg_(&cfg),
      rng_(rng),
      counters_(counters) {}

void DardHostDaemon::account_refresh(const RefreshStats& stats) {
  if (counters_ == nullptr) return;
  if (counters_->monitor_queries != nullptr)
    counters_->monitor_queries->add(stats.queries);
  if (counters_->query_timeouts != nullptr && stats.timeouts > 0)
    counters_->query_timeouts->add(stats.timeouts);
  if (counters_->query_retries != nullptr && stats.retries > 0)
    counters_->query_retries->add(stats.retries);
  // The gauge tracks the fleet-wide live blacklist; every daemon shares it,
  // so fold in this refresh's net change.
  if (counters_->blacklisted_paths != nullptr &&
      (stats.newly_blacklisted > 0 || stats.cleared > 0)) {
    obs::Gauge& g = *counters_->blacklisted_paths;
    g.set(g.value + stats.newly_blacklisted - stats.cleared);
  }
}

void DardHostDaemon::refresh_monitor(PathMonitor& monitor, NodeId dst_tor) {
  obs::SpanRecorder* const spans = net_->spans();
  if (spans == nullptr) {
    // The disabled path is the pre-span code exactly: no scratch, no extra
    // work beyond this one branch.
    account_refresh(monitor.refresh(net_->now(), *service_, *cfg_));
    return;
  }
  const Seconds now = net_->now();
  account_refresh(monitor.refresh(now, *service_, *cfg_, &span_scratch_));
  spans->record_refresh(now, host_, dst_tor, span_scratch_);
}

std::size_t DardHostDaemon::blacklisted_paths() const {
  std::size_t n = 0;
  for (const auto& [dst_tor, monitor] : monitors_) n += monitor.blacklisted_count();
  return n;
}

void DardHostDaemon::on_elephant(const FlowView& flow) {
  DCN_CHECK(flow.src_host == host_);
  // A dead daemon hears nothing; the flow keeps its current path until a
  // restarted incarnation re-adopts it.
  if (!alive_) return;
  // Intra-ToR elephants have a single trivial path; nothing to monitor.
  if (flow.dst_tor == src_tor_) return;
  // A restart's re-adopt walk offers every live elephant, including ones
  // this incarnation already tracks (a restart of a daemon that is already
  // up); each enters its monitor's FV once.
  if (!tracked_.emplace(flow.id, flow.dst_tor).second) return;

  auto it = monitors_.find(flow.dst_tor);
  if (it == monitors_.end()) {
    it = monitors_
             .emplace(flow.dst_tor, PathMonitor(*net_, src_tor_, flow.dst_tor))
             .first;
    // A fresh monitor assembles path state immediately so the next round
    // has something to act on.
    refresh_monitor(it->second, flow.dst_tor);
  }
  it->second.add_flow(flow.id, flow.path_index);
  ensure_query_ticking();
  ensure_round_scheduled();
}

void DardHostDaemon::on_finished(const FlowView& flow) {
  const auto tracked = tracked_.find(flow.id);
  if (tracked == tracked_.end()) return;

  const auto it = monitors_.find(tracked->second);
  DCN_CHECK(it != monitors_.end());
  it->second.remove_flow(flow.id, flow.path_index);
  // Release the monitor once its last elephant drains (paper Section 2.4.1).
  if (!it->second.has_flows()) {
    // Its blacklisted paths leave with it — keep the shared gauge honest.
    if (counters_ != nullptr && counters_->blacklisted_paths != nullptr &&
        it->second.blacklisted_count() > 0) {
      obs::Gauge& g = *counters_->blacklisted_paths;
      g.set(g.value - static_cast<double>(it->second.blacklisted_count()));
    }
    monitors_.erase(it);
  }
  tracked_.erase(tracked);
}

void DardHostDaemon::crash() {
  // Stale-decision guard: pending query/round closures on the EventQueue
  // hold raw `this` plus the incarnation that scheduled them; bumping it
  // here turns every one of them into a no-op at fire time. The restart
  // does NOT bump — the reborn daemon IS this incarnation.
  ++incarnation_;
  alive_ = false;
  // The process's soft state dies with it. Its blacklisted paths leave the
  // fleet-wide gauge, same as a monitor being released.
  if (counters_ != nullptr && counters_->blacklisted_paths != nullptr) {
    const std::size_t black = blacklisted_paths();
    if (black > 0) {
      obs::Gauge& g = *counters_->blacklisted_paths;
      g.set(g.value - static_cast<double>(black));
    }
  }
  // The monitors carry the selfish-moves history and blacklist; clearing
  // them loses both. total_moves_ survives — it is experiment telemetry
  // (the RecoveryTracker samples it as a cumulative counter), not daemon
  // soft state.
  monitors_.clear();
  tracked_.clear();
  query_ticking_ = false;
  round_scheduled_ = false;
  report_incarnation();
}

void DardHostDaemon::restart() {
  DCN_CHECK_MSG(!alive_, "restarting a daemon that never crashed");
  alive_ = true;
  report_incarnation();
}

void DardHostDaemon::report_incarnation() const {
  if (fabric::Auditor* a = net_->auditor()) a->note_incarnation(host_, incarnation_);
}

void DardHostDaemon::ensure_query_ticking() {
  if (query_ticking_) return;
  query_ticking_ = true;
  net_->events().schedule(net_->now() + cfg_->query_interval,
                          [this, inc = incarnation_] {
                            if (inc != incarnation_) return;
                            query_tick();
                          });
}

void DardHostDaemon::ensure_round_scheduled() {
  if (round_scheduled_) return;
  round_scheduled_ = true;
  const Seconds wait =
      cfg_->schedule_base + (cfg_->schedule_jitter > 0
                                 ? rng_.uniform(0.0, cfg_->schedule_jitter)
                                 : 0.0);
  net_->events().schedule(net_->now() + wait, [this, inc = incarnation_] {
    if (inc != incarnation_) return;
    run_round();
  });
}

void DardHostDaemon::query_tick() {
  query_ticking_ = false;
  if (monitors_.empty()) return;
  {
    const obs::ProfileScope timed(net_->profiler(),
                                  obs::ProfileSection::MonitorRefresh);
    for (auto& [dst_tor, monitor] : monitors_)
      refresh_monitor(monitor, dst_tor);
  }
  ensure_query_ticking();
}

void DardHostDaemon::run_round() {
  round_scheduled_ = false;
  if (monitors_.empty()) return;
  // Times the whole round — propose scan, trace emission, and the winning
  // move's application — into the shared per-run profiler (null when
  // profiling is off; the scope then never reads the clock).
  const obs::ProfileScope timed(net_->profiler(),
                                obs::ProfileSection::DardRound);
  // Paper Algorithm 1: the scan runs over every monitor on the end host,
  // but the host shifts at most ONE elephant per round — the move with the
  // best estimated gain. (Letting each monitor move independently makes
  // two monitors of the same host leapfrog between their shared ToR
  // uplinks forever.)
  obs::SimObserver* const observer = net_->observer();
  const bool count =
      counters_ != nullptr && counters_->moves_proposed != nullptr;
  // Per-monitor evaluations, kept only while telemetry needs to report
  // which candidate ultimately won; unused (and unallocated) otherwise.
  std::vector<std::pair<NodeId, RoundEvaluation>> evals;
  if (observer != nullptr) evals.reserve(monitors_.size());

  PathMonitor* best_monitor = nullptr;
  std::optional<ProposedMove> best;
  std::size_t proposed = 0;
  for (auto& [dst_tor, monitor] : monitors_) {
    // The evaluation is always requested: beyond telemetry it reports when
    // the pair degraded to its static-hash fallback. Filling it draws
    // nothing from the RNG and never changes the decision.
    RoundEvaluation eval;
    const auto move = monitor.propose(cfg_->delta, rng_, &eval);
    if (observer != nullptr) evals.emplace_back(dst_tor, eval);
    if (eval.fallback && counters_ != nullptr &&
        counters_->fallback_rounds != nullptr)
      counters_->fallback_rounds->add();
    if (count && eval.considered && !eval.passed_delta)
      counters_->delta_rejections->add();
    if (move) ++proposed;
    if (move && (!best || move->estimated_gain > best->estimated_gain)) {
      best = move;
      best_monitor = &monitor;
    }
  }
  // Emit the round's evaluations BEFORE applying the winning move: the
  // accepted DardRound event is the *cause* of the FlowMove it triggers, and
  // causal trace order (decision first, effect after, linked by cause id) is
  // what dardscope reconstructs timelines from. Emission draws nothing from
  // the RNG and reads only monitor state, so the decision is unchanged.
  std::uint64_t accepted_cause = 0;
  if (observer != nullptr) {
    for (const auto& [dst_tor, eval] : evals) {
      if (!eval.considered) continue;
      obs::TraceEvent e;
      e.kind = obs::TraceEventKind::DardRound;
      e.time = net_->now();
      e.src_host = host_;
      e.dst_host = dst_tor;
      e.path_from = eval.from;
      e.path_to = eval.to;
      e.bonf_from = eval.from_bonf;
      e.bonf_to = eval.to_bonf;
      e.gain = eval.estimated_gain;
      e.delta_threshold = cfg_->delta;
      e.accepted = best.has_value() && best_monitor != nullptr &&
                   best_monitor->dst_tor() == dst_tor;
      e.cause_id = net_->next_cause_id();
      if (e.accepted) accepted_cause = e.cause_id;
      observer->on_dard_round(e);
    }
  }
  // Span tracing (DESIGN.md §17): the decision span records what the round
  // scanned and parents to the refresh whose state the winner consumed; the
  // move span (after the move applies, so the dard_round and flow_move it
  // references precede it in the trace) closes the query→decision→move
  // chain. One branch when no recorder is attached.
  obs::SpanRecorder* const spans = net_->spans();
  if (spans != nullptr)
    spans->record_decision(net_->now(), host_, monitors_.size(),
                           best.has_value(),
                           best_monitor != nullptr ? best_monitor->dst_tor()
                                                   : NodeId{});
  if (best) {
    if (accepted_cause != 0) net_->set_move_cause(accepted_cause);
    net_->move_flow(best->flow, best->to);
    net_->clear_move_cause();
    best_monitor->record_move(best->flow, best->from, best->to);
    ++total_moves_;
    if (spans != nullptr)
      spans->record_move(net_->now(), host_, best->flow,
                         best_monitor->dst_tor(), accepted_cause);
  }
  if (count) {
    counters_->moves_proposed->add(proposed);
    if (best) {
      counters_->moves_accepted->add();
      counters_->moves_rejected->add(proposed - 1);
    } else {
      counters_->moves_rejected->add(proposed);
    }
  }
  ensure_round_scheduled();
}

const PathMonitor* DardHostDaemon::monitor_for(NodeId dst_tor) const {
  const auto it = monitors_.find(dst_tor);
  return it == monitors_.end() ? nullptr : &it->second;
}

}  // namespace dard::core
