#include "flowsim/simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "fabric/auditor.h"

namespace dard::flowsim {

namespace {
// Rates within this relative tolerance are "unchanged" and keep their
// scheduled completion event. Max-min ripples perturb distant flows by
// minuscule amounts; rescheduling all of them floods the event queue, so a
// 0.1% band is traded for orders of magnitude fewer events (remaining
// bytes are always settled under the rate actually used, so no byte drifts
// — only completion times, by at most the same 0.1%).
constexpr double kRateTolerance = 1e-3;
// A flow whose remaining bytes fall below this is complete.
constexpr double kRemainingEps = 1e-3;

bool rate_changed(Bps a, Bps b) {
  return std::abs(a - b) > kRateTolerance * std::max({a, b, 1.0});
}
}  // namespace

FlowSimulator::FlowSimulator(const topo::Topology& t, SimConfig cfg)
    : topo_(&t), cfg_(cfg), paths_(t), board_(t), allocator_(t, &board_) {
  allocator_.attach(store_);
  events_.set_timer_handler([this](std::uint32_t key) {
    const FlowId id(key / 2);
    if (key == completion_key(id))
      complete(id);
    else
      promote_elephant(id);
  });
}

void FlowSimulator::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics_ == nullptr) {
    m_reallocs_ = nullptr;
    m_realloc_full_ = nullptr;
    m_realloc_scoped_ = nullptr;
    m_realloc_region_ = nullptr;
    m_queue_depth_ = nullptr;
    m_dirty_flows_ = nullptr;
    return;
  }
  m_reallocs_ = &metrics_->counter("flowsim.reallocations");
  m_realloc_full_ = &metrics_->counter("flowsim.realloc_full");
  m_realloc_scoped_ = &metrics_->counter("flowsim.realloc_scoped");
  m_realloc_region_ = &metrics_->counter("flowsim.realloc_region");
  m_queue_depth_ = &metrics_->gauge("flowsim.event_queue_depth");
  m_dirty_flows_ = &metrics_->gauge("flowsim.maxmin_dirty_flows");
}

double FlowSimulator::path_bonf(const Flow& f, PathIndex index) {
  double bonf = std::numeric_limits<double>::infinity();
  LinkId links[topo::kMaxTorPathLinks];
  const std::size_t n =
      paths_.generator().path_links(f.src_tor, f.dst_tor, index, links);
  for (const LinkId l : std::span<const LinkId>(links, n)) {
    if (!topo_->is_switch_switch(l)) continue;
    const fabric::LinkState state{l, board_.capacity(l), board_.elephants(l)};
    bonf = std::min(bonf, state.bonf());
  }
  // Intra-ToR paths have no switch-switch link; report 0 rather than inf.
  return std::isinf(bonf) ? 0.0 : bonf;
}

void FlowSimulator::link_loads(std::vector<double>* out) const {
  out->assign(topo_->link_count(), 0.0);
  for (const FlowId id : active_) {
    const Flow& f = flows_[id.value()];
    for (const LinkId l : links_of(f)) (*out)[l.value()] += rate_[id.value()];
  }
}

FlowId FlowSimulator::submit(const FlowSpec& spec) {
  DCN_CHECK_MSG(spec.src_host != spec.dst_host, "flow to self");
  DCN_CHECK(topo_->node(spec.src_host).kind == topo::NodeKind::Host);
  DCN_CHECK(topo_->node(spec.dst_host).kind == topo::NodeKind::Host);
  DCN_CHECK(spec.size > 0);
  DCN_CHECK(spec.arrival >= events_.now());

  FlowId id;
  if (cfg_.recycle_flow_ids && !free_fids_.empty()) {
    id = FlowId(free_fids_.back());
    free_fids_.pop_back();
    Flow f;
    f.id = id;
    f.spec = spec;
    f.src_tor = topo_->tor_of_host(spec.src_host);
    f.dst_tor = topo_->tor_of_host(spec.dst_host);
    flows_[id.value()] = std::move(f);
    remaining_[id.value()] = static_cast<double>(spec.size);
    rate_[id.value()] = 0;
    last_update_[id.value()] = spec.arrival;
  } else {
    id = FlowId(static_cast<FlowId::value_type>(flows_.size()));
    Flow f;
    f.id = id;
    f.spec = spec;
    f.src_tor = topo_->tor_of_host(spec.src_host);
    f.dst_tor = topo_->tor_of_host(spec.dst_host);
    flows_.push_back(std::move(f));
    remaining_.push_back(static_cast<double>(spec.size));
    rate_.push_back(0);
    last_update_.push_back(spec.arrival);
    active_pos_.push_back(0);
  }
  ++submitted_;

  events_.schedule(spec.arrival, [this, id] { arrive(id); });
  return id;
}

void FlowSimulator::run_until_flows_done() {
  while (finished_ < submitted_ && events_.run_next()) {
  }
  DCN_CHECK_MSG(finished_ == submitted_,
                "event queue drained before all flows finished");
}

void FlowSimulator::set_path_links(Flow& f, PathIndex index) {
  // [host uplink, ToR-to-ToR links, host downlink], laid out on the stack.
  LinkId links[6];
  links[0] = topo_->out_links(f.spec.src_host).front();
  const std::size_t n = paths_.generator().path_links(f.src_tor, f.dst_tor,
                                                      index, links + 1);
  links[n + 1] = topo_->reverse(topo_->out_links(f.spec.dst_host).front());
  f.path_index = index;
  store_.set(f.id.value(), std::span<const LinkId>(links, n + 2));
}

void FlowSimulator::board_add(const Flow& f) {
  for (const LinkId l : links_of(f)) board_.add_elephant(l);
}

void FlowSimulator::board_remove(const Flow& f) {
  for (const LinkId l : links_of(f)) board_.remove_elephant(l);
}

void FlowSimulator::arrive(FlowId id) {
  Flow& f = flows_[id.value()];
  DCN_CHECK(agent_ != nullptr);

  const PathIndex initial = agent_->place(*this, flow_view(id));
  set_path_links(f, initial);
  allocator_.add_flow(id.value());
  last_update_[id.value()] = events_.now();

  active_pos_[id.value()] = static_cast<std::uint32_t>(active_.size());
  active_.push_back(id);

  if (cfg_.elephant_threshold <= 0)
    promote_elephant(id);
  else
    events_.arm(promotion_key(id), events_.now() + cfg_.elephant_threshold);
  if (observer_ != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::TraceEventKind::FlowArrive;
    e.time = events_.now();
    e.flow = id;
    e.src_host = f.spec.src_host;
    e.dst_host = f.spec.dst_host;
    e.size = f.spec.size;
    e.path_to = f.path_index;
    observer_->on_flow_arrive(e);
  }
  request_reallocate();
}

void FlowSimulator::promote_elephant(FlowId id) {
  Flow& f = flows_[id.value()];
  DCN_CHECK(f.state == FlowState::Active && !f.is_elephant);
  f.is_elephant = true;
  board_add(f);
  ++active_elephants_;
  peak_active_elephants_ = std::max(peak_active_elephants_, active_elephants_);
  if (observer_ != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::TraceEventKind::FlowElephant;
    e.time = events_.now();
    e.flow = id;
    e.src_host = f.spec.src_host;
    e.dst_host = f.spec.dst_host;
    e.path_to = f.path_index;
    observer_->on_flow_elephant(e);
  }
  agent_->on_elephant(*this, flow_view(id));
}

void FlowSimulator::complete(FlowId id) {
  Flow& f = flows_[id.value()];
  DCN_CHECK(f.state == FlowState::Active);
  // A mouse's promotion would fire after it is gone.
  events_.disarm(promotion_key(id));

  const Seconds now = events_.now();
  remaining_[id.value()] -= rate_[id.value()] / 8.0 * (now - last_update_[id.value()]);
  last_update_[id.value()] = now;
  DCN_CHECK_MSG(remaining_[id.value()] < kRemainingEps,
                "completion fired with bytes left");
  remaining_[id.value()] = 0;
  f.state = FlowState::Finished;
  f.finish_time = now;
  rate_[id.value()] = 0;

  // Swap-erase from the active list.
  const std::uint32_t pos = active_pos_[id.value()];
  active_[pos] = active_.back();
  active_pos_[active_[pos].value()] = pos;
  active_.pop_back();

  if (f.is_elephant) {
    board_remove(f);
    --active_elephants_;
  }
  allocator_.remove_flow(id.value());
  store_.release(id.value());
  if (store_.should_compact()) store_.compact(active_);
  ++finished_;

  if (cfg_.keep_records) {
    FlowRecord rec;
    rec.id = f.id;
    rec.src_host = f.spec.src_host;
    rec.dst_host = f.spec.dst_host;
    rec.size = f.spec.size;
    rec.arrival = f.spec.arrival;
    rec.finish = now;
    rec.path_switches = f.path_switches;
    rec.was_elephant = f.is_elephant;
    rec.intra_tor = f.src_tor == f.dst_tor;
    rec.intra_pod = topo_->node(f.spec.src_host).pod ==
                    topo_->node(f.spec.dst_host).pod;
    records_.push_back(rec);
  }

  if (observer_ != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::TraceEventKind::FlowComplete;
    e.time = now;
    e.flow = id;
    e.src_host = f.spec.src_host;
    e.dst_host = f.spec.dst_host;
    e.size = f.spec.size;
    e.path_to = f.path_index;
    observer_->on_flow_complete(e);
  }
  agent_->on_finished(*this, flow_view(id));
  // Only after every observer/agent callback saw the finished flow may its
  // id return to the pool.
  if (cfg_.recycle_flow_ids) free_fids_.push_back(id.value());
  request_reallocate();
}

void FlowSimulator::apply_move(Flow& f, PathIndex new_path) {
  DCN_CHECK_MSG(f.state == FlowState::Active, "moving a finished flow");
  if (f.path_index == new_path) return;
  const PathIndex old_path = f.path_index;
  // Ground-truth BoNF of both paths at decision time (before the move
  // itself shifts the board), matching the state a scheduler acted on.
  double bonf_from = 0, bonf_to = 0;
  if (observer_ != nullptr) {
    bonf_from = path_bonf(f, old_path);
    bonf_to = path_bonf(f, new_path);
  }
  if (f.is_elephant) board_remove(f);
  allocator_.remove_flow(f.id.value());  // old path still in the store
  set_path_links(f, new_path);
  allocator_.add_flow(f.id.value());
  if (f.is_elephant) board_add(f);
  ++f.path_switches;
  if (observer_ != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::TraceEventKind::FlowMove;
    e.time = events_.now();
    e.flow = f.id;
    e.src_host = f.spec.src_host;
    e.dst_host = f.spec.dst_host;
    e.path_from = old_path;
    e.path_to = new_path;
    e.bonf_from = bonf_from;
    e.bonf_to = bonf_to;
    e.gain = bonf_to - bonf_from;
    e.cause_id = take_move_cause();
    observer_->on_flow_move(e);
  }
}

void FlowSimulator::set_cable_failed(NodeId a, NodeId b, bool failed) {
  const LinkId ab = topo_->find_link(a, b);
  const LinkId ba = topo_->find_link(b, a);
  DCN_CHECK_MSG(ab.valid() && ba.valid(), "no such cable");
  board_.set_failed(ab, failed);
  board_.set_failed(ba, failed);
  allocator_.touch_link(ab);
  allocator_.touch_link(ba);
  request_reallocate();
}

void FlowSimulator::audit(fabric::Auditor& auditor) {
  const Seconds t = events_.now();
  std::vector<std::uint32_t> counts(topo_->link_count(), 0);
  for (const FlowId id : active_) {
    const Flow& f = flows_[id.value()];
    const double rate = rate_[id.value()];
    // Byte conservation: the live remaining-byte projection must stay in
    // [0, size] (1 byte of slack for the fractional-byte settle epsilon). A
    // flow below zero transferred bytes it never had; above size it
    // un-transferred bytes.
    const double live =
        remaining_[id.value()] - rate / 8.0 * (t - last_update_[id.value()]);
    auditor.check(rate >= 0, [&] {
      return "flow " + std::to_string(id.value()) + " has a negative rate";
    });
    auditor.check(
        live >= -1.0 && live <= static_cast<double>(f.spec.size) + 1.0, [&] {
          return "flow " + std::to_string(id.value()) +
                 " violates byte conservation (live remaining " +
                 std::to_string(live) + " of " + std::to_string(f.spec.size) +
                 ")";
        });
    bool crosses_failed = false;
    for (const LinkId l : links_of(f)) {
      if (board_.failed(l)) crosses_failed = true;
      if (f.is_elephant) ++counts[l.value()];
    }
    // A failed cable's effective capacity is 1 bps, so any flow pinned
    // across one may hold at most that. Skipped while a batched
    // reallocation is pending — rates are then stale by design for up to
    // realloc_interval.
    if (crosses_failed && !realloc_pending_)
      auditor.check(rate <= 1.0 + 1e-6, [&] {
        return "flow " + std::to_string(id.value()) + " carries rate " +
               std::to_string(rate) + " bps across a failed cable";
      });
  }
  // Timer table: an active flow's completion is armed exactly when it has a
  // rate to finish at, and its promotion exactly while it is a mouse
  // waiting out a positive threshold. Any other slot — not yet arrived,
  // finished, or free for recycling — has neither armed.
  for (std::uint32_t fid = 0; fid < flows_.size(); ++fid) {
    const FlowId id(fid);
    const std::uint32_t pos = active_pos_[fid];
    const bool active = pos < active_.size() && active_[pos] == id;
    const bool completes = active && rate_[fid] > 0;
    const bool promotes = active && !flows_[fid].is_elephant &&
                          cfg_.elephant_threshold > 0;
    auditor.check(events_.armed(completion_key(id)) == completes, [&] {
      return "flow " + std::to_string(fid) +
             (completes ? " has a rate but no completion timer"
                        : " has a completion timer but no rate to finish at");
    });
    auditor.check(events_.armed(promotion_key(id)) == promotes, [&] {
      return "flow " + std::to_string(fid) +
             (promotes ? " is a live mouse with no promotion timer"
                       : " has a promotion timer it can no longer use");
    });
  }
  // Refcount consistency: the LinkStateBoard's per-link elephant counts
  // must equal a from-scratch recount over the active flows — a mismatch
  // means a board registration leaked (or double-decremented) somewhere in
  // the arrive/promote/move/finish lifecycle.
  for (std::uint32_t l = 0; l < counts.size(); ++l)
    auditor.check(counts[l] == board_.elephants(LinkId{l}), [&] {
      return "link " + std::to_string(l) + " elephant refcount drift (" +
             std::to_string(board_.elephants(LinkId{l})) + " on the board, " +
             std::to_string(counts[l]) + " recounted)";
    });
}

void FlowSimulator::move_flow(FlowId id, PathIndex new_path) {
  Flow& f = flows_[id.value()];
  if (f.path_index == new_path) return;
  apply_move(f, new_path);
  request_reallocate();
}

void FlowSimulator::move_flows(
    const std::vector<std::pair<FlowId, PathIndex>>& moves) {
  bool any = false;
  for (const auto& [id, path] : moves) {
    Flow& f = flows_[id.value()];
    if (f.path_index == path) continue;
    apply_move(f, path);
    any = true;
  }
  if (any) request_reallocate();
}

void FlowSimulator::request_reallocate() {
  if (cfg_.realloc_interval <= 0) {
    reallocate();
    return;
  }
  if (realloc_pending_) return;
  realloc_pending_ = true;
  const Seconds at =
      std::max(events_.now(), last_realloc_ + cfg_.realloc_interval);
  events_.schedule(at, [this] {
    realloc_pending_ = false;
    reallocate();
  });
}

void FlowSimulator::reallocate() {
  const Seconds now = events_.now();
  last_realloc_ = now;

  if (m_reallocs_ != nullptr) {
    m_reallocs_->add();
    m_queue_depth_->set(static_cast<double>(events_.pending()));
  }

  const std::vector<std::uint32_t>* touched_ptr;
  {
    const obs::ProfileScope timed(profiler_,
                                  obs::ProfileSection::MaxMinRealloc);
    touched_ptr = &allocator_.recompute();
  }
  const std::vector<std::uint32_t>& touched = *touched_ptr;

  if (profiler_ != nullptr) {
    profiler_->set_gauge(obs::ProfileGauge::EventQueueDepth,
                         static_cast<double>(events_.pending()));
    profiler_->set_gauge(obs::ProfileGauge::LiveFlows,
                         static_cast<double>(active_.size()));
    profiler_->set_gauge(obs::ProfileGauge::PathStoreBytes,
                         static_cast<double>(path_store_bytes()));
  }

  if (m_realloc_full_ != nullptr) {
    // realloc_scoped counts every non-full solve; realloc_region the
    // region-tier share of them.
    const MaxMinAllocator::Scope scope = allocator_.last_scope();
    (scope == MaxMinAllocator::Scope::Full ? m_realloc_full_
                                           : m_realloc_scoped_)
        ->add();
    if (scope == MaxMinAllocator::Scope::Region) m_realloc_region_->add();
    m_dirty_flows_->set(static_cast<double>(touched.size()));
  }
  if (cfg_.validate_incremental) validate_rates();

  for (const std::uint32_t fid : touched) {
    const Bps new_rate = allocator_.rate_of(fid);
    if (!rate_changed(rate_[fid], new_rate)) continue;

    // Settle progress under the old rate, then switch to the new one and
    // move the completion timer (a starved flow has none). Pure SoA-lane
    // traffic: the cold Flow struct is never touched here.
    remaining_[fid] -= rate_[fid] / 8.0 * (now - last_update_[fid]);
    remaining_[fid] = std::max(remaining_[fid], 0.0);
    last_update_[fid] = now;
    rate_[fid] = new_rate;

    const std::uint32_t key = completion_key(FlowId(fid));
    if (new_rate > 0)
      events_.arm(key, now + remaining_[fid] * 8.0 / new_rate);
    else
      events_.disarm(key);
  }
}

void FlowSimulator::validate_rates() {
  if (check_alloc_ == nullptr)
    check_alloc_ = std::make_unique<MaxMinAllocator>(*topo_, &board_);
  check_paths_.clear();
  check_paths_.reserve(active_.size());
  for (const FlowId id : active_)
    check_paths_.push_back(store_.span(id.value()));
  const std::vector<Bps>& full = check_alloc_->compute_spans(check_paths_);
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const Bps a = allocator_.rate_of(active_[i].value());
    const Bps b = full[i];
    DCN_CHECK_MSG(std::abs(a - b) <= 1e-9 * std::max({a, b, 1.0}),
                  "incremental max-min diverged from full recompute");
  }
}

}  // namespace dard::flowsim
