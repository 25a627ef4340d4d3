#include "flowsim/max_min.h"

#include <algorithm>
#include <functional>

#include "common/check.h"

namespace dard::flowsim {

namespace {
// A link counts as saturated when its load is within this fraction of its
// capacity: load sums round, and the validate bound is 1e-9 per rate.
constexpr double kSaturatedTolerance = 1e-10;
// Shares and rates this close (relative) are ties: the kernel freezes a
// link whose share is within it of the smallest, and the certificate lets
// a flow's rate fall this far short of the top rate on its link.
constexpr double kTieTolerance = 1e-12;
}  // namespace

MaxMinAllocator::MaxMinAllocator(const topo::Topology& t,
                                 const fabric::LinkStateBoard* board)
    : topo_(&t),
      board_(board),
      inc_flows_on_(t.link_count()),
      dirty_link_mark_(t.link_count(), 0),
      link_visit_(t.link_count(), 0),
      inc_remaining_(t.link_count(), 0.0),
      inc_unfrozen_(t.link_count(), 0),
      inc_saturated_(t.link_count(), 0) {}

void MaxMinAllocator::begin_one_shot() {
  DCN_CHECK_MSG(store_ == nullptr || store_ == &one_shot_paths_,
                "compute() on an allocator attached to a PathStore");
  store_ = &one_shot_paths_;
  // The previous call ended in a full recompute, so comp_links_ still holds
  // exactly the links whose flow lists it filled.
  for (const auto lv : comp_links_) inc_flows_on_.clear(lv);
  for (const std::uint32_t fid : members_) in_system_[fid] = 0;
  members_.clear();
  one_shot_paths_.clear();
  inc_ready_ = false;  // every one-shot solve is a full pass
}

const std::vector<Bps>& MaxMinAllocator::finish_one_shot() {
  recompute();
  one_shot_rates_.assign(inc_rate_.begin(),
                         inc_rate_.begin() + static_cast<std::ptrdiff_t>(
                                                 members_.size()));
  return one_shot_rates_;
}

const std::vector<Bps>& MaxMinAllocator::compute(
    const std::vector<const std::vector<LinkId>*>& links_of) {
  begin_one_shot();
  for (std::uint32_t f = 0; f < links_of.size(); ++f) {
    one_shot_paths_.set(f, *links_of[f]);
    add_flow(f);
  }
  return finish_one_shot();
}

const std::vector<Bps>& MaxMinAllocator::compute_spans(
    const std::vector<std::span<const LinkId>>& links_of) {
  begin_one_shot();
  for (std::uint32_t f = 0; f < links_of.size(); ++f) {
    one_shot_paths_.set(f, links_of[f]);
    add_flow(f);
  }
  return finish_one_shot();
}

void MaxMinAllocator::ensure_fid(std::uint32_t fid) {
  if (fid < in_system_.size()) return;
  const std::size_t n = fid + 1;
  in_system_.resize(n, 0);
  member_pos_.resize(n, 0);
  inc_rate_.resize(n, 0.0);
  dirty_flow_mark_.resize(n, 0);
  flow_visit_.resize(n, 0);
  frozen_mark_.resize(n, 0);
  freeze_link_.resize(n, 0);
}

void MaxMinAllocator::mark_dirty_flow(std::uint32_t fid) {
  if (dirty_flow_mark_[fid] == dirty_stamp_) return;
  dirty_flow_mark_[fid] = dirty_stamp_;
  dirty_flows_.push_back(fid);
}

void MaxMinAllocator::mark_dirty_link(LinkId::value_type lv) {
  if (dirty_link_mark_[lv] == dirty_stamp_) return;
  dirty_link_mark_[lv] = dirty_stamp_;
  dirty_links_.push_back(lv);
}

void MaxMinAllocator::add_flow(std::uint32_t fid) {
  DCN_CHECK_MSG(store_ != nullptr, "add_flow before attach");
  ensure_fid(fid);
  DCN_CHECK_MSG(!in_system_[fid], "flow already registered");
  const auto path = store_->span(fid);
  DCN_CHECK_MSG(!path.empty(), "flow with empty path");
  in_system_[fid] = 1;
  member_pos_[fid] = static_cast<std::uint32_t>(members_.size());
  members_.push_back(fid);
  for (const LinkId l : path) inc_flows_on_.push(l.value(), fid);
  mark_dirty_flow(fid);
}

void MaxMinAllocator::remove_flow(std::uint32_t fid) {
  DCN_CHECK_MSG(fid < in_system_.size() && in_system_[fid],
                "removing unregistered flow");
  in_system_[fid] = 0;
  inc_rate_[fid] = 0.0;

  const std::uint32_t pos = member_pos_[fid];
  members_[pos] = members_.back();
  member_pos_[members_[pos]] = pos;
  members_.pop_back();

  for (const LinkId l : store_->span(fid)) {
    // Swap-erase; lists are short (flows sharing one link), the scan is a
    // contiguous sweep within the arena.
    inc_flows_on_.swap_erase(l.value(), fid);
    mark_dirty_link(l.value());
  }
}

void MaxMinAllocator::touch_link(LinkId l) {
  mark_dirty_link(l.value());
  cap_links_.push_back(l.value());
}

void MaxMinAllocator::add_to_region(std::uint32_t fid) {
  if (flow_visit_[fid] == visit_stamp_) return;
  flow_visit_[fid] = visit_stamp_;
  comp_flows_.push_back(fid);
  for (const LinkId l : store_->span(fid)) {
    const auto lv = l.value();
    if (link_visit_[lv] == visit_stamp_) continue;
    link_visit_[lv] = visit_stamp_;
    comp_links_.push_back(lv);
  }
}

// The flows a change can move directly: the added or moved flows, every
// flow on a link whose capacity changed, and every flow frozen on a link
// that lost a flow (the freed capacity is theirs first). Flows frozen
// elsewhere only move if one of these does, which the certificate finds.
bool MaxMinAllocator::seed_region(std::size_t limit) {
  if (dirty_flows_.size() > limit) return false;
  for (const std::uint32_t fid : dirty_flows_)
    if (in_system_[fid]) add_to_region(fid);
  for (const LinkId::value_type lv : cap_links_) {
    for (const std::uint32_t fid : inc_flows_on_.items(lv)) add_to_region(fid);
    if (comp_flows_.size() > limit) return false;
  }
  for (const LinkId::value_type lv : dirty_links_) {
    for (const std::uint32_t fid : inc_flows_on_.items(lv))
      if (freeze_link_[fid] == lv) add_to_region(fid);
    if (comp_flows_.size() > limit) return false;
  }
  return true;
}

// The max-min certificate: every flow must be frozen on a saturated link
// where no flow has a higher rate. Links the region does not touch carry
// only fixed flows at their old rates and passed before; a region fill
// keeps every link it touches within capacity, so only the flows frozen on
// those links need checking.
void MaxMinAllocator::check_region() {
  grow_.clear();
  for (const LinkId::value_type lv : comp_links_) {
    const auto flows = inc_flows_on_.items(lv);
    double load = 0;
    double top = 0;
    bool frozen_here = false;
    for (const std::uint32_t fid : flows) {
      load += inc_rate_[fid];
      top = std::max(top, inc_rate_[fid]);
      frozen_here |= freeze_link_[fid] == lv;
    }
    if (!frozen_here) continue;
    const double capacity = capacity_of(LinkId(lv));
    const bool saturated = load >= capacity - kSaturatedTolerance * capacity;
    for (const std::uint32_t fid : flows) {
      if (freeze_link_[fid] != lv) continue;
      const double rate = inc_rate_[fid];
      if (saturated && rate >= top * (1 - kTieTolerance)) continue;
      if (flow_visit_[fid] != visit_stamp_) {
        grow_.push_back(fid);
        continue;
      }
      for (const std::uint32_t other : flows)
        if (flow_visit_[other] != visit_stamp_ &&
            inc_rate_[other] > rate * (1 + kTieTolerance))
          grow_.push_back(other);
    }
  }
}

bool MaxMinAllocator::solve_region(std::size_t limit) {
  while (true) {
    ++frozen_stamp_;
    water_fill_range(comp_flows_, comp_links_, /*region=*/true);
    check_region();
    if (grow_.empty()) return true;
    for (const std::uint32_t fid : grow_) add_to_region(fid);
    if (comp_flows_.size() > limit) return false;
  }
}

bool MaxMinAllocator::collect_component(std::size_t limit) {
  for (const std::uint32_t fid : dirty_flows_) {
    if (!in_system_[fid] || flow_visit_[fid] == visit_stamp_) continue;
    flow_visit_[fid] = visit_stamp_;
    comp_flows_.push_back(fid);
  }
  for (const LinkId::value_type lv : dirty_links_) {
    for (const std::uint32_t fid : inc_flows_on_.items(lv)) {
      if (flow_visit_[fid] == visit_stamp_) continue;
      flow_visit_[fid] = visit_stamp_;
      comp_flows_.push_back(fid);
    }
  }
  // BFS over the flow/link sharing graph; comp_flows_ doubles as the queue.
  for (std::size_t i = 0; i < comp_flows_.size(); ++i) {
    if (comp_flows_.size() > limit) return false;
    const std::uint32_t fid = comp_flows_[i];
    for (const LinkId l : store_->span(fid)) {
      const auto lv = l.value();
      if (link_visit_[lv] == visit_stamp_) continue;
      link_visit_[lv] = visit_stamp_;
      comp_links_.push_back(lv);
      for (const std::uint32_t g : inc_flows_on_.items(lv)) {
        if (flow_visit_[g] == visit_stamp_) continue;
        flow_visit_[g] = visit_stamp_;
        comp_flows_.push_back(g);
      }
    }
  }
  return comp_flows_.size() <= limit;
}

void MaxMinAllocator::collect_everything() {
  comp_flows_.assign(members_.begin(), members_.end());
  for (const std::uint32_t fid : members_) {
    for (const LinkId l : store_->span(fid)) {
      const auto lv = l.value();
      if (link_visit_[lv] == visit_stamp_) continue;
      link_visit_[lv] = visit_stamp_;
      comp_links_.push_back(lv);
    }
  }
}

void MaxMinAllocator::reset_scope() {
  ++visit_stamp_;
  comp_flows_.clear();
  comp_links_.clear();
}

// Progressive filling: repeatedly saturate the link with the smallest fair
// share and freeze its unfrozen flows at that share.
void MaxMinAllocator::water_fill_range(
    std::span<const std::uint32_t> flows,
    std::span<const LinkId::value_type> links, bool region) {
  for (const auto lv : links) {
    inc_remaining_[lv] = capacity_of(LinkId(lv));
    inc_unfrozen_[lv] =
        static_cast<std::uint32_t>(inc_flows_on_.size(lv));
    inc_saturated_[lv] = 0;
    if (!region) continue;
    // Outside flows are fixed: pre-frozen, their rates taken off the top.
    for (const std::uint32_t fid : inc_flows_on_.items(lv)) {
      if (flow_visit_[fid] == visit_stamp_) continue;
      frozen_mark_[fid] = frozen_stamp_;
      inc_remaining_[lv] -= inc_rate_[fid];
      --inc_unfrozen_[lv];
    }
  }

  // Lazy-deletion min-heap over link fair shares. Freezing flows only
  // *raises* the fair share of the remaining links (the frozen rate is at
  // most the link's current share), so a popped entry whose recomputed
  // share grew is simply re-pushed — monotonicity makes this sound.
  const auto share_of = [&](LinkId::value_type lv) {
    return inc_remaining_[lv] / static_cast<double>(inc_unfrozen_[lv]);
  };
  const auto push = [&](double share, LinkId::value_type lv) {
    heap_.emplace_back(share, lv);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  };
  heap_.clear();
  for (const auto lv : links) push(share_of(lv), lv);

  std::size_t frozen_count = 0;
  const std::size_t target = flows.size();
  while (frozen_count < target) {
    DCN_CHECK_MSG(!heap_.empty(), "no bottleneck but unfrozen flows remain");
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const auto [key, lv] = heap_.back();
    heap_.pop_back();
    if (inc_saturated_[lv] || inc_unfrozen_[lv] == 0) continue;
    const double actual = share_of(lv);
    // `actual > key` keeps a negative share (a link its fixed flows
    // overfill) from re-pushing itself forever; for key >= 0 it is implied.
    if (actual > key && actual > key * (1 + kTieTolerance) + 1e-9) {
      push(actual, lv);
      continue;
    }
    const double share = std::max(actual, 0.0);

    for (const std::uint32_t fid : inc_flows_on_.items(lv)) {
      if (frozen_mark_[fid] == frozen_stamp_) continue;
      frozen_mark_[fid] = frozen_stamp_;
      ++frozen_count;
      inc_rate_[fid] = share;
      freeze_link_[fid] = lv;
      for (const LinkId l : store_->span(fid)) {
        inc_remaining_[l.value()] -= share;
        --inc_unfrozen_[l.value()];
      }
    }
    inc_saturated_[lv] = 1;
  }
}

const std::vector<std::uint32_t>& MaxMinAllocator::recompute() {
  DCN_CHECK_MSG(store_ != nullptr, "recompute before attach");
  reset_scope();

  // Past ~2/3 of the system a scoped pass saves nothing over a full one
  // (and pays for finding its scope), so both tiers bail out there.
  const std::size_t limit = members_.size() - members_.size() / 3;
  Scope scope = full_only_ || !inc_ready_ ? Scope::Full : Scope::Region;
  if (scope == Scope::Region) {
    // A change seeding more than 1/8 of the flows grows a region that
    // nears its component in several fills: one component fill is cheaper.
    if (!seed_region(members_.size() / 8)) {
      scope = Scope::Component;
      reset_scope();
    } else if (!solve_region(limit)) {
      scope = Scope::Full;
      reset_scope();
    }
  }
  if (scope == Scope::Component && !collect_component(limit)) {
    scope = Scope::Full;
    reset_scope();
  }
  if (scope == Scope::Full) {
    collect_everything();
    inc_ready_ = true;
  }
  last_scope_ = scope;

  dirty_flows_.clear();
  dirty_links_.clear();
  cap_links_.clear();
  ++dirty_stamp_;

  if (scope != Scope::Region) {
    ++frozen_stamp_;
    water_fill_range(comp_flows_, comp_links_, /*region=*/false);
  }
  return comp_flows_;
}

}  // namespace dard::flowsim
