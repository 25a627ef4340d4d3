#include "scope/streaming.h"

#include <algorithm>

#include "scope/run_loader.h"

namespace dard::scope {

using obs::TraceEvent;
using obs::TraceEventKind;

void StreamingAnalyzer::IdSet::insert(std::uint64_t id) {
  static constexpr std::uint64_t kMinWords = 1024;
  ++inserted_;
  const std::uint64_t word = id / 64;
  if (word >= words_.size()) {
    if (word >= std::max(kMinWords, 8 * inserted_)) {
      outliers_.insert(id);
      return;
    }
    words_.resize(word + 1);
  }
  words_[word] |= std::uint64_t{1} << (id % 64);
}

bool StreamingAnalyzer::IdSet::contains(std::uint64_t id) const {
  const std::uint64_t word = id / 64;
  if (word < words_.size() && (words_[word] >> (id % 64) & 1U) != 0)
    return true;
  return outliers_.count(id) > 0;
}

void StreamingAnalyzer::TimeSet::insert(double t) {
  // A time below the vector's last is either in it already or goes to the
  // set; the set's times all stay below the last, so none is counted twice.
  if (sorted_.empty() || t > sorted_.back())
    sorted_.push_back(t);
  else if (!std::binary_search(sorted_.begin(), sorted_.end(), t))
    late_.insert(t);
}

void StreamingAnalyzer::fold_flow(std::uint32_t id, const LiveFlow& f) {
  ++totals_.completed_flows;
  if (f.elephant) ++folded_elephants_;
  if (f.moves == 0) return;
  ++folded_flows_moved_;
  folded_total_moves_ += f.moves;
  // (strictly more moves) or (tied and lower id) reproduces the offline
  // winner — the lowest-id flow among those achieving the maximum — no
  // matter in which order flows complete.
  if (f.moves > folded_max_moves_ ||
      (f.moves == folded_max_moves_ && id < folded_max_flow_)) {
    folded_max_moves_ = f.moves;
    folded_max_flow_ = id;
  }
}

void StreamingAnalyzer::on_event(const TraceEvent& e) {
  ++totals_.trace_events;
  totals_.last_event_time = std::max(totals_.last_event_time, e.time);
  trace_end_ = std::max(trace_end_, e.time);

  // First sight of a flow id opens its live entry (any flow event counts:
  // a truncated trace can open with a bare move or completion).
  const auto touch = [&](std::uint32_t flow) -> LiveFlow& {
    const auto [it, inserted] = live_.try_emplace(flow);
    if (inserted) {
      ++totals_.flows_seen;
      ++totals_.live_flows;
    }
    return it->second;
  };

  switch (e.kind) {
    case TraceEventKind::FlowArrive:
      touch(e.flow.value());
      break;
    case TraceEventKind::FlowElephant:
      touch(e.flow.value()).elephant = true;
      break;
    case TraceEventKind::FlowMove: {
      LiveFlow& f = touch(e.flow.value());

      ++causes_.moves;
      if (e.cause_id != 0) {
        ++causes_.attributed;
        if (rounds_.contains(e.cause_id))
          ++causes_.resolved;
        else
          ++causes_.dangling;
      }

      ++moves_;
      last_move_time_ = e.time;
      // A host's round emits its evaluations before the winning move, so
      // the current instant is already counted here.
      evals_at_last_move_ = evaluations_;
      instants_at_last_move_ = instants_.size();

      if (std::find(f.left_paths.begin(), f.left_paths.end(), e.path_to) !=
          f.left_paths.end()) {
        ++oscillations_;
        oscillating_.insert(e.flow.value());
      }
      f.left_paths.push_back(e.path_from);
      if (f.left_paths.size() > window_) f.left_paths.erase(f.left_paths.begin());

      ++f.moves;
      break;
    }
    case TraceEventKind::FlowComplete: {
      const std::uint32_t id = e.flow.value();
      const auto it = live_.find(id);
      if (it != live_.end()) {
        fold_flow(id, it->second);
        live_.erase(it);
        --totals_.live_flows;
      } else {
        // Completion without any prior event for the flow (truncation):
        // still one distinct, completed, unmoved flow.
        ++totals_.flows_seen;
        fold_flow(id, LiveFlow{});
      }
      break;
    }
    case TraceEventKind::DardRound:
      ++evaluations_;
      instants_.insert(e.time);
      if (e.accepted && e.cause_id != 0) {
        rounds_.insert(e.cause_id);
        parents_.insert(e.cause_id);
      }
      break;
    case TraceEventKind::Fault:
      ++totals_.fault_events;
      break;
    case TraceEventKind::Snapshot:
      ++totals_.snapshot_events;
      if (e.snapshot != nullptr) last_snapshot_ = e.snapshot;
      break;
    case TraceEventKind::Span:
      ++totals_.span_events;
      ++spans_.spans;
      switch (e.span_kind) {
        case obs::SpanKind::Query:
          ++spans_.query_spans;
          spans_.attempts += e.span_attempts;
          spans_.timeouts += e.span_timeouts;
          spans_.lost += e.span_lost;
          break;
        case obs::SpanKind::Refresh:
          ++spans_.refresh_spans;
          spans_.bytes += e.span_bytes;
          // Its clean exchanges (schema v6; 0 before): one-attempt,
          // delivered query spans parented to it.
          spans_.spans += e.span_clean;
          spans_.query_spans += e.span_clean;
          spans_.attempts += e.span_clean;
          if (e.cause_id != 0) {
            spans_.parented += e.span_clean;
            spans_.resolved += e.span_clean;
          }
          break;
        case obs::SpanKind::Decision:
          ++spans_.decision_spans;
          break;
        case obs::SpanKind::Move:
          ++spans_.move_spans;
          break;
        case obs::SpanKind::None:
          break;
      }
      if (e.parent_id != 0) {
        ++spans_.parented;
        if (parents_.contains(e.parent_id))
          ++spans_.resolved;
        else
          ++spans_.dangling;
      }
      if (e.cause_id != 0) parents_.insert(e.cause_id);
      break;
  }
}

void StreamingAnalyzer::on_link_sample(const LinkSample& s) {
  ++util_samples_;
  util_total_ += s.utilization;
  util_links_.insert(s.link);
  if (s.utilization > util_peak_) {
    util_peak_ = s.utilization;
    util_peak_link_ = s.src + "->" + s.dst;
    util_peak_time_ = s.time;
  }
}

Convergence StreamingAnalyzer::convergence() const {
  Convergence c;
  c.oscillation_window = window_;
  c.evaluations = evaluations_;
  c.scheduling_instants = instants_.size();
  c.moves = moves_;
  c.rounds_to_quiescence = evals_at_last_move_;
  c.instants_to_quiescence = instants_at_last_move_;
  c.last_move_time = last_move_time_;
  if (last_move_time_ >= 0) c.quiescent_tail_s = trace_end_ - last_move_time_;
  c.oscillations = oscillations_;
  c.oscillating_flows.assign(oscillating_.begin(), oscillating_.end());
  return c;
}

ChurnSummary StreamingAnalyzer::churn() const {
  ChurnSummary s;
  s.flows = totals_.flows_seen;
  s.elephants = folded_elephants_;
  s.flows_moved = folded_flows_moved_;
  s.total_moves = folded_total_moves_;
  s.max_moves_per_flow = folded_max_moves_;
  s.max_moves_flow = folded_max_flow_;
  // Fold the still-live flows in ascending-id order (live_ is a std::map),
  // without disturbing the stream state.
  for (const auto& [id, f] : live_) {
    if (f.elephant) ++s.elephants;
    if (f.moves == 0) continue;
    ++s.flows_moved;
    s.total_moves += f.moves;
    if (f.moves > s.max_moves_per_flow ||
        (f.moves == s.max_moves_per_flow && id < s.max_moves_flow)) {
      s.max_moves_per_flow = f.moves;
      s.max_moves_flow = id;
    }
  }
  return s;
}

UtilizationSummary StreamingAnalyzer::utilization() const {
  UtilizationSummary s;
  if (util_samples_ == 0) return s;
  s.recorded = true;
  s.links = util_links_.size();
  s.samples = util_samples_;
  s.mean_utilization = util_total_ / static_cast<double>(util_samples_);
  s.peak_utilization = util_peak_;
  s.peak_link = util_peak_link_;
  s.peak_time = util_peak_time_;
  return s;
}

}  // namespace dard::scope
