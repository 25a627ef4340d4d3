#include "faults/recovery.h"

#include <algorithm>

#include "common/check.h"

namespace dard::faults {

RecoveryTracker::RecoveryTracker(flowsim::EventQueue& events,
                                 std::function<double()> probe,
                                 const FaultConfig& cfg, Seconds fault_onset)
    : events_(&events),
      probe_(std::move(probe)),
      period_(cfg.sample_period),
      recovery_fraction_(cfg.recovery_fraction),
      starvation_fraction_(cfg.starvation_fraction),
      churn_window_(cfg.churn_window),
      onset_(fault_onset) {
  DCN_CHECK_MSG(period_ > 0, "recovery sampling needs a positive period");
  DCN_CHECK_MSG(probe_ != nullptr, "recovery tracker without a probe");
}

void RecoveryTracker::start() {
  events_->schedule(events_->now() + period_, [this] { tick(); });
}

void RecoveryTracker::tick() {
  samples_.push_back(Sample{events_->now(), probe_(),
                            moves_probe_ ? moves_probe_() : 0});
  events_->schedule(events_->now() + period_, [this] { tick(); });
}

void RecoveryTracker::on_agent_restart(Seconds time) {
  restarts_.push_back(RestartMark{time, moves_probe_ ? moves_probe_() : 0});
}

RecoveryMetrics RecoveryTracker::finalize() const {
  RecoveryMetrics m;

  // Post-restart reconvergence is independent of the goodput baseline: a
  // fault at t=0 has no pre-onset window, but a restarted daemon's
  // time-to-first-accepted-round is still well-defined.
  if (!restarts_.empty()) {
    const RestartMark& last = restarts_.back();
    for (const Sample& s : samples_) {
      if (s.time < last.time) continue;
      if (s.moves > last.moves) {
        m.reconvergence_s = s.time - last.time;
        break;
      }
    }
    for (const Sample& s : samples_) {
      if (s.time < last.time || s.time > last.time + churn_window_) continue;
      m.churn_window_moves =
          std::max(m.churn_window_moves, s.moves - last.moves);
    }
  }

  if (samples_.empty() || onset_ < 0) return m;

  // Baseline: mean goodput over the tail of the pre-fault window (up to the
  // last 25 samples before onset), so one noisy tick doesn't define "normal".
  double sum = 0;
  std::size_t n = 0;
  for (auto it = samples_.rbegin(); it != samples_.rend() && n < 25; ++it) {
    if (it->time >= onset_) continue;
    sum += it->goodput;
    ++n;
  }
  if (n == 0) return m;  // fault hit before traffic ramped: no baseline
  m.baseline_goodput = sum / static_cast<double>(n);
  if (m.baseline_goodput <= 0) return m;

  // Post-onset reduction. The dip and starvation windows close at recovery
  // (or at the last sample when goodput never comes back): past that point
  // goodput falling because flows *finish* is success, not starvation.
  const double recovered_at_level = recovery_fraction_ * m.baseline_goodput;
  const double starved_below = starvation_fraction_ * m.baseline_goodput;
  m.dip_goodput = m.baseline_goodput;
  for (const Sample& s : samples_) {
    if (s.time < onset_) continue;
    if (m.time_to_recover < 0 && s.goodput >= recovered_at_level)
      m.time_to_recover = s.time - onset_;
    if (m.time_to_recover >= 0) break;
    m.dip_goodput = std::min(m.dip_goodput, s.goodput);
    if (s.goodput < starved_below) m.starvation_seconds += period_;
  }
  m.dip_fraction = 1.0 - m.dip_goodput / m.baseline_goodput;
  return m;
}

}  // namespace dard::faults
