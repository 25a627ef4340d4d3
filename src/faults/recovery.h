// Recovery metrics for fault experiments (DESIGN.md §11).
//
// A RecoveryTracker samples aggregate goodput on the substrate's own event
// queue (a substrate-specific probe closure: summed fluid rates, or the
// derivative of TCP acked bytes) and reduces the samples, against the
// plan's first fault time, into the numbers the paper's robustness story
// needs: how deep goodput dipped, how long until it recovered to a fraction
// of its pre-fault level, and how long flows sat starved. Sampling is
// read-only — enabling a tracker never perturbs flow dynamics.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "faults/fault_plan.h"
#include "flowsim/event_queue.h"

namespace dard::faults {

// The harness-level fault axis: a plan plus the knobs shared by both
// substrates. Inactive (empty plan) by default — an inactive FaultConfig
// leaves the experiment bit-identical to one run before the fault subsystem
// existed.
struct FaultConfig {
  FaultPlan plan;
  // Seeds the control-plane model's private RNG (query-loss draws). A
  // separate seed from the workload so fault noise is independently
  // reproducible.
  std::uint64_t seed = 1234;
  // Goodput probe cadence for recovery metrics.
  Seconds sample_period = 0.01;
  // "Recovered" = goodput back above this fraction of the pre-fault level.
  double recovery_fraction = 0.95;
  // A sample below this fraction of the pre-fault level counts as
  // starvation time.
  double starvation_fraction = 0.10;
  // Width of the post-restart window over which moves-churn is counted
  // (how much path shuffling a daemon's cold-start re-sync causes).
  Seconds churn_window = 1.0;

  [[nodiscard]] bool active() const { return !plan.empty(); }
};

struct RecoveryMetrics {
  double baseline_goodput = 0;   // bps, mean over the pre-fault window
  double dip_goodput = 0;        // bps, minimum after fault onset
  double dip_fraction = 0;       // 1 - dip/baseline (0 = no dip, 1 = total)
  Seconds time_to_recover = -1;  // onset -> first sample back above the
                                 // recovery fraction; -1 = never recovered
  Seconds starvation_seconds = 0;
  // Control-plane query exchanges and lost ones, filled by the harness
  // from the data plane's ledger: DardQuery messages, and DardQuery minus
  // DardReply messages (a lost exchange sends its query and no reply).
  std::uint64_t queries_attempted = 0;
  std::uint64_t queries_lost = 0;
  // Agent-level fault counts (filled by the harness from the injector).
  std::uint64_t agent_crashes = 0;
  std::uint64_t agent_restarts = 0;
  // Post-restart reconvergence: last daemon restart -> first accepted move
  // after it (time-to-first-accepted-round); -1 = no restart, or the run
  // ended before the cold-started daemon accepted a move.
  Seconds reconvergence_s = -1;
  // Accepted moves within churn_window after the last restart — how much
  // path shuffling the cold-start re-sync caused.
  std::uint64_t churn_window_moves = 0;
};

class RecoveryTracker {
 public:
  // `probe` returns instantaneous aggregate goodput in bps; it is called
  // once per sample_period tick on `events`. `fault_onset` is the plan's
  // first fault time (see FaultPlan::first_fault_time).
  RecoveryTracker(flowsim::EventQueue& events, std::function<double()> probe,
                  const FaultConfig& cfg, Seconds fault_onset);

  // Schedules the first sample one period from now. The tracker keeps
  // rescheduling itself; the run loops stop on flow completion, not queue
  // emptiness, so the tail ticks simply never fire.
  void start();

  // Optional cumulative accepted-moves probe (DARD's total_moves). Sampled
  // alongside goodput; powers the post-restart reconvergence and
  // moves-churn metrics. Without it those metrics stay at their defaults.
  void set_moves_probe(std::function<std::uint64_t()> probe) {
    moves_probe_ = std::move(probe);
  }

  // Marks a daemon-restart instant (the injector's restart listener calls
  // this). Reconvergence is measured from the LAST restart — the fleet is
  // only reconverged once its final cold start has caught up.
  void on_agent_restart(Seconds time);

  // Reduces the samples collected so far into metrics.
  [[nodiscard]] RecoveryMetrics finalize() const;

 private:
  void tick();

  struct Sample {
    Seconds time;
    double goodput;
    std::uint64_t moves;
  };
  struct RestartMark {
    Seconds time;
    std::uint64_t moves;  // cumulative accepted moves when the restart fired
  };

  flowsim::EventQueue* events_;
  std::function<double()> probe_;
  std::function<std::uint64_t()> moves_probe_;
  Seconds period_;
  double recovery_fraction_;
  double starvation_fraction_;
  Seconds churn_window_;
  Seconds onset_;
  std::vector<Sample> samples_;
  std::vector<RestartMark> restarts_;
};

}  // namespace dard::faults
