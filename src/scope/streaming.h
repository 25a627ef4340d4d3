// The one trace analyzer (DESIGN.md §12, §13): `load_run` feeds it a
// finished trace and `dardscope live` a growing one, one event at a time in
// trace order.
//
// StreamingAnalyzer keeps the headline metrics of a run: stream totals, the
// causal-link and span audits, convergence (evaluations, scheduling
// instants, accepted moves, oscillations), path churn and link utilization.
// Each figure is exact for any order of events, with one assumption the
// simulators guarantee: a flow has no event after its flow_complete. The
// summaries are valid mid-stream and final once the trace is exhausted.
// tests/scope_reference_test.cc holds them, through every report, to the
// whole-trace passes they replaced (tests/scope_reference.h).
//
// Memory follows the run's live state and its id range, not the length of
// the trace:
//  * per-flow state (move count, elephant flag, the oscillation window of
//    recently-left paths) exists only while the flow is live and folds into
//    scalar aggregates on flow_complete;
//  * ids sit in bitmaps at one bit each: accepted round ids, which a move's
//    cause may cite, and those plus span ids, which a span's parent may
//    cite. Every id comes from one per-run counter
//    (fabric::DataPlane::next_cause_id), so the ids are dense; an id far past
//    the bitmap (hand-written or corrupt input) goes to an ordered set;
//  * distinct DardRound times are kept sorted, 8 bytes per instant.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "scope/analysis.h"

namespace dard::scope {

struct LinkSample;

class StreamingAnalyzer {
 public:
  explicit StreamingAnalyzer(std::size_t oscillation_window = 4)
      : window_(oscillation_window) {}

  // Feed one trace event (in trace order).
  void on_event(const obs::TraceEvent& e);
  // Feed one link-utilization sample (in file order; only aggregates are
  // kept).
  void on_link_sample(const LinkSample& s);

  // Stream totals, updated on every event.
  struct Totals {
    std::size_t trace_events = 0;
    std::size_t fault_events = 0;
    std::size_t snapshot_events = 0;
    std::size_t span_events = 0;  // span lines; spans().spans adds the
                                  // clean exchanges folded into refreshes
    std::size_t flows_seen = 0;  // distinct flow ids
    std::size_t live_flows = 0;  // seen but not yet completed
    std::size_t completed_flows = 0;
    double last_event_time = 0;
  };
  [[nodiscard]] const Totals& totals() const { return totals_; }

  // The most recent Snapshot event's payload (null until one streams past).
  [[nodiscard]] const std::shared_ptr<const obs::SnapshotStats>&
  last_snapshot() const {
    return last_snapshot_;
  }

  // Current summaries. Each call assembles a value from the aggregates plus
  // the still-live flows.
  [[nodiscard]] const CauseAudit& causes() const { return causes_; }
  [[nodiscard]] const SpanAudit& spans() const { return spans_; }
  [[nodiscard]] Convergence convergence() const;
  [[nodiscard]] ChurnSummary churn() const;
  [[nodiscard]] UtilizationSummary utilization() const;

 private:
  struct LiveFlow {
    std::uint32_t moves = 0;
    bool elephant = false;
    // The last `window_` paths this flow left, oldest first.
    std::vector<std::uint32_t> left_paths;
  };

  // An exact set of ids from one per-run counter: a bitmap over the dense
  // range, and an ordered set for ids past it. The bitmap grows only over
  // ids below 65,536 or below 512 per id inserted (64 bytes of bitmap each),
  // so a stray huge id cannot make it large.
  class IdSet {
   public:
    void insert(std::uint64_t id);
    [[nodiscard]] bool contains(std::uint64_t id) const;

   private:
    std::vector<std::uint64_t> words_;
    std::set<std::uint64_t> outliers_;
    std::uint64_t inserted_ = 0;
  };

  // Distinct times. A time above every earlier one appends to a sorted
  // vector (the simulators emit times in order); any other time the vector
  // lacks goes to an ordered set.
  class TimeSet {
   public:
    void insert(double t);
    [[nodiscard]] std::size_t size() const {
      return sorted_.size() + late_.size();
    }

   private:
    std::vector<double> sorted_;
    std::set<double> late_;
  };

  void fold_flow(std::uint32_t id, const LiveFlow& f);

  std::size_t window_;
  Totals totals_;
  CauseAudit causes_;
  SpanAudit spans_;
  std::shared_ptr<const obs::SnapshotStats> last_snapshot_;

  // Live flows by id; std::map so finalizing folds in ascending-id order.
  std::map<std::uint32_t, LiveFlow> live_;

  // Churn aggregates over completed flows (live flows folded on demand).
  std::size_t folded_elephants_ = 0;
  std::size_t folded_flows_moved_ = 0;
  std::size_t folded_total_moves_ = 0;
  std::size_t folded_max_moves_ = 0;
  std::uint32_t folded_max_flow_ = 0;

  // Convergence aggregates.
  std::size_t evaluations_ = 0;
  TimeSet instants_;
  std::size_t moves_ = 0;
  double last_move_time_ = -1;
  std::size_t evals_at_last_move_ = 0;
  std::size_t instants_at_last_move_ = 0;
  double trace_end_ = 0;
  std::size_t oscillations_ = 0;
  std::set<std::uint32_t> oscillating_;

  // The ids a move's cause may cite (accepted rounds), and the ids a span's
  // parent may cite (accepted rounds and spans).
  IdSet rounds_;
  IdSet parents_;

  // Utilization aggregates.
  std::size_t util_samples_ = 0;
  double util_total_ = 0;
  double util_peak_ = 0;
  std::string util_peak_link_;
  double util_peak_time_ = 0;
  std::set<std::uint32_t> util_links_;
};

}  // namespace dard::scope
