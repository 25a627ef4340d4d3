// Measurement shims the benchmark installs around the program's public
// extension points, so per-layer numbers come from outside src/:
//
//  * AgentProxy wraps a fabric::ControlAgent (EcmpAgent, DardAgent) and
//    times place / on_elephant / on_finished, separating the leaf time that
//    ran nested inside each call;
//  * ObserverProxy is the SimObserver of the untimed observed pass and of
//    the traced pass: it counts lifecycle events, keeps the completion times
//    of flows that finish in the measured window, and times the observer it
//    wraps (the program's TraceObserver on the run-dir workload).
//
// Timed passes install neither.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "fabric/data_plane.h"
#include "obs/observer.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Running wall-seconds total of the leaf sections, which never nest inside
// each other: path enumeration and max-min (the program's profiler) plus
// trace emission (ObserverProxy).
using LeafClock = std::function<double()>;

// Calls and wall seconds of one proxied call site, and the part of that time
// spent in leaf sections nested inside it.
struct CallTally {
  std::uint64_t calls = 0;
  double total_s = 0;
  double leaf_s = 0;

  [[nodiscard]] double self_s() const { return total_s - leaf_s; }
  [[nodiscard]] double mean_s() const {
    return calls == 0 ? 0 : total_s / static_cast<double>(calls);
  }
};

// One ToR pair the path layer was asked for at placement, with the index the
// agent chose; the traced pass replays these through the path layer.
struct PlacedPair {
  dard::NodeId src_tor;
  dard::NodeId dst_tor;
  dard::PathIndex index = 0;
};

class AgentProxy : public dard::fabric::ControlAgent {
 public:
  AgentProxy(dard::fabric::ControlAgent& inner, LeafClock leaves,
             std::size_t max_pairs)
      : inner_(&inner), leaves_(std::move(leaves)), max_pairs_(max_pairs) {}

  [[nodiscard]] const char* name() const override { return inner_->name(); }
  void start(dard::fabric::DataPlane& net) override { inner_->start(net); }

  dard::PathIndex place(dard::fabric::DataPlane& net,
                        const dard::fabric::FlowView& flow) override {
    dard::PathIndex index = 0;
    timed(&place_, [&] { index = inner_->place(net, flow); });
    if (pairs_.size() < max_pairs_)
      pairs_.push_back({flow.src_tor, flow.dst_tor, index});
    return index;
  }
  void on_elephant(dard::fabric::DataPlane& net,
                   const dard::fabric::FlowView& flow) override {
    timed(&elephant_, [&] { inner_->on_elephant(net, flow); });
  }
  void on_finished(dard::fabric::DataPlane& net,
                   const dard::fabric::FlowView& flow) override {
    timed(&finished_, [&] { inner_->on_finished(net, flow); });
  }
  void on_daemon_crash(dard::fabric::DataPlane& net,
                       dard::NodeId host) override {
    inner_->on_daemon_crash(net, host);
  }
  void on_daemon_restart(dard::fabric::DataPlane& net,
                         dard::NodeId host) override {
    inner_->on_daemon_restart(net, host);
  }

  [[nodiscard]] const CallTally& place_calls() const { return place_; }
  [[nodiscard]] const CallTally& elephant_calls() const { return elephant_; }
  [[nodiscard]] const CallTally& finished_calls() const { return finished_; }
  // Sum over the three call sites (what the per-event attribution needs).
  [[nodiscard]] CallTally all_calls() const {
    return {place_.calls + elephant_.calls + finished_.calls,
            place_.total_s + elephant_.total_s + finished_.total_s,
            place_.leaf_s + elephant_.leaf_s + finished_.leaf_s};
  }
  [[nodiscard]] const std::vector<PlacedPair>& pairs() const { return pairs_; }
  // Starts the window: drops warm-up tallies and pairs.
  void reset() {
    place_ = elephant_ = finished_ = CallTally{};
    pairs_.clear();
  }

 private:
  template <class Call>
  void timed(CallTally* tally, Call&& call) {
    const double leaves_before = leaves_();
    const auto start = Clock::now();
    call();
    tally->total_s += seconds_since(start);
    tally->leaf_s += leaves_() - leaves_before;
    ++tally->calls;
  }

  dard::fabric::ControlAgent* inner_;
  LeafClock leaves_;
  std::size_t max_pairs_;
  CallTally place_;
  CallTally elephant_;
  CallTally finished_;
  std::vector<PlacedPair> pairs_;
};

class ObserverProxy : public dard::obs::SimObserver {
 public:
  // `inner` may be null (count only). `line_rate_bps` is the host link
  // speed: no flow can finish faster than its bytes at that rate.
  ObserverProxy(dard::obs::SimObserver* inner, double line_rate_bps)
      : inner_(inner), line_rate_bps_(line_rate_bps) {}

  // Completions with time in (start, end] are the window's.
  void set_window(dard::Seconds start, dard::Seconds end) {
    window_start_ = start;
    window_end_ = end;
  }

  void on_flow_arrive(const dard::obs::TraceEvent& e) override {
    ++arrivals_;
    flow_slot(e.flow) = FlowState{e.time, false};
    forward(&SimObserver::on_flow_arrive, e);
  }
  void on_flow_elephant(const dard::obs::TraceEvent& e) override {
    flow_slot(e.flow).elephant = true;
    forward(&SimObserver::on_flow_elephant, e);
  }
  void on_flow_move(const dard::obs::TraceEvent& e) override {
    ++moves_;
    forward(&SimObserver::on_flow_move, e);
  }
  void on_flow_complete(const dard::obs::TraceEvent& e) override {
    ++completions_;
    const FlowState& f = flow_slot(e.flow);
    const double fct = e.time - f.arrival;
    if (fct * line_rate_bps_ < static_cast<double>(e.size) * 8.0 * (1 - 1e-6))
      ++line_rate_violations_;
    if (e.time > window_start_ && e.time <= window_end_) {
      fct_.push_back(fct);
      window_bytes_ += e.size;
      if (f.elephant) ++window_elephants_;
    }
    forward(&SimObserver::on_flow_complete, e);
  }
  void on_dard_round(const dard::obs::TraceEvent& e) override {
    forward(&SimObserver::on_dard_round, e);
  }
  void on_fault(const dard::obs::TraceEvent& e) override {
    forward(&SimObserver::on_fault, e);
  }
  void on_snapshot(const dard::obs::TraceEvent& e) override {
    forward(&SimObserver::on_snapshot, e);
  }
  void on_span(const dard::obs::TraceEvent& e) override {
    forward(&SimObserver::on_span, e);
  }

  [[nodiscard]] std::uint64_t arrivals() const { return arrivals_; }
  [[nodiscard]] std::uint64_t completions() const { return completions_; }
  [[nodiscard]] std::uint64_t moves() const { return moves_; }
  [[nodiscard]] std::uint64_t line_rate_violations() const {
    return line_rate_violations_;
  }
  // Completion times of the window's flows, in completion order.
  [[nodiscard]] const std::vector<double>& window_fct() const { return fct_; }
  [[nodiscard]] std::uint64_t window_bytes() const { return window_bytes_; }
  [[nodiscard]] std::uint64_t window_elephants() const {
    return window_elephants_;
  }
  // Wall time spent inside the wrapped observer.
  [[nodiscard]] const CallTally& emit_calls() const { return emit_; }

 private:
  struct FlowState {
    dard::Seconds arrival = 0;
    bool elephant = false;
  };

  // Flow ids are dense (and recycled only after completion), so a by-id
  // array stays bounded by peak concurrency.
  FlowState& flow_slot(dard::FlowId id) {
    if (id.value() >= flows_.size()) flows_.resize(id.value() + 1);
    return flows_[id.value()];
  }

  void forward(void (SimObserver::*hook)(const dard::obs::TraceEvent&),
               const dard::obs::TraceEvent& e) {
    if (inner_ == nullptr) return;
    const auto start = Clock::now();
    (inner_->*hook)(e);
    emit_.total_s += seconds_since(start);
    ++emit_.calls;
  }

  dard::obs::SimObserver* inner_;
  double line_rate_bps_;
  dard::Seconds window_start_ = 0;
  dard::Seconds window_end_ = 0;
  std::vector<FlowState> flows_;
  std::vector<double> fct_;
  std::uint64_t window_bytes_ = 0;
  std::uint64_t window_elephants_ = 0;
  std::uint64_t arrivals_ = 0;
  std::uint64_t moves_ = 0;
  std::uint64_t completions_ = 0;
  std::uint64_t line_rate_violations_ = 0;
  CallTally emit_;
};

}  // namespace perfbench
