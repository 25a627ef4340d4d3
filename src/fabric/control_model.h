// Control-plane degradation model (fault-injection subsystem, DESIGN.md §11).
//
// The paper assumes the OpenFlow-style query channel between end hosts and
// switches is perfect: every query is answered, instantly, with fresh state.
// Real control planes lose messages, answer late, and serve stale counters.
// This model sits between StateQueryService and the LinkStateBoard and makes
// those three degradations injectable:
//
//   * loss        — each query/reply exchange is lost with probability p
//                   (drawn from the model's own seeded Rng, so fault noise
//                   never perturbs scheduler RNG streams);
//   * reply delay — delivered replies arrive `reply_delay` late; monitors
//                   compare the delay against their timeout and age-stamp
//                   the data accordingly;
//   * staleness   — during a stale window the switch answers with a frozen
//                   snapshot of the board captured at window start, so
//                   schedulers act on state that no longer reflects reality.
//
// The model is owned by the fault injector and installed on the substrate's
// DataPlane; with no model installed (the default) StateQueryService behaves
// exactly as before — same messages, same bytes, same values.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/units.h"

namespace dard::fabric {

class LinkStateBoard;

class ControlPlaneModel {
 public:
  explicit ControlPlaneModel(std::uint64_t seed) : rng_(seed) {}

  // Degradation window control (driven by the fault injector).
  void set_degradation(double query_loss, Seconds reply_delay) {
    DCN_CHECK_MSG(query_loss >= 0.0 && query_loss <= 1.0,
                  "query loss must be a probability");
    DCN_CHECK(reply_delay >= 0.0);
    loss_ = query_loss;
    delay_ = reply_delay;
  }
  void clear_degradation() {
    loss_ = 0.0;
    delay_ = 0.0;
  }

  // Stale-state window: freeze per-link (capacity, elephants) pairs; queries
  // are answered from the snapshot until clear_stale(). Defined in
  // switch_state.cc (needs the board's layout).
  void capture_stale(const LinkStateBoard& board);
  void clear_stale() { stale_active_ = false; }
  [[nodiscard]] bool stale_active() const { return stale_active_; }
  // Frozen (capacity, elephants) for link slot `lv`; only valid while
  // stale_active().
  [[nodiscard]] std::pair<Bps, std::uint32_t> stale_state(
      std::size_t lv) const {
    DCN_CHECK(stale_active_ && lv < snapshot_.size());
    return snapshot_[lv];
  }

  // One query/reply exchange: true when the exchange is lost. The model
  // counts nothing: the exchange's query, and its reply unless lost, are
  // charged to the data plane's ControlPlaneAccountant.
  [[nodiscard]] bool attempt_lost() {
    if (loss_ <= 0.0) return false;
    return loss_ >= 1.0 || rng_.bernoulli(loss_);
  }
  [[nodiscard]] Seconds reply_delay() const { return delay_; }

 private:
  Rng rng_;
  double loss_ = 0.0;
  Seconds delay_ = 0.0;
  bool stale_active_ = false;
  std::vector<std::pair<Bps, std::uint32_t>> snapshot_;
};

}  // namespace dard::fabric
