// Control-plane traffic accounting: the run's one ledger of control
// messages (DESIGN.md §17).
//
// Every control message (DARD state queries/replies, centralized-scheduler
// reports/updates) is recorded here, counted and sized per category, so
// benches can report control bandwidth over time (paper Figure 15) and the
// harness can report query exchanges and losses. Each fabric::DataPlane
// owns one. Bytes are aggregated into one-second buckets at record time —
// large simulations emit hundreds of millions of control messages, so
// per-message event logs are not an option.
#pragma once

#include <cstddef>
#include <vector>

#include "common/units.h"
#include "obs/metrics.h"

namespace dard::fabric {

enum class ControlCategory : std::uint8_t {
  DardQuery,
  DardReply,
  SchedulerReport,
  SchedulerUpdate,
};
inline constexpr std::size_t kControlCategories = 4;

class ControlPlaneAccountant {
 public:
  // Charges `messages` messages of `bytes` each, all sent at `now`: the
  // bucket, the category total, the message count and the mirror end as if
  // each had been recorded alone (bytes are whole numbers, so the double
  // buckets add them exactly). Zero messages charge nothing. CHECK-fails on
  // non-positive `bytes` or an out-of-range category: query accounting is
  // derived from live counters, and a corrupted (e.g. underflowed) counter
  // must abort the run rather than silently skew the control-overhead
  // series.
  void record(Seconds now, Bytes bytes, ControlCategory category,
              std::size_t messages = 1);

  // Mirrors every recorded message into a metrics counter (conventionally
  // "dard.control_msgs"). Null (the default) disables the mirror; record()
  // then pays one null check.
  void set_message_counter(obs::Counter* counter) { counter_ = counter; }

  [[nodiscard]] Bytes total_bytes() const;
  [[nodiscard]] Bytes total_bytes(ControlCategory category) const;
  [[nodiscard]] std::size_t message_count() const;
  [[nodiscard]] std::size_t message_count(ControlCategory category) const {
    return messages_by_category_[static_cast<std::size_t>(category)];
  }

  // Bytes/second in one-second buckets over [0, horizon).
  [[nodiscard]] std::vector<double> rate_series(Seconds horizon) const;
  [[nodiscard]] double peak_rate(Seconds horizon) const;
  [[nodiscard]] double mean_rate(Seconds horizon) const;

  void clear();

 private:
  std::vector<double> buckets_;  // bytes per [i, i+1) second
  std::size_t messages_by_category_[kControlCategories] = {};
  Bytes total_by_category_[kControlCategories] = {};
  obs::Counter* counter_ = nullptr;
};

}  // namespace dard::fabric
