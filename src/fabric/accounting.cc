#include "fabric/accounting.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace dard::fabric {

void ControlPlaneAccountant::record(Seconds now, Bytes bytes,
                                    ControlCategory category,
                                    std::size_t messages) {
  if (messages == 0) return;
  DCN_CHECK(now >= 0);
  // Control messages have positive size by construction (wire.h constants);
  // a zero or wrapped-around byte count here means a caller computed a
  // message size from corrupted state (e.g. a double-decremented counter
  // during failure-driven flow moves). Fail loudly instead of folding the
  // garbage into Figure 15's rate series.
  DCN_CHECK_MSG(bytes > 0, "control message with non-positive size");
  DCN_CHECK_MSG(static_cast<std::size_t>(category) < kControlCategories,
                "control category out of range");
  const auto bucket = static_cast<std::size_t>(now);
  if (buckets_.size() <= bucket) buckets_.resize(bucket + 1, 0.0);
  const Bytes charged = bytes * messages;
  buckets_[bucket] += static_cast<double>(charged);
  messages_by_category_[static_cast<std::size_t>(category)] += messages;
  total_by_category_[static_cast<std::size_t>(category)] += charged;
  if (counter_ != nullptr) counter_->add(messages);
}

Bytes ControlPlaneAccountant::total_bytes() const {
  Bytes total = 0;
  for (const Bytes b : total_by_category_) total += b;
  return total;
}

Bytes ControlPlaneAccountant::total_bytes(ControlCategory category) const {
  return total_by_category_[static_cast<std::size_t>(category)];
}

std::size_t ControlPlaneAccountant::message_count() const {
  std::size_t total = 0;
  for (const std::size_t n : messages_by_category_) total += n;
  return total;
}

std::vector<double> ControlPlaneAccountant::rate_series(Seconds horizon) const {
  DCN_CHECK(horizon > 0);
  std::vector<double> series(static_cast<std::size_t>(std::ceil(horizon)), 0.0);
  const std::size_t n = std::min(series.size(), buckets_.size());
  std::copy_n(buckets_.begin(), n, series.begin());
  return series;
}

double ControlPlaneAccountant::peak_rate(Seconds horizon) const {
  const auto series = rate_series(horizon);
  return series.empty() ? 0.0 : *std::max_element(series.begin(), series.end());
}

double ControlPlaneAccountant::mean_rate(Seconds horizon) const {
  const auto series = rate_series(horizon);
  if (series.empty()) return 0.0;
  double sum = 0.0;
  for (const double b : series) sum += b;
  return sum / static_cast<double>(series.size());
}

void ControlPlaneAccountant::clear() {
  buckets_.clear();
  for (std::size_t& n : messages_by_category_) n = 0;
  for (Bytes& b : total_by_category_) b = 0;
}

}  // namespace dard::fabric
