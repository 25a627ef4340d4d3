// Independent max-min reference for the allocator tests: textbook
// progressive filling that shares no code with flowsim/max_min.cc (no heap,
// no stamps, no arena, no PathStore). Every round recomputes each link's
// load from scratch, raises all unfrozen flows by the largest step no link
// can refuse, and freezes the flows crossing the links that step fills.
// O(rounds x (flows x path length + links)) — fine at test sizes.
#pragma once

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "common/types.h"

namespace dard::oracle {

// One rate per path; `capacity` is indexed by LinkId value.
inline std::vector<double> max_min_rates(
    const std::vector<std::span<const LinkId>>& paths,
    const std::vector<double>& capacity) {
  const std::size_t n = paths.size();
  const std::size_t links = capacity.size();
  std::vector<double> rate(n, 0.0);
  std::vector<bool> frozen(n, false);
  for (std::size_t left = n; left > 0;) {
    std::vector<double> spare(capacity);
    std::vector<int> unfrozen(links, 0);
    for (std::size_t f = 0; f < n; ++f) {
      for (const LinkId l : paths[f]) {
        spare[l.value()] -= rate[f];
        if (!frozen[f]) ++unfrozen[l.value()];
      }
    }
    double step = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < links; ++l)
      if (unfrozen[l] > 0) step = std::min(step, spare[l] / unfrozen[l]);
    step = std::max(step, 0.0);
    for (std::size_t f = 0; f < n; ++f) {
      if (frozen[f]) continue;
      rate[f] += step;
      for (const LinkId l : paths[f])
        if (spare[l.value()] / unfrozen[l.value()] <= step * (1 + 1e-12))
          frozen[f] = true;
      if (frozen[f]) --left;
    }
  }
  return rate;
}

}  // namespace dard::oracle
