// In-simulator profiler: scoped wall-clock timers feeding log-bucketed
// latency histograms, plus process/simulator gauges (DESIGN.md §13).
//
// The existing MetricsRegistry answers "how many / how long in total"; the
// profiler answers "what does the latency *distribution* of each hot path
// look like" — p50/p95/p99/max per instrumented section — which is what
// attacking the path-enumeration wall and comparing control-loop rivals
// needs. Sections are a fixed enum (not strings) so the enabled hot path is
// an array index, and the disabled hot path is a single null check with no
// clock read — the same overhead-when-disabled contract as metrics.h.
// Header-only for the same reason as metrics.h: flowsim and topology
// instrument themselves without a link-time dependency on the obs library.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "common/stats.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "obs/observer.h"

namespace dard::obs {

// The instrumented hot paths. Extend here (and in to_string) to profile a
// new section; the per-section cost is one histogram (~1 KB).
enum class ProfileSection : std::uint8_t {
  MaxMinRealloc = 0,   // flowsim max-min rate recomputation
  PathEnumeration,     // valley-free path enumeration (cache misses only)
  DardRound,           // one host daemon's Algorithm-1 scheduling round
  MonitorRefresh,      // one host daemon's periodic monitor refresh
  PktDispatch,         // one pktsim event dispatch
  kCount,
};

inline constexpr std::size_t kProfileSections =
    static_cast<std::size_t>(ProfileSection::kCount);

inline const char* to_string(ProfileSection s) {
  switch (s) {
    case ProfileSection::MaxMinRealloc:
      return "maxmin_realloc";
    case ProfileSection::PathEnumeration:
      return "path_enumeration";
    case ProfileSection::DardRound:
      return "dard_round";
    case ProfileSection::MonitorRefresh:
      return "monitor_refresh";
    case ProfileSection::PktDispatch:
      return "pkt_dispatch";
    case ProfileSection::kCount:
      break;
  }
  return "?";
}

// Process/simulator level gauges the profiler tracks alongside the section
// histograms. Updated from the instrumented sites and snapshot emission.
enum class ProfileGauge : std::uint8_t {
  EventQueueDepth = 0,  // pending events on the substrate's queue
  LiveFlows,            // flows currently in the network
  PathStoreBytes,       // CSR path-store pool footprint
  RssBytes,             // process resident set (0 where unreadable)
  PathCacheEntries,     // live entries in the path repository's LRU
  kCount,
};

inline constexpr std::size_t kProfileGauges =
    static_cast<std::size_t>(ProfileGauge::kCount);

inline const char* to_string(ProfileGauge g) {
  switch (g) {
    case ProfileGauge::EventQueueDepth:
      return "event_queue_depth";
    case ProfileGauge::LiveFlows:
      return "live_flows";
    case ProfileGauge::PathStoreBytes:
      return "path_store_bytes";
    case ProfileGauge::RssBytes:
      return "rss_bytes";
    case ProfileGauge::PathCacheEntries:
      return "path_cache_entries";
    case ProfileGauge::kCount:
      break;
  }
  return "?";
}

// Latency histogram with geometric (log-spaced) buckets: 8 per decade from
// 100 ns to 10 s, plus an underflow bucket below 100 ns (where zero and
// negative durations land) and an overflow bucket at >= 10 s. Percentiles
// are estimated by rank-walking the buckets and interpolating within the
// hit bucket in log space — an error bounded by the bucket ratio
// (10^(1/8) ≈ 1.33x), plenty for "is p99 microseconds or milliseconds".
// Exact min/max/mean come from the Welford companion, so max() is precise.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBucketsPerDecade = 8;
  static constexpr std::size_t kDecades = 8;  // 1e-7 .. 1e1 seconds
  static constexpr double kMinSeconds = 1e-7;
  static constexpr double kMaxSeconds = 10.0;
  // [underflow] + kBucketsPerDecade * kDecades + [overflow]
  static constexpr std::size_t kBuckets = kBucketsPerDecade * kDecades + 2;

  // Lower edge of bucket `b` in seconds. Bucket 0 (underflow) is open
  // below and reports edge 0; the last bucket's lower edge is
  // kMinSeconds * 10^8, kMaxSeconds give or take an ulp.
  [[nodiscard]] static Seconds bucket_lo(std::size_t b) { return edges()[b]; }
  // Upper edge (exclusive) of bucket `b`; the overflow bucket is open above
  // and reports +inf.
  [[nodiscard]] static Seconds bucket_hi(std::size_t b) {
    if (b + 1 >= kBuckets) return std::numeric_limits<double>::infinity();
    return bucket_lo(b + 1);
  }

  // Bucket index for a duration: the last bucket whose lower edge is at or
  // under it. Membership is decided against the edge table, so an edge
  // value belongs to the bucket it is the lower edge of and boundary
  // behavior is deterministic and testable. The search starts from log2(s)
  // read off the double's bits, exponent plus mantissa as a linear
  // fraction (at most 0.09 octave, a fifth of a bucket, under the true
  // value), and steps at most a bucket or two.
  [[nodiscard]] static std::size_t bucket_of(Seconds s) {
    if (!(s >= kMinSeconds)) return 0;  // underflow; catches NaN too
    if (s >= kMaxSeconds) return kBuckets - 1;
    constexpr double kBucketsPerOctave = 2.408239965311849;  // 8 / log2(10)
    constexpr double kLog2Min = -23.253496664211536;  // log2(kMinSeconds)
    constexpr std::uint64_t kMantissa = (std::uint64_t{1} << 52) - 1;
    const auto bits = std::bit_cast<std::uint64_t>(s);
    const double log2 =
        static_cast<double>(static_cast<int>(bits >> 52) - 1023) +
        static_cast<double>(bits & kMantissa) * 0x1p-52;
    const auto& lo = edges();
    std::size_t b = std::clamp<std::size_t>(
        static_cast<std::size_t>((log2 - kLog2Min) * kBucketsPerOctave) + 1,
        1, kBuckets - 1);
    while (s < lo[b]) --b;
    while (b + 1 < kBuckets && s >= lo[b + 1]) ++b;
    return b;
  }

  void record(Seconds s) {
    stats_.add(s);
    ++buckets_[bucket_of(s)];
  }

  [[nodiscard]] std::uint64_t count() const { return stats_.count(); }
  [[nodiscard]] Seconds total() const { return stats_.sum(); }
  [[nodiscard]] Seconds mean() const { return stats_.mean(); }
  [[nodiscard]] Seconds min() const { return stats_.min(); }
  [[nodiscard]] Seconds max() const { return stats_.max(); }
  [[nodiscard]] std::uint64_t count_in(std::size_t b) const {
    return buckets_[b];
  }

  // Percentile estimate for q in [0, 1]. Walks buckets to the sample of
  // rank ceil(q * count) and interpolates log-linearly inside it; the
  // underflow and overflow buckets report the exact min/max instead (the
  // histogram has no shape information there). Interpolation assumes the
  // samples spread over the whole bucket, so the estimate is clamped to the
  // observed [min, max]: a cluster inside one bucket never reports a
  // percentile outside its own range.
  [[nodiscard]] Seconds percentile(double q) const {
    if (count() == 0) return 0;
    if (q <= 0) return min();
    if (q >= 1) return max();
    const auto target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count())));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (buckets_[b] == 0) continue;
      seen += buckets_[b];
      if (seen < target) continue;
      if (b == 0) return min();
      if (b == kBuckets - 1) return max();
      const double frac =
          1.0 - static_cast<double>(seen - target) /
                    static_cast<double>(buckets_[b]);
      const double lo = bucket_lo(b);
      return std::clamp(lo * std::pow(bucket_hi(b) / lo, frac), min(), max());
    }
    return max();
  }

 private:
  // Every bucket's lower edge, kMinSeconds * 10^((b-1)/8) for b >= 1,
  // computed once.
  static const std::array<Seconds, kBuckets>& edges() {
    static const std::array<Seconds, kBuckets> table = [] {
      std::array<Seconds, kBuckets> lo{};
      for (std::size_t b = 1; b < kBuckets; ++b)
        lo[b] = kMinSeconds *
                std::pow(10.0, static_cast<double>(b - 1) /
                                   static_cast<double>(kBucketsPerDecade));
      return lo;
    }();
    return table;
  }

  OnlineStats stats_;
  std::uint64_t buckets_[kBuckets] = {};
};

// One section's summary, ready for snapshot serialization or reports.
// (ProfileSummary — the snapshot payload struct — lives in observer.h.)
class Profiler {
 public:
  [[nodiscard]] LatencyHistogram& section(ProfileSection s) {
    return sections_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] const LatencyHistogram& section(ProfileSection s) const {
    return sections_[static_cast<std::size_t>(s)];
  }
  void set_gauge(ProfileGauge g, double v) {
    gauges_[static_cast<std::size_t>(g)].set(v);
  }
  [[nodiscard]] const Gauge& gauge(ProfileGauge g) const {
    return gauges_[static_cast<std::size_t>(g)];
  }

  // Non-empty section summaries in enum order (the snapshot payload).
  [[nodiscard]] std::vector<ProfileSummary> summaries() const {
    std::vector<ProfileSummary> out;
    for (std::size_t i = 0; i < kProfileSections; ++i) {
      const LatencyHistogram& h = sections_[i];
      if (h.count() == 0) continue;
      ProfileSummary s;
      s.section = to_string(static_cast<ProfileSection>(i));
      s.count = h.count();
      s.total_s = h.total();
      s.mean_s = h.mean();
      s.p50_s = h.percentile(0.50);
      s.p95_s = h.percentile(0.95);
      s.p99_s = h.percentile(0.99);
      s.p999_s = h.percentile(0.999);
      s.max_s = h.max();
      out.push_back(std::move(s));
    }
    return out;
  }

  // section,count,total_s,mean_s,p50_s,p95_s,p99_s,p999_s,max_s then one
  // gauge,<name>,value,peak row per touched gauge.
  void write_csv(std::ostream& os) const {
    os << "section,count,total_s,mean_s,p50_s,p95_s,p99_s,p999_s,max_s\n";
    for (const ProfileSummary& s : summaries()) {
      os << s.section << ',' << s.count << ',' << s.total_s << ',' << s.mean_s
         << ',' << s.p50_s << ',' << s.p95_s << ',' << s.p99_s << ','
         << s.p999_s << ',' << s.max_s << '\n';
    }
    for (std::size_t i = 0; i < kProfileGauges; ++i) {
      const Gauge& g = gauges_[i];
      if (g.value == 0 && g.peak == 0) continue;
      os << "gauge," << to_string(static_cast<ProfileGauge>(i)) << ','
         << g.value << ",,,,,," << g.peak << '\n';
    }
  }

  // Human-readable multi-line summary for dardsim --profile output.
  [[nodiscard]] std::string summary() const {
    std::ostringstream os;
    for (const ProfileSummary& s : summaries()) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "  %-18s x%-8llu p50 %8.1f us  p95 %8.1f us  p99 %8.1f "
                    "us  p99.9 %8.1f us  max %8.1f us\n",
                    s.section.c_str(),
                    static_cast<unsigned long long>(s.count), s.p50_s * 1e6,
                    s.p95_s * 1e6, s.p99_s * 1e6, s.p999_s * 1e6,
                    s.max_s * 1e6);
      os << line;
    }
    for (std::size_t i = 0; i < kProfileGauges; ++i) {
      const Gauge& g = gauges_[i];
      if (g.value == 0 && g.peak == 0) continue;
      char line[256];
      std::snprintf(line, sizeof(line), "  %-18s %.0f (peak %.0f)\n",
                    to_string(static_cast<ProfileGauge>(i)), g.value, g.peak);
      os << line;
    }
    return os.str();
  }

  // Resident set size in bytes, or 0 where /proc is unavailable. A file
  // read, so callers sample it at snapshot cadence, never per event.
  [[nodiscard]] static double current_rss_bytes() {
#if defined(__linux__)
    std::FILE* f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr) return 0;
    unsigned long long total = 0;
    unsigned long long resident = 0;
    const int got = std::fscanf(f, "%llu %llu", &total, &resident);
    std::fclose(f);
    if (got != 2) return 0;
    const long page = sysconf(_SC_PAGESIZE);
    return static_cast<double>(resident) *
           static_cast<double>(page > 0 ? page : 4096);
#else
    return 0;
#endif
  }

 private:
  std::array<LatencyHistogram, kProfileSections> sections_{};
  std::array<Gauge, kProfileGauges> gauges_{};
};

// RAII section timer. A null profiler skips the clock reads entirely, so a
// disabled instrumented site costs one predictable branch (the contract the
// determinism tests and the profiler-overhead bench pin).
class ProfileScope {
 public:
  ProfileScope(Profiler* profiler, ProfileSection s)
      : hist_(profiler != nullptr ? &profiler->section(s) : nullptr) {
    if (hist_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ProfileScope() {
    if (hist_ != nullptr)
      hist_->record(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start_)
                        .count());
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  LatencyHistogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace dard::obs
