// obs::Profiler: log-bucketed latency histogram boundaries (edges, zero,
// NaN, overflow), percentile estimation bounds (a seeded property: ordered
// and inside [min, max]), scoped-timer semantics
// (including the disabled null-profiler contract), gauges and CSV output.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "obs/profiler.h"

namespace dard::obs {
namespace {

using Hist = LatencyHistogram;

// ------------------------------------------------- bucket boundaries

TEST(LatencyHistogram, DegenerateDurationsLandInUnderflow) {
  EXPECT_EQ(Hist::bucket_of(0.0), 0u);
  EXPECT_EQ(Hist::bucket_of(-1.0), 0u);
  EXPECT_EQ(Hist::bucket_of(-1e-12), 0u);
  EXPECT_EQ(Hist::bucket_of(std::numeric_limits<double>::quiet_NaN()), 0u);
  // Below the smallest tracked latency but positive: still underflow.
  EXPECT_EQ(Hist::bucket_of(Hist::kMinSeconds / 2), 0u);
  EXPECT_EQ(Hist::bucket_of(std::nextafter(Hist::kMinSeconds, 0.0)), 0u);
}

TEST(LatencyHistogram, OverflowBucketIsClosedBelowAndOpenAbove) {
  EXPECT_EQ(Hist::bucket_of(Hist::kMaxSeconds), Hist::kBuckets - 1);
  EXPECT_EQ(Hist::bucket_of(1e6), Hist::kBuckets - 1);
  EXPECT_EQ(Hist::bucket_of(std::numeric_limits<double>::infinity()),
            Hist::kBuckets - 1);
  // Just below the cap: the last regular bucket, not overflow.
  EXPECT_EQ(Hist::bucket_of(std::nextafter(Hist::kMaxSeconds, 0.0)),
            Hist::kBuckets - 2);
}

TEST(LatencyHistogram, EveryLowerEdgeBelongsToItsOwnBucket) {
  // The boundary contract: bucket_lo(b) is the first value of bucket b,
  // and the value immediately below it belongs to bucket b-1. This pins
  // bucket_of's edge search against the pow-computed edges.
  for (std::size_t b = 1; b + 1 < Hist::kBuckets; ++b) {
    const double edge = Hist::bucket_lo(b);
    EXPECT_EQ(Hist::bucket_of(edge), b) << "edge of bucket " << b;
    EXPECT_EQ(Hist::bucket_of(std::nextafter(edge, 0.0)), b - 1)
        << "value just below edge of bucket " << b;
  }
}

// The bucket search before the edge table: a log10 position nudged one
// bucket across the pow-computed edges. Kept to hold the table to it.
std::size_t log_bucket_of(Seconds s) {
  const auto lo = [](std::size_t b) -> Seconds {
    if (b == 0) return 0;
    return Hist::kMinSeconds *
           std::pow(10.0, static_cast<double>(b - 1) /
                              static_cast<double>(Hist::kBucketsPerDecade));
  };
  if (!(s >= Hist::kMinSeconds)) return 0;
  if (s >= Hist::kMaxSeconds) return Hist::kBuckets - 1;
  auto idx = static_cast<std::size_t>(
      std::log10(s / Hist::kMinSeconds) *
      static_cast<double>(Hist::kBucketsPerDecade));
  if (idx >= Hist::kBuckets - 2) idx = Hist::kBuckets - 3;
  std::size_t b = idx + 1;
  if (s >= lo(b + 1)) ++b;
  else if (s < lo(b)) --b;
  return b;
}

TEST(LatencyHistogram, EdgeTableMatchesTheLogSearch) {
  for (std::size_t b = 0; b < Hist::kBuckets; ++b) {
    const double edge = Hist::bucket_lo(b);
    for (const double s :
         {edge, std::nextafter(edge, 0.0), std::nextafter(edge, 1e300)}) {
      EXPECT_EQ(Hist::bucket_of(s), log_bucket_of(s))
          << "bucket " << b << ", s = " << s;
    }
  }
  for (const double s : {0.0, -1.0, Hist::kMinSeconds, Hist::kMaxSeconds,
                         std::nextafter(Hist::kMaxSeconds, 0.0), 1e300,
                         std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()})
    EXPECT_EQ(Hist::bucket_of(s), log_bucket_of(s)) << s;
  // Log-uniform over the range and two decades past each end.
  Rng rng(4);
  for (int i = 0; i < 200'000; ++i) {
    const double s = std::pow(10.0, rng.uniform(-9.0, 3.0));
    ASSERT_EQ(Hist::bucket_of(s), log_bucket_of(s)) << s;
  }
}

TEST(LatencyHistogram, BucketEdgesAreMonotonicAndSpanTheRange) {
  EXPECT_EQ(Hist::bucket_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(Hist::bucket_lo(1), Hist::kMinSeconds);
  EXPECT_NEAR(Hist::bucket_lo(Hist::kBuckets - 1), Hist::kMaxSeconds,
              Hist::kMaxSeconds * 1e-12);
  for (std::size_t b = 0; b + 1 < Hist::kBuckets; ++b)
    EXPECT_LT(Hist::bucket_lo(b), Hist::bucket_lo(b + 1)) << b;
  EXPECT_TRUE(std::isinf(Hist::bucket_hi(Hist::kBuckets - 1)));
  // One decade spans exactly kBucketsPerDecade buckets.
  EXPECT_NEAR(Hist::bucket_lo(1 + Hist::kBucketsPerDecade),
              Hist::kMinSeconds * 10, Hist::kMinSeconds * 10 * 1e-12);
}

TEST(LatencyHistogram, RecordRoutesToTheRightBuckets) {
  Hist h;
  h.record(0.0);          // underflow
  h.record(1e-3);         // some middle bucket
  h.record(100.0);        // overflow
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.count_in(0), 1u);
  EXPECT_EQ(h.count_in(Hist::kBuckets - 1), 1u);
  EXPECT_EQ(h.count_in(Hist::bucket_of(1e-3)), 1u);
}

// ------------------------------------------------------- percentiles

TEST(LatencyHistogram, PercentileBoundsAndExactExtremes) {
  Hist h;
  EXPECT_EQ(h.percentile(0.5), 0.0);  // empty
  for (int i = 0; i < 100; ++i) h.record(1e-3);
  // Exact extremes come from the Welford companion.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1e-3);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 1e-3);
  EXPECT_DOUBLE_EQ(h.max(), 1e-3);
  EXPECT_DOUBLE_EQ(h.mean(), 1e-3);
  // Interior percentiles are bucket estimates: within one bucket ratio
  // (10^(1/8) ~ 1.334) of the true value.
  const double ratio = std::pow(10.0, 1.0 / Hist::kBucketsPerDecade);
  EXPECT_GE(h.percentile(0.5), 1e-3 / ratio);
  EXPECT_LE(h.percentile(0.5), 1e-3 * ratio);
}

TEST(LatencyHistogram, PercentileOrdersAcrossDecades) {
  Hist h;
  // 90 fast (1 us), 9 medium (1 ms), 1 slow (1 s): p50 is decisively in
  // the microsecond decade, p95 in milliseconds, p99+ reaches the second.
  for (int i = 0; i < 90; ++i) h.record(1e-6);
  for (int i = 0; i < 9; ++i) h.record(1e-3);
  h.record(1.0);
  EXPECT_LT(h.percentile(0.50), 1e-5);
  EXPECT_GE(h.percentile(0.95), 1e-4);
  EXPECT_LT(h.percentile(0.95), 1e-2);
  EXPECT_GT(h.percentile(0.999), 1e-1);
  EXPECT_DOUBLE_EQ(h.max(), 1.0);
}

TEST(LatencyHistogram, PercentilesStayOrderedInsideMinMax) {
  // Seeded property: whatever the sample mix — one value repeated (the
  // whole cluster inside one bucket), a tight cluster straddling a bucket
  // edge, log-uniform spreads, under/overflow outliers — the estimates are
  // ordered and never leave the observed range.
  Rng rng(20261017);
  const auto check = [](const Hist& h, const std::string& what) {
    const double p01 = h.percentile(0.01);
    const double p50 = h.percentile(0.50);
    const double p90 = h.percentile(0.90);
    const double p99 = h.percentile(0.99);
    const double p999 = h.percentile(0.999);
    EXPECT_LE(h.min(), p01) << what;
    EXPECT_LE(p01, p50) << what;
    EXPECT_LE(p50, p90) << what;
    EXPECT_LE(p90, p99) << what;
    EXPECT_LE(p99, p999) << what;
    EXPECT_LE(p999, h.max()) << what;
  };
  {
    Hist h;  // three samples of 1.0 us: one bucket, far below its top
    for (int i = 0; i < 3; ++i) h.record(1e-6);
    check(h, "3 x 1.0us");
  }
  {
    Hist h;  // 100 samples of 1.3 us: far above its bucket's bottom
    for (int i = 0; i < 100; ++i) h.record(1.3e-6);
    check(h, "100 x 1.3us");
  }
  for (int trial = 0; trial < 200; ++trial) {
    Hist h;
    const std::uint64_t shape = rng.next_below(4);
    const double centre = std::pow(10.0, rng.uniform(-7.5, 1.5));
    const std::uint64_t n = 1 + rng.next_below(2000);
    for (std::uint64_t i = 0; i < n; ++i) {
      switch (shape) {
        case 0:  // one value repeated
          h.record(centre);
          break;
        case 1:  // a cluster within +-2% (may straddle one edge)
          h.record(centre * rng.uniform(0.98, 1.02));
          break;
        case 2:  // log-uniform over the tracked range and beyond
          h.record(std::pow(10.0, rng.uniform(-8.0, 1.5)));
          break;
        default:  // a cluster plus rare outliers both ways
          h.record(rng.bernoulli(0.01)
                       ? (rng.bernoulli(0.5) ? 0.0 : 20.0)
                       : centre * rng.uniform(0.9, 1.1));
          break;
      }
    }
    check(h, "trial " + std::to_string(trial) + " shape " +
                 std::to_string(shape) + " n " + std::to_string(n));
  }
}

// ------------------------------------------------- profiler + scopes

TEST(Profiler, ScopeRecordsIntoItsSection) {
  Profiler p;
  {
    const ProfileScope timed(&p, ProfileSection::DardRound);
  }
  {
    const ProfileScope timed(&p, ProfileSection::DardRound);
  }
  EXPECT_EQ(p.section(ProfileSection::DardRound).count(), 2u);
  EXPECT_EQ(p.section(ProfileSection::MaxMinRealloc).count(), 0u);

  const auto sums = p.summaries();
  ASSERT_EQ(sums.size(), 1u);
  EXPECT_EQ(sums[0].section, "dard_round");
  EXPECT_EQ(sums[0].count, 2u);
}

TEST(Profiler, NullProfilerScopeIsANoOp) {
  // The disabled contract: constructing scopes against a null profiler
  // must be safe and leave no trace anywhere.
  for (int i = 0; i < 1000; ++i) {
    const ProfileScope timed(nullptr, ProfileSection::MaxMinRealloc);
  }
  SUCCEED();
}

TEST(Profiler, GaugesTrackValueAndPeak) {
  Profiler p;
  p.set_gauge(ProfileGauge::LiveFlows, 5);
  p.set_gauge(ProfileGauge::LiveFlows, 12);
  p.set_gauge(ProfileGauge::LiveFlows, 3);
  EXPECT_EQ(p.gauge(ProfileGauge::LiveFlows).value, 3);
  EXPECT_EQ(p.gauge(ProfileGauge::LiveFlows).peak, 12);
}

TEST(Profiler, WriteCsvHeaderAndRows) {
  Profiler p;
  p.section(ProfileSection::MaxMinRealloc).record(1e-4);
  p.set_gauge(ProfileGauge::EventQueueDepth, 7);
  std::ostringstream os;
  p.write_csv(os);
  const std::string csv = os.str();
  EXPECT_EQ(
      csv.rfind("section,count,total_s,mean_s,p50_s,p95_s,p99_s,p999_s,max_s\n",
                0),
      0u);
  EXPECT_NE(csv.find("maxmin_realloc,1,"), std::string::npos);
  EXPECT_NE(csv.find("gauge,event_queue_depth,7"), std::string::npos);
  // Untouched sections and gauges stay out of the file.
  EXPECT_EQ(csv.find("dard_round"), std::string::npos);
  EXPECT_EQ(csv.find("rss_bytes"), std::string::npos);
}

TEST(Profiler, SectionAndGaugeNamesAreStable) {
  EXPECT_STREQ(to_string(ProfileSection::MaxMinRealloc), "maxmin_realloc");
  EXPECT_STREQ(to_string(ProfileSection::PathEnumeration),
               "path_enumeration");
  EXPECT_STREQ(to_string(ProfileSection::DardRound), "dard_round");
  EXPECT_STREQ(to_string(ProfileSection::MonitorRefresh), "monitor_refresh");
  EXPECT_STREQ(to_string(ProfileSection::PktDispatch), "pkt_dispatch");
  EXPECT_STREQ(to_string(ProfileGauge::EventQueueDepth), "event_queue_depth");
  EXPECT_STREQ(to_string(ProfileGauge::LiveFlows), "live_flows");
  EXPECT_STREQ(to_string(ProfileGauge::PathStoreBytes), "path_store_bytes");
  EXPECT_STREQ(to_string(ProfileGauge::RssBytes), "rss_bytes");
}

TEST(Profiler, RssIsReadableOnLinux) {
#if defined(__linux__)
  EXPECT_GT(Profiler::current_rss_bytes(), 0.0);
#else
  GTEST_SKIP() << "/proc/self/statm only exists on linux";
#endif
}

}  // namespace
}  // namespace dard::obs
