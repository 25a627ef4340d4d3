// Summary statistics, empirical CDFs and histograms.
//
// Benches report the paper's metrics — average file-transfer time, CDFs of
// transfer times / path-switch counts / retransmission rates, percentiles —
// through these helpers so the output format is uniform.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace dard {

// Streaming mean / variance / extrema (Welford).
class OnlineStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double variance() const;  // sample variance; 0 if n < 2
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;  // +inf when empty
  [[nodiscard]] double max() const;  // -inf when empty
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Empirical distribution over collected samples.
class Cdf {
 public:
  void add(double x);
  void add_all(const std::vector<double>& xs);

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  // Quantile q in [0,1]; nearest-rank. Requires non-empty.
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double mean() const;

  // Fraction of samples <= x.
  [[nodiscard]] double fraction_below(double x) const;

  // Evenly spaced (value, cumulative fraction) points for plotting/printing.
  [[nodiscard]] std::vector<std::pair<double, double>> curve(
      std::size_t points = 20) const;

  // Multi-line "value  fraction" rendering of curve().
  [[nodiscard]] std::string to_string(std::size_t points = 20) const;

  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  void sort_if_needed() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

// Fixed-width bucket histogram over [lo, hi); out-of-range values clamp to
// the first/last bucket.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);
  [[nodiscard]] std::size_t count_in(std::size_t bucket) const;
  [[nodiscard]] std::size_t total() const { return total_; }
  [[nodiscard]] double bucket_lo(std::size_t bucket) const;

 private:
  double lo_, hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace dard
