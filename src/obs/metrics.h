// Named metrics registry: counters and gauges.
//
// Instruments register (or look up) metrics by dotted name and cache the
// returned pointer; the hot path is then a single null check plus an
// increment. When no registry is installed the cached pointers stay null and
// the instrumented code pays one predictable branch — the
// overhead-when-disabled contract the simulators rely on (see DESIGN.md
// "Observability"). Header-only so `flowsim` can instrument itself without a
// link-time dependency on the obs library.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <sstream>
#include <string>

namespace dard::obs {

// Monotonically increasing event count.
struct Counter {
  std::uint64_t value = 0;

  void add(std::uint64_t n = 1) { value += n; }
};

// Last-written level plus its high-water mark (queue depths, live monitor
// counts). Levels here are non-negative, so the peak starts at 0.
struct Gauge {
  double value = 0;
  double peak = 0;

  void set(double v) {
    value = v;
    if (v > peak) peak = v;
  }
};

// Owns every metric; references handed out stay valid for the registry's
// lifetime (node-based map). Not thread-safe — the simulators are
// single-threaded and so is their telemetry.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }

  [[nodiscard]] const std::map<std::string, Counter>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Gauge>& gauges() const {
    return gauges_;
  }

  // One row per metric: name,kind,count,value,mean,min,max.
  //  counter: count == value == total increments;
  //  gauge:   value = last write, max = high-water mark.
  // Timings live in the profiler (obs/profiler.h); the mean/min columns
  // stay so metrics.csv keeps one header across versions.
  void write_csv(std::ostream& os) const {
    os << "name,kind,count,value,mean,min,max\n";
    for (const auto& [name, c] : counters_)
      os << name << ",counter," << c.value << ',' << c.value << ",,,\n";
    for (const auto& [name, g] : gauges_)
      os << name << ",gauge,," << g.value << ",,," << g.peak << '\n';
  }

  // Compact single-line rendering for bench logs:
  //   flowsim.reallocations=812 flowsim.event_queue_depth=3 (peak 97)
  [[nodiscard]] std::string summary() const {
    std::ostringstream os;
    bool first = true;
    const auto sep = [&] {
      if (!first) os << ' ';
      first = false;
    };
    for (const auto& [name, c] : counters_) {
      sep();
      os << name << '=' << c.value;
    }
    for (const auto& [name, g] : gauges_) {
      sep();
      os << name << '=' << g.value << " (peak " << g.peak << ')';
    }
    return os.str();
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
};

}  // namespace dard::obs
