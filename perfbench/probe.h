// Machine-speed probe for the host-time metrics.
//
// On a machine shared with other tenants, the simulator's memory-bound work
// (hash probes, path walks, heap churn) runs up to 2x slower for minutes at
// a time when neighbours load the caches and memory. The probe measures
// that state next to each timed pass: a dependent walk over 64 MiB whose
// addresses come from an LCG, so every step waits on one load, as a cache
// miss in the simulator does. Its code is fixed and independent of src/,
// so a change to the program moves the program's times and not the probe's.
//
// The probe's pages are mapped for the walk only and returned afterwards;
// PeakRss leaves them out of the process's peak RSS.
#pragma once

#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

// Peak RSS of the workload's passes: the kernel's watermark (VmHWM) is read
// before each probe and reset after it.
class PeakRss {
 public:
  void sample() { peak_ = std::max(peak_, watermark()); }
  // False when the kernel refused the reset.
  [[nodiscard]] bool reset() const {
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5" << std::flush;
    return clear.good();
  }
  [[nodiscard]] double bytes() {
    sample();
    return peak_;
  }

 private:
  static double watermark() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
      if (line.rfind("VmHWM:", 0) == 0)
        return std::atof(line.c_str() + 6) * 1024;
    return 0;
  }

  double peak_ = 0;
};

// Walk steps per microsecond over `seconds`: the median of five slices, so
// one preempted slice does not move it. 0 when the probe could not run or
// could not leave its pages out of the peak RSS.
inline double probe_steps_per_us(double seconds, PeakRss* rss) {
  constexpr std::size_t kSlots = std::size_t{1} << 24;  // 64 MiB of uint32
  constexpr int kSlices = 5;
  using Clock = std::chrono::steady_clock;
  rss->sample();
  void* const mem = mmap(nullptr, kSlots * sizeof(std::uint32_t),
                         PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                         -1, 0);
  if (mem == MAP_FAILED) return 0;
  auto* const table = static_cast<std::uint32_t*>(mem);
  std::memset(table, 0, kSlots * sizeof(std::uint32_t));  // real pages
  // Every step loads from memory; the compiler may not fold the zeros in.
  const volatile std::uint32_t* const cells = table;
  std::uint64_t at = 1;
  std::vector<double> rates;
  for (int s = 0; s < kSlices; ++s) {
    const auto start = Clock::now();
    std::uint64_t steps = 0;
    double elapsed = 0;
    while (elapsed < seconds / kSlices) {
      for (int i = 0; i < 4096; ++i)
        at = at * 6364136223846793005ULL + 1442695040888963407ULL +
             cells[(at >> 40) & (kSlots - 1)];
      steps += 4096;
      elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    }
    rates.push_back(static_cast<double>(steps) / (elapsed * 1e6));
  }
  munmap(mem, kSlots * sizeof(std::uint32_t));
  if (!rss->reset()) return 0;
  std::sort(rates.begin(), rates.end());
  return rates[kSlices / 2];
}

}  // namespace perfbench
