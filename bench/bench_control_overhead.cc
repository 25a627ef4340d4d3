// Control-overhead scaling bench (DESIGN.md §17): the paper's practicality
// claim — DARD's distributed control loop stays cheap as the fabric grows —
// measured instead of asserted.
//
// Sweeps fat-tree size k = {4, 8, 16} × query interval {0.25, 0.5, 1.0} s
// with the span recorder attached, and reports for every cell the
// simulated control-plane cost: wire bytes as a fraction of delivered
// goodput, messages per daemon per second, and the per-link hotspot share.
// All simulated quantities are deterministic for a given seed, so the
// emitted google-benchmark JSON (BENCH_control_overhead.json) is gated
// tightly (1.05x) against the checked-in baseline.
//
// Three extra wall-clock cells rerun the k=16 mid cell (min of three
// repetitions each): `nospans` (telemetry untouched), `spans_compiled_off`
// (a recorder object alive in the process but never attached — the
// "compiled in but off" configuration every production run pays), and
// `spans_on` (recorder attached; its time includes one link_bytes() call,
// which routes the recorded exchanges onto links). The `--pair` gates in
// CI pin spans_compiled_off at <= 1.05x nospans — the disabled discipline
// is one null branch per instrumented site and must stay that way — and
// spans_on at <= 1.5x nospans.
//
// Hard FAILs (exit 1), so CI catches a broken claim rather than a
// drifting number:
//  * overhead ratio stays under 0.1% of goodput in every cell;
//  * overhead grows sublinearly in fabric size: the k=16 overhead ratio
//    stays within 16x of the k=4 ratio at the same interval, against a
//    64x host-count increase;
//  * span accounting matches the accountant byte-for-byte in every cell.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_lib.h"
#include "fabric/wire.h"
#include "obs/spans.h"

using namespace dard;
using namespace dard::bench;

namespace {

struct CellResult {
  int k = 0;
  double query_interval = 0;
  harness::ExperimentResult result;
  obs::SpanTotals totals;
  double max_link_share = 0;  // hottest link's fraction of control bytes
};

harness::ExperimentConfig overhead_config(double rate, double duration,
                                          std::uint64_t seed,
                                          double query_interval) {
  auto cfg = ns2_config(traffic::PatternKind::Stride, rate, duration, seed);
  // Sub-second control intervals so multiple rounds fire inside the short
  // window (same tilt as the churn and asymmetry benches).
  cfg.elephant_threshold = 0.25;
  cfg.dard.query_interval = query_interval;
  cfg.dard.schedule_base = 0.5;
  cfg.dard.schedule_jitter = 0.5;
  cfg.scheduler = harness::SchedulerKind::Dard;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = parse_flags(argc, argv);
  const double rate = flags.rate > 0 ? flags.rate : 0.5;
  const double duration =
      flags.duration > 0 ? flags.duration : (flags.full ? 6.0 : 2.0);

  constexpr int kSizes[] = {4, 8, 16};
  constexpr double kIntervals[] = {0.25, 0.5, 1.0};

  std::vector<CellResult> cells;
  for (const int k : kSizes) {
    const topo::Topology t = ns2_fat_tree(k);
    for (const double q : kIntervals) {
      CellResult cell;
      cell.k = k;
      cell.query_interval = q;
      obs::SpanRecorder spans(/*observer=*/nullptr, &t,
                              fabric::kDardQueryBytes,
                              fabric::kDardReplyBytes);
      auto cfg = overhead_config(rate, duration, flags.seed, q);
      cfg.telemetry.spans = &spans;
      char label[64];
      std::snprintf(label, sizeof(label), "k%d q%.2f", k, q);
      cell.result = run_logged(t, cfg, label);
      cell.totals = spans.totals();
      std::uint64_t max_link = 0;
      for (const std::uint64_t b : spans.link_bytes())
        max_link = std::max(max_link, b);
      cell.max_link_share =
          cell.totals.bytes == 0
              ? 0
              : static_cast<double>(max_link) /
                    static_cast<double>(cell.totals.bytes);
      cells.push_back(std::move(cell));
    }
  }

  // Wall-clock cells: the k=16 mid cell rerun three ways, min of three
  // repetitions each to shed scheduler noise. `compiled_off` keeps a live
  // recorder in the process but never attaches it — by construction the
  // same code path as `nospans` (one null branch per site), which is
  // exactly what the --pair gate pins. `spans_on` adds the time of one
  // link_bytes() call: the recorder routes its tallies onto links when they
  // are read, not during the run.
  const topo::Topology pair_topo = ns2_fat_tree(16);
  double wall_nospans = 0;
  double wall_off = 0;
  double wall_on = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto nospans = harness::run_experiment(
        pair_topo, overhead_config(rate, duration, flags.seed, 0.5));
    obs::SpanRecorder idle(nullptr, &pair_topo, fabric::kDardQueryBytes,
                           fabric::kDardReplyBytes);
    auto off_cfg = overhead_config(rate, duration, flags.seed, 0.5);
    off_cfg.telemetry.spans = nullptr;  // compiled in, off
    const auto off = harness::run_experiment(pair_topo, off_cfg);
    obs::SpanRecorder spans(nullptr, &pair_topo, fabric::kDardQueryBytes,
                            fabric::kDardReplyBytes);
    auto on_cfg = overhead_config(rate, duration, flags.seed, 0.5);
    on_cfg.telemetry.spans = &spans;
    const auto on = harness::run_experiment(pair_topo, on_cfg);
    const auto route_start = std::chrono::steady_clock::now();
    const std::vector<std::uint64_t> routed = spans.link_bytes();
    const double on_s =
        on.timings.run_s +
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      route_start)
            .count();
    if (*std::max_element(routed.begin(), routed.end()) == 0) {
      std::fprintf(stderr, "FAIL: the attached recorder routed no bytes\n");
      return 1;
    }
    if (rep == 0 || nospans.timings.run_s < wall_nospans)
      wall_nospans = nospans.timings.run_s;
    if (rep == 0 || off.timings.run_s < wall_off)
      wall_off = off.timings.run_s;
    if (rep == 0 || on_s < wall_on) wall_on = on_s;
  }

  AsciiTable table({"cell", "hosts", "goodput (MiB)", "control (KiB)",
                    "overhead", "msgs/host/s", "hot link"});
  for (const CellResult& c : cells) {
    char name[32], over[32], mhs[32], hot[32];
    std::snprintf(name, sizeof(name), "k%d q%.2fs", c.k, c.query_interval);
    std::snprintf(over, sizeof(over), "%.5f%%",
                  c.result.control_overhead_ratio() * 100);
    const double hosts = static_cast<double>(c.k) * c.k * c.k / 4;
    std::snprintf(mhs, sizeof(mhs), "%.2f",
                  static_cast<double>(c.totals.messages) / hosts / duration);
    std::snprintf(hot, sizeof(hot), "%.1f%%", c.max_link_share * 100);
    table.add_row({name, AsciiTable::fmt(hosts),
                   AsciiTable::fmt(
                       static_cast<double>(c.result.goodput_bytes) / 1048576),
                   AsciiTable::fmt(
                       static_cast<double>(c.result.control_bytes) / 1024),
                   over, mhs, hot});
  }
  std::printf(
      "Control-plane overhead — stride pattern, rate %g, %g s window:\n%s\n",
      rate, duration, table.to_string().c_str());
  std::printf("span recorder wall cost (k=16, min of 3): nospans %.4f s, "
              "compiled-off %.4f s (%.3fx), attached %.4f s (%.3fx)\n",
              wall_nospans, wall_off,
              wall_nospans > 0 ? wall_off / wall_nospans : 0.0, wall_on,
              wall_nospans > 0 ? wall_on / wall_nospans : 0.0);

  const char* out = "BENCH_control_overhead.json";
  std::FILE* f = std::fopen(out, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out);
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"context\": {\"executable\": \"bench_control_overhead\", "
               "\"rate\": %g, \"duration\": %g, \"seed\": %llu},\n"
               "  \"benchmarks\": [\n",
               rate, duration, static_cast<unsigned long long>(flags.seed));
  for (const CellResult& c : cells) {
    // real_time carries the simulated overhead ratio in parts-per-million:
    // deterministic per seed, so the checked-in baseline gates at 1.05x.
    std::fprintf(f,
                 "    {\n"
                 "      \"name\": \"BM_ControlOverhead/k%d_q%.2f\",\n"
                 "      \"run_type\": \"iteration\",\n"
                 "      \"iterations\": 1,\n"
                 "      \"real_time\": %.6f,\n"
                 "      \"cpu_time\": %.6f,\n"
                 "      \"time_unit\": \"ms\",\n"
                 "      \"control_bytes\": %llu,\n"
                 "      \"goodput_bytes\": %llu,\n"
                 "      \"span_messages\": %llu\n"
                 "    },\n",
                 c.k, c.query_interval,
                 c.result.control_overhead_ratio() * 1e6,
                 c.result.control_overhead_ratio() * 1e6,
                 static_cast<unsigned long long>(c.result.control_bytes),
                 static_cast<unsigned long long>(c.result.goodput_bytes),
                 static_cast<unsigned long long>(c.totals.messages));
  }
  // Wall-clock cells (nondeterministic; gated only against each other via
  // --pair, never against the checked-in baseline).
  const auto wall_cell = [&f](const char* name, double seconds, bool last) {
    std::fprintf(f,
                 "    {\n"
                 "      \"name\": \"BM_ControlOverheadWall/%s\",\n"
                 "      \"run_type\": \"iteration\",\n"
                 "      \"iterations\": 3,\n"
                 "      \"real_time\": %.6f,\n"
                 "      \"cpu_time\": %.6f,\n"
                 "      \"time_unit\": \"ms\"\n"
                 "    }%s\n",
                 name, seconds * 1e3, seconds * 1e3, last ? "" : ",");
  };
  wall_cell("nospans", wall_nospans, false);
  wall_cell("spans_compiled_off", wall_off, false);
  wall_cell("spans_on", wall_on, true);
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", out);

  // The claims this bench exists to pin.
  bool ok = true;
  for (const CellResult& c : cells) {
    if (c.result.control_overhead_ratio() >= 0.001) {
      std::fprintf(stderr,
                   "FAIL: k=%d q=%.2f control overhead %.4f%% >= 0.1%% of "
                   "goodput\n",
                   c.k, c.query_interval,
                   c.result.control_overhead_ratio() * 100);
      ok = false;
    }
    const obs::SpanTotals& t = c.totals;
    if (t.messages != 2 * t.attempts - t.lost ||
        t.bytes != fabric::kDardQueryBytes * t.attempts +
                       fabric::kDardReplyBytes * (t.attempts - t.lost) ||
        t.bytes != c.result.control_bytes) {
      std::fprintf(stderr,
                   "FAIL: k=%d q=%.2f span accounting diverged from the "
                   "accountant (span bytes %llu, accountant %llu)\n",
                   c.k, c.query_interval,
                   static_cast<unsigned long long>(t.bytes),
                   static_cast<unsigned long long>(c.result.control_bytes));
      ok = false;
    }
  }
  for (std::size_t qi = 0; qi < std::size(kIntervals); ++qi) {
    const CellResult& small = cells[qi];                      // k=4
    const CellResult& large = cells[2 * std::size(kIntervals) + qi];  // k=16
    const double r_small = small.result.control_overhead_ratio();
    const double r_large = large.result.control_overhead_ratio();
    // Hosts grow 64x from k=4 to k=16; the overhead *ratio* must grow far
    // slower than that (measured ~9x: each daemon queries more switches on
    // a deeper fabric, but goodput scales with the host count).
    if (r_small > 0 && r_large > 16.0 * r_small) {
      std::fprintf(stderr,
                   "FAIL: q=%.2f overhead ratio grew %.2fx from k=4 to k=16 "
                   "(limit 16x vs 64x host growth) — the control loop is "
                   "not scaling\n",
                   kIntervals[qi], r_large / r_small);
      ok = false;
    }
  }
  if (ok)
    std::fprintf(stderr,
                 "OK: overhead < 0.1%% of goodput in all %zu cells; overhead "
                 "ratio sublinear in fabric size; span accounting exact\n",
                 cells.size());
  return ok ? 0 : 1;
}
