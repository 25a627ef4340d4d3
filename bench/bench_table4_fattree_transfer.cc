// Table 4: average file transfer time on fat-tree topologies (ns-2 mode,
// 1 Gbps), p = 8 / 16 / 32, four schedulers x three traffic patterns.
//
// Expected shape (paper): under stride, SimAnneal and DARD beat ECMP and
// pVLB, with SimAnneal ahead of DARD by <10%; under staggered, DARD leads
// (it can separate intra-pod collisions, per-destination-host SimAnneal
// cannot); random sits in between; pVLB tracks ECMP.
//
// The default run covers p=8 and p=16 on a 10 s window. p=32 runs only
// under --full, and then on a 4 s window: the fluid simulation of 8192
// hosts is the wall-clock bottleneck. --duration overrides every window.
#include "bench_lib.h"

using namespace dard;
using namespace dard::bench;

int main(int argc, char** argv) {
  const auto flags = parse_flags(argc, argv);

  std::vector<int> sizes{8, 16};
  if (flags.full) {
    sizes.push_back(32);
  } else {
    std::printf("(p=32 runs only with --full: ~8k hosts x 12 cells is the "
                "wall-clock bottleneck)\n");
  }

  AsciiTable table({"p", "pattern", "ECMP", "pVLB", "DARD", "SimAnneal"});
  for (const int p : sizes) {
    const topo::Topology t = ns2_fat_tree(p);
    const double rate = flags.rate > 0 ? flags.rate : 1.2;
    const double duration = flags.duration > 0 ? flags.duration
                            : p == 32          ? 4.0
                                               : 10.0;

    for (const auto pattern : kAllPatterns) {
      std::vector<std::string> row{std::to_string(p),
                                   traffic::to_string(pattern)};
      for (const auto scheduler : kAllSchedulers) {
        auto cfg = ns2_config(pattern, rate, duration, flags.seed);
        cfg.scheduler = scheduler;
        row.push_back(
            AsciiTable::fmt(run_logged(t, cfg, "table4").avg_transfer_time));
      }
      table.add_row(std::move(row));
    }
  }
  std::printf("Table 4 — average file transfer time (s), fat-trees, 1 Gbps "
              "links, 128 MiB elephants:\n%s",
              table.to_string().c_str());
  return 0;
}
