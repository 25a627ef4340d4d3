// Hyperscale soak benchmark (DESIGN.md §14): a k=32 fat tree (8192 hosts)
// under staggered traffic, driven to >= 1M flow arrivals with the memory
// model an open-ended run requires — recycled flow ids, no completion
// records, a self-scheduling arrival process (one pending arrival event at
// any time), and lazily materialized paths behind the bounded LRU.
//
// Emits a google-benchmark-shaped JSON report (BENCH_hyperscale.json) so
// bench/check_bench_regression.py gates it like any other bench, with
// extra keys for arrivals, simulated seconds and warmup/end RSS. CI runs
// the small-k smoke variant; the k=32 default is the EXPERIMENTS.md run.
//
// Flat-RSS contract: once the flow population reaches steady state every
// per-flow structure is bounded by peak *concurrency*, not total arrivals,
// so RSS after warmup must not grow with run length. --assert-flat-rss
// turns that into an exit code (end <= warmup * 1.15 + 64 MiB).
#include <chrono>
#include <cstdio>
#include <functional>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "baselines/ecmp.h"
#include "common/stats.h"
#include "dard/dard_agent.h"
#include "flowsim/simulator.h"
#include "obs/observer.h"
#include "obs/profiler.h"
#include "topology/builders.h"
#include "traffic/patterns.h"

namespace {

using namespace dard;

struct Options {
  int k = 32;
  std::uint64_t arrivals = 1'000'000;
  std::string scheduler = "ecmp";
  Seconds mean_interarrival = 1.0;  // per host (aggregate rate = hosts/mean)
  Bytes flow_size = 12'500'000;     // 0.1 s at host line rate (1 Gbps)
  Seconds realloc_interval = 0.02;
  std::uint64_t seed = 1;
  double warmup_fraction = 0.1;  // RSS reference point, as arrival fraction
  bool assert_flat_rss = false;
  std::string out = "BENCH_hyperscale.json";
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--k=N] [--arrivals=N] [--scheduler=ecmp|dard]\n"
      "          [--mean-interarrival=S] [--flow-size-bytes=N]\n"
      "          [--realloc-interval=S] [--seed=N]\n"
      "          [--warmup-fraction=F] [--assert-flat-rss] [--out=PATH]\n",
      argv0);
}

bool parse_flag(const char* arg, const char* name, const char** value) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

// Tracks completions and concurrency without per-flow records: arrival
// times live in a by-fid array that id recycling keeps bounded.
class SoakObserver : public obs::SimObserver {
 public:
  void on_flow_arrive(const obs::TraceEvent& e) override {
    const std::size_t fid = e.flow.value();
    if (fid >= arrival_.size()) arrival_.resize(fid + 1, 0.0);
    arrival_[fid] = e.time;
    ++live_;
    if (live_ > peak_live_) peak_live_ = live_;
  }
  void on_flow_complete(const obs::TraceEvent& e) override {
    transfer_.add(e.time - arrival_[e.flow.value()]);
    --live_;
  }

  [[nodiscard]] const OnlineStats& transfer() const { return transfer_; }
  [[nodiscard]] std::size_t peak_live() const { return peak_live_; }
  [[nodiscard]] std::size_t tracked_slots() const { return arrival_.size(); }

 private:
  std::vector<Seconds> arrival_;
  OnlineStats transfer_;
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (parse_flag(argv[i], "--k", &v)) {
      opt.k = std::atoi(v);
    } else if (parse_flag(argv[i], "--arrivals", &v)) {
      opt.arrivals = std::strtoull(v, nullptr, 10);
    } else if (parse_flag(argv[i], "--scheduler", &v)) {
      opt.scheduler = v;
    } else if (parse_flag(argv[i], "--mean-interarrival", &v)) {
      opt.mean_interarrival = std::atof(v);
    } else if (parse_flag(argv[i], "--flow-size-bytes", &v)) {
      opt.flow_size = std::strtoull(v, nullptr, 10);
    } else if (parse_flag(argv[i], "--realloc-interval", &v)) {
      opt.realloc_interval = std::atof(v);
    } else if (parse_flag(argv[i], "--seed", &v)) {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (parse_flag(argv[i], "--warmup-fraction", &v)) {
      opt.warmup_fraction = std::atof(v);
    } else if (parse_flag(argv[i], "--out", &v)) {
      opt.out = v;
    } else if (std::strcmp(argv[i], "--assert-flat-rss") == 0) {
      opt.assert_flat_rss = true;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (opt.k < 4 || opt.k % 2 != 0 || opt.arrivals == 0 ||
      opt.mean_interarrival <= 0 || opt.flow_size == 0 ||
      (opt.scheduler != "ecmp" && opt.scheduler != "dard")) {
    usage(argv[0]);
    return 2;
  }

  const auto t0 = std::chrono::steady_clock::now();
  const topo::Topology topo = topo::build_fat_tree({.p = opt.k});
  const auto& hosts = topo.hosts();

  flowsim::SimConfig cfg;
  cfg.realloc_interval = opt.realloc_interval;
  cfg.recycle_flow_ids = true;
  cfg.keep_records = false;
  flowsim::FlowSimulator sim(topo, cfg);

  SoakObserver stats;
  sim.set_observer(&stats);

  baselines::EcmpAgent ecmp;
  core::DardAgent dard_agent{core::DardConfig{}};
  if (opt.scheduler == "dard") {
    sim.set_agent(&dard_agent);
  } else {
    sim.set_agent(&ecmp);
  }

  const traffic::DestinationPicker picker(
      topo, traffic::PatternParams{.kind = traffic::PatternKind::Staggered});
  Rng rng(opt.seed);

  // The superposition of per-host Poisson processes is one Poisson process
  // at the aggregate rate with a uniformly random source, so a single
  // self-rescheduling event generates the whole workload in O(1) pending
  // state — no up-front vector of a million FlowSpecs.
  const Seconds aggregate_mean =
      opt.mean_interarrival / static_cast<double>(hosts.size());
  const std::uint64_t warmup_arrivals = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(opt.arrivals) *
                                    opt.warmup_fraction));
  std::uint64_t submitted = 0;
  double rss_warmup = 0;
  std::uint16_t port = 0;
  Seconds next_arrival = 0;
  std::function<void()> arrive_next = [&] {
    flowsim::FlowSpec spec;
    spec.src_host = hosts[rng.next_below(hosts.size())];
    spec.dst_host = picker.pick(spec.src_host, rng);
    spec.size = opt.flow_size;
    spec.arrival = sim.now();
    if (++port == 0) ++port;  // keep the hashed five-tuple varied, never 0
    spec.src_port = port;
    spec.dst_port = 80;
    (void)sim.submit(spec);
    ++submitted;
    if (submitted == warmup_arrivals)
      rss_warmup = obs::Profiler::current_rss_bytes();
    if (submitted < opt.arrivals) {
      next_arrival = sim.now() + rng.exponential(aggregate_mean);
      sim.events().schedule(next_arrival, arrive_next);
    }
  };
  // Bootstrap by submitting the first arrival directly: run_until_flows_done
  // terminates on submitted == finished, so the run must open with a flow in
  // the system, not just a pending generator event. The same condition means
  // it stops whenever the fabric momentarily drains between arrivals — likely
  // at small k, where the aggregate arrival rate is low — so step the clock
  // to the pending arrival and resume until the workload is exhausted.
  sim.run_until(rng.exponential(aggregate_mean));
  arrive_next();
  for (;;) {
    sim.run_until_flows_done();
    if (submitted >= opt.arrivals) break;
    sim.run_until(next_arrival);
  }

  const double rss_end = obs::Profiler::current_rss_bytes();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const Seconds sim_s = sim.now();

  std::printf(
      "bench_hyperscale: k=%d scheduler=%s\n"
      "  arrivals            %llu (all finished)\n"
      "  simulated time      %.1f s\n"
      "  wall clock          %.1f s (%.0f arrivals/s)\n"
      "  peak concurrency    %zu flows (%zu flow slots allocated)\n"
      "  avg transfer time   %.4f s\n"
      "  RSS warmup -> end   %.1f MiB -> %.1f MiB\n",
      opt.k, opt.scheduler.c_str(),
      static_cast<unsigned long long>(submitted), sim_s, wall_s,
      static_cast<double>(submitted) / wall_s, stats.peak_live(),
      stats.tracked_slots(), stats.transfer().mean(), rss_warmup / kMiB,
      rss_end / kMiB);

  std::FILE* f = std::fopen(opt.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"context\": {\"executable\": \"bench_hyperscale\", \"k\": %d,\n"
      "    \"scheduler\": \"%s\", \"seed\": %llu},\n"
      "  \"benchmarks\": [\n"
      "    {\n"
      "      \"name\": \"BM_Hyperscale/k=%d\",\n"
      "      \"run_type\": \"iteration\",\n"
      "      \"iterations\": 1,\n"
      "      \"real_time\": %.3f,\n"
      "      \"cpu_time\": %.3f,\n"
      "      \"time_unit\": \"ms\",\n"
      "      \"arrivals\": %llu,\n"
      "      \"sim_seconds\": %.3f,\n"
      "      \"arrivals_per_wall_second\": %.1f,\n"
      "      \"peak_concurrent_flows\": %zu,\n"
      "      \"avg_transfer_time_s\": %.6f,\n"
      "      \"rss_warmup_bytes\": %.0f,\n"
      "      \"rss_end_bytes\": %.0f\n"
      "    }\n"
      "  ]\n"
      "}\n",
      opt.k, opt.scheduler.c_str(),
      static_cast<unsigned long long>(opt.seed), opt.k, wall_s * 1e3,
      wall_s * 1e3, static_cast<unsigned long long>(submitted), sim_s,
      static_cast<double>(submitted) / wall_s, stats.peak_live(),
      stats.transfer().mean(), rss_warmup, rss_end);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", opt.out.c_str());

  if (opt.assert_flat_rss) {
    if (rss_warmup <= 0) {
      std::fprintf(stderr,
                   "FAIL: warmup RSS was never sampled; the flat-memory "
                   "bound is meaningless\n");
      return 1;
    }
    const double limit = rss_warmup * 1.15 + 64.0 * kMiB;
    if (rss_end > limit) {
      std::fprintf(stderr,
                   "FAIL: RSS grew past the flat-memory bound: warmup %.1f "
                   "MiB, end %.1f MiB, limit %.1f MiB\n",
                   rss_warmup / kMiB, rss_end / kMiB, limit / kMiB);
      return 1;
    }
    std::fprintf(stderr, "RSS flat: end %.1f MiB <= limit %.1f MiB\n",
                 rss_end / kMiB, limit / kMiB);
  }
  return 0;
}
