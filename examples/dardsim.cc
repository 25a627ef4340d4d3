// dardsim — command-line driver for the simulator: pick a topology, a
// traffic pattern and a scheduler, get the paper's metrics (and optionally
// a CSV of per-flow records) without writing any code. Telemetry flags
// stream a structured JSONL event trace, a metrics CSV and link-utilization
// / aggregate time series for offline plotting (see DESIGN.md
// "Observability").
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fabric/wire.h"
#include "faults/injector.h"
#include "harness/experiment.h"
#include "harness/manifest.h"
#include "obs/spans.h"
#include "obs/trace.h"
#include "topology/builders.h"

using namespace dard;

namespace {

constexpr const char* kTopos = "fattree, clos, threetier, leafspine";
constexpr const char* kPatterns = "random, staggered, stride";
constexpr const char* kSchedulers = "ecmp, wcmp, pvlb, dard, hedera, texcp";
constexpr const char* kSubstrates = "fluid, packet";
constexpr const char* kFaultPresets =
    "link-flap, switch-outage, lossy-control, chaos, agent-churn";

// Numeric flag parsing in the valid-choice error style: the whole value
// must parse (no trailing garbage, no empty string) and land in range, or
// the caller prints what would have been accepted and exits. atoi/atof
// silently turning "abc" into 0 is exactly the bug class these replace.
bool parse_double(const char* v, double* out) {
  if (v == nullptr || *v == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = parsed;
  return true;
}

bool parse_u64(const char* v, std::uint64_t* out) {
  if (v == nullptr || *v == '\0' || *v == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = parsed;
  return true;
}

bool parse_long(const char* v, long* out) {
  if (v == nullptr || *v == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = parsed;
  return true;
}

// Comma-separated positive Gbps values ("10,40,40") -> capacities in bps.
bool parse_gbps_list(const char* v, std::vector<Bps>* out) {
  if (v == nullptr || *v == '\0') return false;
  out->clear();
  const std::string s(v);
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::string item =
        s.substr(start, comma == std::string::npos ? comma : comma - start);
    double gbps = 0;
    if (!parse_double(item.c_str(), &gbps) || gbps <= 0) return false;
    out->push_back(gbps * kGbps);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return !out->empty();
}

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: dardsim [options]\n"
               "\n"
               "simulation options:\n"
               "  --topo=NAME          topology: %s (default fattree)\n"
               "  --size=N             p for fat-tree, D for Clos; ignored "
               "for threetier (default 8)\n"
               "  --pattern=NAME       traffic pattern: %s (default stride)\n"
               "  --scheduler=NAME     scheduler: %s (default dard;\n"
               "                       texcp needs --substrate=packet)\n"
               "  --substrate=NAME     simulation substrate: %s (default "
               "fluid).\n"
               "                       packet runs TCP New Reno over "
               "drop-tail queues\n"
               "                       with the same scheduler stack; "
               "control intervals\n"
               "                       tighten to second-scale transfers\n"
               "  --flow-mb=F          transfer size in MiB (default 128; "
               "use a few MiB\n"
               "                       to keep packet runs fast)\n"
               "  --rate=F             flows per second per host (default 1)\n"
               "  --duration=S         workload generation window in seconds "
               "(default 10)\n"
               "  --seed=N             workload / scheduler seed (default 1)\n"
               "  --replicas=K         run K replicas with seeds N..N+K-1 and\n"
               "                       report per-replica + aggregate numbers\n"
               "  --jobs=J             worker threads for the replicas "
               "(default 1,\n"
               "                       0 = all cores; results are identical "
               "for any J)\n"
               "\n"
               "asymmetric-fabric options (fattree and leafspine):\n"
               "  --weighted           capacity-aware path choice for any "
               "scheduler\n"
               "                       (ecmp becomes wcmp; a no-op on "
               "uniform fabrics)\n"
               "  --oversub=F          fat-tree aggregation oversubscription "
               "F:1 — each agg\n"
               "                       switch keeps round((p/2)/F) of its "
               "p/2 uplinks\n"
               "  --speed-skew=F       alternate fast uplink columns at F x "
               "the base\n"
               "                       capacity (fat-tree cores / leaf-spine "
               "spines)\n"
               "  --stripped-pods=N    first N pods (fat-tree) / leaves "
               "(leafspine) keep\n"
               "                       only --stripped-uplinks of their "
               "uplinks\n"
               "  --stripped-uplinks=M uplinks a stripped pod/leaf keeps "
               "(default 1)\n"
               "  --spine-mix=LIST     leaf-spine per-spine capacities as "
               "comma-separated\n"
               "                       Gbps values, cycled over spines "
               "(e.g. 10,40)\n"
               "\n"
               "fault injection options:\n"
               "  --faults=SPEC        inject a fault plan: a preset (%s)\n"
               "                       or a path to a JSON plan file; adds "
               "recovery metrics\n"
               "                       to the output (not with texcp). "
               "--faults=list prints\n"
               "                       every preset with a one-line "
               "description\n"
               "  --audit              run the fabric::Auditor alongside the "
               "simulation:\n"
               "                       periodic read-only invariant checks "
               "(byte\n"
               "                       conservation, link refcounts, dead-"
               "cable rates,\n"
               "                       incarnation monotonicity); any "
               "violation aborts\n"
               "  --fault-seed=N       seed for fault-model randomness "
               "(query loss draws;\n"
               "                       default 1234, independent of --seed)\n"
               "  --query-loss=P       drop monitor query exchanges with "
               "probability P in [0,1]\n"
               "                       for the whole run (a shorthand "
               "control-plane-only plan)\n"
               "  --query-interval=S   DARD monitor refresh period in "
               "seconds (default:\n"
               "                       1 on fluid, 0.1 on packet; tighten "
               "so daemons notice\n"
               "                       a fault well before it repairs)\n"
               "  --schedule-interval=S  DARD scheduling round: base and "
               "jitter both S,\n"
               "                       i.e. a round every S + U[0,S] "
               "seconds (default:\n"
               "                       5 on fluid, 0.25 on packet)\n"
               "\n"
               "output options:\n"
               "  --run-dir=DIR        write a self-describing run directory "
               "for dardscope:\n"
               "                       trace.jsonl, metrics.csv, "
               "link_samples.csv,\n"
               "                       agg_samples.csv and a manifest.json "
               "recording the\n"
               "                       scenario, seeds, flag values and "
               "wall-clock timings\n"
               "                       (explicit --trace/--metrics/... paths "
               "still win)\n"
               "  --csv                print the summary as metric,value CSV\n"
               "  --trace=FILE         write a JSONL event trace (flow "
               "arrive/elephant/move/complete,\n"
               "                       DARD round decisions)\n"
               "  --metrics=FILE       write the metrics registry "
               "(counters/gauges) as CSV\n"
               "  --samples=FILE       write sampled per-link utilization as "
               "CSV\n"
               "  --agg-samples=FILE   write sampled aggregate counters "
               "(active flows/elephants,\n"
               "                       throughput) as CSV\n"
               "  --sample-period=S    sampling period in seconds (default "
               "0.5; used by --samples\n"
               "                       and --agg-samples)\n"
               "  --profile            enable the in-sim profiler: scoped "
               "timers on max-min\n"
               "                       reallocation, path enumeration, DARD "
               "rounds and packet\n"
               "                       dispatch; prints a summary and, with "
               "--run-dir, writes\n"
               "                       profile.csv\n"
               "  --snapshot-period=S  emit a run-health snapshot trace event "
               "every S simulated\n"
               "                       seconds (requires --trace or "
               "--run-dir; powers\n"
               "                       `dardscope live`)\n"
               "  --spans              record control-plane spans (schema "
               "v5): per-query,\n"
               "                       refresh, decision and move events "
               "linked by cause\n"
               "                       ids, plus per-link control-byte "
               "attribution\n"
               "                       (control_bytes.csv with --run-dir; "
               "requires --trace\n"
               "                       or --run-dir; powers `dardscope "
               "spans`)\n"
               "  --help               show this message\n",
               kTopos, kPatterns, kSchedulers, kSubstrates, kFaultPresets);
}

struct Options {
  std::string topo = "fattree";
  int size = 8;  // p for fat-tree, D for Clos; ignored for threetier
  std::string pattern = "stride";
  std::string scheduler = "dard";
  std::string substrate = "fluid";
  double flow_mb = 128.0;
  double rate = 1.0;
  double duration = 10.0;
  std::uint64_t seed = 1;
  unsigned replicas = 1;
  unsigned jobs = 1;
  // Asymmetric-fabric axes; defaults build the classic symmetric fabrics.
  bool weighted = false;
  double oversub = 0.0;     // 0 = 1:1 (full uplinks)
  double speed_skew = 0.0;  // 0 = uniform capacity
  int stripped_pods = 0;
  int stripped_uplinks = 1;
  std::vector<Bps> spine_mix;  // leafspine only; empty = builder default
  std::string faults;  // preset name or JSON plan path; empty = no faults
  bool audit = false;
  std::uint64_t fault_seed = 1234;
  double query_loss = 0.0;
  // DARD control-loop overrides; <= 0 keeps the substrate default. Fault
  // runs tighten these so recovery happens on a sub-second clock.
  double query_interval = -1.0;
  double schedule_interval = -1.0;
  bool csv = false;
  std::string run_dir;
  std::string trace_path;
  std::string metrics_path;
  std::string samples_path;
  std::string agg_samples_path;
  double sample_period = 0.5;
  bool profile = false;
  double snapshot_period = 0.0;  // 0 = no snapshot events
  bool spans = false;
  bool help = false;
};

bool parse(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      return arg.size() > std::strlen(prefix) &&
                     arg.compare(0, std::strlen(prefix), prefix) == 0
                 ? arg.c_str() + std::strlen(prefix)
                 : nullptr;
    };
    long n = 0;
    if (const char* v = value("--topo=")) {
      opt->topo = v;
    } else if (const char* v = value("--size=")) {
      if (!parse_long(v, &n) || n < 2) {
        std::fprintf(stderr,
                     "invalid --size: %s (valid: an integer >= 2)\n", v);
        return false;
      }
      opt->size = static_cast<int>(n);
    } else if (const char* v = value("--pattern=")) {
      opt->pattern = v;
    } else if (const char* v = value("--scheduler=")) {
      opt->scheduler = v;
    } else if (const char* v = value("--substrate=")) {
      opt->substrate = v;
    } else if (const char* v = value("--flow-mb=")) {
      if (!parse_double(v, &opt->flow_mb) || opt->flow_mb <= 0) {
        std::fprintf(stderr,
                     "invalid --flow-mb: %s (valid: a number > 0)\n", v);
        return false;
      }
    } else if (const char* v = value("--rate=")) {
      if (!parse_double(v, &opt->rate) || opt->rate <= 0) {
        std::fprintf(stderr, "invalid --rate: %s (valid: a number > 0)\n", v);
        return false;
      }
    } else if (const char* v = value("--duration=")) {
      if (!parse_double(v, &opt->duration) || opt->duration <= 0) {
        std::fprintf(stderr,
                     "invalid --duration: %s (valid: a number > 0)\n", v);
        return false;
      }
    } else if (const char* v = value("--seed=")) {
      if (!parse_u64(v, &opt->seed)) {
        std::fprintf(stderr,
                     "invalid --seed: %s (valid: a non-negative integer)\n",
                     v);
        return false;
      }
    } else if (const char* v = value("--replicas=")) {
      if (!parse_long(v, &n) || n < 1) {
        std::fprintf(stderr,
                     "invalid --replicas: %s (valid: an integer >= 1)\n", v);
        return false;
      }
      opt->replicas = static_cast<unsigned>(n);
    } else if (const char* v = value("--jobs=")) {
      if (!parse_long(v, &n) || n < 0) {
        std::fprintf(stderr,
                     "invalid --jobs: %s (valid: an integer >= 0, 0 = all "
                     "cores)\n",
                     v);
        return false;
      }
      opt->jobs = static_cast<unsigned>(n);
    } else if (const char* v = value("--oversub=")) {
      if (!parse_double(v, &opt->oversub) || opt->oversub < 1) {
        std::fprintf(stderr,
                     "invalid --oversub: %s (valid: a ratio >= 1)\n", v);
        return false;
      }
    } else if (const char* v = value("--speed-skew=")) {
      if (!parse_double(v, &opt->speed_skew) || opt->speed_skew < 1) {
        std::fprintf(stderr,
                     "invalid --speed-skew: %s (valid: a factor >= 1)\n", v);
        return false;
      }
    } else if (const char* v = value("--stripped-pods=")) {
      if (!parse_long(v, &n) || n < 0) {
        std::fprintf(
            stderr,
            "invalid --stripped-pods: %s (valid: an integer >= 0)\n", v);
        return false;
      }
      opt->stripped_pods = static_cast<int>(n);
    } else if (const char* v = value("--stripped-uplinks=")) {
      if (!parse_long(v, &n) || n < 1) {
        std::fprintf(
            stderr,
            "invalid --stripped-uplinks: %s (valid: an integer >= 1)\n", v);
        return false;
      }
      opt->stripped_uplinks = static_cast<int>(n);
    } else if (const char* v = value("--spine-mix=")) {
      if (!parse_gbps_list(v, &opt->spine_mix)) {
        std::fprintf(stderr,
                     "invalid --spine-mix: %s (valid: comma-separated Gbps "
                     "values > 0, e.g. 10,40)\n",
                     v);
        return false;
      }
    } else if (arg == "--weighted") {
      opt->weighted = true;
    } else if (const char* v = value("--faults=")) {
      opt->faults = v;
    } else if (const char* v = value("--fault-seed=")) {
      if (!parse_u64(v, &opt->fault_seed)) {
        std::fprintf(
            stderr,
            "invalid --fault-seed: %s (valid: a non-negative integer)\n", v);
        return false;
      }
    } else if (const char* v = value("--query-interval=")) {
      if (!parse_double(v, &opt->query_interval) ||
          opt->query_interval <= 0) {
        std::fprintf(stderr,
                     "invalid --query-interval: %s (valid: a number > 0)\n",
                     v);
        return false;
      }
    } else if (const char* v = value("--schedule-interval=")) {
      if (!parse_double(v, &opt->schedule_interval) ||
          opt->schedule_interval <= 0) {
        std::fprintf(
            stderr, "invalid --schedule-interval: %s (valid: a number > 0)\n",
            v);
        return false;
      }
    } else if (const char* v = value("--query-loss=")) {
      if (!parse_double(v, &opt->query_loss) || opt->query_loss < 0 ||
          opt->query_loss > 1) {
        std::fprintf(
            stderr,
            "invalid --query-loss: %s (valid: a probability in [0, 1])\n", v);
        return false;
      }
    } else if (const char* v = value("--run-dir=")) {
      opt->run_dir = v;
    } else if (const char* v = value("--trace=")) {
      opt->trace_path = v;
    } else if (const char* v = value("--metrics=")) {
      opt->metrics_path = v;
    } else if (const char* v = value("--samples=")) {
      opt->samples_path = v;
    } else if (const char* v = value("--agg-samples=")) {
      opt->agg_samples_path = v;
    } else if (const char* v = value("--sample-period=")) {
      if (!parse_double(v, &opt->sample_period) || opt->sample_period <= 0) {
        std::fprintf(stderr,
                     "invalid --sample-period: %s (valid: a number > 0)\n",
                     v);
        return false;
      }
    } else if (const char* v = value("--snapshot-period=")) {
      if (!parse_double(v, &opt->snapshot_period) ||
          opt->snapshot_period <= 0) {
        std::fprintf(stderr,
                     "invalid --snapshot-period: %s (valid: a number > 0)\n",
                     v);
        return false;
      }
    } else if (arg == "--spans") {
      opt->spans = true;
    } else if (arg == "--audit") {
      opt->audit = true;
    } else if (arg == "--profile") {
      opt->profile = true;
    } else if (arg == "--csv") {
      opt->csv = true;
    } else if (arg == "--help" || arg == "-h") {
      opt->help = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n\n", arg.c_str());
      print_usage(stderr);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, &opt)) return 2;
  if (opt.help) {
    print_usage(stdout);
    return 0;
  }
  if (opt.faults == "list") {
    std::printf("fault presets (--faults=NAME):\n");
    for (const auto& p : faults::FaultPlan::presets())
      std::printf("  %-14s %s\n", p.name, p.summary);
    return 0;
  }

  const bool asymmetric_flags = opt.oversub > 0 || opt.speed_skew > 0 ||
                                opt.stripped_pods > 0 ||
                                !opt.spine_mix.empty();
  topo::Topology network;
  if (opt.topo == "fattree") {
    topo::FatTreeParams params{.p = opt.size};
    if (!opt.spine_mix.empty()) {
      std::fprintf(stderr,
                   "--spine-mix applies to leafspine only; for fattree use "
                   "--speed-skew\n");
      return 2;
    }
    if (opt.oversub > 0) {
      const int half = opt.size / 2;
      const int uplinks =
          std::max(1, static_cast<int>(half / opt.oversub + 0.5));
      params.uplinks_per_agg = std::min(uplinks, half);
    }
    if (opt.speed_skew > 1)
      params.core_capacities = {params.link_capacity,
                                opt.speed_skew * params.link_capacity};
    if (opt.stripped_pods > 0) {
      params.stripped_pods = opt.stripped_pods;
      params.stripped_pod_uplinks = opt.stripped_uplinks;
    }
    const std::string err = topo::validate_fat_tree(params);
    if (!err.empty()) {
      std::fprintf(stderr, "invalid fat-tree parameters: %s\n", err.c_str());
      return 2;
    }
    network = topo::build_fat_tree(params);
  } else if (opt.topo == "leafspine") {
    // --size=N: N leaves over N/2 spines with N/2 hosts per leaf, so the
    // flag scales this fabric the way p scales a fat-tree.
    topo::LeafSpineParams params;
    params.leaves = opt.size;
    params.spines = std::max(1, opt.size / 2);
    params.hosts_per_leaf = std::max(1, opt.size / 2);
    if (!opt.spine_mix.empty()) params.spine_capacities = opt.spine_mix;
    if (opt.speed_skew > 1 && opt.spine_mix.empty())
      params.spine_capacities = {4 * kGbps, opt.speed_skew * 4 * kGbps};
    if (opt.oversub > 0) {
      std::fprintf(stderr,
                   "--oversub applies to fattree only; strip leafspine "
                   "uplinks with --stripped-pods/--stripped-uplinks\n");
      return 2;
    }
    if (opt.stripped_pods > 0) {
      params.stripped_leaves = opt.stripped_pods;
      params.stripped_leaf_uplinks = opt.stripped_uplinks;
    }
    const std::string err = topo::validate_leaf_spine(params);
    if (!err.empty()) {
      std::fprintf(stderr, "invalid leaf-spine parameters: %s\n",
                   err.c_str());
      return 2;
    }
    network = topo::build_leaf_spine(params);
  } else if (opt.topo == "clos") {
    if (asymmetric_flags) {
      std::fprintf(stderr,
                   "asymmetric-fabric flags need --topo=fattree or "
                   "--topo=leafspine\n");
      return 2;
    }
    network = topo::build_clos(
        {.d_i = opt.size, .d_a = opt.size, .hosts_per_tor = 4});
  } else if (opt.topo == "threetier") {
    if (asymmetric_flags) {
      std::fprintf(stderr,
                   "asymmetric-fabric flags need --topo=fattree or "
                   "--topo=leafspine\n");
      return 2;
    }
    network = topo::build_three_tier({});
  } else {
    std::fprintf(stderr, "unknown topology: %s (valid: %s)\n",
                 opt.topo.c_str(), kTopos);
    return 2;
  }

  harness::ExperimentConfig cfg;
  if (opt.pattern == "random") {
    cfg.workload.pattern.kind = traffic::PatternKind::Random;
  } else if (opt.pattern == "staggered") {
    cfg.workload.pattern.kind = traffic::PatternKind::Staggered;
  } else if (opt.pattern == "stride") {
    cfg.workload.pattern.kind = traffic::PatternKind::Stride;
  } else {
    std::fprintf(stderr, "unknown pattern: %s (valid: %s)\n",
                 opt.pattern.c_str(), kPatterns);
    return 2;
  }
  if (opt.scheduler == "ecmp") {
    cfg.scheduler = harness::SchedulerKind::Ecmp;
  } else if (opt.scheduler == "wcmp") {
    cfg.scheduler = harness::SchedulerKind::Ecmp;
    opt.weighted = true;
  } else if (opt.scheduler == "pvlb") {
    cfg.scheduler = harness::SchedulerKind::Pvlb;
  } else if (opt.scheduler == "dard") {
    cfg.scheduler = harness::SchedulerKind::Dard;
  } else if (opt.scheduler == "hedera") {
    cfg.scheduler = harness::SchedulerKind::Hedera;
  } else if (opt.scheduler == "texcp") {
    cfg.scheduler = harness::SchedulerKind::Texcp;
  } else {
    std::fprintf(stderr, "unknown scheduler: %s (valid: %s)\n",
                 opt.scheduler.c_str(), kSchedulers);
    return 2;
  }
  if (opt.substrate == "fluid") {
    cfg.substrate = harness::Substrate::Fluid;
  } else if (opt.substrate == "packet") {
    cfg.substrate = harness::Substrate::Packet;
    // Packet transfers last around a second, not the testbed's tens:
    // tighten the control intervals so flows span several scheduling
    // rounds (the same scaling tests/substrate_test.cc pins).
    cfg.elephant_threshold = 0.1;
    cfg.dard.query_interval = 0.1;
    cfg.dard.schedule_base = 0.25;
    cfg.dard.schedule_jitter = 0.25;
    cfg.dard.delta = 1 * kMbps;
  } else {
    std::fprintf(stderr, "unknown substrate: %s (valid: %s)\n",
                 opt.substrate.c_str(), kSubstrates);
    return 2;
  }
  if (cfg.scheduler == harness::SchedulerKind::Texcp &&
      cfg.substrate != harness::Substrate::Packet) {
    std::fprintf(stderr,
                 "texcp scatters packets and only runs on the packet "
                 "substrate (add --substrate=packet)\n");
    return 2;
  }
  // Explicit control-loop overrides beat the substrate defaults above.
  if (opt.query_interval > 0) cfg.dard.query_interval = opt.query_interval;
  if (opt.schedule_interval > 0) {
    cfg.dard.schedule_base = opt.schedule_interval;
    cfg.dard.schedule_jitter = opt.schedule_interval;
  }
  cfg.weighted_paths = opt.weighted;
  cfg.audit = opt.audit;
  cfg.workload.flow_size = static_cast<Bytes>(opt.flow_mb * kMiB);
  cfg.workload.mean_interarrival = 1.0 / opt.rate;
  cfg.workload.duration = opt.duration;
  cfg.workload.seed = opt.seed;

  if (!opt.faults.empty() || opt.query_loss > 0) {
    if (cfg.scheduler == harness::SchedulerKind::Texcp) {
      std::fprintf(stderr,
                   "texcp has no fault-injection adapter; --faults and "
                   "--query-loss need an agent scheduler (%s)\n",
                   "ecmp, pvlb, dard, hedera");
      return 2;
    }
    if (!opt.faults.empty()) {
      std::string err;
      auto plan = faults::FaultPlan::load(opt.faults, &err);
      if (plan) err = faults::check_plan(*plan, network);
      if (!plan || !err.empty()) {
        std::fprintf(stderr, "invalid --faults: %s\n", err.c_str());
        return 2;
      }
      cfg.faults.plan = std::move(*plan);
    }
    // --query-loss: a control-plane-only degradation spanning the whole run.
    if (opt.query_loss > 0)
      cfg.faults.plan.add_control_window(
          faults::ControlWindow{0.0, 1e18, opt.query_loss, 0.0, false});
    cfg.faults.seed = opt.fault_seed;
  }

  // --run-dir: one directory holding every artifact under its canonical
  // name plus a manifest describing the run (dardscope's input). Explicit
  // --trace/--metrics/... paths keep winning for the file they name.
  if (!opt.run_dir.empty() && opt.replicas == 1) {
    std::error_code ec;
    std::filesystem::create_directories(opt.run_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create run dir %s: %s\n",
                   opt.run_dir.c_str(), ec.message().c_str());
      return 2;
    }
    const auto in_dir = [&](const char* name) {
      return (std::filesystem::path(opt.run_dir) / name).string();
    };
    if (opt.trace_path.empty()) opt.trace_path = in_dir(harness::kTraceFile);
    if (opt.metrics_path.empty())
      opt.metrics_path = in_dir(harness::kMetricsFile);
    if (opt.samples_path.empty())
      opt.samples_path = in_dir(harness::kLinkSamplesFile);
    if (opt.agg_samples_path.empty())
      opt.agg_samples_path = in_dir(harness::kAggSamplesFile);
  }

  if (opt.replicas > 1) {
    // Replica sweep: same experiment over workload seeds N..N+K-1, run on
    // a thread pool. Per-replica results are identical for any --jobs.
    if (!opt.trace_path.empty() || !opt.metrics_path.empty() ||
        !opt.samples_path.empty() || !opt.agg_samples_path.empty() ||
        !opt.run_dir.empty() || opt.profile || opt.snapshot_period > 0 ||
        opt.spans) {
      std::fprintf(stderr,
                   "--trace/--metrics/--samples/--run-dir/--profile/"
                   "--snapshot-period/--spans need --replicas=1\n");
      return 2;
    }
    std::vector<harness::ExperimentCell> cells(opt.replicas);
    for (unsigned k = 0; k < opt.replicas; ++k) {
      cells[k].topology = &network;
      cells[k].config = cfg;
      cells[k].config.workload.seed = opt.seed + k;
    }
    const auto results = harness::run_experiments_parallel(cells, opt.jobs);

    OnlineStats avg;
    for (const auto& r : results) avg.add(r.avg_transfer_time);
    if (opt.csv) {
      std::printf("replica,seed,flows,avg_transfer_s,p99_transfer_s,"
                  "reroutes\n");
      for (unsigned k = 0; k < opt.replicas; ++k)
        std::printf("%u,%llu,%zu,%.4f,%.4f,%zu\n", k,
                    static_cast<unsigned long long>(opt.seed + k),
                    results[k].flows, results[k].avg_transfer_time,
                    results[k].transfer_times.percentile(0.99),
                    results[k].reroutes);
      std::printf("mean,,,%.4f,,\n", avg.mean());
    } else {
      std::printf("%s on %s: %u replicas (seeds %llu..%llu), %u thread(s)\n",
                  results.front().scheduler.c_str(), opt.topo.c_str(),
                  opt.replicas, static_cast<unsigned long long>(opt.seed),
                  static_cast<unsigned long long>(opt.seed + opt.replicas - 1),
                  opt.jobs == 0 ? std::thread::hardware_concurrency()
                                : opt.jobs);
      for (unsigned k = 0; k < opt.replicas; ++k)
        std::printf("  seed %-6llu %5zu flows  avg %.2f s  p99 %.2f s  "
                    "%zu reroutes\n",
                    static_cast<unsigned long long>(opt.seed + k),
                    results[k].flows, results[k].avg_transfer_time,
                    results[k].transfer_times.percentile(0.99),
                    results[k].reroutes);
      std::printf("  avg transfer time over replicas: %.2f s (min %.2f, "
                  "max %.2f)\n",
                  avg.mean(), avg.min(), avg.max());
    }
    return 0;
  }

  // Telemetry wiring; everything stays null/zero (and therefore free)
  // unless the corresponding flag was given.
  std::ofstream trace_file;
  std::unique_ptr<obs::JsonlTraceSink> trace_sink;
  std::unique_ptr<obs::TraceObserver> trace_observer;
  if (!opt.trace_path.empty()) {
    trace_file.open(opt.trace_path);
    if (!trace_file) {
      std::fprintf(stderr, "cannot open trace file: %s\n",
                   opt.trace_path.c_str());
      return 2;
    }
    trace_sink = std::make_unique<obs::JsonlTraceSink>(trace_file);
    trace_observer = std::make_unique<obs::TraceObserver>(*trace_sink);
    cfg.telemetry.observer = trace_observer.get();
  }
  obs::MetricsRegistry metrics;
  if (!opt.metrics_path.empty()) cfg.telemetry.metrics = &metrics;
  if (!opt.samples_path.empty() || !opt.agg_samples_path.empty())
    cfg.telemetry.sample_period = opt.sample_period;
  obs::Profiler profiler;
  if (opt.profile) cfg.telemetry.profiler = &profiler;
  if (opt.snapshot_period > 0) {
    if (cfg.telemetry.observer == nullptr) {
      std::fprintf(stderr,
                   "--snapshot-period needs a trace to land in; add --trace "
                   "or --run-dir\n");
      return 2;
    }
    cfg.telemetry.snapshot_period = opt.snapshot_period;
  }
  std::unique_ptr<obs::SpanRecorder> span_recorder;
  if (opt.spans) {
    if (cfg.telemetry.observer == nullptr) {
      std::fprintf(stderr,
                   "--spans needs a trace to land in; add --trace or "
                   "--run-dir\n");
      return 2;
    }
    span_recorder = std::make_unique<obs::SpanRecorder>(
        cfg.telemetry.observer, &network, fabric::kDardQueryBytes,
        fabric::kDardReplyBytes);
    cfg.telemetry.spans = span_recorder.get();
  }

  const auto result = harness::run_experiment(network, cfg);

  if (trace_sink != nullptr) {
    trace_sink->flush();
    std::fprintf(stderr, "wrote %zu trace events to %s\n",
                 trace_sink->written(), opt.trace_path.c_str());
  }
  if (!opt.metrics_path.empty()) {
    std::ofstream out(opt.metrics_path);
    if (!out) {
      std::fprintf(stderr, "cannot open metrics file: %s\n",
                   opt.metrics_path.c_str());
      return 2;
    }
    metrics.write_csv(out);
  }
  if (!opt.samples_path.empty() && result.series != nullptr) {
    std::ofstream out(opt.samples_path);
    if (!out) {
      std::fprintf(stderr, "cannot open samples file: %s\n",
                   opt.samples_path.c_str());
      return 2;
    }
    result.series->write_link_csv(out);
  }
  if (!opt.agg_samples_path.empty() && result.series != nullptr) {
    std::ofstream out(opt.agg_samples_path);
    if (!out) {
      std::fprintf(stderr, "cannot open aggregate samples file: %s\n",
                   opt.agg_samples_path.c_str());
      return 2;
    }
    result.series->write_aggregate_csv(out);
  }
  std::string profile_path;
  if (opt.profile && !opt.run_dir.empty()) {
    profile_path =
        (std::filesystem::path(opt.run_dir) / harness::kProfileFile).string();
    std::ofstream out(profile_path);
    if (!out) {
      std::fprintf(stderr, "cannot open profile file: %s\n",
                   profile_path.c_str());
      return 2;
    }
    profiler.write_csv(out);
  }

  std::string control_bytes_path;
  if (span_recorder != nullptr && !opt.run_dir.empty()) {
    control_bytes_path =
        (std::filesystem::path(opt.run_dir) / harness::kControlBytesFile)
            .string();
    std::ofstream out(control_bytes_path);
    if (!out) {
      std::fprintf(stderr, "cannot open control-bytes file: %s\n",
                   control_bytes_path.c_str());
      return 2;
    }
    span_recorder->write_link_csv(out);
  }

  if (!opt.run_dir.empty()) {
    auto manifest = harness::build_manifest(network, cfg, result);
    manifest.argv.assign(argv + 1, argv + argc);
    manifest.topology = opt.topo;
    manifest.pattern = opt.pattern;
    // Record only artifacts that landed inside the run dir, by their name
    // relative to it — a relocated run dir stays self-contained.
    const auto relative_name = [&](const std::string& path) -> std::string {
      const auto p = std::filesystem::path(path);
      return p.parent_path() == std::filesystem::path(opt.run_dir)
                 ? p.filename().string()
                 : std::string();
    };
    manifest.trace_file = relative_name(opt.trace_path);
    manifest.metrics_file = relative_name(opt.metrics_path);
    manifest.profile_file = relative_name(profile_path);
    manifest.control_bytes_file = relative_name(control_bytes_path);
    if (result.series != nullptr) {
      manifest.link_samples_file = relative_name(opt.samples_path);
      manifest.agg_samples_file = relative_name(opt.agg_samples_path);
    }
    const auto manifest_path =
        std::filesystem::path(opt.run_dir) / harness::kManifestFile;
    std::ofstream out(manifest_path);
    if (!out) {
      std::fprintf(stderr, "cannot open manifest file: %s\n",
                   manifest_path.string().c_str());
      return 2;
    }
    harness::write_manifest_json(out, manifest);
  }

  if (opt.csv) {
    std::printf("metric,value\n");
    std::printf("scheduler,%s\n", result.scheduler.c_str());
    std::printf("flows,%zu\n", result.flows);
    std::printf("avg_transfer_s,%.4f\n", result.avg_transfer_time);
    std::printf("p50_transfer_s,%.4f\n",
                result.transfer_times.percentile(0.5));
    std::printf("p90_transfer_s,%.4f\n",
                result.transfer_times.percentile(0.9));
    std::printf("p99_transfer_s,%.4f\n",
                result.transfer_times.percentile(0.99));
    std::printf("path_switches_p90,%.0f\n",
                result.path_switch_percentile(0.9));
    std::printf("path_switches_max,%.0f\n", result.max_path_switches());
    std::printf("peak_elephants,%zu\n", result.peak_elephants);
    std::printf("control_bytes,%llu\n",
                static_cast<unsigned long long>(result.control_bytes));
    std::printf("reroutes,%zu\n", result.reroutes);
    // Span rows only under --spans, so default CSV output stays
    // byte-identical to a build without the recorder.
    if (opt.spans) {
      std::printf("span_count,%llu\n",
                  static_cast<unsigned long long>(result.span_count));
      std::printf("span_messages,%llu\n",
                  static_cast<unsigned long long>(result.span_messages));
      std::printf("span_bytes,%llu\n",
                  static_cast<unsigned long long>(result.span_bytes));
      std::printf("goodput_bytes,%llu\n",
                  static_cast<unsigned long long>(result.goodput_bytes));
      std::printf("control_overhead_ratio,%.8f\n",
                  result.control_overhead_ratio());
    }
    if (cfg.substrate == harness::Substrate::Packet) {
      std::printf("retransmissions,%llu\n",
                  static_cast<unsigned long long>(result.retransmissions));
      std::printf("packet_drops,%llu\n",
                  static_cast<unsigned long long>(result.packet_drops));
      std::printf("retransmission_rate_mean,%.4f\n",
                  result.retransmission_rates.empty()
                      ? 0.0
                      : result.retransmission_rates.mean());
    }
    // Recovery rows appear only under an active plan, so fault-free CSV
    // output stays byte-identical to the pre-fault-subsystem harness.
    if (cfg.faults.active()) {
      std::printf("faults_injected,%llu\n",
                  static_cast<unsigned long long>(result.faults_injected));
      std::printf("queries_attempted,%llu\n",
                  static_cast<unsigned long long>(
                      result.recovery.queries_attempted));
      std::printf(
          "queries_lost,%llu\n",
          static_cast<unsigned long long>(result.recovery.queries_lost));
      std::printf("goodput_baseline_bps,%.0f\n",
                  result.recovery.baseline_goodput);
      std::printf("goodput_dip_bps,%.0f\n", result.recovery.dip_goodput);
      std::printf("goodput_dip_frac,%.4f\n", result.recovery.dip_fraction);
      std::printf("time_to_recover_s,%.4f\n",
                  result.recovery.time_to_recover);
      std::printf("starvation_s,%.4f\n",
                  result.recovery.starvation_seconds);
      std::printf("agent_crashes,%llu\n",
                  static_cast<unsigned long long>(
                      result.recovery.agent_crashes));
      std::printf("agent_restarts,%llu\n",
                  static_cast<unsigned long long>(
                      result.recovery.agent_restarts));
      std::printf("reconvergence_s,%.4f\n",
                  result.recovery.reconvergence_s);
      std::printf("churn_window_moves,%llu\n",
                  static_cast<unsigned long long>(
                      result.recovery.churn_window_moves));
    }
  } else {
    std::printf("%s on %s (%zu hosts, %s substrate), %s pattern, "
                "%.2f flows/s/host for %.0fs\n",
                result.scheduler.c_str(), opt.topo.c_str(),
                network.hosts().size(), harness::to_string(cfg.substrate),
                opt.pattern.c_str(), opt.rate, opt.duration);
    std::printf("  flows completed:    %zu\n", result.flows);
    std::printf("  avg transfer time:  %.2f s  (p50 %.2f, p90 %.2f, p99 "
                "%.2f)\n",
                result.avg_transfer_time,
                result.transfer_times.percentile(0.5),
                result.transfer_times.percentile(0.9),
                result.transfer_times.percentile(0.99));
    std::printf("  path switches p90:  %.0f (max %.0f)\n",
                result.path_switch_percentile(0.9),
                result.max_path_switches());
    std::printf("  peak elephants:     %zu\n", result.peak_elephants);
    std::printf("  control traffic:    %.1f KB/s mean, %.1f KB/s peak\n",
                result.control_mean_rate / 1000.0,
                result.control_peak_rate / 1000.0);
    std::printf("  reroutes:           %zu\n", result.reroutes);
    if (opt.spans)
      std::printf("  control spans:      %llu spans, %llu messages, %llu "
                  "bytes (%.4f%% of goodput)\n",
                  static_cast<unsigned long long>(result.span_count),
                  static_cast<unsigned long long>(result.span_messages),
                  static_cast<unsigned long long>(result.span_bytes),
                  result.control_overhead_ratio() * 100.0);
    if (cfg.substrate == harness::Substrate::Packet)
      std::printf("  retransmissions:    %llu (%llu drops, mean rate "
                  "%.4f)\n",
                  static_cast<unsigned long long>(result.retransmissions),
                  static_cast<unsigned long long>(result.packet_drops),
                  result.retransmission_rates.empty()
                      ? 0.0
                      : result.retransmission_rates.mean());
    if (cfg.faults.active()) {
      std::printf("  faults injected:    %llu transitions\n",
                  static_cast<unsigned long long>(result.faults_injected));
      if (result.recovery.queries_attempted > 0)
        std::printf("  control loss:       %llu of %llu query exchanges\n",
                    static_cast<unsigned long long>(
                        result.recovery.queries_lost),
                    static_cast<unsigned long long>(
                        result.recovery.queries_attempted));
      if (result.recovery.baseline_goodput > 0) {
        std::printf("  goodput dip:        %.2f -> %.2f Gbps (%.0f%% deep)\n",
                    result.recovery.baseline_goodput / 1e9,
                    result.recovery.dip_goodput / 1e9,
                    result.recovery.dip_fraction * 100.0);
        if (result.recovery.time_to_recover >= 0)
          std::printf("  time to recover:    %.2f s (to %.0f%% of baseline)\n",
                      result.recovery.time_to_recover,
                      cfg.faults.recovery_fraction * 100.0);
        else
          std::printf("  time to recover:    never (within this run)\n");
        std::printf("  starvation:         %.2f s under %.0f%% of baseline\n",
                    result.recovery.starvation_seconds,
                    cfg.faults.starvation_fraction * 100.0);
      }
      if (result.recovery.agent_crashes > 0 ||
          result.recovery.agent_restarts > 0) {
        std::printf("  daemon churn:       %llu crashes, %llu restarts\n",
                    static_cast<unsigned long long>(
                        result.recovery.agent_crashes),
                    static_cast<unsigned long long>(
                        result.recovery.agent_restarts));
        if (result.recovery.reconvergence_s >= 0)
          std::printf("  reconvergence:      %.2f s to the first accepted "
                      "round (%llu moves in the %.1f s churn window)\n",
                      result.recovery.reconvergence_s,
                      static_cast<unsigned long long>(
                          result.recovery.churn_window_moves),
                      cfg.faults.churn_window);
        else if (result.recovery.agent_restarts > 0)
          std::printf("  reconvergence:      no accepted round after the "
                      "last restart (within this run)\n");
      }
    }
    // Wall-clock phase profile — host time, so only in the human-readable
    // report (CSV output stays deterministic for a given scenario).
    std::printf("  wall clock:         %.2f s (setup %.2f, run %.2f, "
                "collect %.2f)\n",
                result.timings.total_s(), result.timings.setup_s,
                result.timings.run_s, result.timings.collect_s);
    if (!opt.metrics_path.empty())
      std::printf("  metrics:            %s\n", metrics.summary().c_str());
    if (opt.profile) std::printf("  profile:\n%s", profiler.summary().c_str());
    if (!opt.run_dir.empty())
      std::printf("  run dir:            %s\n", opt.run_dir.c_str());
  }
  return 0;
}
