// dardbench: one workload of the repository's benchmark, in this process.
//
//   dardbench --workload NAME --seed N --seconds S --trace 0|1
//             [--toy] [--run-root DIR]
//
// Over one set of seeded arrivals it makes an untimed observed pass, the
// workload's timed passes and, with --trace 1, one traced pass (passes.h).
// It prints one JSON object: correct / attempted / failed, the metrics
// (end-to-end with --trace 0, per-layer with --trace 1), the exact totals
// every pass must agree on, sample counts, and any failed output check.
// perfbench/run.py builds and wraps it.
//
// Host times are scaled to one machine speed: every timed and traced pass runs
// between two machine-speed probes (probe.h), and its times are multiplied
// by the probes' mean rate over kProbeNominal. On a 4-core VM shared with
// other tenants, raw flows_per_s varied up to 2x between runs minutes apart.
// Scaling cut its spread over ten runs (IQR/median) from 0.17 to 0.07 on
// pkt_dard_p4 and left the fluid workloads within 0.01 of raw in a period of
// fast fluctuation; in a period of slow drift it cut dard_elephants_k32 from
// 0.27 to 0.11. The raw windows and the scales are in the detail line.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "passes.h"
#include "probe.h"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool toy = false;
  std::string run_root = ".bench_build/run";
};

// Probe rate (walk steps per microsecond) that scaled host times assume.
// On the 4-core VM the benchmark was tuned on, the probe read 3.5 to 6.
constexpr double kProbeNominal = 5.0;
constexpr double kProbeSeconds = 0.2;

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--toy") {
      a->toy = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a->seconds > 0) || a->seconds > 3600) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a->trace = v[0] - '0';
    } else if (flag == "--run-root") {
      a->run_root = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c >= 0x20 ? c : ' ');
  }
  return out;
}

// Scaled host seconds of a pass's set-up and window.
double setup_of(const PassResult& p) {
  return (p.fabric_s + p.construct_s + p.warmup_s) * p.machine_scale;
}
double window_of(const PassResult& p) { return p.window_s * p.machine_scale; }

template <class F>
std::vector<double> each(const std::vector<PassResult>& passes, F&& f) {
  std::vector<double> out;
  for (const PassResult& p : passes) out.push_back(f(p));
  return out;
}

// Throughput and step times come from the best timed pass: contention from
// other tenants only ever slows a pass down, and the best of three passes
// halved the run-to-run spread of flows_per_s against their median on the
// same VM (IQR/median over ten runs: 0.047 against 0.082). Set-up time
// stays a median. Every timed pass completes the same flows (their totals
// are checked), so the shortest window is the best flows_per_s.
double min_window_s(const std::vector<PassResult>& timed) {
  const std::vector<double> w = each(timed, window_of);
  return *std::min_element(w.begin(), w.end());
}

double best_step_ms(const std::vector<PassResult>& timed, double q) {
  const std::vector<double> per_pass = each(timed, [q](const PassResult& p) {
    return quantile(p.step_s, q) * p.machine_scale;
  });
  return *std::min_element(per_pass.begin(), per_pass.end()) * 1e3;
}

std::vector<Metric> end_to_end(const std::vector<PassResult>& timed,
                               const PassResult& observed, double peak_rss) {
  double fct_sum = 0;
  for (const double f : observed.fct_s) fct_sum += f;
  const double fct_n = static_cast<double>(observed.fct_s.size());
  return {
      {"flows_per_s", "1/s", static_cast<double>(timed.front().window_flows) /
                                 min_window_s(timed)},
      {"step_ms_p50", "ms", best_step_ms(timed, 0.50)},
      {"step_ms_p99", "ms", best_step_ms(timed, 0.99)},
      {"peak_rss_mib", "MiB", peak_rss / (1024.0 * 1024.0)},
      {"setup_s", "s", median(each(timed, setup_of))},
      {"fct_mean_s", "s", fct_n > 0 ? fct_sum / fct_n : 0},
      // p90: the packet workload completes ~120 flows in its window, so p99
      // would rest on one flow; p90 has at least ten beyond it everywhere.
      {"fct_p90_s", "s", quantile(observed.fct_s, 0.90)},
  };
}

// Layers whose self time is attributed; the rest of the window is
// unattributed_share.
const char* const kShares[] = {
    "topology.build_share", "flowsim.maxmin_share", "flowsim.dispatch_share",
    "flowsim.submit_share", "fabric.agent_share",   "dard.refresh_share",
    "dard.round_share",     "dard.elephant_share",  "pktsim.scan_share",
    "obs.emit_share"};

// name, unit: the per-layer metrics in output order.
const char* const kLayerMetrics[][2] = {
    {"topology.fabric_build_s", "s"},   {"flowsim.construct_s", "s"},
    {"warmup_s", "s"},                  {"rss_warmup_mib", "MiB"},
    {"unattributed_share", "ratio"},    {"trace_overhead", "ratio"},
    {"topology.sets_built", "count"},   {"topology.sets_per_flow", "ratio"},
    {"topology.build_share", "ratio"},  {"topology.cache_entries", "count"},
    {"topology.set_us", "us"},          {"topology.path_us", "us"},
    {"topology.lookup_us", "us"},       {"flowsim.reallocs", "count"},
    {"flowsim.realloc_full_ratio", "ratio"},
    {"flowsim.maxmin_share", "ratio"},  {"flowsim.maxmin_us_p50", "us"},
    {"flowsim.maxmin_us_p99", "us"},    {"flowsim.events", "count"},
    {"flowsim.events_per_flow", "ratio"},
    {"flowsim.dispatch_share", "ratio"},
    {"flowsim.dispatch_us_p50", "us"},  {"flowsim.dispatch_us_p99", "us"},
    {"flowsim.queue_peak", "count"},    {"flowsim.queue_per_live_flow", "ratio"},
    {"flowsim.submit_us_mean", "us"},   {"flowsim.submit_share", "ratio"},
    {"flowsim.path_store_bytes", "bytes"},
    {"fabric.place_us_mean", "us"},     {"fabric.agent_share", "ratio"},
    {"fabric.control_bytes", "bytes"},  {"fabric.control_ppm", "ppm"},
    {"dard.refreshes", "count"},        {"dard.refresh_us_p50", "us"},
    {"dard.refresh_share", "ratio"},    {"dard.rounds", "count"},
    {"dard.round_share", "ratio"},      {"dard.queries", "count"},
    {"dard.moves", "count"},            {"dard.move_yield", "ratio"},
    {"dard.moves_per_elephant", "ratio"},
    {"dard.monitors_peak", "count"},    {"dard.elephant_us_mean", "us"},
    {"dard.elephant_share", "ratio"},   {"pktsim.dispatches", "count"},
    {"pktsim.dispatches_per_flow", "ratio"},
    {"pktsim.dispatch_ns_p50", "ns"},   {"pktsim.scan_share", "ratio"},
    {"pktsim.forwarded", "count"},      {"pktsim.drops", "count"},
    {"pktsim.retransmits", "count"},    {"obs.trace_bytes", "bytes"},
    {"obs.emit_us_mean", "us"},         {"obs.emit_share", "ratio"},
    {"obs.flush_s", "s"},               {"scope.load_s", "s"},
    {"scope.report_s", "s"},            {"scope.spans_s", "s"},
    {"scope.lines_per_s", "1/s"},
};

std::vector<Metric> per_layer(const std::vector<PassResult>& timed,
                              const PassResult& observed,
                              const PassResult& traced) {
  std::map<std::string, double> v = traced.layers;
  // The set-up split of the timed pass whose set-up was the median.
  std::vector<std::size_t> order(timed.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return setup_of(timed[a]) < setup_of(timed[b]);
  });
  const PassResult& mid = timed[order[(order.size() - 1) / 2]];
  v["topology.fabric_build_s"] = mid.fabric_s * mid.machine_scale;
  v["flowsim.construct_s"] = mid.construct_s * mid.machine_scale;
  v["warmup_s"] = mid.warmup_s * mid.machine_scale;
  // The first pass of the process, before any heap reuse.
  v["rss_warmup_mib"] = observed.rss_warmup_bytes / (1024.0 * 1024.0);
  v["trace_overhead"] = window_of(traced) / median(each(timed, window_of));
  double attributed = 0;
  for (const char* s : kShares) attributed += v[s];
  v["unattributed_share"] = 1 - attributed;
  v["fabric.control_ppm"] =
      observed.window_goodput_bytes == 0
          ? 0
          : static_cast<double>(observed.window_control_bytes) * 1e6 /
                static_cast<double>(observed.window_goodput_bytes);
  v["dard.moves_per_elephant"] =
      observed.window_elephants == 0
          ? 0
          : static_cast<double>(observed.window_moves) /
                static_cast<double>(observed.window_elephants);
  v["obs.trace_bytes"] = timed.front().trace_bytes;  // the same every pass
  v["obs.flush_s"] = median(each(timed, [](const PassResult& p) {
    return p.flush_s;
  }));
  v["scope.load_s"] = traced.load_s;
  v["scope.report_s"] = traced.report_s;
  v["scope.spans_s"] = traced.spans_s;
  v["scope.lines_per_s"] =
      traced.load_s > 0 ? traced.trace_lines / traced.load_s : 0;
  std::vector<Metric> out;
  for (const auto& [name, unit] : kLayerMetrics) out.push_back({name, unit, v[name]});
  return out;
}

void print_counts(const Counts& c) {
  std::printf(
      "\"counts\": {\"submitted\": %llu, \"finished\": %llu, \"moves\": %llu, "
      "\"control_bytes\": %llu, \"control_msgs\": %llu, \"forwarded\": %llu, "
      "\"drops\": %llu, \"retransmits\": %llu}",
      static_cast<unsigned long long>(c.submitted),
      static_cast<unsigned long long>(c.finished),
      static_cast<unsigned long long>(c.moves),
      static_cast<unsigned long long>(c.control_bytes),
      static_cast<unsigned long long>(c.control_msgs),
      static_cast<unsigned long long>(c.forwarded),
      static_cast<unsigned long long>(c.drops),
      static_cast<unsigned long long>(c.retransmits));
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dardbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--toy] [--run-root DIR]\n");
    return 2;
  }
  const std::vector<Workload> all = workloads(args.toy);
  const Workload* w = nullptr;
  for (const Workload& c : all)
    if (c.name == args.workload) w = &c;
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s; known:", args.workload.c_str());
    for (const Workload& c : all) std::fprintf(stderr, " %s", c.name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }

  // Every timed pass leaves at least ten steps beyond its p99.
  constexpr int kMinSteps = 1000;
  const int steps =
      args.toy ? 20
               : std::max(kMinSteps,
                          static_cast<int>(std::lround(
                              args.seconds * w->steps_per_second / w->repeats)));
  const double horizon =
      w->warmup_s + w->slice_s * static_cast<double>(steps);
  const auto arrivals =
      make_arrivals(build_fabric(*w), *w, args.seed, horizon);

  PassOptions opt;
  opt.seed = args.seed;
  opt.window_steps = steps;
  opt.run_root = args.run_root;
  int pass_no = 0;
  const auto pass = [&](PassKind kind) {
    opt.kind = kind;
    opt.tag = std::to_string(args.seed) + "-" + std::to_string(pass_no++);
    return run_pass(*w, arrivals, opt);
  };
  PeakRss rss;
  const auto probed = [&](PassKind kind) {
    const double before = probe_steps_per_us(kProbeSeconds, &rss);
    PassResult p = pass(kind);
    const double after = probe_steps_per_us(kProbeSeconds, &rss);
    p.machine_scale = (before + after) / (2 * kProbeNominal);
    if (!(before > 0 && after > 0)) {
      p.problems.push_back("the machine-speed probe failed");
      p.machine_scale = 1;
    }
    return p;
  };
  const PassResult observed = pass(PassKind::Observed);
  std::vector<PassResult> timed;
  for (int i = 0; i < w->repeats; ++i) timed.push_back(probed(PassKind::Timed));
  const PassResult traced =
      args.trace == 1 ? probed(PassKind::Traced) : PassResult{};

  // Every pass runs the same simulation; one whose totals differ from the
  // observed pass failed, and so did each flow it handed in.
  std::vector<std::string> problems = observed.problems;
  std::uint64_t attempted = observed.counts.submitted;
  std::uint64_t failed = observed.unfinished;
  if (observed.unfinished > 0)
    problems.push_back(std::to_string(observed.unfinished) +
                       " flows unfinished after the drain");
  std::vector<const PassResult*> checked;
  for (const PassResult& p : timed) checked.push_back(&p);
  if (args.trace == 1) checked.push_back(&traced);
  for (const PassResult* p : checked) {
    attempted += p->counts.submitted;
    problems.insert(problems.end(), p->problems.begin(), p->problems.end());
    if (!(p->counts == observed.counts)) {
      failed += p->counts.submitted;
      problems.push_back("a pass's totals differ from the observed pass's");
    }
  }

  const std::vector<Metric> metrics =
      args.trace == 1 ? per_layer(timed, observed, traced)
                      : end_to_end(timed, observed, rss.bytes());
  for (const Metric& m : metrics)
    if (!std::isfinite(m.value)) problems.push_back(m.name + " is not finite");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              problems.empty() && failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  std::printf("\"metrics\": {");
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(),
                std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit.c_str());
  std::printf("}, ");
  print_counts(observed.counts);
  std::printf(", \"samples\": {\"timed_passes\": %zu, \"steps_per_pass\": %d, "
              "\"fct_flows\": %zu, \"window_flows\": %llu}",
              timed.size(), steps, observed.fct_s.size(),
              static_cast<unsigned long long>(observed.window_flows));
  // Each timed pass's raw window and machine scale.
  std::printf(", \"pass_window_s\": [");
  for (std::size_t i = 0; i < timed.size(); ++i)
    std::printf("%s%.6f", i > 0 ? ", " : "", timed[i].window_s);
  std::printf("], \"machine_scale\": [");
  for (std::size_t i = 0; i < timed.size(); ++i)
    std::printf("%s%.4f", i > 0 ? ", " : "", timed[i].machine_scale);
  std::printf("], \"problems\": [");
  for (std::size_t i = 0; i < problems.size(); ++i)
    std::printf("%s\"%s\"", i > 0 ? ", " : "", escape(problems[i]).c_str());
  std::printf("]}\n");
  return 0;
}
