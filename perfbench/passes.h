// Workload table and the three kinds of pass the benchmark makes over a
// workload. Each pass builds its own fabric, simulator and agent from
// scratch, warms up, and then steps through the measured window.
//
//  * Timed: nothing but the program (on the run-dir workload, with the
//    program's own telemetry on, which is the product there). Host-time
//    metrics come from here.
//  * Observed: untimed; installs an ObserverProxy and a collect-mode
//    fabric::Auditor, then drains every flow. The simulated metrics and the
//    exact totals every other pass is checked against come from here, and
//    on the run-dir workload it checks the analysis of the run directory.
//  * Traced: the program's profiler and metrics registry switched on through
//    their public setters, the AgentProxy around the agent, and (fluid)
//    event-by-event stepping; gives the per-layer split.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "flowsim/flow.h"
#include "topology/topology.h"
#include "traffic/patterns.h"

namespace perfbench {

enum class Substrate : std::uint8_t { Fluid, Packet };
enum class PassKind : std::uint8_t { Timed, Observed, Traced };

struct Workload {
  std::string name;
  Substrate substrate = Substrate::Fluid;
  int k = 4;                           // fat-tree port count
  double link_bps = 1e9;               // every link
  bool dard = true;                    // scheduler: DARD, else ECMP
  dard::traffic::PatternKind pattern = dard::traffic::PatternKind::Stride;
  dard::Bytes flow_size = 0;
  double mean_interarrival_s = 1;      // per host (Poisson)
  double slice_s = 0.01;               // simulated time one step advances
  double warmup_s = 1;                 // simulated warm-up before the window
  double steps_per_second = 100;       // window steps per second of --seconds
  int repeats = 3;                     // timed passes per run
  double drain_cap_s = 60;             // simulated drain limit (observed pass)
  bool run_dir = false;                // run-dir telemetry is the product
};

// The four workloads at full scale, or shrunk to a k=4 fabric and a few
// flows for the self-test.
[[nodiscard]] std::vector<Workload> workloads(bool toy);

// Poisson arrivals over [0, horizon), generated from `seed` alone.
[[nodiscard]] std::vector<dard::flowsim::FlowSpec> make_arrivals(
    const dard::topo::Topology& t, const Workload& w, std::uint64_t seed,
    double horizon_s);

[[nodiscard]] dard::topo::Topology build_fabric(const Workload& w);

// Totals the program keeps without any observer, at the end of the window.
// Every pass of one seed must agree on all of them.
struct Counts {
  std::uint64_t submitted = 0;
  std::uint64_t finished = 0;
  std::uint64_t moves = 0;
  std::uint64_t control_bytes = 0;
  std::uint64_t control_msgs = 0;
  std::uint64_t forwarded = 0;  // packet substrate only
  std::uint64_t drops = 0;
  std::uint64_t retransmits = 0;

  bool operator==(const Counts&) const = default;
};

struct PassResult {
  // Set-up split: fabric build, construction, warm-up (host seconds).
  double fabric_s = 0;
  double construct_s = 0;
  double warmup_s = 0;
  double rss_warmup_bytes = 0;

  // Machine-speed probe rate around the pass over its nominal rate
  // (main.cc); host times multiplied by it read as at the nominal speed.
  double machine_scale = 1;

  double window_s = 0;               // wall of the measured window
  std::uint64_t window_flows = 0;    // flows completed in the window
  std::vector<double> step_s;        // wall of each step in the window
  Counts counts;

  // Observed pass only.
  std::vector<double> fct_s;         // window completions, simulated s
  std::uint64_t window_elephants = 0;
  std::uint64_t window_goodput_bytes = 0;
  std::uint64_t window_moves = 0;
  std::uint64_t window_control_bytes = 0;
  std::uint64_t unfinished = 0;      // flows left when the drain stopped

  // Run-dir workload: artifact flush and offline analysis (host seconds).
  double flush_s = 0;
  double load_s = 0;
  double report_s = 0;
  double spans_s = 0;
  double trace_bytes = 0;
  double trace_lines = 0;

  // Traced pass only: per-layer metrics by name.
  std::map<std::string, double> layers;

  // Output checks that failed, one line each; empty when all passed.
  std::vector<std::string> problems;
};

struct PassOptions {
  PassKind kind = PassKind::Timed;
  std::uint64_t seed = 1;
  int window_steps = 100;
  std::string run_root;  // parent of the run-dir workload's directories
  std::string tag;       // makes the run directory name unique
};

// Linear interpolation between order statistics; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(const std::vector<double>& v);

[[nodiscard]] PassResult run_pass(
    const Workload& w, const std::vector<dard::flowsim::FlowSpec>& arrivals,
    const PassOptions& opt);

}  // namespace perfbench
