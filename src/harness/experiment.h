// Experiment runner shared by benches, examples and integration tests.
//
// Wires a topology, a scheduling agent and a generated workload into a
// simulation substrate, runs every flow to completion, and reduces the
// paper's metrics: transfer-time distribution, path-switch distribution,
// control overhead, improvement over ECMP.
//
// Two substrates share one control plane (fabric::ControlAgent):
//  * Fluid  — flowsim's event-driven max-min rate simulator; fast, exact
//    rates, no packets. The default, and bit-identical to the pre-substrate
//    harness.
//  * Packet — pktsim's TCP New Reno over drop-tail queues behind an
//    AgentRouter adapter; slower, but measures what rate abstraction hides:
//    retransmissions, drops, reordering.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/ecmp.h"
#include "baselines/hedera.h"
#include "common/stats.h"
#include "dard/dard_agent.h"
#include "faults/injector.h"
#include "faults/recovery.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/observer.h"
#include "obs/samplers.h"
#include "pktsim/session.h"
#include "traffic/patterns.h"

namespace dard::obs {
class SpanRecorder;
}  // namespace dard::obs

namespace dard::harness {

// Texcp is packet-only: it scatters individual packets, which has no fluid
// analogue. Every other scheduler runs on either substrate.
enum class SchedulerKind : std::uint8_t { Ecmp, Pvlb, Dard, Hedera, Texcp };

enum class Substrate : std::uint8_t { Fluid, Packet };

[[nodiscard]] const char* to_string(SchedulerKind k);
[[nodiscard]] const char* to_string(Substrate s);

// Optional observability wiring, all disabled by default. Observer and
// registry are borrowed (caller-owned, must outlive run_experiment); a
// positive sample_period additionally collects an obs::TimeSeries into the
// result. With everything at its default, the experiment runs exactly as it
// would have before telemetry existed — same events, same RNG draws, same
// numbers.
struct TelemetryConfig {
  obs::SimObserver* observer = nullptr;    // e.g. an obs::TraceObserver
  obs::MetricsRegistry* metrics = nullptr;
  Seconds sample_period = 0;               // > 0 enables time-series sampling
  // In-sim profiler (DESIGN.md §13): scoped timers on the hot paths plus
  // queue/flow/memory gauges. Borrowed; null (the default) disables
  // profiling entirely — the instrumented paths then pay one null check
  // each and never read the clock.
  obs::Profiler* profiler = nullptr;
  // > 0 emits periodic run-health Snapshot trace events (schema v3) through
  // `observer`; requires an observer to land anywhere. 0 disables.
  Seconds snapshot_period = 0;
  // Control-plane span recorder (DESIGN.md §17). Borrowed; the harness
  // attaches it to the substrate's DataPlane and binds its span-id
  // allocator to the run's cause-id space. Null (the default) keeps every
  // instrumented daemon site at one branch and the run bit-identical.
  obs::SpanRecorder* spans = nullptr;
};

struct ExperimentConfig {
  traffic::WorkloadParams workload;
  SchedulerKind scheduler = SchedulerKind::Ecmp;
  Substrate substrate = Substrate::Fluid;
  Seconds elephant_threshold = 1.0;
  // Rate-reallocation settle interval (see SimConfig::realloc_interval);
  // 20 ms batches recomputation without visibly perturbing multi-second
  // transfers. Fluid substrate only.
  Seconds realloc_interval = 0.02;
  core::DardConfig dard;
  baselines::HederaConfig hedera;
  Seconds pvlb_repick_interval = 10.0;
  // Capacity-aware path choice for whichever scheduler runs: ECMP becomes
  // WCMP, pVLB re-picks capacity-proportionally, Hedera's and DARD's
  // default routing hashes by weight. A no-op (bit-identical results) on
  // uniform-capacity fabrics — the selector detects symmetry and collapses
  // to the plain five-tuple hash.
  bool weighted_paths = false;
  TelemetryConfig telemetry;

  // Fault injection (inactive by default: an empty plan leaves the run
  // bit-identical to one without the fault subsystem). TeXCP has no
  // fault-injection adapter; an active plan with Texcp aborts.
  faults::FaultConfig faults;

  // Runtime invariant auditing (fabric::Auditor, DESIGN.md §16): periodic
  // read-only walks checking byte conservation, link refcounts, dead-cable
  // rates and agent-incarnation monotonicity, plus one final pass at
  // collect. Any violation aborts (fail-fast). Also switched on by the
  // DARD_AUDIT environment variable — how ctest and the CI smokes enable it
  // globally without threading a flag through every call site. TeXCP is not
  // a fabric::DataPlane and is never audited.
  bool audit = false;

  // Packet-substrate knobs (ignored on Fluid).
  pktsim::TcpConfig tcp;
  Bytes queue_bytes = 0;           // 0 = PacketNetwork default
  Seconds packet_max_time = 3600;  // abort threshold for a stuck simulation
  Seconds texcp_probe_interval = 0.010;
  Seconds texcp_flowlet_gap = 0;   // > 0 = the flowlet future-work variant
};

// Wall-clock phase profile of one run_experiment call (host time, never
// simulated time — reading it cannot perturb the simulation). setup covers
// substrate/agent/telemetry construction and workload generation, run the
// event loop itself, collect the metric reduction afterwards. Recorded on
// every run; the cost is four steady_clock reads.
struct PhaseTimings {
  double setup_s = 0;
  double run_s = 0;
  double collect_s = 0;

  [[nodiscard]] double total_s() const { return setup_s + run_s + collect_s; }
};

struct ExperimentResult {
  std::string scheduler;
  std::size_t flows = 0;
  double avg_transfer_time = 0;
  Cdf transfer_times;        // every flow
  Cdf path_switch_counts;    // elephants only (only they can switch)
  std::size_t peak_elephants = 0;
  // The data plane's control ledger (fabric::ControlPlaneAccountant):
  // bytes, rates, and messages by fabric::ControlCategory.
  Bytes control_bytes = 0;
  double control_peak_rate = 0;  // bytes/s over the generation window
  double control_mean_rate = 0;
  std::array<std::uint64_t, fabric::kControlCategories> control_messages{};
  std::size_t reroutes = 0;  // accepted moves (DARD) / reassignments (Hedera)

  // Overhead-vs-goodput summary: payload bytes the workload delivered, and
  // what fraction of that the control plane spent on the wire. Always
  // computed (goodput is just the workload), near-zero for non-DARD runs.
  Bytes goodput_bytes = 0;
  [[nodiscard]] double control_overhead_ratio() const {
    return goodput_bytes == 0
               ? 0
               : static_cast<double>(control_bytes) /
                     static_cast<double>(goodput_bytes);
  }

  // Span-recorder totals (telemetry.spans attached; zeros otherwise).
  std::uint64_t span_count = 0;
  std::uint64_t span_messages = 0;  // control messages attributed to spans
  std::uint64_t span_bytes = 0;     // wire bytes attributed to spans

  // Packet substrate only (all zero / empty on Fluid): what the rate
  // abstraction cannot see.
  Cdf retransmission_rates;  // per flow, paper's retransmitted/unique metric
  std::uint64_t retransmissions = 0;
  std::uint64_t packet_drops = 0;

  // Fault experiments only (config.faults.active()): recovery reduction and
  // the count of fault transitions actually applied. Zero-valued otherwise.
  faults::RecoveryMetrics recovery;
  std::uint64_t faults_injected = 0;

  // Collected when telemetry.sample_period > 0; null otherwise. Shared so
  // results stay cheap to copy.
  std::shared_ptr<const obs::TimeSeries> series;

  // Wall-clock phase profile (always recorded; nondeterministic by nature,
  // so never fold it into anything a determinism test hashes).
  PhaseTimings timings;

  [[nodiscard]] double path_switch_percentile(double q) const;
  [[nodiscard]] double max_path_switches() const;
};

[[nodiscard]] std::unique_ptr<fabric::ControlAgent> make_agent(
    const ExperimentConfig& cfg);

[[nodiscard]] ExperimentResult run_experiment(const topo::Topology& t,
                                              const ExperimentConfig& cfg);

// The paper's Figure 4 metric: (avg_T(ECMP) - avg_T(other)) / avg_T(ECMP).
[[nodiscard]] double improvement_over(const ExperimentResult& baseline,
                                      const ExperimentResult& other);

// One independent cell of a sweep: a (topology, config) pair. The topology
// is borrowed and may be shared between cells (it is only read).
struct ExperimentCell {
  const topo::Topology* topology = nullptr;
  ExperimentConfig config;
};

// Runs every cell and returns results in cell order, using up to `jobs`
// worker threads (0 = hardware concurrency). Each cell gets its own
// simulator (fluid or packet), so per-cell results are bit-identical to a serial
// run_experiment() call — the determinism contract benches and tests rely
// on (see DESIGN.md "Performance"). Cells must not share TelemetryConfig
// observers or registries: those are written from the worker running the
// cell. `on_done`, if given, is called after each cell completes (cell
// index + result), serialized under an internal mutex.
[[nodiscard]] std::vector<ExperimentResult> run_experiments_parallel(
    const std::vector<ExperimentCell>& cells, unsigned jobs = 0,
    const std::function<void(std::size_t, const ExperimentResult&)>& on_done =
        nullptr);

}  // namespace dard::harness
