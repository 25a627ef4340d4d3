#include "passes.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "baselines/ecmp.h"
#include "dard/dard_agent.h"
#include "fabric/auditor.h"
#include "fabric/snapshot.h"
#include "fabric/wire.h"
#include "flowsim/simulator.h"
#include "harness/manifest.h"
#include "obs/profiler.h"
#include "obs/samplers.h"
#include "obs/spans.h"
#include "obs/trace.h"
#include "pktsim/agent_router.h"
#include "pktsim/session.h"
#include "scope/report.h"
#include "scope/run_loader.h"
#include "shims.h"
#include "topology/builders.h"
#include "topology/path_gen.h"

namespace perfbench {

using namespace dard;
using obs::ProfileSection;

namespace {

// The harness default and bench_hyperscale's: rates settle every 20 ms.
constexpr double kReallocInterval = 0.02;
// Placements kept for the path-layer replay (window arrivals, in order).
constexpr std::size_t kReplayPairs = 4096;
// Auditor period in the observed pass (simulated seconds).
constexpr double kAuditPeriod = 1.0;

bool is_packet(const Workload& w) { return w.substrate == Substrate::Packet; }

core::DardConfig dard_config(const Workload& w, std::uint64_t seed) {
  core::DardConfig c;  // the paper's: query 1 s, rounds 5 s + U[0,5] s, 10 Mbps
  c.seed = seed ^ 0xD42D;
  if (is_packet(w)) {
    // The packet intervals of Fig 13/14: transfers last seconds, so
    // monitors query every 0.25 s and rounds fire every 0.5 s + U[0,0.5] s.
    c.query_interval = 0.25;
    c.schedule_base = 0.5;
    c.schedule_jitter = 0.5;
    c.delta = 1 * kMbps;
  }
  return c;
}

double elephant_threshold(const Workload& w) {
  return is_packet(w) ? 0.25 : 1.0;
}

std::unique_ptr<fabric::ControlAgent> make_agent(const Workload& w,
                                                 std::uint64_t seed) {
  if (!w.dard) return std::make_unique<baselines::EcmpAgent>();
  return std::make_unique<core::DardAgent>(dard_config(w, seed));
}

std::uint64_t counter(const obs::MetricsRegistry& m, const std::string& name) {
  const auto it = m.counters().find(name);
  return it == m.counters().end() ? 0 : it->second.value;
}

double share(double seconds, double window_s) {
  return window_s > 0 ? seconds / window_s : 0;
}

double per(double a, double b) { return b > 0 ? a / b : 0; }

// Replays the window's placements through the path layer standalone: every
// set built whole (PathGenerator::all, what a PathRepository miss costs),
// only the placed path built (PathGenerator::path), and lookups through a
// fresh default-capacity PathRepository.
void replay_paths(const topo::Topology& t, const std::vector<PlacedPair>& pairs,
                  std::map<std::string, double>* layers) {
  std::size_t sink = 0;
  const topo::PathGenerator gen(t);
  auto start = Clock::now();
  for (const PlacedPair& p : pairs) sink += gen.all(p.src_tor, p.dst_tor).size();
  const double all_s = seconds_since(start);
  start = Clock::now();
  for (const PlacedPair& p : pairs)
    sink += gen.path(p.src_tor, p.dst_tor, p.index).links.size();
  const double path_s = seconds_since(start);
  topo::PathRepository repo(t);
  start = Clock::now();
  for (const PlacedPair& p : pairs)
    sink += repo.tor_paths(p.src_tor, p.dst_tor).size();
  const double lookup_s = seconds_since(start);
  volatile std::size_t keep = sink;  // the built paths are used
  (void)keep;
  const double n = static_cast<double>(pairs.size());
  (*layers)["topology.set_us"] = per(all_s * 1e6, n);
  (*layers)["topology.path_us"] = per(path_s * 1e6, n);
  (*layers)["topology.lookup_us"] = per(lookup_s * 1e6, n);
}

// The program's run-dir telemetry, wired the way `dardsim --run-dir --spans
// --snapshot-period=1` wires it: JSONL trace, control-plane spans, 1 s
// snapshots, the metrics registry, and link/aggregate samples every 0.5 s.
// The directory lives on disk under the checkout (the page cache; nothing
// is synced) and is removed when the pass ends.
class RunDir {
 public:
  RunDir(std::filesystem::path dir, const topo::Topology& t)
      : dir_(std::move(dir)), topo_(&t) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    trace_file_.open(dir_ / harness::kTraceFile);
  }
  ~RunDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

  [[nodiscard]] bool open() const { return trace_file_.good(); }
  [[nodiscard]] obs::SimObserver* trace_observer() { return &trace_; }
  [[nodiscard]] double trace_bytes() const {
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(dir_ / harness::kTraceFile, ec);
    return ec ? 0 : static_cast<double>(bytes);
  }

  // Spans report through `observer` (whatever the simulator has installed).
  void attach(flowsim::FlowSimulator& sim, obs::SimObserver* observer) {
    spans_ = std::make_unique<obs::SpanRecorder>(
        observer, topo_, fabric::kDardQueryBytes, fabric::kDardReplyBytes);
    sim.set_spans(spans_.get());
    spans_->set_id_allocator([&sim] { return sim.next_cause_id(); });
    sampler_ = std::make_unique<obs::TimeSeriesSampler>(sim, 0.5);
    sampler_->start();
    snapshots_ = std::make_unique<fabric::SnapshotEmitter>(
        sim, 1.0,
        [&sim, scratch = std::vector<double>{}](obs::SnapshotStats* s) mutable {
          s->active_elephants = sim.active_elephants();
          s->path_store_bytes = static_cast<double>(sim.path_store_bytes());
          sim.link_loads(&scratch);
          double max_util = 0;
          for (std::size_t l = 0; l < scratch.size(); ++l) {
            const Bps cap = sim.link_state().capacity(
                LinkId(static_cast<LinkId::value_type>(l)));
            if (cap > 0)
              max_util = std::max(max_util, std::min(scratch[l] / cap, 1.0));
          }
          s->max_utilization = max_util;
          double throughput = 0;
          for (const FlowId id : sim.active_flows())
            throughput += sim.rate_of(id);
          s->throughput_bps = throughput;
        });
    snapshots_->start();
  }

  // Writes what dardsim writes when its run ends: the last sample and
  // snapshot, metrics.csv, the sample CSVs, control_bytes.csv, manifest.json.
  void flush(const obs::MetricsRegistry& m, const harness::ExperimentConfig& cfg,
             harness::ExperimentResult result) {
    sampler_->sample_now();
    const obs::TimeSeries series = sampler_->take();
    snapshots_->emit_now();
    sink_.flush();
    trace_file_.flush();
    write(harness::kMetricsFile, [&](std::ostream& os) { m.write_csv(os); });
    write(harness::kLinkSamplesFile,
          [&](std::ostream& os) { series.write_link_csv(os); });
    write(harness::kAggSamplesFile,
          [&](std::ostream& os) { series.write_aggregate_csv(os); });
    write(harness::kControlBytesFile,
          [&](std::ostream& os) { spans_->write_link_csv(os); });
    const obs::SpanTotals& spans = spans_->totals();
    result.span_count = spans.spans;
    result.span_messages = spans.messages;
    result.span_bytes = spans.bytes;
    harness::RunManifest manifest = harness::build_manifest(*topo_, cfg, result);
    manifest.topology = "fattree";
    manifest.pattern = traffic::to_string(cfg.workload.pattern.kind);
    manifest.trace_file = harness::kTraceFile;
    manifest.metrics_file = harness::kMetricsFile;
    manifest.link_samples_file = harness::kLinkSamplesFile;
    manifest.agg_samples_file = harness::kAggSamplesFile;
    manifest.control_bytes_file = harness::kControlBytesFile;
    write(harness::kManifestFile, [&](std::ostream& os) {
      harness::write_manifest_json(os, manifest);
    });
  }

  // The offline analysis a user runs next: `dardscope report` and
  // `dardscope spans` on the directory, rendered to text.
  void analyze(std::uint64_t control_bytes, PassResult* r) {
    const std::size_t lines = sink_.written();
    r->trace_lines = static_cast<double>(lines);
    scope::RunData run;
    std::string err;
    auto start = Clock::now();
    const bool loaded = scope::load_run(dir_.string(), &run, &err);
    r->load_s = seconds_since(start);
    if (!loaded) {
      r->problems.push_back("load_run: " + err);
      return;
    }
    std::ostringstream out;
    start = Clock::now();
    const scope::Report report = scope::build_report(run);
    scope::write_text(out, report);
    r->report_s = seconds_since(start);
    start = Clock::now();
    const scope::SpansReport spans = scope::build_spans_report(run);
    scope::write_spans_text(out, spans);
    r->spans_s = seconds_since(start);
    if (report.trace_events != lines)
      r->problems.push_back("report read " +
                            std::to_string(report.trace_events) +
                            " trace events of " + std::to_string(lines));
    if (!report.causes.clean())
      r->problems.push_back("report: moves with dangling causes");
    if (!spans.audit.clean())
      r->problems.push_back("spans report: dangling spans");
    if (spans.audit.bytes != control_bytes)
      r->problems.push_back("span bytes " + std::to_string(spans.audit.bytes) +
                            " != accountant bytes " +
                            std::to_string(control_bytes));
  }

 private:
  template <class Body>
  void write(const char* name, Body&& body) {
    std::ofstream out(dir_ / name);
    body(out);
  }

  std::filesystem::path dir_;
  const topo::Topology* topo_;
  std::ofstream trace_file_;
  obs::JsonlTraceSink sink_{trace_file_};
  obs::TraceObserver trace_{sink_};
  std::unique_ptr<obs::SpanRecorder> spans_;
  std::unique_ptr<obs::TimeSeriesSampler> sampler_;
  std::unique_ptr<fabric::SnapshotEmitter> snapshots_;
};

// Per-event attribution of the traced fluid window. Section totals are read
// around every EventQueue::run_next; a dispatch's wall time is split into
// the agent calls it made (AgentProxy), the DARD round or refresh it ran
// (profiler), the leaf sections it ran (path enumeration, max-min, trace
// emission), and the dispatch's own remainder (queue, flow bookkeeping).
// Leaves that ran in a round or refresh event outside any agent call are
// counted as nested in that round or refresh.
class EventAttribution {
 public:
  EventAttribution(const obs::Profiler& profiler, const AgentProxy& agent,
                   const ObserverProxy& observer)
      : profiler_(&profiler), agent_(&agent), observer_(&observer) {}

  // Runs one step event by event: a sentinel scheduled at `until` marks its
  // end, so events run in exactly the order run_until(until) runs them.
  void step(flowsim::EventQueue& q, double until) {
    bool reached = false;
    q.schedule(until, [&reached] { reached = true; });
    while (!reached && q.pending() > 0) {
      const Reading before = read();
      const auto start = Clock::now();
      q.run_next();
      const double wall = seconds_since(start);
      if (reached) break;  // the sentinel is not a program event
      account(before, read(), wall);
      queue_peak_ = std::max(queue_peak_, q.pending());
    }
  }

  [[nodiscard]] const std::vector<double>& dispatch_s() const {
    return dispatch_;
  }
  [[nodiscard]] double dispatch_self_s() const { return dispatch_self_; }
  [[nodiscard]] double round_self_s() const { return round_self_; }
  [[nodiscard]] double refresh_self_s() const { return refresh_self_; }
  [[nodiscard]] std::size_t queue_peak() const { return queue_peak_; }

 private:
  struct Reading {
    double leaves = 0;
    double calls = 0;
    double call_leaves = 0;
    double round = 0;
    double refresh = 0;
  };

  [[nodiscard]] Reading read() const {
    const CallTally calls = agent_->all_calls();
    return {profiler_->section(ProfileSection::PathEnumeration).total() +
                profiler_->section(ProfileSection::MaxMinRealloc).total() +
                observer_->emit_calls().total_s,
            calls.total_s, calls.leaf_s,
            profiler_->section(ProfileSection::DardRound).total(),
            profiler_->section(ProfileSection::MonitorRefresh).total()};
  }

  void account(const Reading& a, const Reading& b, double wall) {
    double loose = (b.leaves - a.leaves) - (b.call_leaves - a.call_leaves);
    const double round = b.round - a.round;
    const double refresh = b.refresh - a.refresh;
    if (round > 0) {
      const double nested = std::min(loose, round);
      round_self_ += round - nested;
      loose -= nested;
    } else if (refresh > 0) {
      const double nested = std::min(loose, refresh);
      refresh_self_ += refresh - nested;
      loose -= nested;
    }
    dispatch_self_ += wall - (b.calls - a.calls) - round - refresh - loose;
    dispatch_.push_back(wall);
  }

  const obs::Profiler* profiler_;
  const AgentProxy* agent_;
  const ObserverProxy* observer_;
  std::vector<double> dispatch_;
  double dispatch_self_ = 0;
  double round_self_ = 0;
  double refresh_self_ = 0;
  std::size_t queue_peak_ = 0;
};

// Fills the per-layer metrics every substrate shares from the window's
// profiler, registry and proxy readings.
void common_layers(const obs::Profiler& prof, const obs::MetricsRegistry& m,
                   const std::map<std::string, std::uint64_t>& m0,
                   const AgentProxy& agent, const CallTally& emit,
                   double window_s, double window_flows, PassResult* r) {
  auto& L = r->layers;
  const auto delta = [&](const std::string& name) {
    return static_cast<double>(counter(m, name) - m0.at(name));
  };
  const obs::LatencyHistogram& path = prof.section(ProfileSection::PathEnumeration);
  const obs::LatencyHistogram& maxmin = prof.section(ProfileSection::MaxMinRealloc);
  const obs::LatencyHistogram& round = prof.section(ProfileSection::DardRound);
  const obs::LatencyHistogram& refresh = prof.section(ProfileSection::MonitorRefresh);

  L["topology.sets_built"] = static_cast<double>(path.count());
  L["topology.sets_per_flow"] = per(static_cast<double>(path.count()), window_flows);
  L["topology.build_share"] = share(path.total(), window_s);

  L["flowsim.reallocs"] = delta("flowsim.reallocations");
  L["flowsim.realloc_full_ratio"] =
      per(delta("flowsim.realloc_full"), delta("flowsim.reallocations"));
  L["flowsim.maxmin_share"] = share(maxmin.total(), window_s);
  L["flowsim.maxmin_us_p50"] = maxmin.percentile(0.50) * 1e6;
  L["flowsim.maxmin_us_p99"] = maxmin.percentile(0.99) * 1e6;

  const CallTally& place = agent.place_calls();
  const CallTally& finished = agent.finished_calls();
  const CallTally& elephant = agent.elephant_calls();
  L["fabric.place_us_mean"] = place.mean_s() * 1e6;
  L["fabric.agent_share"] = share(place.self_s() + finished.self_s(), window_s);

  L["dard.refreshes"] = static_cast<double>(refresh.count());
  L["dard.refresh_us_p50"] = refresh.percentile(0.50) * 1e6;
  L["dard.rounds"] = static_cast<double>(round.count());
  L["dard.queries"] = delta("dard.monitor_queries");
  L["dard.moves"] = delta("dard.moves_accepted");
  // Evaluations that reached the δ test: a proposal or a δ rejection.
  L["dard.move_yield"] =
      per(delta("dard.moves_accepted"),
          delta("dard.moves_proposed") + delta("dard.delta_rejections"));
  L["dard.elephant_us_mean"] = elephant.mean_s() * 1e6;
  L["dard.elephant_share"] = share(elephant.self_s(), window_s);

  L["obs.emit_us_mean"] = emit.mean_s() * 1e6;
  L["obs.emit_share"] = share(emit.total_s, window_s);
}

const char* const kWatchedCounters[] = {
    "flowsim.reallocations", "flowsim.realloc_full", "dard.monitor_queries",
    "dard.moves_accepted",   "dard.moves_proposed",  "dard.delta_rejections"};

std::map<std::string, std::uint64_t> read_counters(const obs::MetricsRegistry& m) {
  std::map<std::string, std::uint64_t> out;
  for (const char* name : kWatchedCounters) out[name] = counter(m, name);
  return out;
}

// A lifecycle-event count the observer saw, against the total the program
// keeps without an observer.
void expect_count(PassResult* r, const char* what, std::uint64_t seen,
                  std::uint64_t kept) {
  if (seen != kept)
    r->problems.push_back("observer saw " + std::to_string(seen) + " " + what +
                          ", the program counted " + std::to_string(kept));
}

void audit_result(const fabric::Auditor& auditor, PassResult* r) {
  for (const auto& v : auditor.violations())
    r->problems.push_back("auditor at t=" + std::to_string(v.time) + ": " +
                          v.what);
}

PassResult run_fluid(const Workload& w,
                     const std::vector<flowsim::FlowSpec>& arrivals,
                     const PassOptions& opt) {
  const bool timed = opt.kind == PassKind::Timed;
  const bool traced = opt.kind == PassKind::Traced;
  const bool observed = opt.kind == PassKind::Observed;
  PassResult r;

  auto start = Clock::now();
  const topo::Topology topo = build_fabric(w);
  r.fabric_s = seconds_since(start);

  start = Clock::now();
  flowsim::SimConfig cfg;
  cfg.elephant_threshold = elephant_threshold(w);
  cfg.realloc_interval = kReallocInterval;
  if (!w.run_dir) {
    // bench_hyperscale's memory model: bounded per-flow state, no records.
    cfg.recycle_flow_ids = true;
    cfg.keep_records = false;
  }
  flowsim::FlowSimulator sim(topo, cfg);
  obs::Profiler profiler;
  obs::MetricsRegistry metrics;
  std::unique_ptr<RunDir> run_dir;
  if (w.run_dir) {
    run_dir = std::make_unique<RunDir>(
        std::filesystem::path(opt.run_root) / (w.name + "-" + opt.tag), topo);
    if (!run_dir->open()) r.problems.push_back("cannot create the run dir");
  }
  obs::SimObserver* const trace =
      run_dir != nullptr ? run_dir->trace_observer() : nullptr;
  ObserverProxy observer(trace, w.link_bps);
  obs::SimObserver* const installed =
      observed || (traced && trace != nullptr) ? &observer : trace;
  sim.set_observer(installed);
  if (traced || w.run_dir) sim.set_metrics(&metrics);
  if (traced) sim.set_profiler(&profiler);
  if (run_dir != nullptr) run_dir->attach(sim, installed);
  fabric::Auditor auditor(sim, kAuditPeriod, /*fail_fast=*/false);
  if (observed || traced) sim.set_auditor(&auditor);
  if (observed) auditor.start();
  const auto agent = make_agent(w, opt.seed);
  auto* const dard_agent = dynamic_cast<core::DardAgent*>(agent.get());
  AgentProxy proxy(
      *agent,
      [&] {
        return profiler.section(ProfileSection::PathEnumeration).total() +
               profiler.section(ProfileSection::MaxMinRealloc).total() +
               observer.emit_calls().total_s;
      },
      kReplayPairs);
  sim.set_agent(traced ? static_cast<fabric::ControlAgent*>(&proxy)
                       : agent.get());
  r.construct_s = seconds_since(start);

  // Arrivals are handed over one slice ahead of the step that runs them.
  std::size_t next = 0;
  const auto submit_until = [&](double until) {
    while (next < arrivals.size() && arrivals[next].arrival <= until)
      (void)sim.submit(arrivals[next++]);
  };
  const auto boundary = [&](int i) { return w.slice_s * i; };
  const int warm_steps = static_cast<int>(std::lround(w.warmup_s / w.slice_s));

  start = Clock::now();
  for (int i = 1; i <= warm_steps; ++i) {
    submit_until(boundary(i));
    sim.run_until(boundary(i));
  }
  r.warmup_s = seconds_since(start);
  r.rss_warmup_bytes = obs::Profiler::current_rss_bytes();

  const double w0 = boundary(warm_steps);
  const double w1 = boundary(warm_steps + opt.window_steps);
  observer.set_window(w0, w1);
  const std::size_t finished0 = sim.finished_flows();
  const std::uint64_t moves0 = dard_agent ? dard_agent->total_moves() : 0;
  const Bytes control0 = sim.accountant().total_bytes();
  const CallTally emit0 = observer.emit_calls();
  const auto counters0 = read_counters(metrics);
  profiler = obs::Profiler{};
  proxy.reset();
  EventAttribution events(profiler, proxy, observer);
  double submit_s = 0;
  std::uint64_t submits = 0;
  double queue_per_live = 0;
  double monitors_peak = 0;
  double path_store_peak = 0;

  r.step_s.reserve(static_cast<std::size_t>(opt.window_steps));
  const auto window_start = Clock::now();
  for (int i = warm_steps + 1; i <= warm_steps + opt.window_steps; ++i) {
    if (traced) {
      const std::size_t before = next;
      const auto t = Clock::now();
      submit_until(boundary(i));
      submit_s += seconds_since(t);
      submits += next - before;
    } else {
      submit_until(boundary(i));
    }
    const auto t = Clock::now();
    if (traced)
      events.step(sim.events(), boundary(i));
    else
      sim.run_until(boundary(i));
    r.step_s.push_back(seconds_since(t));
    if (traced) {
      queue_per_live += per(static_cast<double>(sim.events().pending()),
                            static_cast<double>(sim.active_flows().size()));
      if (dard_agent != nullptr)
        monitors_peak = std::max(
            monitors_peak, static_cast<double>(dard_agent->live_monitor_count()));
      path_store_peak = std::max(path_store_peak,
                                 static_cast<double>(sim.path_store_bytes()));
    }
  }
  r.window_s = seconds_since(window_start);

  r.window_flows = sim.finished_flows() - finished0;
  r.counts.submitted = sim.submitted_flows();
  r.counts.finished = sim.finished_flows();
  r.counts.moves = dard_agent ? dard_agent->total_moves() : 0;
  r.counts.control_bytes = sim.accountant().total_bytes();
  r.counts.control_msgs = sim.accountant().message_count();

  if (observed) {
    r.fct_s = observer.window_fct();
    r.window_elephants = observer.window_elephants();
    r.window_goodput_bytes = observer.window_bytes();
    r.window_moves = r.counts.moves - moves0;
    r.window_control_bytes = r.counts.control_bytes - control0;
    if (observer.line_rate_violations() > 0)
      r.problems.push_back(std::to_string(observer.line_rate_violations()) +
                           " flows finished faster than line rate");
    expect_count(&r, "window completions", observer.window_fct().size(),
                 r.window_flows);
    expect_count(&r, "arrivals", observer.arrivals(), r.counts.submitted);
    expect_count(&r, "completions", observer.completions(), r.counts.finished);
    expect_count(&r, "moves", observer.moves(), r.counts.moves);
    // Drain: no more arrivals; every submitted flow must finish.
    for (int i = warm_steps + opt.window_steps + 1;
         sim.finished_flows() < sim.submitted_flows() &&
         boundary(i) <= w1 + w.drain_cap_s;
         ++i)
      sim.run_until(boundary(i));
    r.unfinished = sim.submitted_flows() - sim.finished_flows();
  }
  if (!w.dard && r.counts.moves != 0)
    r.problems.push_back("ECMP moved flows");

  if (traced) {
    auditor.check_now();
    const double window = r.window_s;
    CallTally emit = observer.emit_calls();
    emit.calls -= emit0.calls;
    emit.total_s -= emit0.total_s;
    common_layers(profiler, metrics, counters0, proxy, emit, window,
                  static_cast<double>(r.window_flows), &r);
    auto& L = r.layers;
    const double events_n = static_cast<double>(events.dispatch_s().size());
    L["topology.cache_entries"] = static_cast<double>(sim.paths().cache_entries());
    L["flowsim.events"] = events_n;
    L["flowsim.events_per_flow"] = per(events_n, static_cast<double>(r.window_flows));
    L["flowsim.dispatch_share"] = share(events.dispatch_self_s(), window);
    L["flowsim.dispatch_us_p50"] = quantile(events.dispatch_s(), 0.50) * 1e6;
    L["flowsim.dispatch_us_p99"] = quantile(events.dispatch_s(), 0.99) * 1e6;
    L["flowsim.queue_peak"] = static_cast<double>(events.queue_peak());
    L["flowsim.queue_per_live_flow"] =
        per(queue_per_live, static_cast<double>(opt.window_steps));
    L["flowsim.submit_us_mean"] = per(submit_s * 1e6, static_cast<double>(submits));
    L["flowsim.submit_share"] = share(submit_s, window);
    L["flowsim.path_store_bytes"] = path_store_peak;
    L["fabric.control_bytes"] = static_cast<double>(r.counts.control_bytes - control0);
    L["dard.refresh_share"] = share(events.refresh_self_s(), window);
    L["dard.round_share"] = share(events.round_self_s(), window);
    L["dard.monitors_peak"] = monitors_peak;
    replay_paths(topo, proxy.pairs(), &r.layers);
  }
  if (observed || traced) audit_result(auditor, &r);

  if (run_dir != nullptr) {
    harness::ExperimentConfig ecfg;
    ecfg.workload.pattern.kind = w.pattern;
    ecfg.workload.mean_interarrival = w.mean_interarrival_s;
    ecfg.workload.flow_size = w.flow_size;
    ecfg.workload.duration = w1;
    ecfg.workload.seed = opt.seed;
    ecfg.scheduler = harness::SchedulerKind::Dard;
    ecfg.elephant_threshold = cfg.elephant_threshold;
    ecfg.realloc_interval = cfg.realloc_interval;
    ecfg.dard = dard_config(w, opt.seed);
    harness::ExperimentResult result;
    result.scheduler = agent->name();
    OnlineStats transfer;
    for (const flowsim::FlowRecord& rec : sim.records()) {
      transfer.add(rec.transfer_time());
      result.transfer_times.add(rec.transfer_time());
      result.goodput_bytes += rec.size;
    }
    result.flows = sim.records().size();
    result.avg_transfer_time = transfer.mean();
    result.peak_elephants = sim.peak_active_elephants();
    result.reroutes = r.counts.moves;
    result.control_bytes = sim.accountant().total_bytes();
    result.timings.setup_s = r.fabric_s + r.construct_s + r.warmup_s;
    result.timings.run_s = r.window_s;
    start = Clock::now();
    run_dir->flush(metrics, ecfg, std::move(result));
    r.flush_s = seconds_since(start);
    r.trace_bytes = run_dir->trace_bytes();
    // The analysis reads ~1.6 s per second of window, so the timed passes
    // skip it: the observed pass checks its outputs, the traced pass times it.
    if (!timed) run_dir->analyze(sim.accountant().total_bytes(), &r);
  }
  return r;
}

PassResult run_packet(const Workload& w,
                      const std::vector<flowsim::FlowSpec>& arrivals,
                      const PassOptions& opt) {
  const bool traced = opt.kind == PassKind::Traced;
  const bool observed = opt.kind == PassKind::Observed;
  PassResult r;

  auto start = Clock::now();
  const topo::Topology topo = build_fabric(w);
  r.fabric_s = seconds_since(start);

  start = Clock::now();
  core::DardAgent agent(dard_config(w, opt.seed));
  obs::Profiler profiler;
  obs::MetricsRegistry metrics;
  ObserverProxy observer(nullptr, w.link_bps);
  AgentProxy proxy(
      agent,
      [&] { return profiler.section(ProfileSection::PathEnumeration).total(); },
      kReplayPairs);
  auto router = std::make_unique<pktsim::AgentRouter>(
      topo,
      traced ? static_cast<fabric::ControlAgent&>(proxy)
             : static_cast<fabric::ControlAgent&>(agent),
      elephant_threshold(w));
  pktsim::AgentRouter& net = *router;
  if (observed) net.set_observer(&observer);
  if (traced) {
    net.set_metrics(&metrics);
    net.set_profiler(&profiler);
  }
  fabric::Auditor auditor(net, kAuditPeriod, /*fail_fast=*/false);
  if (observed || traced) net.set_auditor(&auditor);
  pktsim::PktSession session(topo, std::move(router));
  if (traced) session.set_profiler(&profiler);
  if (observed) auditor.start();
  // The harness hands every flow over before the run; so does this pass.
  std::vector<FlowId> ids;
  ids.reserve(arrivals.size());
  double submit_s = 0;
  for (const flowsim::FlowSpec& s : arrivals) {
    const auto t = Clock::now();
    ids.push_back(session.add_flow(
        {s.src_host, s.dst_host, s.size, s.arrival, s.src_port, s.dst_port}));
    submit_s += seconds_since(t);
  }
  r.construct_s = seconds_since(start);

  const auto boundary = [&](int i) { return w.slice_s * i; };
  const int warm_steps = static_cast<int>(std::lround(w.warmup_s / w.slice_s));
  start = Clock::now();
  for (int i = 1; i <= warm_steps; ++i) (void)session.run(boundary(i));
  r.warmup_s = seconds_since(start);
  r.rss_warmup_bytes = obs::Profiler::current_rss_bytes();

  const auto done_count = [&] {
    std::uint64_t n = 0;
    for (const FlowId id : ids) n += session.result(id).done() ? 1 : 0;
    return n;
  };
  const double w0 = session.events().now();
  const std::uint64_t finished0 = done_count();
  const std::uint64_t moves0 = agent.total_moves();
  const Bytes control0 = net.accountant().total_bytes();
  const std::uint64_t forwarded0 = session.network().forwarded();
  const std::uint64_t drops0 = session.network().drops();
  const std::uint64_t retx0 = session.total_retransmissions();
  const auto counters0 = read_counters(metrics);
  profiler = obs::Profiler{};
  proxy.reset();
  double queue_per_live = 0;
  double queue_peak = 0;
  double monitors_peak = 0;
  double scan_s = 0;
  const obs::LatencyHistogram& dispatch =
      profiler.section(ProfileSection::PktDispatch);

  r.step_s.reserve(static_cast<std::size_t>(opt.window_steps));
  const auto window_start = Clock::now();
  for (int i = warm_steps + 1; i <= warm_steps + opt.window_steps; ++i) {
    const std::uint64_t dispatched = traced ? dispatch.count() : 0;
    const auto t = Clock::now();
    (void)session.run(boundary(i));
    r.step_s.push_back(seconds_since(t));
    if (traced) {
      // PktSession::run calls all_done() before every event. Scans timed at
      // the step's end, where the flow list is as it was during the step,
      // stand for the step's own.
      constexpr int kScans = 16;
      const auto scan = Clock::now();
      for (int k = 0; k < kScans; ++k) (void)session.all_done();
      scan_s += seconds_since(scan) / kScans *
                static_cast<double>(dispatch.count() - dispatched);
      const auto pending = static_cast<double>(session.events().pending());
      queue_peak = std::max(queue_peak, pending);
      queue_per_live +=
          per(pending, static_cast<double>(net.active_flows().size()));
      monitors_peak = std::max(
          monitors_peak, static_cast<double>(agent.live_monitor_count()));
    }
  }
  r.window_s = seconds_since(window_start);
  const double w1 = session.events().now();

  r.counts.submitted = ids.size();
  r.counts.finished = done_count();
  r.window_flows = r.counts.finished - finished0;
  r.counts.moves = agent.total_moves();
  r.counts.control_bytes = net.accountant().total_bytes();
  r.counts.control_msgs = net.accountant().message_count();
  r.counts.forwarded = session.network().forwarded();
  r.counts.drops = session.network().drops();
  r.counts.retransmits = session.total_retransmissions();

  if (observed) {
    std::uint64_t too_fast = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const pktsim::TcpResult& res = session.result(ids[i]);
      if (!res.done()) continue;
      const double fct = res.transfer_time();
      if (fct * w.link_bps <
          static_cast<double>(arrivals[i].size) * 8.0 * (1 - 1e-6))
        ++too_fast;
      if (res.finish <= w0 || res.finish > w1) continue;
      r.fct_s.push_back(fct);
      r.window_goodput_bytes += arrivals[i].size;
      if (net.was_elephant(ids[i])) ++r.window_elephants;
    }
    if (too_fast > 0)
      r.problems.push_back(std::to_string(too_fast) +
                           " flows finished faster than line rate");
    // The packet substrate reports moves to its observer, not arrivals or
    // completions.
    expect_count(&r, "moves", observer.moves(), r.counts.moves);
    r.window_moves = r.counts.moves - moves0;
    r.window_control_bytes = r.counts.control_bytes - control0;
    (void)session.run(w1 + w.drain_cap_s);
    r.unfinished = ids.size() - done_count();
  }

  if (traced) {
    auditor.check_now();
    const double window = r.window_s;
    common_layers(profiler, metrics, counters0, proxy, CallTally{}, window,
                  static_cast<double>(r.window_flows), &r);
    auto& L = r.layers;
    const CallTally calls = proxy.all_calls();
    const double round = profiler.section(ProfileSection::DardRound).total();
    const double refresh =
        profiler.section(ProfileSection::MonitorRefresh).total();
    const double loose_leaves =
        profiler.section(ProfileSection::PathEnumeration).total() -
        calls.leaf_s;
    const auto events_n = static_cast<double>(dispatch.count());
    L["topology.cache_entries"] = static_cast<double>(net.paths().cache_entries());
    L["flowsim.events"] = events_n;
    L["flowsim.events_per_flow"] = per(events_n, static_cast<double>(r.window_flows));
    L["flowsim.dispatch_share"] = share(
        dispatch.total() - calls.total_s - round - refresh - loose_leaves,
        window);
    L["flowsim.dispatch_us_p50"] = dispatch.percentile(0.50) * 1e6;
    L["flowsim.dispatch_us_p99"] = dispatch.percentile(0.99) * 1e6;
    L["flowsim.queue_peak"] = queue_peak;
    L["flowsim.queue_per_live_flow"] =
        per(queue_per_live, static_cast<double>(opt.window_steps));
    L["flowsim.submit_us_mean"] =
        per(submit_s * 1e6, static_cast<double>(ids.size()));
    L["fabric.control_bytes"] = static_cast<double>(r.counts.control_bytes - control0);
    // Rounds and refreshes run inside dispatches; their nested path lookups
    // hit the 4-path sets cached at placement.
    L["dard.refresh_share"] = share(refresh, window);
    L["dard.round_share"] = share(round, window);
    L["dard.monitors_peak"] = monitors_peak;
    L["pktsim.dispatches"] = events_n;
    L["pktsim.dispatches_per_flow"] = per(events_n, static_cast<double>(r.window_flows));
    L["pktsim.dispatch_ns_p50"] = dispatch.percentile(0.50) * 1e9;
    L["pktsim.scan_share"] = share(scan_s, window);
    L["pktsim.forwarded"] = static_cast<double>(r.counts.forwarded - forwarded0);
    L["pktsim.drops"] = static_cast<double>(r.counts.drops - drops0);
    L["pktsim.retransmits"] = static_cast<double>(r.counts.retransmits - retx0);
    replay_paths(topo, proxy.pairs(), &r.layers);
  }
  if (observed || traced) audit_result(auditor, &r);
  return r;
}

}  // namespace

std::vector<Workload> workloads(bool toy) {
  using traffic::PatternKind;
  // Fluid slices of 5 ms put the 20 ms max-min settle in one step of four,
  // so p50 is a plain step and p99 a settling one; the run-dir slice holds
  // five settles. Warm-ups outlast a few flow lifetimes (mean FCT ~0.14 s,
  // ~3.6 s, ~1.5 s, ~3.7 s), so concurrency is steady when the window opens.
  std::vector<Workload> all = {
      {.name = "ecmp_mice_k32",
       .substrate = Substrate::Fluid,
       .k = 32,
       .link_bps = 1 * kGbps,
       .dard = false,
       .pattern = PatternKind::Staggered,
       .flow_size = 12'500'000,
       .mean_interarrival_s = 1.0,
       .slice_s = 0.005,
       .warmup_s = 1.0,
       .steps_per_second = 300,
       .repeats = 3,
       .drain_cap_s = 10},
      {.name = "dard_elephants_k32",
       .substrate = Substrate::Fluid,
       .k = 32,
       .link_bps = 1 * kGbps,
       .dard = true,
       .pattern = PatternKind::Staggered,
       .flow_size = 250'000'000,
       .mean_interarrival_s = 8.0,
       .slice_s = 0.005,
       .warmup_s = 10.0,
       .steps_per_second = 600,
       .repeats = 3,
       .drain_cap_s = 60},
      {.name = "pkt_dard_p4",
       .substrate = Substrate::Packet,
       .k = 4,
       .link_bps = 100 * kMbps,
       .dard = true,
       .pattern = PatternKind::Stride,
       .flow_size = 8 * kMiB,
       .mean_interarrival_s = 2.0,
       .slice_s = 0.01,
       .warmup_s = 3.0,
       .steps_per_second = 450,
       .repeats = 3,
       .drain_cap_s = 60},
      {.name = "dard_rundir_k8",
       .substrate = Substrate::Fluid,
       .k = 8,
       .link_bps = 1 * kGbps,
       .dard = true,
       .pattern = PatternKind::Stride,
       .flow_size = 128 * kMiB,
       .mean_interarrival_s = 2.0,
       .slice_s = 0.1,
       .warmup_s = 20.0,
       .steps_per_second = 700,
       .repeats = 3,
       .drain_cap_s = 60,
       .run_dir = true},
  };
  if (toy) {
    for (Workload& w : all) {
      w.k = 4;
      w.warmup_s = std::min(w.warmup_s, 2.0);
      w.repeats = 2;
    }
  }
  return all;
}

topo::Topology build_fabric(const Workload& w) {
  topo::FatTreeParams params;
  params.p = w.k;
  params.link_capacity = w.link_bps;
  return topo::build_fat_tree(params);
}

std::vector<flowsim::FlowSpec> make_arrivals(const topo::Topology& t,
                                             const Workload& w,
                                             std::uint64_t seed,
                                             double horizon_s) {
  // Staggered(.5, .3) as in the paper; stride uses the pod-size default.
  const traffic::DestinationPicker picker(
      t, traffic::PatternParams{.kind = w.pattern, .tor_p = 0.5, .pod_p = 0.3});
  const auto& hosts = t.hosts();
  // Per-host Poisson processes superpose into one Poisson process at the
  // aggregate rate with a uniformly random source. The process is
  // conditioned on its count in the warm-up and in the rest: given the
  // count, Poisson arrival times are uniform over the interval. Every seed
  // then offers the window the same number of flows, so seeds differ in
  // where flows land, not in how much work the window holds.
  const double rate = static_cast<double>(hosts.size()) / w.mean_interarrival_s;
  Rng rng(seed);
  std::vector<double> times;
  for (const auto& [from, to] : {std::pair{0.0, w.warmup_s},
                                 std::pair{w.warmup_s, horizon_s}}) {
    const auto n = static_cast<std::size_t>(std::llround((to - from) * rate));
    const std::size_t first = times.size();
    for (std::size_t i = 0; i < n; ++i) times.push_back(rng.uniform(from, to));
    std::sort(times.begin() + static_cast<std::ptrdiff_t>(first), times.end());
  }
  std::vector<flowsim::FlowSpec> out;
  out.reserve(times.size());
  std::uint16_t port = 0;
  for (const double at : times) {
    flowsim::FlowSpec s;
    s.src_host = hosts[rng.next_below(hosts.size())];
    s.dst_host = picker.pick(s.src_host, rng);
    s.size = w.flow_size;
    s.arrival = at;
    if (++port == 0) ++port;  // keep the hashed five-tuple varied, never 0
    s.src_port = port;
    s.dst_port = 80;
    out.push_back(s);
  }
  return out;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

PassResult run_pass(const Workload& w,
                    const std::vector<flowsim::FlowSpec>& arrivals,
                    const PassOptions& opt) {
  return is_packet(w) ? run_packet(w, arrivals, opt)
                      : run_fluid(w, arrivals, opt);
}

}  // namespace perfbench
