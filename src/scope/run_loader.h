// Run-directory loader: dardscope's input side (DESIGN.md §12).
//
// A "run" is either a directory dardsim wrote with --run-dir (manifest +
// trace + metrics + sampler CSVs) or a bare trace.jsonl (trace-only
// analyses still work; everything fed by the other artifacts degrades to
// "not recorded"). The manifest is kept as a generic parsed JSON value plus
// typed accessors for the fields the reports use, so a newer manifest never
// breaks an older dardscope.
//
// The trace and the link samples are digested in one streaming pass as they
// are read: RunData keeps what the reports need, never the events or rows.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/json.h"
#include "obs/observer.h"
#include "scope/streaming.h"

namespace dard::scope {

// One metrics.csv row (obs::MetricsRegistry::write_csv). Latency rows carry
// mean/min/max; counters and gauges leave them at 0.
struct MetricRow {
  std::string kind;  // "counter" | "gauge" | "latency"
  double count = 0;
  double value = 0;
  double mean = 0;
  double min = 0;
  double max = 0;
};

// One link_samples.csv row.
struct LinkSample {
  double time = 0;
  std::uint32_t link = 0;
  std::string src;
  std::string dst;
  double capacity_bps = 0;
  double used_bps = 0;
  double utilization = 0;
};

// One control_bytes.csv row (obs::SpanRecorder::write_link_csv): wire bytes
// the control plane spent on one link over the whole run. Only written for
// --spans runs; zero-byte links are omitted at write time.
struct ControlByteRow {
  std::uint32_t link = 0;
  std::string src;
  std::string dst;
  std::uint64_t bytes = 0;
};

struct RunData {
  // `oscillation_window` is the convergence analysis's window in moves
  // (dardscope --window).
  explicit RunData(std::size_t oscillation_window = 4)
      : analysis(oscillation_window) {}

  std::string source;  // the path given on the command line
  bool is_directory = false;

  // Present only for a run directory with a manifest.json.
  std::unique_ptr<json::Value> manifest;

  std::map<std::string, MetricRow> metrics;       // empty = not recorded
  std::vector<ControlByteRow> control_bytes;      // empty = not recorded

  // The trace and the link samples, digested as they streamed in. The
  // analyzer is the one `dardscope live` runs; the members after it hold
  // what only the offline subcommands read.
  StreamingAnalyzer analysis;
  // Every flow's timeline by id (`flow`, `diff`).
  std::map<std::uint32_t, FlowTimeline> timelines;
  // Span activity per daemon host (`spans`).
  std::map<std::uint32_t, DaemonSpanSummary> daemons;
  // One chain per Move span, in trace order (`spans` sorts and caps them).
  std::vector<SpanChain> chains;
  // Daemon crashes and restarts, and the reconvergence after the last one.
  AgentChurn agents;

  // Feeds one trace event, in trace order; load_run calls it for every
  // line it reads (and hands link samples to analysis.on_link_sample).
  void add_event(const obs::TraceEvent& e);

  // Manifest lookups; fall back when the manifest (or the field) is absent.
  [[nodiscard]] std::string manifest_string(const std::string& key,
                                            std::string fallback = "") const;
  [[nodiscard]] double manifest_number(const std::string& key,
                                       double fallback = 0) const;
  // Dotted path into a nested object, e.g. "results.avg_transfer_s".
  [[nodiscard]] double manifest_path_number(const std::string& dotted,
                                            double fallback = 0) const;
  [[nodiscard]] double metric_value(const std::string& name,
                                    double fallback = 0) const;

 private:
  // Accepted DardRound id -> trace index of the latest such round, for
  // MoveStep::cause_event.
  std::unordered_map<std::uint64_t, std::ptrdiff_t> round_events_;
};

// Loads a run from `path` into a freshly constructed *out: a directory
// (manifest-directed artifact set, falling back to canonical file names
// when manifest.json is missing) or a single JSONL trace file. The trace and
// the link samples are read in one pass each and digested line by line;
// aggregate-sample rows, which no analysis reads, are checked and dropped.
// Returns false and fills *error on any malformed/unreadable input.
[[nodiscard]] bool load_run(const std::string& path, RunData* out,
                            std::string* error);

// Standalone artifact readers, shared with the live tailer (which reads
// artifacts piecemeal while dardsim is still writing them).
[[nodiscard]] bool load_metrics_file(const std::string& path,
                                     std::map<std::string, MetricRow>* out,
                                     std::string* error);
// One link_samples.csv data row -> LinkSample. Returns false on malformed
// rows (and on the header row, which starts with a non-numeric cell).
[[nodiscard]] bool parse_link_sample_row(const std::string& line,
                                         LinkSample* out);

}  // namespace dard::scope
