#include "scope/run_loader.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include "common/numtext.h"
#include "harness/manifest.h"
#include "scope/trace_load.h"

namespace dard::scope {

namespace {

namespace fs = std::filesystem;

// The first cells of one CSV line, split on commas (the repo's CSV writers
// never quote — link names and metric names contain no commas by
// construction). `count` is the line's whole cell count, which may exceed
// the cells kept; an empty line has none.
struct CsvCells {
  static constexpr std::size_t kKept = 7;
  std::array<std::string_view, kKept> cell;
  std::size_t count = 0;

  explicit CsvCells(std::string_view line) {
    if (line.empty()) return;
    for (;;) {
      const std::size_t comma = line.find(',');
      if (count < kKept) cell[count] = line.substr(0, comma);
      ++count;
      if (comma == std::string_view::npos) return;
      line.remove_prefix(comma + 1);
    }
  }
  [[nodiscard]] std::size_t size() const { return count; }
  [[nodiscard]] std::string_view operator[](std::size_t i) const {
    return cell[i];
  }
};

// A cell's number; empty and non-numeric cells read as 0.
double to_number(std::string_view s) {
  double v = 0;
  return numtext::parse_double(s, &v) ? v : 0;
}

// Streams `path` one line at a time through one reused buffer, skipping
// blank lines (and, with `header`, the first line). `fn(line, line_no)`
// returns false to stop the read, which then fails.
template <class Fn>
bool for_each_line(const std::string& path, bool header, const char* what,
                   std::string* error, Fn&& fn) {
  std::ifstream in(path);
  if (!in) {
    *error = std::string("cannot open ") + what + " file: " + path;
    return false;
  }
  std::string line;
  std::size_t line_no = 0;
  if (header && std::getline(in, line)) ++line_no;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && !fn(line, line_no)) return false;
  }
  return true;
}

}  // namespace

bool load_metrics_file(const std::string& path,
                       std::map<std::string, MetricRow>* out,
                       std::string* error) {
  // Header: name,kind,count,value,mean,min,max.
  return for_each_line(
      path, /*header=*/true, "metrics", error,
      [&](const std::string& line, std::size_t) {
        const CsvCells cells(line);
        if (cells.size() < 4) {
          *error = "malformed metrics row in " + path + ": " + line;
          return false;
        }
        MetricRow row;
        row.kind = std::string(cells[1]);
        row.count = to_number(cells[2]);
        row.value = to_number(cells[3]);
        if (cells.size() >= 7) {
          row.mean = to_number(cells[4]);
          row.min = to_number(cells[5]);
          row.max = to_number(cells[6]);
        }
        (*out)[std::string(cells[0])] = row;
        return true;
      });
}

bool parse_link_sample_row(const std::string& line, LinkSample* out) {
  const CsvCells cells(line);
  if (cells.size() < 7) return false;
  // The header row ("time,link,...") parses as zeros; reject it by the
  // non-numeric first cell instead of silently folding it in.
  if (cells[0].empty() ||
      (!std::isdigit(static_cast<unsigned char>(cells[0][0])) &&
       cells[0][0] != '-' && cells[0][0] != '.'))
    return false;
  out->time = to_number(cells[0]);
  out->link = static_cast<std::uint32_t>(to_number(cells[1]));
  out->src.assign(cells[2]);
  out->dst.assign(cells[3]);
  out->capacity_bps = to_number(cells[4]);
  out->used_bps = to_number(cells[5]);
  out->utilization = to_number(cells[6]);
  return true;
}

void RunData::add_event(const obs::TraceEvent& e) {
  using obs::TraceEventKind;
  const auto index =
      static_cast<std::ptrdiff_t>(analysis.totals().trace_events);
  analysis.on_event(e);

  const auto timeline = [&]() -> FlowTimeline& {
    FlowTimeline& t = timelines[e.flow.value()];
    t.flow = e.flow.value();
    return t;
  };
  switch (e.kind) {
    case TraceEventKind::FlowArrive: {
      FlowTimeline& t = timeline();
      t.arrive_time = e.time;
      t.src = e.src_host.value();
      t.dst = e.dst_host.value();
      t.size = static_cast<double>(e.size);
      t.first_path = e.path_to;
      break;
    }
    case TraceEventKind::FlowElephant:
      timeline().elephant_time = e.time;
      break;
    case TraceEventKind::FlowMove: {
      MoveStep step;
      step.time = e.time;
      step.from = e.path_from;
      step.to = e.path_to;
      step.bonf_delta = e.gain;
      step.cause_id = e.cause_id;
      if (e.cause_id != 0) {
        const auto it = round_events_.find(e.cause_id);
        if (it != round_events_.end()) step.cause_event = it->second;
      }
      timeline().moves.push_back(step);
      break;
    }
    case TraceEventKind::FlowComplete:
      timeline().complete_time = e.time;
      break;
    case TraceEventKind::DardRound:
      if (!e.accepted) break;
      agents.note_accepted_round(e.time);
      if (e.cause_id != 0) round_events_[e.cause_id] = index;
      break;
    case TraceEventKind::Fault:
      switch (e.fault_action) {
        case obs::FaultAction::AgentCrash:
          ++agents.crashes;
          break;
        case obs::FaultAction::AgentRestart:
          ++agents.restarts;
          agents.last_restart = e.time;
          break;
        case obs::FaultAction::HostDown:
        case obs::FaultAction::HostUp:
          ++agents.host_events;
          break;
        default:
          break;
      }
      break;
    case TraceEventKind::Span: {
      DaemonSpanSummary& d = daemons[e.src_host.value()];
      d.host = e.src_host.value();
      switch (e.span_kind) {
        case obs::SpanKind::Query:
          ++d.queries;
          d.attempts += e.span_attempts;
          d.timeouts += e.span_timeouts;
          d.lost += e.span_lost;
          break;
        case obs::SpanKind::Refresh:
          ++d.refreshes;
          d.bytes += e.span_bytes;
          // Its clean exchanges: one attempt each, no timeout, no loss.
          d.queries += e.span_clean;
          d.attempts += e.span_clean;
          break;
        case obs::SpanKind::Decision:
          ++d.decisions;
          break;
        case obs::SpanKind::Move:
          ++d.moves;
          d.max_chain_s = std::max(d.max_chain_s, e.span_duration);
          d.total_chain_s += e.span_duration;
          chains.push_back(SpanChain{e.time, e.src_host.value(),
                                     e.flow.valid() ? e.flow.value() : 0,
                                     e.parent_id, e.span_duration});
          break;
        case obs::SpanKind::None:
          break;
      }
      break;
    }
    case TraceEventKind::Snapshot:
      break;
  }
}

namespace {

bool read_trace(const std::string& path, RunData* out, std::string* error) {
  obs::TraceEvent e;
  std::string line_error;
  return for_each_line(
      path, /*header=*/false, "trace", error,
      [&](const std::string& line, std::size_t line_no) {
        if (!parse_trace_line(line, &e, &line_error)) {
          std::ostringstream os;
          os << path << ':' << line_no << ": " << line_error;
          *error = os.str();
          return false;
        }
        out->add_event(e);
        return true;
      });
}

bool read_link_samples(const std::string& path, RunData* out,
                       std::string* error) {
  LinkSample s;
  return for_each_line(path, /*header=*/true, "link samples", error,
                       [&](const std::string& line, std::size_t) {
                         if (!parse_link_sample_row(line, &s)) {
                           *error = "malformed link sample row in " + path +
                                    ": " + line;
                           return false;
                         }
                         out->analysis.on_link_sample(s);
                         return true;
                       });
}

// No analysis reads the aggregate samples; a malformed row still fails the
// load, as it always has.
bool check_agg_samples(const std::string& path, std::string* error) {
  return for_each_line(path, /*header=*/true, "aggregate samples", error,
                       [&](const std::string& line, std::size_t) {
                         if (CsvCells(line).size() >= 5) return true;
                         *error = "malformed aggregate sample row in " +
                                  path + ": " + line;
                         return false;
                       });
}

bool load_control_bytes_csv(const std::string& path,
                            std::vector<ControlByteRow>* out,
                            std::string* error) {
  // Header: link,src,dst,control_bytes.
  return for_each_line(
      path, /*header=*/true, "control bytes", error,
      [&](const std::string& line, std::size_t) {
        const CsvCells cells(line);
        if (cells.size() < 4) {
          *error = "malformed control bytes row in " + path + ": " + line;
          return false;
        }
        ControlByteRow r;
        r.link = static_cast<std::uint32_t>(to_number(cells[0]));
        r.src.assign(cells[1]);
        r.dst.assign(cells[2]);
        r.bytes = static_cast<std::uint64_t>(to_number(cells[3]));
        out->push_back(std::move(r));
        return true;
      });
}

// Artifact file name from the manifest's "files" object, else the canonical
// name; empty when the manifest explicitly recorded no such artifact.
std::string artifact_name(const json::Value* manifest, const char* key,
                          const char* canonical) {
  if (manifest == nullptr) return canonical;
  std::string error;
  bool ok = true;
  const json::Value* files = json::get_object(*manifest, "files", &error, &ok);
  if (files == nullptr) return canonical;
  std::string name;
  if (!json::get_string(*files, key, &name, &error)) return "";
  return name;
}

const json::Value* find_path(const json::Value* v, const std::string& dotted) {
  std::istringstream in(dotted);
  std::string part;
  while (v != nullptr && std::getline(in, part, '.')) {
    if (v->kind != json::Value::Kind::Object) return nullptr;
    const auto it = v->object.find(part);
    v = it == v->object.end() ? nullptr : it->second.get();
  }
  return v;
}

}  // namespace

std::string RunData::manifest_string(const std::string& key,
                                     std::string fallback) const {
  const json::Value* v = find_path(manifest.get(), key);
  return v != nullptr && v->kind == json::Value::Kind::String ? v->string
                                                              : fallback;
}

double RunData::manifest_number(const std::string& key, double fallback) const {
  return manifest_path_number(key, fallback);
}

double RunData::manifest_path_number(const std::string& dotted,
                                     double fallback) const {
  const json::Value* v = find_path(manifest.get(), dotted);
  if (v == nullptr) return fallback;
  if (v->kind == json::Value::Kind::Number) return v->number;
  if (v->kind == json::Value::Kind::Bool) return v->boolean ? 1 : 0;
  return fallback;
}

double RunData::metric_value(const std::string& name, double fallback) const {
  const auto it = metrics.find(name);
  return it == metrics.end() ? fallback : it->second.value;
}

bool load_run(const std::string& path, RunData* out, std::string* error) {
  out->source = path;
  std::error_code ec;
  out->is_directory = fs::is_directory(path, ec);

  if (!out->is_directory) {
    // Bare trace file: trace-only analyses.
    return read_trace(path, out, error);
  }

  const fs::path dir(path);
  const fs::path manifest_path = dir / harness::kManifestFile;
  if (fs::exists(manifest_path, ec)) {
    std::ifstream in(manifest_path);
    std::ostringstream buf;
    buf << in.rdbuf();
    auto parsed = json::parse(buf.str(), error);
    if (!parsed) {
      *error = manifest_path.string() + ": " + *error;
      return false;
    }
    double version = 0;
    if (!json::get_number(*parsed, "manifest_version", /*required=*/true, 0,
                          &version, error)) {
      *error = manifest_path.string() + ": " + *error;
      return false;
    }
    if (static_cast<int>(version) > harness::kManifestVersion) {
      std::ostringstream os;
      os << manifest_path.string() << ": manifest version "
         << static_cast<int>(version) << " is newer than this dardscope ("
         << harness::kManifestVersion << ')';
      *error = os.str();
      return false;
    }
    out->manifest = std::move(parsed);
  }

  const auto resolve = [&](const char* key,
                           const char* canonical) -> std::string {
    const std::string name =
        artifact_name(out->manifest.get(), key, canonical);
    if (name.empty()) return "";
    const fs::path p = dir / name;
    std::error_code exists_ec;
    return fs::exists(p, exists_ec) ? p.string() : "";
  };

  const std::string trace_path = resolve("trace", harness::kTraceFile);
  if (trace_path.empty()) {
    *error = "no trace file in run dir " + path + " (expected " +
             harness::kTraceFile + ")";
    return false;
  }
  if (!read_trace(trace_path, out, error)) return false;

  if (const auto p = resolve("metrics", harness::kMetricsFile); !p.empty())
    if (!load_metrics_file(p, &out->metrics, error)) return false;
  if (const auto p = resolve("link_samples", harness::kLinkSamplesFile);
      !p.empty())
    if (!read_link_samples(p, out, error)) return false;
  if (const auto p = resolve("agg_samples", harness::kAggSamplesFile);
      !p.empty())
    if (!check_agg_samples(p, error)) return false;
  if (const auto p = resolve("control_bytes", harness::kControlBytesFile);
      !p.empty())
    if (!load_control_bytes_csv(p, &out->control_bytes, error)) return false;
  return true;
}

}  // namespace dard::scope
