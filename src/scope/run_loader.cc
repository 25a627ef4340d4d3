#include "scope/run_loader.h"

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

}  // namespace

bool load_metrics_file(const std::string& path,
                       std::map<std::string, MetricRow>* out,
                       std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open metrics file: " + path;
    return false;
  }
  std::string line;
  std::getline(in, line);  // header: name,kind,count,value,mean,min,max
  while (std::getline(in, line)) {
    if (line.empty()) continue;
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
  }
  return true;
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

namespace {

bool load_link_samples_csv(const std::string& path,
                           std::vector<LinkSample>* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open link samples file: " + path;
    return false;
  }
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    LinkSample s;
    if (!parse_link_sample_row(line, &s)) {
      *error = "malformed link sample row in " + path + ": " + line;
      return false;
    }
    out->push_back(std::move(s));
  }
  return true;
}

bool load_agg_samples_csv(const std::string& path, std::vector<AggSample>* out,
                          std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open aggregate samples file: " + path;
    return false;
  }
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const CsvCells cells(line);
    if (cells.size() < 5) {
      *error = "malformed aggregate sample row in " + path + ": " + line;
      return false;
    }
    AggSample s;
    s.time = to_number(cells[0]);
    s.active_flows = to_number(cells[1]);
    s.active_elephants = to_number(cells[2]);
    s.throughput_bps = to_number(cells[3]);
    s.max_utilization = to_number(cells[4]);
    out->push_back(s);
  }
  return true;
}

bool load_control_bytes_csv(const std::string& path,
                            std::vector<ControlByteRow>* out,
                            std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open control bytes file: " + path;
    return false;
  }
  std::string line;
  std::getline(in, line);  // header: link,src,dst,control_bytes
  while (std::getline(in, line)) {
    if (line.empty()) continue;
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
  }
  return true;
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
    return load_trace_file(path, &out->trace, error);
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
  if (!load_trace_file(trace_path, &out->trace, error)) return false;

  if (const auto p = resolve("metrics", harness::kMetricsFile); !p.empty())
    if (!load_metrics_file(p, &out->metrics, error)) return false;
  if (const auto p = resolve("link_samples", harness::kLinkSamplesFile);
      !p.empty())
    if (!load_link_samples_csv(p, &out->link_samples, error)) return false;
  if (const auto p = resolve("agg_samples", harness::kAggSamplesFile);
      !p.empty())
    if (!load_agg_samples_csv(p, &out->agg_samples, error)) return false;
  if (const auto p = resolve("control_bytes", harness::kControlBytesFile);
      !p.empty())
    if (!load_control_bytes_csv(p, &out->control_bytes, error)) return false;
  return true;
}

}  // namespace dard::scope
