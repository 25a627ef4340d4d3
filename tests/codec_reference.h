// Test-only reference copies of the trace and sample codecs as they were
// before the to_chars writers and the pull tokenizer replaced them: the
// per-event std::ostringstream renderer, the stream-based sample CSV
// writers, the recursive-descent JSON parser and the json::Value-based
// trace line decoder. The codec tests hold the production code to these:
// byte-identical output, and the same accept/reject decisions and fields.
// The only intended difference is json::kMaxDepth, which this parser lacks.
// The renderer and the decoder also carry schema v6's refresh "clean" count
// and the readers' integer rule (a present integer field is a whole number
// its type holds, else the line fails), so the fuzzer holds both readers to
// one rule.
#pragma once

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "obs/observer.h"
#include "obs/samplers.h"
#include "scope/trace_load.h"

namespace dard::codec_ref {

using json::Value;

// ------------------------------------------------------------ renderer

namespace detail {

using namespace obs;

inline void field_id(std::ostringstream& os, const char* name,
                     std::uint32_t value) {
  os << ",\"" << name << "\":" << value;
}

inline void field_double(std::ostringstream& os, const char* name,
                         double value) {
  os << ",\"" << name << "\":" << value;
}

}  // namespace detail

inline std::string to_json(const obs::TraceEvent& e) {
  using namespace obs;
  using detail::field_double;
  using detail::field_id;
  std::ostringstream os;
  os << "{\"v\":" << kTraceSchemaVersion << ",\"kind\":\"" << to_string(e.kind)
     << "\",\"t\":" << e.time;
  switch (e.kind) {
    case TraceEventKind::FlowArrive:
      field_id(os, "flow", e.flow.value());
      field_id(os, "src", e.src_host.value());
      field_id(os, "dst", e.dst_host.value());
      os << ",\"size\":" << e.size;
      field_id(os, "path", e.path_to);
      break;
    case TraceEventKind::FlowElephant:
      field_id(os, "flow", e.flow.value());
      field_id(os, "path", e.path_to);
      break;
    case TraceEventKind::FlowMove:
      field_id(os, "flow", e.flow.value());
      field_id(os, "from", e.path_from);
      field_id(os, "to", e.path_to);
      field_double(os, "bonf_from", e.bonf_from);
      field_double(os, "bonf_to", e.bonf_to);
      field_double(os, "bonf_delta", e.gain);
      os << ",\"cause_id\":" << e.cause_id;
      break;
    case TraceEventKind::FlowComplete:
      field_id(os, "flow", e.flow.value());
      os << ",\"size\":" << e.size;
      break;
    case TraceEventKind::DardRound:
      field_id(os, "host", e.src_host.value());
      field_id(os, "dst_tor", e.dst_host.value());
      field_id(os, "worst_path", e.path_from);
      field_id(os, "best_path", e.path_to);
      field_double(os, "worst_bonf", e.bonf_from);
      field_double(os, "best_bonf", e.bonf_to);
      field_double(os, "est_gain", e.gain);
      field_double(os, "delta", e.delta_threshold);
      os << ",\"accepted\":" << (e.accepted ? "true" : "false");
      os << ",\"round_id\":" << e.cause_id;
      break;
    case TraceEventKind::Fault:
      os << ",\"action\":\"" << to_string(e.fault_action) << '"';
      // Cable transitions name the endpoints; control windows have none.
      if (e.src_host.valid()) field_id(os, "a", e.src_host.value());
      if (e.dst_host.valid()) field_id(os, "b", e.dst_host.value());
      os << ",\"fault_id\":" << e.cause_id;
      break;
    case TraceEventKind::Snapshot: {
      // Snapshots without a payload are meaningless; emit an empty one
      // rather than crash if a caller forgets to attach it.
      static const SnapshotStats kEmpty;
      const SnapshotStats& s = e.snapshot != nullptr ? *e.snapshot : kEmpty;
      os << ",\"seq\":" << s.seq;
      os << ",\"flows\":" << s.active_flows;
      os << ",\"elephants\":" << s.active_elephants;
      os << ",\"queue_depth\":" << s.event_queue_depth;
      field_double(os, "throughput_bps", s.throughput_bps);
      field_double(os, "max_utilization", s.max_utilization);
      field_double(os, "rss_bytes", s.rss_bytes);
      field_double(os, "path_store_bytes", s.path_store_bytes);
      os << ",\"counters\":{";
      for (std::size_t i = 0; i < s.counters.size(); ++i) {
        os << (i > 0 ? "," : "") << '"' << json::escape(s.counters[i].first)
           << "\":" << s.counters[i].second;
      }
      os << '}';
      os << ",\"profile\":[";
      for (std::size_t i = 0; i < s.profile.size(); ++i) {
        const ProfileSummary& p = s.profile[i];
        os << (i > 0 ? "," : "") << "{\"section\":\""
           << json::escape(p.section) << "\",\"count\":" << p.count;
        field_double(os, "total_s", p.total_s);
        field_double(os, "mean_s", p.mean_s);
        field_double(os, "p50_s", p.p50_s);
        field_double(os, "p95_s", p.p95_s);
        field_double(os, "p99_s", p.p99_s);
        field_double(os, "p999_s", p.p999_s);
        field_double(os, "max_s", p.max_s);
        os << '}';
      }
      os << ']';
      break;
    }
    case TraceEventKind::Span:
      os << ",\"span\":\"" << to_string(e.span_kind) << '"';
      os << ",\"id\":" << e.cause_id;
      os << ",\"parent\":" << e.parent_id;
      field_id(os, "host", e.src_host.value());
      // Query: the queried switch; Refresh: the monitor's destination ToR.
      if (e.dst_host.valid()) field_id(os, "peer", e.dst_host.value());
      if (e.flow.valid()) field_id(os, "flow", e.flow.value());
      os << ",\"attempts\":" << e.span_attempts;
      os << ",\"timeouts\":" << e.span_timeouts;
      os << ",\"lost\":" << e.span_lost;
      if (e.span_kind == SpanKind::Refresh)
        os << ",\"clean\":" << e.span_clean;
      os << ",\"bytes\":" << e.span_bytes;
      field_double(os, "dur_s", e.span_duration);
      os << ",\"ok\":" << (e.accepted ? "true" : "false");
      break;
  }
  os << '}';
  return os.str();
}


// ------------------------------------------------------------ sample CSVs

inline void write_link_csv(const obs::TimeSeries& ts, std::ostream& os,
                           bool include_idle = false) {
  const auto& links = ts.links;
  const auto& link_samples = ts.link_samples;
  os << "time,link,src,dst,capacity_bps,used_bps,utilization\n";
  // A link is "interesting" if any sample saw traffic on it.
  std::vector<bool> interesting(links.size(), include_idle);
  if (!include_idle) {
    for (const obs::LinkSample& s : link_samples)
      for (std::size_t l = 0; l < s.utilization.size(); ++l)
        if (s.utilization[l] > 0) interesting[l] = true;
  }
  for (const obs::LinkSample& s : link_samples) {
    for (std::size_t l = 0; l < s.utilization.size(); ++l) {
      if (!interesting[l]) continue;
      const obs::LinkMeta& meta = links[l];
      os << s.time << ',' << l << ',' << meta.src << ',' << meta.dst << ','
         << meta.capacity << ',' << s.utilization[l] * meta.capacity << ','
         << s.utilization[l] << '\n';
    }
  }
}

inline void write_aggregate_csv(const obs::TimeSeries& ts, std::ostream& os) {
  const auto& aggregate_samples = ts.aggregate_samples;
  os << "time,active_flows,active_elephants,throughput_bps,max_utilization\n";
  for (const obs::AggregateSample& s : aggregate_samples) {
    os << s.time << ',' << s.active_flows << ',' << s.active_elephants << ','
       << s.throughput_bps << ',' << s.max_utilization << '\n';
  }
}

// ------------------------------------------------------------ JSON parser

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  std::unique_ptr<Value> parse(std::string* error) {
    auto v = value();
    skip_ws();
    if (v != nullptr && pos_ != text_.size()) fail("trailing characters");
    if (failed_) {
      if (error != nullptr) *error = error_;
      return nullptr;
    }
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0)
      ++pos_;
  }

  void fail(const std::string& why) {
    if (failed_) return;
    failed_ = true;
    std::ostringstream os;
    os << why << " at offset " << pos_;
    error_ = os.str();
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::unique_ptr<Value> value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return nullptr;
    }
    const char c = text_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't' || c == 'f') return boolean();
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c)) != 0)
      return number();
    fail("unexpected character");
    return nullptr;
  }

  std::unique_ptr<Value> object() {
    consume('{');
    auto v = std::make_unique<Value>();
    v->kind = Value::Kind::Object;
    if (consume('}')) return v;
    do {
      skip_ws();
      auto key = string_value();
      if (key == nullptr) return nullptr;
      if (!consume(':')) {
        fail("expected ':'");
        return nullptr;
      }
      auto val = value();
      if (val == nullptr) return nullptr;
      v->object[key->string] = std::move(val);
    } while (consume(','));
    if (!consume('}')) {
      fail("expected '}'");
      return nullptr;
    }
    return v;
  }

  std::unique_ptr<Value> array() {
    consume('[');
    auto v = std::make_unique<Value>();
    v->kind = Value::Kind::Array;
    if (consume(']')) return v;
    do {
      auto val = value();
      if (val == nullptr) return nullptr;
      v->array.push_back(std::move(val));
    } while (consume(','));
    if (!consume(']')) {
      fail("expected ']'");
      return nullptr;
    }
    return v;
  }

  std::unique_ptr<Value> string_value() {
    if (!consume('"')) {
      fail("expected string");
      return nullptr;
    }
    auto v = std::make_unique<Value>();
    v->kind = Value::Kind::String;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          default:
            fail("unsupported escape");
            return nullptr;
        }
      }
      v->string.push_back(c);
    }
    if (pos_ >= text_.size()) {
      fail("unterminated string");
      return nullptr;
    }
    ++pos_;  // closing quote
    return v;
  }

  std::unique_ptr<Value> number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    auto v = std::make_unique<Value>();
    v->kind = Value::Kind::Number;
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    v->number = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || token.empty()) {
      fail("malformed number");
      return nullptr;
    }
    return v;
  }

  std::unique_ptr<Value> boolean() {
    auto v = std::make_unique<Value>();
    v->kind = Value::Kind::Bool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v->boolean = true;
      pos_ += 4;
      return v;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      v->boolean = false;
      pos_ += 5;
      return v;
    }
    fail("expected boolean");
    return nullptr;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  std::string error_;
};


inline std::unique_ptr<Value> parse(const std::string& text,
                                    std::string* error) {
  return Parser(text).parse(error);
}

// ------------------------------------------------------------ trace lines

namespace detail {

using obs::FaultAction;
using obs::TraceEventKind;
using scope::fault_action_from_string;
using scope::kind_from_string;
using scope::span_kind_from_string;

// Optional integer field of an unsigned 32- or 64-bit type: absent fields
// keep the TraceEvent default; a present one must be a whole number the
// type holds, else the line fails.
template <class UInt>
inline bool read_uint(const json::Value& obj, const char* key, UInt* out,
                      std::string* error) {
  constexpr bool k32 = std::numeric_limits<UInt>::digits == 32;
  if (obj.object.count(key) == 0) return true;
  double d = 0;
  if (!json::get_number(obj, key, /*required=*/true, 0, &d, error))
    return false;
  if (!(d >= 0 && d < (k32 ? 4294967296.0 : 18446744073709551616.0)) ||
      d != std::trunc(d)) {
    *error = std::string("field \"") + key + "\" must be an integer in [0, 2^" +
             (k32 ? "32" : "64") + ")";
    return false;
  }
  *out = static_cast<UInt>(d);
  return true;
}

inline bool read_u64(const json::Value& obj, const char* key,
                     std::uint64_t* out, std::string* error) {
  return read_uint(obj, key, out, error);
}

inline bool read_id(const json::Value& obj, const char* key,
                    std::uint32_t* out, std::string* error) {
  return read_uint(obj, key, out, error);
}

template <class IdT>
inline bool read_strong_id(const json::Value& obj, const char* key, IdT* out,
                           std::string* error) {
  typename IdT::value_type v = out->value();
  if (!read_uint(obj, key, &v, error)) return false;
  *out = IdT(v);
  return true;
}

inline bool read_double(const json::Value& obj, const char* key, double* out,
                        std::string* error) {
  return json::get_number(obj, key, /*required=*/false, *out, out, error);
}

}  // namespace detail

inline bool parse_trace_line(const std::string& line, obs::TraceEvent* out,
                             std::string* error) {
  using namespace detail;
  const auto root = codec_ref::parse(line, error);
  if (!root) return false;
  if (root->kind != json::Value::Kind::Object) {
    *error = "trace line is not a JSON object";
    return false;
  }

  double version = 0;
  if (!json::get_number(*root, "v", /*required=*/true, 0, &version, error))
    return false;
  // Backward-compatible window: a v2 line is a valid v3 line (v3 only adds
  // the snapshot kind). Older or newer schemas are refused outright.
  if (!(version >= obs::kMinReadableTraceSchemaVersion &&
        version < obs::kTraceSchemaVersion + 1)) {
    std::ostringstream os;
    os << "unsupported trace schema version ";
    if (std::fabs(version) < 2147483648.0) {
      os << static_cast<int>(version);
    } else {
      os << version;
    }
    os << " (this dardscope reads versions "
       << obs::kMinReadableTraceSchemaVersion << ".."
       << obs::kTraceSchemaVersion << "; re-run dardsim to regenerate the "
       << "trace)";
    *error = os.str();
    return false;
  }

  std::string kind_name;
  if (!json::get_string(*root, "kind", &kind_name, error)) return false;
  obs::TraceEvent e;
  if (!kind_from_string(kind_name, &e.kind)) {
    *error = "unknown trace event kind: " + kind_name;
    return false;
  }
  if (!json::get_number(*root, "t", /*required=*/true, 0, &e.time, error))
    return false;

  bool ok = true;
  switch (e.kind) {
    case TraceEventKind::FlowArrive:
      ok = read_strong_id(*root, "flow", &e.flow, error) &&
           read_strong_id(*root, "src", &e.src_host, error) &&
           read_strong_id(*root, "dst", &e.dst_host, error) &&
           read_u64(*root, "size", &e.size, error) &&
           read_id(*root, "path", &e.path_to, error);
      break;
    case TraceEventKind::FlowElephant:
      ok = read_strong_id(*root, "flow", &e.flow, error) &&
           read_id(*root, "path", &e.path_to, error);
      break;
    case TraceEventKind::FlowMove:
      ok = read_strong_id(*root, "flow", &e.flow, error) &&
           read_id(*root, "from", &e.path_from, error) &&
           read_id(*root, "to", &e.path_to, error) &&
           read_double(*root, "bonf_from", &e.bonf_from, error) &&
           read_double(*root, "bonf_to", &e.bonf_to, error) &&
           read_double(*root, "bonf_delta", &e.gain, error) &&
           read_u64(*root, "cause_id", &e.cause_id, error);
      break;
    case TraceEventKind::FlowComplete:
      ok = read_strong_id(*root, "flow", &e.flow, error) &&
           read_u64(*root, "size", &e.size, error);
      break;
    case TraceEventKind::DardRound:
      ok = read_strong_id(*root, "host", &e.src_host, error) &&
           read_strong_id(*root, "dst_tor", &e.dst_host, error) &&
           read_id(*root, "worst_path", &e.path_from, error) &&
           read_id(*root, "best_path", &e.path_to, error) &&
           read_double(*root, "worst_bonf", &e.bonf_from, error) &&
           read_double(*root, "best_bonf", &e.bonf_to, error) &&
           read_double(*root, "est_gain", &e.gain, error) &&
           read_double(*root, "delta", &e.delta_threshold, error) &&
           json::get_bool(*root, "accepted", false, &e.accepted, error) &&
           read_u64(*root, "round_id", &e.cause_id, error);
      break;
    case TraceEventKind::Fault: {
      std::string action;
      if (!json::get_string(*root, "action", &action, error)) return false;
      if (!fault_action_from_string(action, &e.fault_action) ||
          e.fault_action == FaultAction::None) {
        *error = "unknown fault action: " + action;
        return false;
      }
      ok = read_strong_id(*root, "a", &e.src_host, error) &&
           read_strong_id(*root, "b", &e.dst_host, error) &&
           read_u64(*root, "fault_id", &e.cause_id, error);
      break;
    }
    case TraceEventKind::Snapshot: {
      auto stats = std::make_shared<obs::SnapshotStats>();
      std::uint64_t flows = 0;
      std::uint64_t elephants = 0;
      std::uint64_t depth = 0;
      ok = read_u64(*root, "seq", &stats->seq, error) &&
           read_u64(*root, "flows", &flows, error) &&
           read_u64(*root, "elephants", &elephants, error) &&
           read_u64(*root, "queue_depth", &depth, error) &&
           read_double(*root, "throughput_bps", &stats->throughput_bps,
                       error) &&
           read_double(*root, "max_utilization", &stats->max_utilization,
                       error) &&
           read_double(*root, "rss_bytes", &stats->rss_bytes, error) &&
           read_double(*root, "path_store_bytes", &stats->path_store_bytes,
                       error);
      if (!ok) break;
      stats->active_flows = static_cast<std::size_t>(flows);
      stats->active_elephants = static_cast<std::size_t>(elephants);
      stats->event_queue_depth = static_cast<std::size_t>(depth);
      bool section_ok = true;
      if (const json::Value* counters =
              json::get_object(*root, "counters", error, &section_ok)) {
        for (const auto& [name, value] : counters->object) {
          if (value->kind != json::Value::Kind::Number) {
            *error = "snapshot counter " + name + " is not a number";
            return false;
          }
          stats->counters.emplace_back(name, value->number);
        }
      }
      if (!section_ok) return false;
      if (const json::Value* profile =
              json::get_array(*root, "profile", error, &section_ok)) {
        for (const auto& entry : profile->array) {
          if (entry->kind != json::Value::Kind::Object) {
            *error = "snapshot profile entry is not an object";
            return false;
          }
          obs::ProfileSummary p;
          if (!json::get_string(*entry, "section", &p.section, error) ||
              !read_u64(*entry, "count", &p.count, error) ||
              !read_double(*entry, "total_s", &p.total_s, error) ||
              !read_double(*entry, "mean_s", &p.mean_s, error) ||
              !read_double(*entry, "p50_s", &p.p50_s, error) ||
              !read_double(*entry, "p95_s", &p.p95_s, error) ||
              !read_double(*entry, "p99_s", &p.p99_s, error) ||
              // v4 snapshots predate the p99.9 column; absent keeps 0.
              !read_double(*entry, "p999_s", &p.p999_s, error) ||
              !read_double(*entry, "max_s", &p.max_s, error))
            return false;
          stats->profile.push_back(std::move(p));
        }
      }
      if (!section_ok) return false;
      e.snapshot = std::move(stats);
      break;
    }
    case TraceEventKind::Span: {
      std::string span_name;
      if (!json::get_string(*root, "span", &span_name, error)) return false;
      if (!span_kind_from_string(span_name, &e.span_kind) ||
          e.span_kind == obs::SpanKind::None) {
        *error = "unknown span kind: " + span_name;
        return false;
      }
      ok = read_u64(*root, "id", &e.cause_id, error) &&
           read_u64(*root, "parent", &e.parent_id, error) &&
           read_strong_id(*root, "host", &e.src_host, error) &&
           read_strong_id(*root, "peer", &e.dst_host, error) &&
           read_strong_id(*root, "flow", &e.flow, error) &&
           read_id(*root, "attempts", &e.span_attempts, error) &&
           read_id(*root, "timeouts", &e.span_timeouts, error) &&
           read_id(*root, "lost", &e.span_lost, error) &&
           read_u64(*root, "bytes", &e.span_bytes, error) &&
           read_double(*root, "dur_s", &e.span_duration, error) &&
           json::get_bool(*root, "ok", false, &e.accepted, error);
      // Schema v6: a refresh's count of clean exchanges, from 0 to its
      // attempts; no other span kind carries one. Older lines ignore it.
      if (ok && static_cast<int>(version) >= 6 &&
          root->object.count("clean") > 0) {
        if (e.span_kind != obs::SpanKind::Refresh) {
          *error = "field \"clean\" is only valid on a refresh span";
          return false;
        }
        std::uint32_t clean = 0;
        if (!read_uint(*root, "clean", &clean, error)) return false;
        if (clean > e.span_attempts) {
          *error = "field \"clean\" exceeds the refresh's attempts";
          return false;
        }
        e.span_clean = clean;
      }
      break;
    }
  }
  if (!ok) return false;
  *out = e;
  return true;
}

}  // namespace dard::codec_ref
