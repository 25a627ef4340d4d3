#include "scope/trace_load.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/json.h"

namespace dard::scope {

namespace {

using json::Token;
using obs::FaultAction;
using obs::TraceEventKind;

// Every member name a trace line (or a snapshot's profile entry) can carry.
// A line is decoded in one tokenizer pass into a slot per name; the slots
// are then read in a fixed order with json.h's accessor messages, so errors
// and defaults do not depend on member order.
constexpr std::string_view kFieldNames[] = {
    "v", "kind", "t",
    // flow events
    "flow", "src", "dst", "size", "path", "from", "to", "bonf_from",
    "bonf_to", "bonf_delta", "cause_id",
    // dard_round
    "host", "dst_tor", "worst_path", "best_path", "worst_bonf", "best_bonf",
    "est_gain", "delta", "accepted", "round_id",
    // fault
    "action", "a", "b", "fault_id",
    // snapshot
    "seq", "flows", "elephants", "queue_depth", "throughput_bps",
    "max_utilization", "rss_bytes", "path_store_bytes", "counters", "profile",
    // span
    "span", "id", "parent", "peer", "attempts", "timeouts", "lost", "clean",
    "bytes", "dur_s", "ok",
    // snapshot profile entries
    "section", "count", "total_s", "mean_s", "p50_s", "p95_s", "p99_s",
    "p999_s", "max_s"};
constexpr std::size_t kFieldCount = std::size(kFieldNames);
static_assert(kFieldCount <= 64, "Fields::present is a 64-bit mask");

// Compile-time index of a field name; an unknown name does not compile.
consteval std::size_t F(std::string_view name) {
  for (std::size_t i = 0; i < kFieldCount; ++i)
    if (kFieldNames[i] == name) return i;
  throw "not a trace field";
}

// Open-addressed name -> index table, built at compile time.
constexpr std::size_t kTableSize = 256;
constexpr std::size_t table_hash(std::string_view k) {
  return (k.size() * 31 + static_cast<unsigned char>(k.front()) * 7 +
          static_cast<unsigned char>(k.back()) * 3 +
          static_cast<unsigned char>(k[k.size() / 2])) %
         kTableSize;
}
constexpr auto kFieldTable = [] {
  std::array<std::int8_t, kTableSize> table{};
  table.fill(-1);
  for (std::size_t i = 0; i < kFieldCount; ++i) {
    std::size_t h = table_hash(kFieldNames[i]);
    while (table[h] >= 0) h = (h + 1) % kTableSize;
    table[h] = static_cast<std::int8_t>(i);
  }
  return table;
}();

int field_index(std::string_view name) {
  if (name.empty()) return -1;
  for (std::size_t h = table_hash(name);; h = (h + 1) % kTableSize) {
    const int i = kFieldTable[h];
    if (i < 0 || kFieldNames[i] == name) return i;
  }
}

// One object's known members, the last occurrence of a name winning, as in
// the std::map of json.h's DOM. A slot is valid only where its `present`
// bit is set.
struct Fields {
  struct Slot {
    Token type;  // String, Number, Bool, BeginObject or BeginArray
    bool escaped;
    bool boolean;
    double number;
    std::string_view text;  // String: raw contents; containers: whole value
  };
  std::uint64_t present = 0;
  std::array<Slot, kFieldCount> slot;

  [[nodiscard]] const Slot* find(std::size_t id) const {
    return (present >> id & 1U) != 0 ? &slot[id] : nullptr;
  }

  // The contracts of json.h's get_* accessors, over slots.
  bool number(std::size_t id, bool required, double fallback, double* out,
              std::string* error) const {
    const Slot* s = find(id);
    if (s == nullptr) {
      if (required) {
        *error = "missing field \"" + std::string(kFieldNames[id]) + "\"";
        return false;
      }
      *out = fallback;
      return true;
    }
    if (s->type != Token::Number) {
      *error =
          "field \"" + std::string(kFieldNames[id]) + "\" must be a number";
      return false;
    }
    *out = s->number;
    return true;
  }

  // get_string's contract. *out views the line, or *scratch when the string
  // had escapes.
  bool string(std::size_t id, std::string* scratch, std::string_view* out,
              std::string* error) const {
    const Slot* s = find(id);
    if (s == nullptr || s->type != Token::String) {
      *error = "missing or non-string field \"" +
               std::string(kFieldNames[id]) + "\"";
      return false;
    }
    if (!s->escaped) {
      *out = s->text;
      return true;
    }
    *scratch = json::unescape(s->text);
    *out = *scratch;
    return true;
  }

  bool boolean(std::size_t id, bool fallback, bool* out,
               std::string* error) const {
    const Slot* s = find(id);
    if (s == nullptr) {
      *out = fallback;
      return true;
    }
    if (s->type != Token::Bool) {
      *error =
          "field \"" + std::string(kFieldNames[id]) + "\" must be a boolean";
      return false;
    }
    *out = s->boolean;
    return true;
  }

  // The container's text, or empty when absent (not an error) or mistyped
  // (*ok cleared, *error set).
  std::string_view container(std::size_t id, Token type, std::string* error,
                             bool* ok) const {
    const Slot* s = find(id);
    if (s == nullptr) return {};
    if (s->type != type) {
      *error = "\"" + std::string(kFieldNames[id]) + "\" must be " +
               (type == Token::BeginObject ? "an object" : "an array");
      *ok = false;
      return {};
    }
    return s->text;
  }
};

// Reads the members of the object whose BeginObject `tk` just returned.
// Returns false on a syntax error (tk.error() says which).
bool read_members(std::string_view text, json::Tokenizer& tk, Fields* f) {
  for (Token t = tk.next(); t != Token::EndObject; t = tk.next()) {
    if (t != Token::Key) return false;
    // Escapes never spell a known name: its characters need none.
    const int id = tk.escaped() ? -1 : field_index(tk.raw());
    const Token value = tk.next();
    if (id < 0) {
      if (!tk.skip(value)) return false;
      continue;
    }
    Fields::Slot& s = f->slot[static_cast<std::size_t>(id)];
    s.type = value;
    switch (value) {
      case Token::Number:
        s.number = tk.number();
        break;
      case Token::String:
        s.text = tk.raw();
        s.escaped = tk.escaped();
        break;
      case Token::Bool:
        s.boolean = tk.boolean();
        break;
      case Token::BeginObject:
      case Token::BeginArray: {
        const std::size_t begin = tk.token_offset();
        if (!tk.skip(value)) return false;
        s.text = text.substr(begin, tk.offset() - begin);
        break;
      }
      default:
        return false;  // Error
    }
    f->present |= std::uint64_t{1} << id;
  }
  return true;
}

// Optional integer field of an unsigned 32- or 64-bit type: absent, it
// keeps the TraceEvent default; present, it must be a whole number the type
// holds (no shipped schema writes a negative or fractional one), else the
// line fails. Only then is the double cast, which is defined for it.
template <class UInt>
bool read_uint(const Fields& f, std::size_t id, UInt* out,
               std::string* error) {
  static_assert(std::numeric_limits<UInt>::digits == 32 ||
                std::numeric_limits<UInt>::digits == 64);
  constexpr bool k32 = std::numeric_limits<UInt>::digits == 32;
  constexpr double kEnd = k32 ? 4294967296.0 : 18446744073709551616.0;
  if (f.find(id) == nullptr) return true;
  double d = 0;
  if (!f.number(id, /*required=*/true, 0, &d, error)) return false;
  if (!(d >= 0 && d < kEnd) || d != std::floor(d)) {
    *error = "field \"" + std::string(kFieldNames[id]) +
             "\" must be an integer in [0, 2^" + (k32 ? "32" : "64") + ")";
    return false;
  }
  *out = static_cast<UInt>(d);
  return true;
}

bool read_u64(const Fields& f, std::size_t id, std::uint64_t* out,
              std::string* error) {
  return read_uint(f, id, out, error);
}

bool read_id(const Fields& f, std::size_t id, std::uint32_t* out,
             std::string* error) {
  return read_uint(f, id, out, error);
}

template <class IdT>
bool read_strong_id(const Fields& f, std::size_t id, IdT* out,
                    std::string* error) {
  typename IdT::value_type v = out->value();
  if (!read_uint(f, id, &v, error)) return false;
  *out = IdT(v);
  return true;
}

bool read_double(const Fields& f, std::size_t id, double* out,
                 std::string* error) {
  return f.number(id, /*required=*/false, *out, out, error);
}

// A v6 refresh span's count of clean exchanges (TraceEvent::span_clean): an
// integer from 0 to the refresh's attempts. Any other span kind must not
// carry it.
bool read_clean(const Fields& f, obs::TraceEvent* e, std::string* error) {
  if (f.find(F("clean")) == nullptr) return true;
  if (e->span_kind != obs::SpanKind::Refresh) {
    *error = "field \"clean\" is only valid on a refresh span";
    return false;
  }
  std::uint32_t clean = 0;
  if (!read_uint(f, F("clean"), &clean, error)) return false;
  if (clean > e->span_attempts) {
    *error = "field \"clean\" exceeds the refresh's attempts";
    return false;
  }
  e->span_clean = clean;
  return true;
}

}  // namespace

bool kind_from_string(std::string_view s, TraceEventKind* out) {
  if (s == "flow_arrive") *out = TraceEventKind::FlowArrive;
  else if (s == "flow_elephant") *out = TraceEventKind::FlowElephant;
  else if (s == "flow_move") *out = TraceEventKind::FlowMove;
  else if (s == "flow_complete") *out = TraceEventKind::FlowComplete;
  else if (s == "dard_round") *out = TraceEventKind::DardRound;
  else if (s == "fault") *out = TraceEventKind::Fault;
  else if (s == "snapshot") *out = TraceEventKind::Snapshot;
  else if (s == "span") *out = TraceEventKind::Span;
  else return false;
  return true;
}

bool span_kind_from_string(std::string_view s, obs::SpanKind* out) {
  if (s == "none") *out = obs::SpanKind::None;
  else if (s == "query") *out = obs::SpanKind::Query;
  else if (s == "refresh") *out = obs::SpanKind::Refresh;
  else if (s == "decision") *out = obs::SpanKind::Decision;
  else if (s == "move") *out = obs::SpanKind::Move;
  else return false;
  return true;
}

bool fault_action_from_string(std::string_view s, FaultAction* out) {
  if (s == "none") *out = FaultAction::None;
  else if (s == "cable_down") *out = FaultAction::CableDown;
  else if (s == "cable_up") *out = FaultAction::CableUp;
  else if (s == "control_window_start") *out = FaultAction::ControlWindowStart;
  else if (s == "control_window_end") *out = FaultAction::ControlWindowEnd;
  else if (s == "agent_crash") *out = FaultAction::AgentCrash;
  else if (s == "agent_restart") *out = FaultAction::AgentRestart;
  else if (s == "host_down") *out = FaultAction::HostDown;
  else if (s == "host_up") *out = FaultAction::HostUp;
  else return false;
  return true;
}

namespace {

// A snapshot's "counters" object: std::map order (sorted by name, the last
// of a repeated name winning), and every value a number.
bool read_counters(std::string_view text, obs::SnapshotStats* stats,
                   std::string* error) {
  struct Entry {
    std::string name;
    bool is_number;
    double value;
  };
  std::vector<Entry> entries;
  json::Tokenizer tk(text);
  tk.next();  // BeginObject; `text` was validated with the whole line
  for (Token t = tk.next(); t == Token::Key; t = tk.next()) {
    std::string name = tk.text();
    const Token value = tk.next();
    entries.push_back({std::move(name), value == Token::Number,
                       value == Token::Number ? tk.number() : 0});
    if (!tk.skip(value)) {
      *error = tk.error();
      return false;
    }
  }
  std::stable_sort(
      entries.begin(), entries.end(),
      [](const Entry& a, const Entry& b) { return a.name < b.name; });
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i + 1 < entries.size() && entries[i + 1].name == entries[i].name)
      continue;
    if (!entries[i].is_number) {
      *error = "snapshot counter " + entries[i].name + " is not a number";
      return false;
    }
    stats->counters.emplace_back(std::move(entries[i].name), entries[i].value);
  }
  return true;
}

// A snapshot's "profile" array of per-section summaries.
bool read_profile(std::string_view text, obs::SnapshotStats* stats,
                  std::string* error) {
  json::Tokenizer tk(text);
  tk.next();  // BeginArray; validated with the whole line
  for (Token t = tk.next(); t != Token::EndArray; t = tk.next()) {
    if (t != Token::BeginObject) {
      *error = "snapshot profile entry is not an object";
      return false;
    }
    Fields f;
    if (!read_members(text, tk, &f)) {
      *error = tk.error();
      return false;
    }
    obs::ProfileSummary p;
    std::string scratch;
    std::string_view section;
    if (!f.string(F("section"), &scratch, &section, error) ||
        !read_u64(f, F("count"), &p.count, error) ||
        !read_double(f, F("total_s"), &p.total_s, error) ||
        !read_double(f, F("mean_s"), &p.mean_s, error) ||
        !read_double(f, F("p50_s"), &p.p50_s, error) ||
        !read_double(f, F("p95_s"), &p.p95_s, error) ||
        !read_double(f, F("p99_s"), &p.p99_s, error) ||
        // v4 snapshots predate the p99.9 column; absent keeps 0.
        !read_double(f, F("p999_s"), &p.p999_s, error) ||
        !read_double(f, F("max_s"), &p.max_s, error))
      return false;
    p.section.assign(section);
    stats->profile.push_back(std::move(p));
  }
  return true;
}

bool read_snapshot(const Fields& f, obs::TraceEvent* e, std::string* error) {
  auto stats = std::make_shared<obs::SnapshotStats>();
  std::uint64_t flows = 0;
  std::uint64_t elephants = 0;
  std::uint64_t depth = 0;
  if (!read_u64(f, F("seq"), &stats->seq, error) ||
      !read_u64(f, F("flows"), &flows, error) ||
      !read_u64(f, F("elephants"), &elephants, error) ||
      !read_u64(f, F("queue_depth"), &depth, error) ||
      !read_double(f, F("throughput_bps"), &stats->throughput_bps, error) ||
      !read_double(f, F("max_utilization"), &stats->max_utilization, error) ||
      !read_double(f, F("rss_bytes"), &stats->rss_bytes, error) ||
      !read_double(f, F("path_store_bytes"), &stats->path_store_bytes, error))
    return false;
  stats->active_flows = static_cast<std::size_t>(flows);
  stats->active_elephants = static_cast<std::size_t>(elephants);
  stats->event_queue_depth = static_cast<std::size_t>(depth);
  bool section_ok = true;
  const std::string_view counters =
      f.container(F("counters"), Token::BeginObject, error, &section_ok);
  if (!counters.empty() && !read_counters(counters, stats.get(), error))
    return false;
  if (!section_ok) return false;
  const std::string_view profile =
      f.container(F("profile"), Token::BeginArray, error, &section_ok);
  if (!profile.empty() && !read_profile(profile, stats.get(), error))
    return false;
  if (!section_ok) return false;
  e->snapshot = std::move(stats);
  return true;
}

// The members of one trace line, in the order the schema lists them.
bool decode(const Fields& f, obs::TraceEvent* out, std::string* error) {
  double version = 0;
  if (!f.number(F("v"), /*required=*/true, 0, &version, error)) return false;
  // Backward-compatible window: a v2 line is a valid v3 line (v3 only adds
  // the snapshot kind). Older or newer schemas are refused outright. The
  // window is checked on the double: a version past int's range has no
  // defined cast, and the refusal names it as a number.
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

  std::string scratch;
  std::string_view name;
  if (!f.string(F("kind"), &scratch, &name, error)) return false;
  obs::TraceEvent e;
  if (!kind_from_string(name, &e.kind)) {
    *error = "unknown trace event kind: " + std::string(name);
    return false;
  }
  if (!f.number(F("t"), /*required=*/true, 0, &e.time, error)) return false;

  bool ok = true;
  switch (e.kind) {
    case TraceEventKind::FlowArrive:
      ok = read_strong_id(f, F("flow"), &e.flow, error) &&
           read_strong_id(f, F("src"), &e.src_host, error) &&
           read_strong_id(f, F("dst"), &e.dst_host, error) &&
           read_u64(f, F("size"), &e.size, error) &&
           read_id(f, F("path"), &e.path_to, error);
      break;
    case TraceEventKind::FlowElephant:
      ok = read_strong_id(f, F("flow"), &e.flow, error) &&
           read_id(f, F("path"), &e.path_to, error);
      break;
    case TraceEventKind::FlowMove:
      ok = read_strong_id(f, F("flow"), &e.flow, error) &&
           read_id(f, F("from"), &e.path_from, error) &&
           read_id(f, F("to"), &e.path_to, error) &&
           read_double(f, F("bonf_from"), &e.bonf_from, error) &&
           read_double(f, F("bonf_to"), &e.bonf_to, error) &&
           read_double(f, F("bonf_delta"), &e.gain, error) &&
           read_u64(f, F("cause_id"), &e.cause_id, error);
      break;
    case TraceEventKind::FlowComplete:
      ok = read_strong_id(f, F("flow"), &e.flow, error) &&
           read_u64(f, F("size"), &e.size, error);
      break;
    case TraceEventKind::DardRound:
      ok = read_strong_id(f, F("host"), &e.src_host, error) &&
           read_strong_id(f, F("dst_tor"), &e.dst_host, error) &&
           read_id(f, F("worst_path"), &e.path_from, error) &&
           read_id(f, F("best_path"), &e.path_to, error) &&
           read_double(f, F("worst_bonf"), &e.bonf_from, error) &&
           read_double(f, F("best_bonf"), &e.bonf_to, error) &&
           read_double(f, F("est_gain"), &e.gain, error) &&
           read_double(f, F("delta"), &e.delta_threshold, error) &&
           f.boolean(F("accepted"), false, &e.accepted, error) &&
           read_u64(f, F("round_id"), &e.cause_id, error);
      break;
    case TraceEventKind::Fault: {
      if (!f.string(F("action"), &scratch, &name, error)) return false;
      if (!fault_action_from_string(name, &e.fault_action) ||
          e.fault_action == FaultAction::None) {
        *error = "unknown fault action: " + std::string(name);
        return false;
      }
      ok = read_strong_id(f, F("a"), &e.src_host, error) &&
           read_strong_id(f, F("b"), &e.dst_host, error) &&
           read_u64(f, F("fault_id"), &e.cause_id, error);
      break;
    }
    case TraceEventKind::Snapshot:
      ok = read_snapshot(f, &e, error);
      break;
    case TraceEventKind::Span: {
      if (!f.string(F("span"), &scratch, &name, error)) return false;
      if (!span_kind_from_string(name, &e.span_kind) ||
          e.span_kind == obs::SpanKind::None) {
        *error = "unknown span kind: " + std::string(name);
        return false;
      }
      ok = read_u64(f, F("id"), &e.cause_id, error) &&
           read_u64(f, F("parent"), &e.parent_id, error) &&
           read_strong_id(f, F("host"), &e.src_host, error) &&
           read_strong_id(f, F("peer"), &e.dst_host, error) &&
           read_strong_id(f, F("flow"), &e.flow, error) &&
           read_id(f, F("attempts"), &e.span_attempts, error) &&
           read_id(f, F("timeouts"), &e.span_timeouts, error) &&
           read_id(f, F("lost"), &e.span_lost, error) &&
           read_u64(f, F("bytes"), &e.span_bytes, error) &&
           read_double(f, F("dur_s"), &e.span_duration, error) &&
           f.boolean(F("ok"), false, &e.accepted, error) &&
           // v2–v5 predate "clean": there it is an unknown field.
           (static_cast<int>(version) < 6 || read_clean(f, &e, error));
      break;
    }
  }
  if (!ok) return false;
  *out = std::move(e);
  return true;
}

}  // namespace

bool parse_trace_line(const std::string& line, obs::TraceEvent* out,
                      std::string* error) {
  // One pass validates the whole line before any member is read, so a
  // syntax error anywhere wins over a member error.
  json::Tokenizer tk(line);
  Fields f;
  const Token first = tk.next();
  const bool valid = first == Token::BeginObject ? read_members(line, tk, &f)
                                                 : tk.skip(first);
  if (!valid || tk.next() != Token::End) {
    *error = tk.error();
    return false;
  }
  if (first != Token::BeginObject) {
    *error = "trace line is not a JSON object";
    return false;
  }
  return decode(f, out, error);
}

}  // namespace dard::scope
