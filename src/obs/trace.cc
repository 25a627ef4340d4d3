#include "obs/trace.h"

#include <string_view>

#include "common/check.h"
#include "common/json.h"
#include "common/numtext.h"

namespace dard::obs {

namespace {

// `,"name":` and the value `put` writes after it, appended in one piece.
template <std::size_t N, class Put>
void field(std::string& out, const char (&name)[N], Put put) {
  static_assert(N <= 24, "a field name fits the buffer with its value");
  char buf[4 + N + numtext::kMaxChars];
  char* p = buf;
  *p++ = ',';
  *p++ = '"';
  for (std::size_t i = 0; i + 1 < N; ++i) *p++ = name[i];
  *p++ = '"';
  *p++ = ':';
  out.append(buf, put(p));
}

template <std::size_t N, class Int>
void field_int(std::string& out, const char (&name)[N], Int value) {
  field(out, name, [value](char* p) { return numtext::put_int(p, value); });
}

template <std::size_t N>
void field_double(std::string& out, const char (&name)[N], double value) {
  field(out, name, [value](char* p) { return numtext::put_double(p, value); });
}

template <std::size_t N>
void field_bool(std::string& out, const char (&name)[N], bool value) {
  field(out, name, [value](char* p) {
    for (const char c : std::string_view(value ? "true" : "false")) *p++ = c;
    return p;
  });
}

template <std::size_t N>
void field_name(std::string& out, const char (&name)[N], const char* value) {
  field(out, name, [](char* p) {
    *p++ = '"';
    return p;
  });
  out += value;
  out += '"';
}

void append_snapshot(std::string& out, const SnapshotStats& s) {
  field_int(out, "seq", s.seq);
  field_int(out, "flows", s.active_flows);
  field_int(out, "elephants", s.active_elephants);
  field_int(out, "queue_depth", s.event_queue_depth);
  field_double(out, "throughput_bps", s.throughput_bps);
  field_double(out, "max_utilization", s.max_utilization);
  field_double(out, "rss_bytes", s.rss_bytes);
  field_double(out, "path_store_bytes", s.path_store_bytes);
  out += ",\"counters\":{";
  for (std::size_t i = 0; i < s.counters.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += json::escape(s.counters[i].first);
    out += "\":";
    numtext::append_double(out, s.counters[i].second);
  }
  out += "},\"profile\":[";
  for (std::size_t i = 0; i < s.profile.size(); ++i) {
    const ProfileSummary& p = s.profile[i];
    if (i > 0) out += ',';
    out += "{\"section\":\"";
    out += json::escape(p.section);
    out += '"';
    field_int(out, "count", p.count);
    field_double(out, "total_s", p.total_s);
    field_double(out, "mean_s", p.mean_s);
    field_double(out, "p50_s", p.p50_s);
    field_double(out, "p95_s", p.p95_s);
    field_double(out, "p99_s", p.p99_s);
    field_double(out, "p999_s", p.p999_s);
    field_double(out, "max_s", p.max_s);
    out += '}';
  }
  out += ']';
}

}  // namespace

void append_json(std::string& out, const TraceEvent& e) {
  out += "{\"v\":";
  numtext::append_int(out, kTraceSchemaVersion);
  field_name(out, "kind", to_string(e.kind));
  field_double(out, "t", e.time);
  switch (e.kind) {
    case TraceEventKind::FlowArrive:
      field_int(out, "flow", e.flow.value());
      field_int(out, "src", e.src_host.value());
      field_int(out, "dst", e.dst_host.value());
      field_int(out, "size", e.size);
      field_int(out, "path", e.path_to);
      break;
    case TraceEventKind::FlowElephant:
      field_int(out, "flow", e.flow.value());
      field_int(out, "path", e.path_to);
      break;
    case TraceEventKind::FlowMove:
      field_int(out, "flow", e.flow.value());
      field_int(out, "from", e.path_from);
      field_int(out, "to", e.path_to);
      field_double(out, "bonf_from", e.bonf_from);
      field_double(out, "bonf_to", e.bonf_to);
      field_double(out, "bonf_delta", e.gain);
      field_int(out, "cause_id", e.cause_id);
      break;
    case TraceEventKind::FlowComplete:
      field_int(out, "flow", e.flow.value());
      field_int(out, "size", e.size);
      break;
    case TraceEventKind::DardRound:
      field_int(out, "host", e.src_host.value());
      field_int(out, "dst_tor", e.dst_host.value());
      field_int(out, "worst_path", e.path_from);
      field_int(out, "best_path", e.path_to);
      field_double(out, "worst_bonf", e.bonf_from);
      field_double(out, "best_bonf", e.bonf_to);
      field_double(out, "est_gain", e.gain);
      field_double(out, "delta", e.delta_threshold);
      field_bool(out, "accepted", e.accepted);
      field_int(out, "round_id", e.cause_id);
      break;
    case TraceEventKind::Fault:
      field_name(out, "action", to_string(e.fault_action));
      // Cable transitions name the endpoints; control windows have none.
      if (e.src_host.valid()) field_int(out, "a", e.src_host.value());
      if (e.dst_host.valid()) field_int(out, "b", e.dst_host.value());
      field_int(out, "fault_id", e.cause_id);
      break;
    case TraceEventKind::Snapshot: {
      // Snapshots without a payload are meaningless; emit an empty one
      // rather than crash if a caller forgets to attach it.
      static const SnapshotStats kEmpty;
      append_snapshot(out, e.snapshot != nullptr ? *e.snapshot : kEmpty);
      break;
    }
    case TraceEventKind::Span:
      field_name(out, "span", to_string(e.span_kind));
      field_int(out, "id", e.cause_id);
      field_int(out, "parent", e.parent_id);
      field_int(out, "host", e.src_host.value());
      // Query: the queried switch; Refresh: the monitor's destination ToR.
      if (e.dst_host.valid()) field_int(out, "peer", e.dst_host.value());
      if (e.flow.valid()) field_int(out, "flow", e.flow.value());
      field_int(out, "attempts", e.span_attempts);
      field_int(out, "timeouts", e.span_timeouts);
      field_int(out, "lost", e.span_lost);
      if (e.span_kind == SpanKind::Refresh)
        field_int(out, "clean", e.span_clean);
      field_int(out, "bytes", e.span_bytes);
      field_double(out, "dur_s", e.span_duration);
      field_bool(out, "ok", e.accepted);
      break;
  }
  out += '}';
}

std::string to_json(const TraceEvent& e) {
  std::string out;
  append_json(out, e);
  return out;
}

void JsonlTraceSink::write(const TraceEvent& e) {
  line_.clear();
  append_json(line_, e);
  line_ += '\n';
  out_->write(line_.data(), static_cast<std::streamsize>(line_.size()));
  ++written_;
}

void JsonlTraceSink::flush() { out_->flush(); }

RingBufferTraceSink::RingBufferTraceSink(std::size_t capacity)
    : capacity_(capacity) {
  DCN_CHECK(capacity > 0);
  buffer_.reserve(capacity);
}

void RingBufferTraceSink::write(const TraceEvent& e) {
  if (buffer_.size() < capacity_) {
    buffer_.push_back(e);
    next_ = buffer_.size() % capacity_;
    return;
  }
  wrapped_ = true;
  ++dropped_;
  buffer_[next_] = e;
  next_ = (next_ + 1) % capacity_;
}

std::size_t RingBufferTraceSink::size() const { return buffer_.size(); }

std::vector<TraceEvent> RingBufferTraceSink::events() const {
  std::vector<TraceEvent> out;
  out.reserve(buffer_.size());
  if (wrapped_) {
    out.insert(out.end(), buffer_.begin() + static_cast<std::ptrdiff_t>(next_),
               buffer_.end());
    out.insert(out.end(), buffer_.begin(),
               buffer_.begin() + static_cast<std::ptrdiff_t>(next_));
  } else {
    out = buffer_;
  }
  return out;
}

void RingBufferTraceSink::clear() {
  buffer_.clear();
  next_ = 0;
  wrapped_ = false;
  dropped_ = 0;
}

}  // namespace dard::obs
