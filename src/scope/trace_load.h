// JSONL trace decoder: the read side of obs::to_json (DESIGN.md §12).
//
// Decodes one dardsim trace line at a time into the obs::TraceEvent the
// simulators emit, for the streaming analyses (load_run, `dardscope live`).
// The decoder is strict about the schema version — a line whose "v" is
// outside the readable window is refused with a clear error rather than
// silently misread (v1 traces, for example, predate cause ids).
#pragma once

#include <string>
#include <string_view>

#include "obs/observer.h"

namespace dard::scope {

// Inverse of obs::to_string for event kinds / fault actions. Returns false
// on an unknown name.
[[nodiscard]] bool kind_from_string(std::string_view s,
                                    obs::TraceEventKind* out);
[[nodiscard]] bool fault_action_from_string(std::string_view s,
                                            obs::FaultAction* out);
[[nodiscard]] bool span_kind_from_string(std::string_view s,
                                         obs::SpanKind* out);

// Parses one JSONL line into a TraceEvent, straight off json::Tokenizer
// (no DOM; DESIGN.md §12). On failure fills *error and returns false; *out
// is unspecified. Unknown extra fields are validated and ignored (forward
// compatibility within a schema version), a repeated field keeps its last
// value, unknown kinds and mismatched versions are errors.
[[nodiscard]] bool parse_trace_line(const std::string& line,
                                    obs::TraceEvent* out, std::string* error);

}  // namespace dard::scope
