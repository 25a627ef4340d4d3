// JSONL trace loader: the read side of obs::to_json (DESIGN.md §12).
//
// Parses dardsim trace files back into obs::TraceEvent records so the
// analysis passes work on the same flat struct the simulators emit. The
// loader is strict about the schema version — a line whose "v" differs from
// obs::kTraceSchemaVersion is refused with a clear error rather than
// silently misread (v1 traces, for example, predate cause ids).
#pragma once

#include <string>
#include <string_view>
#include <vector>

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

// Loads a whole trace file, skipping blank lines. On failure *error names
// the offending line number.
[[nodiscard]] bool load_trace_file(const std::string& path,
                                   std::vector<obs::TraceEvent>* out,
                                   std::string* error);

}  // namespace dard::scope
