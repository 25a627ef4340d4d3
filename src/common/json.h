// Minimal JSON reader shared by offline-facing subsystems.
//
// Covers exactly what this repo's file formats need — objects, arrays,
// strings, numbers, booleans; no escapes beyond \" \\ \/ \n \t, no unicode,
// no null — because every producer is also in this repo (fault plans, run
// manifests, JSONL trace lines, google-benchmark reports are the consumers'
// inputs). Baking in a real JSON dependency is not worth it for flat,
// machine-written files.
//
// One grammar serves every reader (DESIGN.md §12): Tokenizer is a pull
// tokenizer that allocates nothing — strings are views into the text,
// numbers are converted in place — and enforces nesting no deeper than
// kMaxDepth. parse() builds a DOM on top of it for the fault-plan and
// manifest readers; the trace loader pulls tokens straight into TraceEvents.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace dard::json {

// Deepest container nesting a document may have. Files this repo writes
// nest at most 3 deep; the bound keeps hostile input from exhausting the
// stack of a recursive consumer.
inline constexpr std::size_t kMaxDepth = 64;

enum class Token : std::uint8_t {
  BeginObject,
  EndObject,
  BeginArray,
  EndArray,
  Key,     // an object member's name; its ':' has been consumed
  String,
  Number,
  Bool,
  End,     // the document's value is complete and only whitespace follows
  Error,
};

class Tokenizer {
 public:
  explicit Tokenizer(std::string_view text) : text_(text) {}

  // Pulls the next token. The document is exactly one value followed by
  // whitespace; after End or Error every further call returns the same.
  Token next();

  // Skips the rest of the value whose first token `first` was just pulled:
  // nothing for a scalar, through the matching close for a container.
  // Returns false on a syntax error (or when `first` is Error).
  bool skip(Token first);

  // Key / String: the text between the quotes, escapes unresolved;
  // escaped() says whether there are any. text() resolves them.
  [[nodiscard]] std::string_view raw() const { return raw_; }
  [[nodiscard]] bool escaped() const { return escaped_; }
  [[nodiscard]] std::string text() const;
  [[nodiscard]] double number() const { return number_; }
  [[nodiscard]] bool boolean() const { return boolean_; }

  // Offset of the last token's first character, and of the next unread one.
  [[nodiscard]] std::size_t token_offset() const { return start_; }
  [[nodiscard]] std::size_t offset() const { return pos_; }

  // After Error: what went wrong, as "<why> at offset <n>".
  [[nodiscard]] std::string error() const;

 private:
  enum class State : std::uint8_t {
    Value,         // a value must come next
    FirstMember,   // just after '{'
    Member,        // just after ',' inside an object
    FirstElement,  // just after '['
    AfterValue,    // a container's element ended: ',' or its close
    Done,          // the top-level value ended
    Ended,
    Failed,
  };

  Token value();
  Token key();
  Token open(bool object);
  Token close();
  Token scalar(Token t);
  bool lex_string();
  Token fail(const char* why);
  bool consume(char c);
  void skip_ws();
  [[nodiscard]] bool in_object() const {
    return ((objects_ >> (depth_ - 1)) & 1U) != 0;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t start_ = 0;
  State state_ = State::Value;
  std::uint32_t depth_ = 0;
  std::uint64_t objects_ = 0;  // bit d-1 set: the container at depth d is {}
  std::string_view raw_;
  bool escaped_ = false;
  bool boolean_ = false;
  double number_ = 0;
  const char* why_ = nullptr;
};

struct Value {
  enum class Kind : std::uint8_t { Object, Array, String, Number, Bool };
  Kind kind = Kind::Object;
  std::map<std::string, std::unique_ptr<Value>> object;
  std::vector<std::unique_ptr<Value>> array;
  std::string string;
  double number = 0;
  bool boolean = false;
};

// Parses one JSON document. Returns null and fills *error (with an offset)
// on malformed input; trailing non-whitespace is an error. A key that
// repeats keeps its last value.
[[nodiscard]] std::unique_ptr<Value> parse(const std::string& text,
                                           std::string* error);

// Field extraction helpers over an object Value. Each sets *error and
// returns false / null when the field is missing (where required) or
// mistyped; optional lookups fall back without touching *error.
bool get_number(const Value& obj, const std::string& key, bool required,
                double fallback, double* out, std::string* error);
bool get_string(const Value& obj, const std::string& key, std::string* out,
                std::string* error);
bool get_bool(const Value& obj, const std::string& key, bool fallback,
              bool* out, std::string* error);
// Returns the array under `key`, or null when absent (not an error) or
// mistyped (*ok cleared, *error set).
const Value* get_array(const Value& root, const std::string& key,
                       std::string* error, bool* ok);
// Returns the object under `key`, or null when absent or mistyped (only the
// latter sets *error / clears *ok).
const Value* get_object(const Value& root, const std::string& key,
                        std::string* error, bool* ok);

// Resolves the escapes of a raw string token (Tokenizer::raw()).
[[nodiscard]] std::string unescape(std::string_view raw);

// Serialization helper: escapes a string for embedding in a JSON document
// (quotes, backslashes, control chars).
[[nodiscard]] std::string escape(const std::string& s);

}  // namespace dard::json
