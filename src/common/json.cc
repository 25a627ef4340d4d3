#include "common/json.h"

#include <cstdio>

#include "common/numtext.h"

namespace dard::json {

namespace {

// What std::isspace accepts in the C locale.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

// The run of characters a number token spans; numtext::parse_double then
// decides whether the whole run is a number.
bool is_number_char(char c) {
  return is_digit(c) || c == '.' || c == 'e' || c == 'E' || c == '+' ||
         c == '-';
}

}  // namespace

Token Tokenizer::next() {
  switch (state_) {
    case State::Value:
      return value();
    case State::FirstMember:
      return consume('}') ? close() : key();
    case State::Member:
      return key();
    case State::FirstElement:
      return consume(']') ? close() : value();
    case State::AfterValue:
      if (consume(',')) return in_object() ? key() : value();
      if (in_object()) return consume('}') ? close() : fail("expected '}'");
      return consume(']') ? close() : fail("expected ']'");
    case State::Done:
      skip_ws();
      if (pos_ != text_.size()) return fail("trailing characters");
      state_ = State::Ended;
      return Token::End;
    case State::Ended:
      return Token::End;
    case State::Failed:
      break;
  }
  return Token::Error;
}

bool Tokenizer::skip(Token first) {
  if (first == Token::Error) return false;
  if (first != Token::BeginObject && first != Token::BeginArray) return true;
  const std::uint32_t outer = depth_ - 1;
  while (depth_ > outer)
    if (next() == Token::Error) return false;
  return true;
}

std::string Tokenizer::text() const {
  return escaped_ ? unescape(raw_) : std::string(raw_);
}

std::string Tokenizer::error() const {
  return std::string(why_ != nullptr ? why_ : "no error") + " at offset " +
         std::to_string(pos_);
}

void Tokenizer::skip_ws() {
  while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
}

bool Tokenizer::consume(char c) {
  skip_ws();
  if (pos_ < text_.size() && text_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

Token Tokenizer::fail(const char* why) {
  why_ = why;
  state_ = State::Failed;
  return Token::Error;
}

Token Tokenizer::scalar(Token t) {
  state_ = depth_ == 0 ? State::Done : State::AfterValue;
  return t;
}

Token Tokenizer::open(bool object) {
  static_assert(kMaxDepth == 64, "the message below names the limit");
  if (depth_ == kMaxDepth) return fail("nesting deeper than 64");
  const std::uint64_t bit = std::uint64_t{1} << depth_;
  objects_ = object ? objects_ | bit : objects_ & ~bit;
  ++depth_;
  ++pos_;
  state_ = object ? State::FirstMember : State::FirstElement;
  return object ? Token::BeginObject : Token::BeginArray;
}

Token Tokenizer::close() {
  const bool object = in_object();
  start_ = pos_ - 1;
  --depth_;
  state_ = depth_ == 0 ? State::Done : State::AfterValue;
  return object ? Token::EndObject : Token::EndArray;
}

Token Tokenizer::key() {
  skip_ws();
  start_ = pos_;
  if (pos_ >= text_.size() || text_[pos_] != '"')
    return fail("expected string");
  if (!lex_string()) return Token::Error;
  if (!consume(':')) return fail("expected ':'");
  state_ = State::Value;
  return Token::Key;
}

Token Tokenizer::value() {
  skip_ws();
  start_ = pos_;
  if (pos_ >= text_.size()) return fail("unexpected end of input");
  const char c = text_[pos_];
  if (c == '{') return open(true);
  if (c == '[') return open(false);
  if (c == '"') return lex_string() ? scalar(Token::String) : Token::Error;
  if (c == 't' || c == 'f') {
    const std::string_view rest = text_.substr(pos_);
    if (rest.starts_with("true")) {
      boolean_ = true;
      pos_ += 4;
      return scalar(Token::Bool);
    }
    if (rest.starts_with("false")) {
      boolean_ = false;
      pos_ += 5;
      return scalar(Token::Bool);
    }
    return fail("expected boolean");
  }
  if (c == '-' || is_digit(c)) {
    if (c == '-') ++pos_;
    while (pos_ < text_.size() && is_number_char(text_[pos_])) ++pos_;
    if (!numtext::parse_double(text_.substr(start_, pos_ - start_), &number_))
      return fail("malformed number");
    return scalar(Token::Number);
  }
  return fail("unexpected character");
}

bool Tokenizer::lex_string() {
  const std::size_t begin = ++pos_;  // past the opening quote
  escaped_ = false;
  while (pos_ < text_.size()) {
    const char c = text_[pos_++];
    if (c == '"') {
      raw_ = text_.substr(begin, pos_ - 1 - begin);
      return true;
    }
    if (c != '\\') continue;
    if (pos_ >= text_.size()) break;
    const char esc = text_[pos_++];
    if (esc != 'n' && esc != 't' && esc != '"' && esc != '\\' && esc != '/') {
      fail("unsupported escape");
      return false;
    }
    escaped_ = true;
  }
  fail("unterminated string");
  return false;
}

namespace {

// Builds the value whose first token `first` was just pulled. Recursion is
// bounded by the tokenizer's kMaxDepth.
std::unique_ptr<Value> build(Tokenizer& tk, Token first) {
  auto v = std::make_unique<Value>();
  switch (first) {
    case Token::BeginObject: {
      v->kind = Value::Kind::Object;
      Token t;
      while ((t = tk.next()) == Token::Key) {
        std::string key = tk.text();
        auto member = build(tk, tk.next());
        if (member == nullptr) return nullptr;
        v->object[std::move(key)] = std::move(member);
      }
      if (t != Token::EndObject) return nullptr;
      return v;
    }
    case Token::BeginArray: {
      v->kind = Value::Kind::Array;
      for (Token t = tk.next(); t != Token::EndArray; t = tk.next()) {
        auto element = build(tk, t);
        if (element == nullptr) return nullptr;
        v->array.push_back(std::move(element));
      }
      return v;
    }
    case Token::String:
      v->kind = Value::Kind::String;
      v->string = tk.text();
      return v;
    case Token::Number:
      v->kind = Value::Kind::Number;
      v->number = tk.number();
      return v;
    case Token::Bool:
      v->kind = Value::Kind::Bool;
      v->boolean = tk.boolean();
      return v;
    default:
      return nullptr;  // Error: no other token starts a value
  }
}

}  // namespace

std::unique_ptr<Value> parse(const std::string& text, std::string* error) {
  Tokenizer tk(text);
  auto v = build(tk, tk.next());
  if (v != nullptr && tk.next() == Token::End) return v;
  if (error != nullptr) *error = tk.error();
  return nullptr;
}

bool get_number(const Value& obj, const std::string& key, bool required,
                double fallback, double* out, std::string* error) {
  const auto it = obj.object.find(key);
  if (it == obj.object.end()) {
    if (required) {
      if (error != nullptr) *error = "missing field \"" + key + "\"";
      return false;
    }
    *out = fallback;
    return true;
  }
  if (it->second->kind != Value::Kind::Number) {
    if (error != nullptr) *error = "field \"" + key + "\" must be a number";
    return false;
  }
  *out = it->second->number;
  return true;
}

bool get_string(const Value& obj, const std::string& key, std::string* out,
                std::string* error) {
  const auto it = obj.object.find(key);
  if (it == obj.object.end() || it->second->kind != Value::Kind::String) {
    if (error != nullptr)
      *error = "missing or non-string field \"" + key + "\"";
    return false;
  }
  *out = it->second->string;
  return true;
}

bool get_bool(const Value& obj, const std::string& key, bool fallback,
              bool* out, std::string* error) {
  const auto it = obj.object.find(key);
  if (it == obj.object.end()) {
    *out = fallback;
    return true;
  }
  if (it->second->kind != Value::Kind::Bool) {
    if (error != nullptr) *error = "field \"" + key + "\" must be a boolean";
    return false;
  }
  *out = it->second->boolean;
  return true;
}

const Value* get_array(const Value& root, const std::string& key,
                       std::string* error, bool* ok) {
  const auto it = root.object.find(key);
  if (it == root.object.end()) return nullptr;
  if (it->second->kind != Value::Kind::Array) {
    if (error != nullptr) *error = "\"" + key + "\" must be an array";
    *ok = false;
    return nullptr;
  }
  return it->second.get();
}

const Value* get_object(const Value& root, const std::string& key,
                        std::string* error, bool* ok) {
  const auto it = root.object.find(key);
  if (it == root.object.end()) return nullptr;
  if (it->second->kind != Value::Kind::Object) {
    if (error != nullptr) *error = "\"" + key + "\" must be an object";
    *ok = false;
    return nullptr;
  }
  return it->second.get();
}

std::string unescape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    char c = raw[i];
    if (c == '\\' && i + 1 < raw.size()) {
      c = raw[++i];
      if (c == 'n') c = '\n';
      if (c == 't') c = '\t';
    }
    out.push_back(c);
  }
  return out;
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace dard::json
