// Number <-> text for the repo's machine-written files (DESIGN.md §8).
//
// The write side renders exactly the text an std::ostream prints at its
// default settings — integers in decimal, doubles as printf's "%.6g" — with
// std::to_chars into the caller's buffer, without a stream per record. The
// JSONL trace and the sample CSVs are written with these helpers, and
// their bytes must stay what `os << v` writes (codec_test pins it). The
// read side converts one number token to exactly the double std::strtod
// gives, through std::from_chars when it can; the JSON tokenizer and the
// CSV readers share it.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace dard::numtext {

// The most characters put_double or put_int writes ("-1.23457e-308",
// "-9223372036854775808").
inline constexpr std::size_t kMaxChars = 24;

// Writes `v` as `os << v` prints it on a default-formatted stream into
// [first, first + kMaxChars) and returns the end.
inline char* put_double(char* first, double v) {
  // An integer of at most six digits prints as itself under "%.6g"; skip
  // the general formatter for it (and leave -0 to it).
  if (v > -1e6 && v < 1e6) {
    const auto i = static_cast<std::int32_t>(v);
    if (i == v && !(i == 0 && std::signbit(v)))
      return std::to_chars(first, first + kMaxChars, i).ptr;
  }
  return std::to_chars(first, first + kMaxChars, v,
                       std::chars_format::general, 6)
      .ptr;
}

template <std::integral Int>
char* put_int(char* first, Int v) {
  return std::to_chars(first, first + kMaxChars, v).ptr;
}

inline void append_double(std::string& out, double v) {
  char buf[kMaxChars];
  out.append(buf, put_double(buf, v));
}

template <std::integral Int>
void append_int(std::string& out, Int v) {
  char buf[kMaxChars];
  out.append(buf, put_int(buf, v));
}

// Converts the whole of `token` as std::strtod would; returns false when
// strtod would stop short of its end or convert nothing. Out-of-range
// values convert to what strtod returns (±HUGE_VAL, 0 or a denormal).
[[nodiscard]] bool parse_double(std::string_view token, double* out);

}  // namespace dard::numtext
