#include "common/numtext.h"

#include <cstdlib>
#include <string>

namespace dard::numtext {

bool parse_double(std::string_view token, double* out) {
  const char* const first = token.data();
  const char* const last = first + token.size();
  const auto r = std::from_chars(first, last, *out);
  if (r.ec == std::errc() && r.ptr == last) return true;
  // from_chars refuses what strtod accepts in a few spellings (a leading
  // '+', hex, leading whitespace) and reports out-of-range values instead of
  // converting them; strtod decides those.
  if (token.empty()) return false;
  char stack[64];
  std::string heap;
  const char* copy = stack;
  if (token.size() < sizeof stack) {
    token.copy(stack, token.size());
    stack[token.size()] = '\0';
  } else {
    heap.assign(token);
    copy = heap.c_str();
  }
  char* end = nullptr;
  *out = std::strtod(copy, &end);
  return end == copy + token.size();
}

}  // namespace dard::numtext
