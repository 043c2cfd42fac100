#include "util/json_number.hpp"

#include <cstdlib>

namespace nck {
namespace {

bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

// Advances `pos` over one or more digits; false when there are none.
bool digits(const std::string& text, std::size_t& pos) noexcept {
  const std::size_t begin = pos;
  while (pos < text.size() && is_digit(text[pos])) ++pos;
  return pos != begin;
}

}  // namespace

std::size_t parse_json_number(const std::string& text, std::size_t pos,
                              double& value) noexcept {
  std::size_t end = pos;
  if (end < text.size() && text[end] == '-') ++end;
  const std::size_t int_begin = end;
  if (!digits(text, end)) return 0;
  if (text[int_begin] == '0' && end - int_begin > 1) return 0;  // "01"
  if (end < text.size() && text[end] == '.') {
    ++end;
    if (!digits(text, end)) return 0;
  }
  if (end < text.size() && (text[end] == 'e' || text[end] == 'E')) {
    ++end;
    if (end < text.size() && (text[end] == '+' || text[end] == '-')) ++end;
    if (!digits(text, end)) return 0;
  }
  const char* begin = text.c_str() + pos;
  char* parsed_end = nullptr;
  const double parsed = std::strtod(begin, &parsed_end);
  if (static_cast<std::size_t>(parsed_end - begin) != end - pos) return 0;
  value = parsed;
  return end - pos;
}

}  // namespace nck
