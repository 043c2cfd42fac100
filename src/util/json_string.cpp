#include "util/json_string.hpp"

#include <cstdint>
#include <cstdio>

namespace nck {
namespace {

// Reads four hex digits at text[pos]; false (pos unchanged) otherwise.
bool hex4(const std::string& text, std::size_t& pos, std::uint32_t& code) {
  if (text.size() - pos < 4) return false;
  std::uint32_t value = 0;
  for (std::size_t i = pos; i < pos + 4; ++i) {
    const char h = text[i];
    value <<= 4;
    if (h >= '0' && h <= '9') {
      value |= static_cast<std::uint32_t>(h - '0');
    } else if (h >= 'a' && h <= 'f') {
      value |= static_cast<std::uint32_t>(h - 'a' + 10);
    } else if (h >= 'A' && h <= 'F') {
      value |= static_cast<std::uint32_t>(h - 'A' + 10);
    } else {
      return false;
    }
  }
  pos += 4;
  code = value;
  return true;
}

void append_utf8(std::string& out, std::uint32_t code) {
  const auto byte = [&](std::uint32_t b) { out += static_cast<char>(b); };
  if (code < 0x80) {
    byte(code);
  } else if (code < 0x800) {
    byte(0xC0 | (code >> 6));
    byte(0x80 | (code & 0x3F));
  } else if (code < 0x10000) {
    byte(0xE0 | (code >> 12));
    byte(0x80 | ((code >> 6) & 0x3F));
    byte(0x80 | (code & 0x3F));
  } else {
    byte(0xF0 | (code >> 18));
    byte(0x80 | ((code >> 12) & 0x3F));
    byte(0x80 | ((code >> 6) & 0x3F));
    byte(0x80 | (code & 0x3F));
  }
}

bool high_surrogate(std::uint32_t c) { return c >= 0xD800 && c <= 0xDBFF; }
bool low_surrogate(std::uint32_t c) { return c >= 0xDC00 && c <= 0xDFFF; }

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

const char* parse_json_string(const std::string& text, std::size_t& pos,
                              std::string& out) {
  out.clear();
  while (pos < text.size()) {
    const char c = text[pos];
    if (static_cast<unsigned char>(c) < 0x20) {
      return "raw control byte in string";
    }
    ++pos;
    if (c == '"') return nullptr;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (pos >= text.size()) return "unterminated escape";
    switch (text[pos]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        ++pos;
        std::uint32_t code = 0;
        if (!hex4(text, pos, code)) return "bad \\u escape";
        if (low_surrogate(code)) return "lone low surrogate";
        if (high_surrogate(code)) {
          std::uint32_t low = 0;
          std::size_t next = pos;
          if (text.compare(next, 2, "\\u") != 0) return "lone high surrogate";
          next += 2;
          if (!hex4(text, next, low) || !low_surrogate(low)) {
            return "lone high surrogate";
          }
          pos = next;
          code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        append_utf8(out, code);
        continue;
      }
      default: return "unsupported escape";
    }
    ++pos;
  }
  return "unterminated string";
}

}  // namespace nck
