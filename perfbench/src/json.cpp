#include "json.hpp"

#include <cstdio>
#include <cstdlib>

namespace perfbench {
namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Json document() {
    Json value = parse_value(0);
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool consume(const char* word) {
    std::size_t n = 0;
    while (word[n] != '\0') ++n;
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parse_value(int depth) {
    if (depth > 64) fail("nesting too deep");
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end");
    Json v;
    const char c = s_[pos_];
    if (c == '{') {
      v.type = Json::Type::kObject;
      ++pos_;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return v;
      }
      for (;;) {
        skip_ws();
        if (pos_ >= s_.size() || s_[pos_] != '"') fail("expected key");
        std::string key = parse_string();
        skip_ws();
        if (pos_ >= s_.size() || s_[pos_] != ':') fail("expected ':'");
        ++pos_;
        if (!v.object.emplace(key, parse_value(depth + 1)).second) {
          fail("duplicate key " + key);
        }
        skip_ws();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == '}') {
          ++pos_;
          return v;
        }
        fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      v.type = Json::Type::kArray;
      ++pos_;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return v;
      }
      for (;;) {
        v.array.push_back(parse_value(depth + 1));
        skip_ws();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == ']') {
          ++pos_;
          return v;
        }
        fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      v.type = Json::Type::kString;
      v.string = parse_string();
      return v;
    }
    if (consume("true")) {
      v.type = Json::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (consume("false")) {
      v.type = Json::Type::kBool;
      return v;
    }
    if (consume("null")) return v;
    v.type = Json::Type::kNumber;
    v.number = parse_number();
    return v;
  }

  double parse_number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    const std::size_t int_start = pos_;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    if (pos_ == int_start) fail("bad number");
    if (s_[int_start] == '0' && pos_ - int_start > 1) fail("leading zero");
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      const std::size_t frac = pos_;
      while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
      if (pos_ == frac) fail("bad fraction");
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      const std::size_t exp = pos_;
      while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
      if (pos_ == exp) fail("bad exponent");
    }
    return std::strtod(s_.substr(start, pos_ - start).c_str(), nullptr);
  }

  std::string parse_string() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("control character");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Names and details are ASCII; keep other code points as '?'.
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default: fail("bad escape");
      }
    }
    fail("unterminated string");
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

Json parse_json(const std::string& text) { return Parser(text).document(); }

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
