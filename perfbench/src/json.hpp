// Minimal strict JSON reader for the benchmark. It parses the workload
// configuration and every serve response, independently of the program's
// own JSON code, so a response the program writes wrongly is caught here.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  /// Member `key` of an object; throws when absent or not an object.
  const Json& at(const std::string& key) const {
    if (type != Type::kObject) throw std::runtime_error("not an object");
    const auto it = object.find(key);
    if (it == object.end()) throw std::runtime_error("missing key " + key);
    return it->second;
  }
  const Json* find(const std::string& key) const {
    if (type != Type::kObject) return nullptr;
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
  double num() const {
    if (type != Type::kNumber) throw std::runtime_error("not a number");
    return number;
  }
  const std::string& str() const {
    if (type != Type::kString) throw std::runtime_error("not a string");
    return string;
  }
};

/// Parses one complete JSON text; throws std::runtime_error on any syntax
/// error or trailing garbage.
Json parse_json(const std::string& text);

/// JSON string literal for `s`, quotes included.
std::string quote(const std::string& s);

}  // namespace perfbench
