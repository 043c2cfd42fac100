// The JSON string codec, shared by every writer (obs traces, serve
// responses, analysis reports, certificates, nck_cli) and by the strict
// readers (the nck_serve wire protocol and the nck-trace-v1 trace reader),
// so what one side writes the other reads back byte for byte.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace nck {

/// `s` escaped for the inside of a JSON string: `"` and `\` backslashed,
/// \n \t \r as their short escapes, every other byte below 0x20 as
/// \u00xx, and all other bytes (UTF-8 included) verbatim.
std::string json_escape(std::string_view s);

/// Reads the rest of a JSON string whose opening quote ends at text[pos].
/// On success stores the decoded bytes in `out`, moves `pos` past the
/// closing quote and returns null. On failure returns the reason and
/// leaves `pos` at the offending byte. Every JSON escape is decoded;
/// \uXXXX becomes UTF-8, a surrogate pair one four-byte sequence. A lone
/// surrogate and a raw byte below 0x20 are rejected.
const char* parse_json_string(const std::string& text, std::size_t& pos,
                              std::string& out);

}  // namespace nck
