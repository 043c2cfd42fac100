// The JSON number grammar, shared by the strict readers (the nck_serve wire
// protocol and the nck-trace-v1 trace reader). strtod alone also parses
// "inf", "nan" and hex floats such as "0x1p4", which are not JSON.
#pragma once

#include <cstddef>
#include <string>

namespace nck {

/// Parses the JSON number token at text[pos]:
///   -? (0 | [1-9] digits*) (. digits)? ((e|E) (+|-)? digits)?
/// Returns the token's length and stores its value (strtod's, so
/// out-of-range magnitudes read as +-HUGE_VAL or 0); returns 0 and leaves
/// `value` alone when no such token starts at pos: a leading '+', '.' or
/// zero ("01"), "inf", "nan", a bare '-', "1." or "1e", or a token strtod
/// would read past, such as the "0" of "0x1p4".
std::size_t parse_json_number(const std::string& text, std::size_t pos,
                              double& value) noexcept;

}  // namespace nck
