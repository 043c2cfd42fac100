// Raw-bytes harness for the nck-trace-v1 reader (obs/json, DESIGN.md §3j).
//
// Input is one (attacker-controlled) trace document. The contract under
// test, mirroring what `nck_cli solve --trace=json` consumers rely on:
//   * trace_from_json rejects only by throwing std::runtime_error with a
//     non-empty message — no other exception type escapes;
//   * a document it accepts round-trips to a fixpoint: writing the parsed
//     trace and reading that text back gives a trace that writes the same
//     text again (NaN and infinities settle as null on the first write).
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "obs/json.hpp"

namespace {

[[noreturn]] void abort_with(const char* what, const std::string& detail) {
  std::fprintf(stderr, "fuzz_trace_json: %s: %s\n", what, detail.c_str());
  __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  nck::obs::TraceData trace;
  try {
    trace = nck::obs::trace_from_json(text);
  } catch (const std::runtime_error& e) {
    if (std::string(e.what()).empty()) {
      abort_with("rejection carries no message", text);
    }
    return 0;
  } catch (...) {
    abort_with("reader threw something other than std::runtime_error", text);
  }
  const std::string written = nck::obs::trace_to_json(trace);
  std::string rewritten;
  try {
    rewritten = nck::obs::trace_to_json(nck::obs::trace_from_json(written));
  } catch (const std::exception& e) {
    abort_with("reader rejected the writer's output", written + " : " + e.what());
  }
  if (rewritten != written) {
    abort_with("round trip is not a fixpoint", written + " != " + rewritten);
  }
  return 0;
}
