// The four workloads. Each runs against the program's public APIs, checks
// every output against independent truth, and fills a RunResult: the
// end-to-end metrics when untraced, the per-layer metrics when traced.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "json.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string inputs_dir;  // perfbench/inputs
  const Json* config = nullptr;  // this workload's workloads.json entry
};

RunResult run_serve_hot(const RunOptions& options, Tracer& tracer);
RunResult run_batch_cold(const RunOptions& options, Tracer& tracer);
RunResult run_qaoa_sweep(const RunOptions& options, Tracer& tracer);
RunResult run_decompose_large(const RunOptions& options, Tracer& tracer);

}  // namespace perfbench
