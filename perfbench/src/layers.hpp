// Per-layer metrics of a traced run, derived from the benchmark's spans and
// the layer walk's counts. Layers are named after the src/ modules.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "backend/plan_cache.hpp"
#include "common.hpp"
#include "obs/obs.hpp"
#include "walk.hpp"

namespace perfbench {

/// Every per-layer metric with its unit, in report order. BENCHMARK.json's
/// `per_layer` list is this list.
const std::vector<std::pair<std::string, std::string>>& layer_catalog();

/// Sets every catalog metric on `r`: the span- and walk-derived ones from
/// `tracer` and `walk`, the plan-cache ones from `cache` (the real API's
/// cache over the measured phase), and 0 for layers this workload does not
/// reach. `real` holds the SolveReport traces of real solves of the inputs
/// the walk solved, in the same cache state: runtime.solve_ms is their
/// root span, coverage is the walk's layer spans against it, and
/// runtime.walk_trace_gap_frac cross-checks the walk stage by stage
/// against their spans. Workloads then overwrite the metrics only they can
/// observe.
void set_layer_metrics(RunResult& r, const Tracer& tracer, Walk& walk,
                       const nck::backend::PlanCacheStats& cache,
                       const std::vector<nck::obs::TraceData>& real);

/// Overhead of tracing: the traced run's wall, layer walk included, over
/// the untraced run's wall for the same operations.
inline double overhead_frac(double traced_ms, double plain_ms) {
  return plain_ms > 0.0 ? traced_ms / plain_ms - 1.0 : 0.0;
}

}  // namespace perfbench
