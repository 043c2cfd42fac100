#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = {
      {"serve.parse_us", "us"},
      {"serve.service_ms", "ms"},
      {"serve.response_bytes", "bytes"},
      {"serve.queue_wait_p50_ms", "ms"},
      {"serve.queue_wait_p99_ms", "ms"},
      {"serve.shed", "count"},
      {"serve.deadline_expired", "count"},
      {"serve.worker_stuck", "count"},
      {"serve.generator_late_ms", "ms"},
      {"runtime.solver_ctor_ms", "ms"},
      {"runtime.solve_ms", "ms"},
      {"runtime.walk_ms", "ms"},
      {"runtime.uncovered_ms", "ms"},
      {"runtime.span_coverage", "frac"},
      {"runtime.pool_busy_frac", "frac"},
      {"runtime.walk_trace_gap_frac", "frac"},
      {"core.parse_us", "us"},
      {"core.compile_ms", "ms"},
      {"core.qubo_vars", "count"},
      {"core.ancillas", "count"},
      {"analysis.presolve_ms", "ms"},
      {"analysis.presolve_removed_frac", "frac"},
      {"analysis.analyze_ms", "ms"},
      {"synth.ms", "ms"},
      {"synth.requests", "count"},
      {"synth.cache_hit_rate", "frac"},
      {"synth.z3_calls", "count"},
      {"synth.lp_calls", "count"},
      {"backend.plan_cache_hit_rate", "frac"},
      {"backend.plan_cache_bytes", "bytes"},
      {"backend.plan_cache_evictions", "count"},
      {"classical.truth_ms", "ms"},
      {"classical.solve_ms", "ms"},
      {"anneal.embed_ms", "ms"},
      {"anneal.embed_success_rate", "frac"},
      {"anneal.sample_ms", "ms"},
      {"anneal.spin_updates_per_s", "1/s"},
      {"anneal.qubits_used", "count"},
      {"anneal.max_chain_length", "count"},
      {"anneal.chain_break_rate", "frac"},
      {"anneal.modeled_device_ms", "ms"},
      {"circuit.transpile_ms", "ms"},
      {"circuit.depth", "count"},
      {"circuit.swap_count", "count"},
      {"circuit.optimize_ms", "ms"},
      {"circuit.statevector_runs", "count"},
      {"circuit.amplitude_updates_per_s", "1/s"},
      {"circuit.modeled_device_ms", "ms"},
      {"decompose.rounds", "count"},
      {"decompose.subproblems_ran", "count"},
      {"decompose.improved_frac", "frac"},
      {"decompose.round_ms", "ms"},
      {"decompose.subplan_hit_rate", "frac"},
      {"obs.tracing_overhead_frac", "frac"},
  };
  return catalog;
}

namespace {

/// Spans that group layer calls rather than being one.
bool grouping(const std::string& name) {
  return name == "runtime.walk" || name == "decompose.round";
}

/// Total length of the union of `iv` (intervals may overlap: pool tasks
/// run in parallel).
double union_ms(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, lo = 0.0, hi = -1.0;
  for (const auto& [a, b] : iv) {
    if (a > hi) {
      total += std::max(0.0, hi - lo);
      lo = a;
      hi = b;
    } else {
      hi = std::max(hi, b);
    }
  }
  return total + std::max(0.0, hi - lo);
}

/// Stage of a walk span, for the cross-check against SolveReport::trace.
const char* walk_stage(const std::string& name) {
  static const std::map<std::string, const char*> stages = {
      {"analysis.presolve", "presolve"}, {"synth.synthesize", "analyze"},
      {"analysis.analyze", "analyze"},   {"classical.truth", "ground_truth"},
      {"core.compile", "compile"},       {"anneal.embed", "embed"},
      {"anneal.sample", "sample"},       {"circuit.transpile", "transpile"},
      {"circuit.optimize", "optimize"},  {"classical.solve", "classical"},
      {"decompose.round", "round"}};
  const auto it = stages.find(name);
  return it == stages.end() ? nullptr : it->second;
}

/// Stage of a SolveReport::trace span, keyed "parent/name" below the top
/// level. Containers (the root, backend wrappers, decompose) return "";
/// a span the walk does not know returns nullptr.
const char* real_stage(const std::string& key) {
  static const std::map<std::string, const char*> stages = {
      {"solve", ""},
      {"anneal", ""},
      {"circuit", ""},
      {"decompose", ""},
      {"presolve", "presolve"},
      {"analyze", "analyze"},
      {"ground_truth", "ground_truth"},
      {"anneal/compile", "compile"},
      {"circuit/compile", "compile"},
      {"anneal/embed", "embed"},
      {"anneal/anneal.sample", "sample"},
      {"circuit/transpile", "transpile"},
      {"circuit/qaoa.optimize", "optimize"},
      {"circuit/qaoa.sample", "optimize"},
      {"classical", "classical"},
      {"decompose/round", "round"}};
  const auto it = stages.find(key);
  return it == stages.end() ? nullptr : it->second;
}

/// Mean per-solve ms of each stage in the real traces; stages the walk does
/// not make are keyed "unwalked:<span>".
std::map<std::string, double> real_stage_ms(
    const std::vector<nck::obs::TraceData>& real) {
  std::map<std::string, double> out;
  for (const nck::obs::TraceData& t : real) {
    for (const nck::obs::SpanRecord& s : t.spans) {
      if (s.modeled || s.depth == 0 || s.depth > 2) continue;
      std::string key = s.name;
      if (s.depth == 2) {
        const std::string& parent = t.spans[s.parent].name;
        const char* outer = real_stage(parent);
        if (outer == nullptr || *outer != '\0') continue;  // inside a stage
        key = parent + "/" + s.name;
      }
      const char* stage = real_stage(key);
      if (stage != nullptr && *stage == '\0') continue;
      out[stage ? stage : "unwalked:" + key] += s.duration_us * 1e-3;
    }
  }
  for (auto& [stage, ms] : out) ms /= static_cast<double>(real.size());
  return out;
}

}  // namespace

void set_layer_metrics(RunResult& r, const Tracer& tracer, Walk& walk,
                       const nck::backend::PlanCacheStats& cache,
                       const std::vector<nck::obs::TraceData>& real) {
  for (const auto& [name, unit] : layer_catalog()) r.set(name, 0.0, unit);

  const auto dur = tracer.durations();
  const auto mean_of = [](const std::map<std::string, std::vector<double>>& m,
                          const std::string& name) {
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : mean(it->second);
  };

  // Top-level walks are the unit: layer times are per walked solve, summed
  // over the spans inside a walk (a decompose walk nests sub-solve walks,
  // which run in parallel, so these sums can exceed the walk's wall).
  const std::vector<Span>& spans = tracer.spans();
  std::vector<double> self_ms(spans.size(), 0.0);
  std::vector<int> root(spans.size(), -1);      // top-level walk, or -1
  std::vector<bool> in_round(spans.size(), false);  // under a decompose round
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self_ms[i] = spans[i].end_ms - spans[i].start_ms;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p >= 0) {
      const auto pi = static_cast<std::size_t>(p);
      self_ms[pi] -= spans[i].end_ms - spans[i].start_ms;
      root[i] = root[pi];
      in_round[i] = in_round[pi] || spans[pi].name == "decompose.round";
    } else if (spans[i].name == "runtime.walk") {
      root[i] = static_cast<int>(i);
    }
  }
  double walks = 0.0;
  double walk_ms = 0.0;
  std::map<std::string, double> walk_self;  // span name -> summed self ms
  std::map<std::string, double> walk_stages;  // cross-check stage -> ms
  std::map<int, std::vector<std::pair<double, double>>> layer_spans;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (root[i] < 0) continue;
    walk_self[spans[i].name] += std::max(0.0, self_ms[i]);
    if (static_cast<int>(i) == root[i]) {
      walks += 1.0;
      walk_ms += spans[i].end_ms - spans[i].start_ms;
    } else if (!grouping(spans[i].name)) {
      layer_spans[root[i]].emplace_back(spans[i].start_ms, spans[i].end_ms);
    }
    if (const char* stage = walk_stage(spans[i].name); stage && !in_round[i]) {
      walk_stages[stage] += spans[i].end_ms - spans[i].start_ms;
    }
  }
  const auto walk_sum = [&](const std::string& name) {
    const auto it = walk_self.find(name);
    return it == walk_self.end() ? 0.0 : it->second;
  };
  const auto per_walk = [&](const std::string& name) {
    return walks > 0.0 ? walk_sum(name) / walks : 0.0;
  };

  r.set("serve.parse_us", mean_of(dur, "serve.parse_request") * 1e3, "us");
  r.set("runtime.solver_ctor_ms", mean_of(dur, "runtime.solver_ctor"), "ms");
  std::vector<double> real_ms;
  for (const nck::obs::TraceData& t : real) {
    if (const nck::obs::SpanRecord* s = t.find_span("solve")) {
      real_ms.push_back(s->duration_us * 1e-3);
    }
  }
  if (real_ms.size() != real.size()) r.fail("a real solve's trace has no solve span");
  const double solve_ms = mean(real_ms);
  r.set("runtime.solve_ms", solve_ms, "ms");
  if (walks > 0.0) {
    double covered = 0.0;
    for (const auto& [id, iv] : layer_spans) covered += union_ms(iv);
    covered /= walks;
    const double mean_walk = walk_ms / walks;
    r.set("runtime.walk_ms", mean_walk, "ms");
    // Real solve wall that the layer spans of the same inputs' walks do not
    // account for: the solver's own glue plus any walk/solve difference.
    r.set("runtime.uncovered_ms", solve_ms - covered, "ms");
    r.set("runtime.span_coverage", solve_ms > 0.0 ? covered / solve_ms : 0.0,
          "frac");
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "coverage: real solve %.3f ms (root span, n=%zu), walk %.3f ms "
                  "(n=%.0f), layer spans cover %.3f ms per walk",
                  solve_ms, real_ms.size(), mean_walk, walks, covered);
    r.note(buf);

    // Cross-check: the walk's time per stage against the real solves'
    // spans. A stage the walk skips shows as "unwalked:<span>".
    std::map<std::string, double> real_stages = real_stage_ms(real);
    double gap = 0.0, total = 0.0;
    std::string line = "cross-check ms per solve, walk/real:";
    for (const auto& kv : walk_stages) real_stages.try_emplace(kv.first, 0.0);
    for (const auto& [stage, real_ms_per_solve] : real_stages) {
      const auto it = walk_stages.find(stage);
      const double w = it == walk_stages.end() ? 0.0 : it->second / walks;
      gap += std::abs(w - real_ms_per_solve);
      total += real_ms_per_solve;
      std::snprintf(buf, sizeof buf, " %s=%.3f/%.3f", stage.c_str(), w,
                    real_ms_per_solve);
      line += buf;
    }
    r.note(line);
    r.set("runtime.walk_trace_gap_frac", total > 0.0 ? gap / total : 0.0, "frac");
  }
  r.set("core.parse_us", mean_of(dur, "core.parse") * 1e3, "us");
  r.set("core.compile_ms", per_walk("core.compile"), "ms");
  const WalkStats& w = walk.stats();
  if (w.compiles) {
    r.set("core.qubo_vars", w.qubo_vars / static_cast<double>(w.compiles), "count");
    r.set("core.ancillas", w.ancillas / static_cast<double>(w.compiles), "count");
  }

  r.set("analysis.presolve_ms", per_walk("analysis.presolve"), "ms");
  r.set("analysis.presolve_removed_frac",
        w.presolve_vars_in > 0.0 ? w.presolve_vars_removed / w.presolve_vars_in
                                 : 0.0,
        "frac");
  r.set("analysis.analyze_ms", per_walk("analysis.analyze"), "ms");

  const nck::SynthEngineStats st = walk.synth_stats();
  r.set("synth.ms", per_walk("synth.synthesize"), "ms");
  r.set("synth.requests", static_cast<double>(st.requests), "count");
  r.set("synth.cache_hit_rate",
        // shared_hits are the cache_hits served by the shared cache.
        st.requests ? static_cast<double>(st.cache_hits) /
                          static_cast<double>(st.requests)
                    : 0.0,
        "frac");
  r.set("synth.z3_calls", static_cast<double>(st.z3_calls), "count");
  r.set("synth.lp_calls", static_cast<double>(st.lp_calls), "count");

  const std::size_t lookups = cache.hits + cache.misses;
  r.set("backend.plan_cache_hit_rate",
        lookups ? static_cast<double>(cache.hits) / static_cast<double>(lookups)
                : 0.0,
        "frac");
  r.set("backend.plan_cache_bytes", static_cast<double>(cache.bytes), "bytes");
  r.set("backend.plan_cache_evictions", static_cast<double>(cache.evictions),
        "count");

  r.set("classical.truth_ms", per_walk("classical.truth"), "ms");
  r.set("classical.solve_ms", per_walk("classical.solve"), "ms");

  r.set("anneal.embed_ms", per_walk("anneal.embed"), "ms");
  r.set("anneal.embed_success_rate",
        w.embed_attempts ? static_cast<double>(w.embed_ok) /
                               static_cast<double>(w.embed_attempts)
                         : 0.0,
        "frac");
  r.set("anneal.sample_ms", per_walk("anneal.sample"), "ms");
  const double sample_s = walk_sum("anneal.sample") * 1e-3;
  r.set("anneal.spin_updates_per_s",
        sample_s > 0.0 ? w.spin_updates / sample_s : 0.0, "1/s");
  r.set("anneal.qubits_used", mean(w.qubits_used), "count");
  r.set("anneal.max_chain_length", mean(w.max_chain_length), "count");
  r.set("anneal.chain_break_rate",
        w.chain_slots > 0.0 ? w.chain_breaks / w.chain_slots : 0.0, "frac");
  r.set("anneal.modeled_device_ms", mean(w.anneal_device_ms), "ms");

  r.set("circuit.transpile_ms", per_walk("circuit.transpile"), "ms");
  r.set("circuit.depth", mean(w.circuit_depth), "count");
  r.set("circuit.swap_count", mean(w.swap_count), "count");
  r.set("circuit.optimize_ms", per_walk("circuit.optimize"), "ms");
  r.set("circuit.statevector_runs",
        walks > 0.0 ? w.statevector_runs / walks : 0.0, "count");
  const double optimize_s = walk_sum("circuit.optimize") * 1e-3;
  r.set("circuit.amplitude_updates_per_s",
        optimize_s > 0.0 ? w.amplitude_updates / optimize_s : 0.0, "1/s");
  r.set("circuit.modeled_device_ms", mean(w.circuit_device_ms), "ms");

  r.set("decompose.round_ms", mean_of(dur, "decompose.round"), "ms");

  // Coverage rows: per-layer self time per walked solve, summed over the
  // threads of a pooled walk.
  if (walks > 0.0) {
    std::map<std::string, double> by_layer;
    for (const auto& [name, ms] : walk_self) {
      by_layer[name.substr(0, name.find('.'))] += ms / walks;
    }
    std::string line = "layer self ms per walked solve (summed over threads):";
    char buf[64];
    for (const auto& [layer, ms] : by_layer) {
      std::snprintf(buf, sizeof buf, " %s=%.4f", layer.c_str(), ms);
      line += buf;
    }
    r.note(line);
  }
}

}  // namespace perfbench
