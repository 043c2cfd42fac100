// batch-cold, qaoa-sweep and decompose-large: callers of SolverPool and
// Solver that wait for each result (closed loop), timed per call.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>

#include "analysis/reduce/reduce.hpp"
#include "decompose/decompose.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "runtime/pool.hpp"
#include "runtime/solver.hpp"
#include "util/rng.hpp"
#include "walk.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kProgramSeed = 1234;  // Solver/SolverPool default

std::size_t count(const Json& c, const char* key) {
  return static_cast<std::size_t>(c.at(key).num());
}

/// Checks one SolveReport against the input's independent truth: the best
/// assignment is re-evaluated, and the solver's own verdict must agree.
/// When the solver deferred its truth to its own best sample (truth_exact
/// false), its "optimal" only means "feasible", so it must agree on
/// feasibility alone; optimality is then judged by the independent truth.
/// Returns true when optimal.
bool check_report(const Input& in, const nck::SolveReport& rep, RunResult& r) {
  ++r.attempted;
  if (!rep.ran) {
    r.fail(in.label + ": " + rep.failure_message());
    return false;
  }
  const Verdict v = classify(in, rep.best_assignment);
  const bool agrees =
      rep.truth_exact
          ? std::string(nck::quality_name(rep.best_quality)) == verdict_name(v)
          : (rep.best_quality == nck::Quality::kIncorrect) ==
                (v == Verdict::kIncorrect);
  if (v == Verdict::kWrong || !agrees) {
    r.fail(in.label + ": reported " + nck::quality_name(rep.best_quality) +
           ", independent check says " + verdict_name(v));
    return false;
  }
  return v == Verdict::kOptimal;
}

void check_walk(const Input& in, const WalkResult& w, RunResult& r) {
  ++r.attempted;
  if (!w.ran || classify(in, w.best) == Verdict::kWrong) {
    r.fail(in.label + ": layer walk produced no valid answer");
  }
}

/// The workload's SetupClock, configured from its workloads.json entry.
SetupClock setup_clock(const Json& c, std::function<void()> make) {
  return SetupClock(std::move(make), count(c, "setup_per_sample"));
}

/// End-to-end metrics of a closed-loop workload. The median is over the
/// calls the client waits on (`call_ms`: one batch, sweep or solve), which
/// mix instance sizes the same way every time; the tail is over single
/// solves (`solve_ms`), where there are enough samples to support it.
/// p99 of single solves, taken in the order they ran. With enough solves
/// it is the median over kBlocks consecutive blocks of each block's p99:
/// a plain p99 over some 250 circuit solves is their top two or three, so
/// a few slow seconds of a shared machine set it, where here they move one
/// block. Fewer solves (decompose-large runs three) take the plain p99.
double solve_p99(const std::vector<double>& solve_ms, std::string& how) {
  constexpr std::size_t kBlocks = 5;
  constexpr std::size_t kMinPerBlock = 20;
  const std::size_t n = solve_ms.size();
  if (n < kBlocks * kMinPerBlock) {
    how = "p99 of " + std::to_string(n) + " solves";
    return quantile(solve_ms, 0.99);
  }
  std::vector<double> per_block;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    const auto first = static_cast<std::ptrdiff_t>(b * n / kBlocks);
    const auto last = static_cast<std::ptrdiff_t>((b + 1) * n / kBlocks);
    per_block.push_back(
        quantile(std::vector<double>(solve_ms.begin() + first, solve_ms.begin() + last), 0.99));
  }
  how = "median of the p99s of " + std::to_string(kBlocks) + " consecutive blocks of " +
        std::to_string(n) + " solves";
  return quantile(per_block, 0.5);
}

void set_closed_loop_metrics(RunResult& r, const SetupClock& setup,
                             const std::string& setup_what,
                             const std::vector<double>& call_ms,
                             const std::string& call,
                             const std::vector<double>& solve_ms,
                             double solve_wall_ms, double optimal,
                             const std::vector<double>& device_ms) {
  const auto solves = static_cast<double>(solve_ms.size());
  set_setup(r, setup, setup_what);
  r.set("latency_p50_ms", quantile(call_ms, 0.5), "ms");
  std::string p99_how;
  r.set("latency_p99_ms", solve_p99(solve_ms, p99_how), "ms");
  r.set("solves_per_s",
        solve_wall_ms > 0.0 ? solves / (solve_wall_ms * 1e-3) : 0.0, "1/s");
  r.set("optimal_rate", solves > 0.0 ? optimal / solves : 0.0, "frac");
  r.note(describe("latency_p50_ms over calls: " + call, call_ms, "ms"));
  r.note(describe("single solves", solve_ms, "ms") + "; latency_p99_ms is the " +
         p99_how);
  r.note(describe("device_ms_per_solve (modeled device time, never added to "
                  "host time)",
                  device_ms, "ms"));
}

std::vector<Input> shuffled_families(const Json& c, std::uint64_t seed) {
  std::vector<Input> inputs = family_inputs(c.at("families"), seed);
  nck::Rng rng(seed ^ 0x0DE5ull);
  rng.shuffle(inputs);
  return inputs;
}

}  // namespace

RunResult run_batch_cold(const RunOptions& o, Tracer& tracer) {
  const Json& c = *o.config;
  RunResult r;
  // Batch b is its own seeded draw of the families, so a run averages over
  // many random instances instead of resting on one draw.
  const auto draw = [&](std::size_t b) {
    return shuffled_families(c, nck::stream_seed(o.seed, b));
  };
  const auto envs_of = [](const std::vector<Input>& inputs) {
    std::vector<nck::Env> envs;
    for (const Input& in : inputs) envs.push_back(in.env);
    return envs;
  };

  nck::PoolOptions po;
  po.num_threads = count(c, "threads");
  po.annealer.sampler.num_reads = count(c, "reads");
  po.annealer.sampler.num_sweeps = count(c, "sweeps");

  // Set-up is the pool plus the one Solver (device calibration) every task
  // constructs; it is sampled before every batch.
  SetupClock setup = setup_clock(c, [&] {
    nck::SolverPool pool(po);
    Scope s(tracer, "runtime.solver_ctor", 0);
    nck::Solver solver(po.seed);
  });

  // One untimed batch first: the process's own lazy start-up is paid once
  // per process, not per batch. Its pool is discarded like every other.
  nck::SolverPool(po).solve_all(envs_of(draw(SIZE_MAX)), nck::BackendKind::kAnnealer);

  // Every batch runs on a fresh pool, so every prepare misses.
  struct Batches {
    std::vector<double> walls;
    std::vector<double> task_ms;  // per-task solve wall: the root solve span
    std::vector<double> device_ms;  // modeled device time per task
    double optimal = 0.0;
    std::vector<nck::obs::TraceData> first;  // traces of batch 0's tasks
    nck::backend::PlanCacheStats cache;      // of the last batch's pool
  };
  const auto batches = [&](double seconds) {
    Batches out;
    double measured = 0.0;
    while (out.walls.empty() || measured < seconds * 1e3) {
      setup.sample();
      const std::vector<Input> inputs = draw(out.walls.size());
      nck::SolverPool pool(po);
      const Clock::time_point t0 = Clock::now();
      nck::BatchReport rep;
      {
        Scope s(tracer, "runtime.solve_all", out.walls.size());
        rep = pool.solve_all(envs_of(inputs), nck::BackendKind::kAnnealer);
      }
      out.walls.push_back(ms_between(t0, Clock::now()));
      measured += out.walls.back();
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        out.optimal += check_report(inputs[i], rep.reports[i], r) ? 1.0 : 0.0;
        out.device_ms.push_back(rep.reports[i].backend_seconds * 1e3);
        // A task's wall inside the pool is visible only in the root span
        // the runtime records for every solve.
        const nck::obs::SpanRecord* root = rep.reports[i].trace.find_span("solve");
        if (root == nullptr) {
          r.fail(inputs[i].label + ": pool task report carries no solve span");
          continue;
        }
        out.task_ms.push_back(root->duration_us * 1e-3);
        if (out.walls.size() == 1) out.first.push_back(rep.reports[i].trace);
      }
      out.cache = rep.cache;
    }
    return out;
  };

  const std::size_t batch_size = c.at("families").array.size();
  if (!o.trace) {
    const Batches b = batches(o.seconds);
    double total = 0.0;
    for (const double w : b.walls) total += w;
    set_closed_loop_metrics(r, setup, "SolverPool + one Solver, before every batch",
                            b.walls,
                            "one cold solve_all of " +
                                std::to_string(batch_size) + " programs",
                            b.task_ms, total, b.optimal, b.device_ms);
    return r;
  }

  tracer.set_enabled(false);
  const Batches plain = batches(o.seconds / 2.0);
  tracer.set_enabled(true);
  const Batches traced = batches(o.seconds / 2.0);

  // The layer walk of batch 0, the way the pool runs it: the same threads,
  // a fresh walk per task, one plan cache per batch.
  tracer.set_enabled(false);
  Walk walk(tracer, po.seed, po.annealer, po.circuit);
  tracer.set_enabled(true);
  const std::vector<Input> inputs = draw(0);
  std::vector<WalkResult> walked(inputs.size());
  const Clock::time_point w0 = Clock::now();
  walk.run_pool(inputs.size(), po.num_threads, [&](Walk& w, std::size_t i) {
    w.reseed(nck::stream_seed(po.seed, i));
    walked[i] = w.solve(inputs[i].env, nck::BackendKind::kAnnealer, i);
  });
  const double walk_wall_ms = ms_between(w0, Clock::now());
  for (std::size_t i = 0; i < inputs.size(); ++i) check_walk(inputs[i], walked[i], r);
  set_layer_metrics(r, tracer, walk, traced.cache, traced.first);

  // Busy share of the pool's threads: the runtime's own per-task solve
  // walls over threads x batch walls (a task's Solver construction counts
  // as idle, since no span of the program times it).
  double busy = 0.0, walls = 0.0;
  for (const double t : traced.task_ms) busy += t;
  for (const double w : traced.walls) walls += w;
  r.set("runtime.pool_busy_frac",
        walls > 0.0 ? busy / (static_cast<double>(po.num_threads) * walls) : 0.0,
        "frac");
  // Traced: the traced batches plus the walk of one more batch; untraced:
  // as many batches without spans.
  r.set("obs.tracing_overhead_frac",
        overhead_frac(walls + walk_wall_ms,
                      mean(plain.walls) * static_cast<double>(traced.walls.size() + 1)),
        "frac");
  return r;
}

RunResult run_qaoa_sweep(const RunOptions& o, Tracer& tracer) {
  const Json& c = *o.config;
  RunResult r;
  // Sweep k is its own seeded draw of the families.
  const auto draw = [&](std::size_t k) {
    return shuffled_families(c, nck::stream_seed(o.seed, k));
  };

  // Set-up is one Solver (device calibration); it is sampled before every
  // sweep.
  SetupClock setup = setup_clock(c, [&] {
    Scope s(tracer, "runtime.solver_ctor", 0);
    nck::Solver solver(kProgramSeed);
  });

  // One untimed sweep first, for the process's own lazy start-up.
  {
    nck::Solver solver(kProgramSeed);
    for (const Input& in : draw(SIZE_MAX)) {
      solver.solve(in.env, nck::BackendKind::kCircuit);
    }
  }

  // Each sweep is cold: a fresh Solver, so every transpile misses.
  struct Swept {
    std::vector<double> sweep_ms;
    std::vector<double> solve_ms;
    std::vector<double> device_ms;  // modeled device time per solve
    double optimal = 0.0;
    std::vector<nck::obs::TraceData> first;  // traces of sweep 0's solves
    nck::backend::PlanCacheStats cache;      // of the last sweep's Solver
  };
  const auto sweeps = [&](double seconds) {
    Swept out;
    double measured = 0.0;
    while (out.sweep_ms.empty() || measured < seconds * 1e3) {
      setup.sample();
      const std::vector<Input> inputs = draw(out.sweep_ms.size());
      nck::Solver solver(kProgramSeed);
      double sweep = 0.0;
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        const Clock::time_point t0 = Clock::now();
        nck::SolveReport rep;
        {
          Scope s(tracer, "runtime.solve", i);
          rep = solver.solve(inputs[i].env, nck::BackendKind::kCircuit);
        }
        out.solve_ms.push_back(ms_between(t0, Clock::now()));
        sweep += out.solve_ms.back();
        out.optimal += check_report(inputs[i], rep, r) ? 1.0 : 0.0;
        out.device_ms.push_back(rep.backend_seconds * 1e3);
        if (out.sweep_ms.empty()) out.first.push_back(rep.trace);
      }
      out.sweep_ms.push_back(sweep);
      measured += sweep;
      out.cache = solver.plan_cache().stats();
    }
    return out;
  };

  if (!o.trace) {
    const Swept s = sweeps(o.seconds);
    double total = 0.0;
    for (const double x : s.sweep_ms) total += x;
    set_closed_loop_metrics(r, setup, "Solver, before every sweep", s.sweep_ms,
                            "one cold sweep of " +
                                std::to_string(c.at("families").array.size()) +
                                " circuit solves",
                            s.solve_ms, total, s.optimal, s.device_ms);
    return r;
  }

  tracer.set_enabled(false);
  const Swept plain = sweeps(o.seconds / 2.0);
  tracer.set_enabled(true);
  const Swept traced = sweeps(o.seconds / 2.0);

  // The layer walk of sweep 0, cold like it.
  tracer.set_enabled(false);
  Walk walk(tracer, kProgramSeed, {}, {});
  tracer.set_enabled(true);
  const std::vector<Input> inputs = draw(0);
  const Clock::time_point w0 = Clock::now();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    check_walk(inputs[i], walk.solve(inputs[i].env, nck::BackendKind::kCircuit, i), r);
  }
  const double walk_wall_ms = ms_between(w0, Clock::now());
  set_layer_metrics(r, tracer, walk, traced.cache, traced.first);
  double traced_ms = walk_wall_ms;
  for (const double x : traced.sweep_ms) traced_ms += x;
  r.set("obs.tracing_overhead_frac",
        overhead_frac(traced_ms, mean(plain.sweep_ms) *
                                     static_cast<double>(traced.sweep_ms.size() + 1)),
        "frac");
  return r;
}

namespace {

/// The decompose stage of runtime::Solver, walked: partition once, then
/// rounds of clamp -> sub-solves (nested layer walks, run on `threads`
/// threads like the stage's SolverPool) -> polish and stitch, until no
/// neighborhood improves.
WalkResult walk_decompose(Walk& walk, Tracer& tracer, const nck::Env& env,
                          const nck::decompose::DecomposeOptions& opts,
                          std::uint64_t request) {
  Scope root(tracer, "runtime.walk", request);
  WalkResult out;
  nck::ReduceResult red;
  {
    Scope s(tracer, "analysis.presolve", request);
    red = nck::reduce_program(env);
    const nck::ReductionVerdict verdict = nck::verify_reduction(env, red);
    if (verdict.checked && !verdict.ok) red = nck::ReduceResult{};
  }
  const bool reduced = red.changed() && !red.proved_unsat;
  const nck::Env& work = reduced ? red.reduced : env;
  {
    Scope s(tracer, "analysis.analyze", request);
    if (nck::Analyzer().analyze(work).has_errors()) return out;
  }
  {
    Scope s(tracer, "classical.truth", request);
    const nck::ComponentSplit split = nck::split_components(work);
    out.truth = {true, 0};
    for (const nck::Env& component : split.programs) {
      if (component.num_vars() > opts.truth_component_vars) {
        out.truth_exact = false;
        break;
      }
      const nck::GroundTruth part = nck::ground_truth(component);
      out.truth.feasible = out.truth.feasible && part.feasible;
      out.truth.best_soft_satisfied += part.best_soft_satisfied;
    }
  }
  nck::decompose::Partition partition;
  {
    Scope s(tracer, "decompose.partition", request);
    partition = nck::decompose::plan_partition(work, opts.subproblem_vars,
                                               &walk.engine());
  }
  std::vector<bool> incumbent(work.num_vars(), false);
  nck::Evaluation inc_eval = work.evaluate(incumbent);
  for (std::size_t round = 1; round <= opts.max_rounds; ++round) {
    Scope round_span(tracer, "decompose.round", request);
    std::vector<nck::decompose::Subproblem> subs;
    {
      Scope s(tracer, "decompose.clamp", request);
      for (const std::vector<nck::VarId>& part : partition.parts) {
        subs.push_back(nck::decompose::clamp_to_incumbent(work, part, incumbent));
      }
    }
    // The stage's pool salts every task's stream with the round.
    const std::uint64_t base = nck::stream_seed(kProgramSeed, round);
    std::vector<WalkResult> results(subs.size());
    walk.run_pool(subs.size(), opts.num_threads, [&](Walk& w, std::size_t k) {
      w.reseed(nck::stream_seed(base, k));
      results[k] = w.solve(subs[k].env, nck::BackendKind::kAnnealer, request,
                           opts.truth_component_vars);
    });
    std::size_t improved = 0;
    for (std::size_t k = 0; k < subs.size(); ++k) {
      if (!results[k].ran) continue;
      Scope s(tracer, "decompose.stitch", request);
      const std::vector<bool> best =
          nck::decompose::polish_assignment(subs[k].env, results[k].best);
      std::vector<bool> candidate = incumbent;
      for (std::size_t i = 0; i < subs[k].vars.size(); ++i) {
        candidate[subs[k].vars[i]] = best[i];
      }
      const nck::Evaluation eval = work.evaluate(candidate);
      if (nck::decompose::improves(eval, inc_eval)) {
        incumbent = std::move(candidate);
        inc_eval = eval;
        ++improved;
      }
    }
    if (improved == 0) break;
  }
  out.ran = true;
  out.best = reduced ? red.trace.lift(incumbent) : incumbent;
  if (reduced && out.truth.feasible) {
    out.truth.best_soft_satisfied += red.trace.soft_always_satisfied;
  }
  return out;
}

}  // namespace

RunResult run_decompose_large(const RunOptions& o, Tracer& tracer) {
  const Json& c = *o.config;
  RunResult r;
  Input base = program_input(o.inputs_dir + "/" + c.at("program").str());
  base.truth = {true, count(c, "optimum_soft_satisfied")};
  const Input in = renamed(base, o.seed);

  nck::decompose::DecomposeOptions opts;
  opts.enabled = true;
  opts.num_threads = count(c, "threads");
  const auto configure = [&](nck::Solver& solver) {
    solver.solve_options().decompose = opts;
  };

  // Set-up is one Solver (device calibration); it is sampled before every
  // solve and once after the last.
  SetupClock setup = setup_clock(c, [&] {
    Scope s(tracer, "runtime.solver_ctor", 0);
    nck::Solver solver(kProgramSeed);
  });

  // Each solve is cold: a fresh Solver per solve.
  struct Solved {
    std::vector<double> latency;
    std::vector<double> device_ms;  // modeled device time per solve
    double optimal = 0.0;
    nck::SolveReport last;
    nck::backend::PlanCacheStats cache;  // of the last solve's Solver
  };
  const auto solves = [&](double seconds, std::size_t min_solves) {
    Solved s;
    const Clock::time_point start = Clock::now();
    while (s.latency.size() < min_solves ||
           ms_between(start, Clock::now()) < seconds * 1e3) {
      setup.sample();
      nck::Solver solver(kProgramSeed);
      configure(solver);
      const Clock::time_point t0 = Clock::now();
      {
        Scope span(tracer, "runtime.solve", s.latency.size());
        s.last = solver.solve(in.env, nck::BackendKind::kAnnealer);
      }
      s.latency.push_back(ms_between(t0, Clock::now()));
      s.optimal += check_report(in, s.last, r) ? 1.0 : 0.0;
      s.device_ms.push_back(s.last.backend_seconds * 1e3);
      s.cache = solver.plan_cache().stats();
    }
    setup.sample();
    return s;
  };

  if (!o.trace) {
    const Solved s = solves(o.seconds, count(c, "min_solves"));
    double total = 0.0;
    for (const double l : s.latency) total += l;
    set_closed_loop_metrics(r, setup, "Solver, before and after every solve",
                            s.latency, "one cold decomposed Solver::solve",
                            s.latency, total, s.optimal, s.device_ms);
    if (s.last.decompose) {
      r.note("rounds " + std::to_string(s.last.decompose->rounds) + ", " +
             std::to_string(s.last.decompose->subproblems) + " subproblems");
    }
    return r;
  }

  tracer.set_enabled(false);
  const Solved plain = solves(0.0, 1);
  tracer.set_enabled(true);
  const Solved traced = solves(0.0, 1);

  nck::AnnealBackendOptions anneal;
  anneal.sampler.postprocess = true;  // what the decompose stage sets
  anneal.sampler.postprocess_tabu_iters = 512;
  tracer.set_enabled(false);
  Walk walk(tracer, kProgramSeed, anneal, {});
  tracer.set_enabled(true);
  const Clock::time_point w0 = Clock::now();
  check_walk(in, walk_decompose(walk, tracer, in.env, opts, 0), r);
  const double walk_wall_ms = ms_between(w0, Clock::now());

  set_layer_metrics(r, tracer, walk, traced.cache, {traced.last.trace});

  const nck::SolveReport& rep = traced.last;
  if (rep.decompose) {
    const nck::decompose::DecomposeSummary& d = *rep.decompose;
    double ran = 0.0, improved = 0.0, hits = 0.0, lookups = 0.0;
    for (const nck::decompose::RoundStats& rs : d.round_stats) {
      ran += static_cast<double>(rs.subproblems_ran);
      improved += static_cast<double>(rs.improved);
      hits += static_cast<double>(rs.cache_hits);
      lookups += static_cast<double>(rs.cache_hits + rs.cache_misses);
    }
    r.set("decompose.rounds", static_cast<double>(d.rounds), "count");
    r.set("decompose.subproblems_ran", ran, "count");
    r.set("decompose.improved_frac", ran > 0.0 ? improved / ran : 0.0, "frac");
    r.set("decompose.subplan_hit_rate", lookups > 0.0 ? hits / lookups : 0.0,
          "frac");
  }
  // Busy share of the sub-solve pool's threads. The stage's own pool does
  // not expose its tasks' walls, so this is the walked rounds, which run
  // the same tasks on the same threads: sub-solve walls over threads x
  // round walls.
  const std::vector<Span>& spans = tracer.spans();
  double busy = 0.0, rounds = 0.0;
  std::size_t walked_rounds = 0;
  for (const Span& s : spans) {
    const double ms = s.end_ms - s.start_ms;
    if (s.name == "decompose.round") {
      rounds += ms;
      ++walked_rounds;
    }
    if (s.name == "runtime.walk" && s.parent >= 0 &&
        spans[static_cast<std::size_t>(s.parent)].name == "decompose.round") {
      busy += ms;
    }
  }
  r.set("runtime.pool_busy_frac",
        rounds > 0.0 ? busy / (static_cast<double>(opts.num_threads) * rounds) : 0.0,
        "frac");
  r.note("rounds: walk " + std::to_string(walked_rounds) + ", real solve " +
         std::to_string(rep.decompose ? rep.decompose->rounds : 0));
  r.set("obs.tracing_overhead_frac",
        overhead_frac(mean(traced.latency) + walk_wall_ms, 2.0 * mean(plain.latency)),
        "frac");
  return r;
}

}  // namespace perfbench
