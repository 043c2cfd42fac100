// The layer walk: the traced run's way of seeing inside one solve from
// outside the program. It solves a program by calling each layer's public
// functions itself, in the order runtime::Solver calls them (presolve,
// synthesis, analysis, ground truth, compile, embed or transpile, sample
// or optimize), with one benchmark-owned span around every call. Stages
// the solver memoizes in its plan cache are memoized here the same way,
// in a cache of the walk's own, so a warm walk skips what a warm solve
// skips.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "anneal/backend.hpp"
#include "anneal/topology.hpp"
#include "backend/plan_cache.hpp"
#include "backend/registry.hpp"
#include "circuit/backend.hpp"
#include "core/env.hpp"
#include "analysis/analyzer.hpp"
#include "runtime/result.hpp"
#include "synth/engine.hpp"
#include "common.hpp"

namespace perfbench {

/// Layer quantities that are counts or sizes rather than span times.
struct WalkStats {
  std::size_t compiles = 0;
  double qubo_vars = 0.0;  // summed over compiles
  double ancillas = 0.0;
  double presolve_vars_in = 0.0;
  double presolve_vars_removed = 0.0;
  std::size_t embed_attempts = 0;
  std::size_t embed_ok = 0;
  std::vector<double> qubits_used;
  std::vector<double> max_chain_length;
  double chain_breaks = 0.0;
  double chain_slots = 0.0;  // reads x chains
  double spin_updates = 0.0;  // reads x sweeps x replicas x spins
  std::vector<double> anneal_device_ms;
  std::vector<double> circuit_depth;
  std::vector<double> swap_count;
  std::vector<double> circuit_device_ms;
  double statevector_runs = 0.0;
  double amplitude_updates = 0.0;  // runs x 2^qubits

  void merge(const WalkStats& other);
};

struct WalkResult {
  bool ran = false;
  std::vector<bool> best;  // over the input program's variables
  nck::GroundTruth truth;
  bool truth_exact = true;
};

class Walk {
 public:
  /// `seed` plays the role of the Solver's construction seed: it fixes the
  /// device calibration, so walk plans match the solver's. Walks given one
  /// `cache` share plans the way Solvers given one plan cache do; a null
  /// cache makes a fresh one. The calibration is one anneal.calibrate span.
  Walk(Tracer& tracer, std::uint64_t seed,
       const nck::AnnealBackendOptions& anneal,
       const nck::CircuitBackendOptions& circuit,
       std::shared_ptr<nck::backend::PlanCache> cache = nullptr);

  Walk(const Walk&) = delete;
  Walk& operator=(const Walk&) = delete;

  /// Solves `env` on `backend` through the layer functions. Programs with
  /// more than `truth_max_vars` variables take their truth from their own
  /// best sample, as SolveOptions::truth_exact_max_vars does.
  WalkResult solve(const nck::Env& env, nck::BackendKind backend,
                   std::uint64_t request,
                   std::size_t truth_max_vars = SIZE_MAX);

  /// Re-seeds the sample stream (the solver's reseed()).
  void reseed(std::uint64_t seed) { rng_ = nck::Rng(seed); }

  /// Runs tasks 0..tasks-1 the way SolverPool::solve_all does: `threads`
  /// threads take tasks in order, and every task gets a fresh Walk (as
  /// every pool task gets a fresh Solver) with this walk's seed and
  /// options, sharing this walk's plan cache. `task(walk, i)` runs task i;
  /// task spans nest under the caller's open span, and the task walks'
  /// counts are added to this walk's.
  void run_pool(std::size_t tasks, std::size_t threads,
                const std::function<void(Walk&, std::size_t)>& task);

  nck::SynthEngine& engine() noexcept { return engine_; }
  const WalkStats& stats() const noexcept { return stats_; }
  /// Synthesis counts of this walk's engine and of its pool tasks' engines.
  nck::SynthEngineStats synth_stats() const;

 private:
  Tracer& tracer_;
  std::uint64_t seed_;
  nck::Rng rng_;
  nck::Device device_;
  nck::Graph coupling_;
  nck::AnnealBackendOptions anneal_;
  nck::CircuitBackendOptions circuit_;
  nck::backend::Registry registry_;
  std::shared_ptr<nck::backend::PlanCache> cache_;
  nck::SynthEngine engine_;
  nck::Analyzer analyzer_;
  WalkStats stats_;
  nck::SynthEngineStats pool_synth_;  // summed over run_pool task walks
};

}  // namespace perfbench
