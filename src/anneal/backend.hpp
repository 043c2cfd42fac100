// End-to-end annealing backend: NchooseK program -> QUBO -> Ising -> minor
// embedding on the device -> noisy sampling -> logical samples over the
// program's variables. Mirrors what NchooseK does through D-Wave's Ocean
// API, with the QPU replaced by the simulator in sampler.hpp.
#pragma once

#include <optional>

#include "anneal/embedded_ising.hpp"
#include "anneal/embedding.hpp"
#include "anneal/sampler.hpp"
#include "anneal/topology.hpp"
#include "core/compile.hpp"
#include "core/env.hpp"
#include "resilience/fault.hpp"
#include "synth/engine.hpp"

namespace nck {

struct AnnealBackendOptions {
  AnnealerSamplerOptions sampler;
  EmbedOptions embed;
  CompileOptions compile;
  double chain_strength = 0.0;  // <= 0: automatic
  /// When non-null, the backend consults this injector at the session
  /// points where real QPU jobs fail: submission (rejection / queue
  /// timeout, after the embedding is built), calibration drift (added to
  /// the ICE sigma), and mid-session dead-qubit events (which abort the
  /// run with `fault == kDeadQubits` so the caller can re-embed).
  FaultInjector* faults = nullptr;
};

struct AnnealOutcome {
  bool embedded = false;          // false => device too small / embed failed
  std::size_t num_logical = 0;    // QUBO variables (program vars + ancillas)
  std::size_t qubits_used = 0;    // physical qubits (the paper's x-axis)
  std::size_t max_chain_length = 0;
  /// Samples projected to the program variables, ordered by ascending
  /// logical energy; paired with each sample's program evaluation.
  std::vector<std::vector<bool>> samples;
  std::vector<Evaluation> evaluations;
  DWaveTiming timing;
  /// Injected fault that aborted this run (nullopt = no fault fired).
  std::optional<FaultKind> fault;
  /// Physical qubits killed by a kDeadQubits fault; the caller should
  /// mark them inoperable and re-embed.
  std::vector<std::size_t> dead_qubits;
};

/// The annealer's prepare artifact: everything client-side and
/// deterministic — compiled QUBO, logical Ising, minor embedding, and the
/// embedded physical program. Immutable once built; execute_annealer()
/// runs any number of sampling sessions against it (the backend::Plan the
/// plan cache stores).
struct AnnealPrepared {
  Env env;  // structural copy used to evaluate unembedded samples
  CompiledQubo compiled;
  std::size_t num_sampled_vars = 0;  // QUBO variables; 0 = nothing to embed
  IsingModel logical;                // over the QUBO variables
  /// False when no minor embedding was found (the only prepare failure);
  /// the remaining fields below it are then unset.
  bool embedded = false;
  Embedding embedding;
  EmbeddedProblem problem;  // chain strength already applied
  std::size_t qubits_used = 0;
  std::size_t max_chain_length = 0;
  double compile_ms = 0.0;  // client time of the original prepare
  double embed_ms = 0.0;

  /// Approximate heap footprint, for the plan cache's byte budget.
  std::size_t bytes() const noexcept;
};

/// Client-side half: compile -> embed -> embedded Ising. Deterministic
/// given (env, device, options, rng state); consumes no faults. When the
/// QUBO is empty, `embedded` is true with no embedding (the answer is
/// fixed). When `trace` is non-null, records the compile / embed stage
/// spans.
AnnealPrepared prepare_annealer(const Env& env, const Device& device,
                                SynthEngine& engine, Rng& rng,
                                const AnnealBackendOptions& options = {},
                                obs::Trace* trace = nullptr);

/// Device-side half: submit-fault gate, dead-qubit event, calibration
/// drift, noisy sampling, unembedding, evaluation. Touches `rng` only
/// after the fault gates pass, so a rejected submission leaves the
/// caller's sample stream untouched. Requires prepared.embedded.
AnnealOutcome execute_annealer(const AnnealPrepared& prepared, Rng& rng,
                               const AnnealBackendOptions& options = {},
                               obs::Trace* trace = nullptr);

/// Runs the program on the (simulated) annealing device: prepare_annealer
/// followed by execute_annealer on the same rng. Uses and warms the
/// provided synthesis engine; pass a fresh one for isolated runs. When
/// `trace` is non-null, the compile / embed / sample stages and
/// their metrics (chain-length histogram, chain-break counters, modeled
/// device times) are recorded into it.
AnnealOutcome run_annealer(const Env& env, const Device& device,
                           SynthEngine& engine, Rng& rng,
                           const AnnealBackendOptions& options = {},
                           obs::Trace* trace = nullptr);

}  // namespace nck
