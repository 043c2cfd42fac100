// Golden and regression tests for the hardware-fast hot loops: the
// bit-packed parallel-tempering annealer (anneal/packed.hpp) against the
// scalar IsingModel energy and, bitwise, against the scalar libm-exp sweep
// it replaced (plus the exp-free acceptance against u < exp(-x)), the
// fused diagonal QAOA kernel
// (circuit/diagonal.hpp) against per-gate application and, bitwise,
// against the scalar table/phase/mixer loops it replaced, the beta-schedule
// endpoint fix, the deep-p norm-drift fix, and the determinism contracts of
// the sampler (thread-count invariance, postprocess isolation) and of the
// QAOA state vector (thread-count invariance).
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <limits>
#include <map>
#include <vector>

#include "anneal/embedded_ising.hpp"
#include "anneal/embedding.hpp"
#include "anneal/packed.hpp"
#include "anneal/sampler.hpp"
#include "anneal/topology.hpp"
#include "circuit/circuit.hpp"
#include "circuit/coupling.hpp"
#include "circuit/diagonal.hpp"
#include "circuit/qaoa.hpp"
#include "circuit/statevector.hpp"
#include "graph/generators.hpp"
#include "qubo/heuristic.hpp"
#include "qubo/ising.hpp"
#include "util/rng.hpp"

namespace nck {
namespace {

std::vector<bool> spins_of(const PackedState& state, std::size_t n) {
  std::vector<bool> spins(n);
  for (std::size_t i = 0; i < n; ++i) spins[i] = state.up(i);
  return spins;
}

// Random sparse Ising with embedded-problem structure: weak logical-style
// couplers plus a sprinkling of strong ferromagnetic (chain-style) ones.
IsingModel random_embedded_ising(std::size_t n, Rng& rng) {
  IsingModel model;
  model.h.resize(n);
  for (double& h : model.h) h = rng.uniform(-1.0, 1.0);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      if (!rng.bernoulli(std::min(1.0, 4.0 / static_cast<double>(n)))) continue;
      const bool chain_like = rng.bernoulli(0.25);
      const double w = chain_like ? -2.0 : rng.uniform(-1.0, 1.0);
      model.j.emplace_back(static_cast<Qubo::Var>(a),
                           static_cast<Qubo::Var>(b), w);
    }
  }
  model.offset = rng.uniform(-1.0, 1.0);
  return model;
}

// ------------------------------------------------- Packed energy goldens

TEST(PackedKernel, EnergyAndDeltasMatchScalarModelOn200RandomProblems) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(trial) % 39;
    const IsingModel model = random_embedded_ising(n, rng);
    const PackedIsing packed(model);
    PackedWorkspace workspace(packed);
    workspace.load_clean();

    PackedState state;
    state.words.resize(packed.num_words());
    state.field.resize(n);
    workspace.randomize(state, rng);
    workspace.refresh(state);

    // Tracked energy (offset excluded) matches the scalar reference.
    EXPECT_NEAR(state.energy + model.offset, model.energy(spins_of(state, n)),
                1e-9);

    // Field-based flip deltas match scalar energy differences, and the
    // incrementally-maintained energy stays exact across a flip walk.
    for (std::size_t step = 0; step < 3 * n; ++step) {
      const std::size_t i = static_cast<std::size_t>(rng.below(n));
      const double s = state.up(i) ? 1.0 : -1.0;
      const double delta = -2.0 * s * state.field[i];
      const double before = model.energy(spins_of(state, n));
      // Apply the flip through a sweep-free path: toggle via a forced
      // Metropolis acceptance is private, so recompute by hand.
      std::vector<bool> flipped = spins_of(state, n);
      flipped[i] = !flipped[i];
      EXPECT_NEAR(model.energy(flipped) - before, delta, 1e-9)
          << "trial " << trial << " spin " << i;
      // Walk the state forward with refresh as the oracle.
      state.toggle(i);
      workspace.refresh(state);
    }
  }
}

TEST(PackedKernel, SweepAndDescendKeepTrackedEnergyConsistent) {
  Rng rng(77);
  const IsingModel model = random_embedded_ising(24, rng);
  const PackedIsing packed(model);
  PackedWorkspace workspace(packed);
  workspace.load_clean();

  PackedState state;
  state.words.resize(packed.num_words());
  state.field.resize(model.num_spins());
  workspace.randomize(state, rng);
  workspace.refresh(state);
  for (int sweep = 0; sweep < 32; ++sweep) {
    workspace.sweep(state, 0.5 + 0.1 * sweep, rng);
  }
  workspace.descend(state);
  const double tracked = state.energy;
  workspace.refresh(state);
  EXPECT_NEAR(tracked, state.energy, 1e-9);
  EXPECT_NEAR(state.energy + model.offset,
              model.energy(spins_of(state, model.num_spins())), 1e-9);
}

TEST(PackedKernel, TemperingFindsGroundStateOfFrustratedProblem) {
  // Frustrated 6-spin ring with a bias; brute-force the true ground energy.
  IsingModel model;
  model.h = {0.3, -0.2, 0.1, 0.25, -0.15, 0.05};
  for (std::uint32_t i = 0; i < 6; ++i) {
    model.j.emplace_back(std::min(i, (i + 1) % 6u), std::max(i, (i + 1) % 6u),
                         i % 2 == 0 ? 1.0 : -1.0);
  }
  double ground = 1e300;
  for (std::uint32_t bits = 0; bits < 64; ++bits) {
    std::vector<bool> s(6);
    for (std::size_t q = 0; q < 6; ++q) s[q] = (bits >> q) & 1u;
    ground = std::min(ground, model.energy(s));
  }

  const PackedIsing packed(model);
  PackedWorkspace workspace(packed);
  workspace.load_clean();
  TemperingOptions options;
  options.num_replicas = 4;
  options.num_sweeps = 256;
  options.exchange_interval = 8;
  Rng rng(5);
  const PackedState& best = workspace.anneal(options, rng);
  EXPECT_NEAR(best.energy + model.offset, ground, 1e-9);
}

TEST(PackedKernel, AnnealIsDeterministicForFixedSeed) {
  Rng gen(11);
  const IsingModel model = random_embedded_ising(30, gen);
  const PackedIsing packed(model);
  TemperingOptions options;
  options.num_replicas = 8;
  options.num_sweeps = 512;

  PackedWorkspace w1(packed), w2(packed);
  w1.load_clean();
  w2.load_clean();
  Rng r1(99), r2(99);
  const PackedState& a = w1.anneal(options, r1);
  const std::vector<bool> sa = spins_of(a, model.num_spins());
  const double ea = a.energy;
  const PackedState& b = w2.anneal(options, r2);
  EXPECT_EQ(sa, spins_of(b, model.num_spins()));
  EXPECT_EQ(ea, b.energy);
}

// ------------------------------------------------------- Beta schedule

TEST(BetaSchedule, HitsBothEndpointsExactly) {
  AnnealParams params;
  params.num_sweeps = 1024;
  params.beta_initial = 0.05;
  params.beta_final = 6.0;
  const std::vector<double> betas = beta_schedule(params);
  ASSERT_EQ(betas.size(), 1024u);
  // Exact equality is the point of the fix: the old cumulative
  // multiplication drifted off beta_final on the last sweep.
  EXPECT_EQ(betas.front(), params.beta_initial);
  EXPECT_EQ(betas.back(), params.beta_final);
  for (std::size_t i = 1; i < betas.size(); ++i) {
    EXPECT_GE(betas[i], betas[i - 1]);
  }
}

TEST(BetaSchedule, SingleSweepAnnealsColdNotHot) {
  // Regression: a one-sweep schedule used to run at beta_initial (never
  // annealed); it must run at beta_final.
  AnnealParams params;
  params.num_sweeps = 1;
  params.beta_initial = 0.1;
  params.beta_final = 8.0;
  const std::vector<double> betas = beta_schedule(params);
  ASSERT_EQ(betas.size(), 1u);
  EXPECT_EQ(betas[0], params.beta_final);
}

TEST(BetaSchedule, TemperingLadderEndpointsExact) {
  TemperingOptions options;
  options.num_replicas = 8;
  options.beta_initial = 0.05;
  options.beta_final = 6.0;
  const std::vector<double> ladder = tempering_ladder(options);
  ASSERT_EQ(ladder.size(), 8u);
  EXPECT_EQ(ladder.front(), options.beta_initial);
  EXPECT_EQ(ladder.back(), options.beta_final);
  options.num_replicas = 1;
  const std::vector<double> single = tempering_ladder(options);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0], options.beta_final);
}

// --------------------------------------------------- Fused QAOA kernel

TEST(FusedDiagonal, MatchesPerGateApplicationOnRandomCircuits) {
  Rng rng(404);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(trial) % 9;
    const IsingModel model = random_embedded_ising(n, rng);
    const std::size_t p = 1 + static_cast<std::size_t>(trial) % 3;
    std::vector<double> params(2 * p);
    for (double& v : params) v = rng.uniform(-1.5, 1.5);

    // Per-gate reference: H layer + RZZ/RZ cost + RX mixer, gate by gate.
    const Circuit circuit = build_qaoa_circuit(model, params);
    StateVector reference(n);
    circuit.run(reference);

    StateVector fused(n);
    DiagonalCost cost(model, n);
    cost.evolve_qaoa(fused, params);

    ASSERT_EQ(reference.dimension(), fused.dimension());
    for (std::uint64_t z = 0; z < reference.dimension(); ++z) {
      EXPECT_NEAR(std::abs(reference.amplitude(z) - fused.amplitude(z)), 0.0,
                  1e-12)
          << "trial " << trial << " basis " << z;
    }
  }
}

TEST(FusedDiagonal, TableIsTheIsingEnergyWithoutOffset) {
  Rng rng(8);
  const IsingModel model = random_embedded_ising(6, rng);
  const DiagonalCost cost(model, 6);
  for (std::uint64_t z = 0; z < 64; ++z) {
    std::vector<bool> s(6);
    for (std::size_t q = 0; q < 6; ++q) s[q] = (z >> q) & 1u;
    EXPECT_NEAR(cost.energy(z) + model.offset, model.energy(s), 1e-12);
  }
}

TEST(FusedDiagonal, DeepCircuitNormStaysWithinTolerance) {
  // Satellite bugfix: deep-p QAOA (p = 10) must keep ||psi||^2 within 1e-9
  // of 1 — the fused path renormalizes, and even the per-gate path must not
  // drift past the tolerance.
  Rng rng(91);
  const IsingModel model = random_embedded_ising(10, rng);
  std::vector<double> params(20);
  for (double& v : params) v = rng.uniform(-1.2, 1.2);

  StateVector fused(10);
  const DiagonalCost cost(model, 10);
  cost.evolve_qaoa(fused, params);
  EXPECT_NEAR(fused.norm(), 1.0, 1e-9);

  const Circuit circuit = build_qaoa_circuit(model, params);
  StateVector reference(10);
  circuit.run(reference);
  EXPECT_NEAR(reference.norm(), 1.0, 1e-9);
}

TEST(FusedDiagonal, CostLayerPhaseSignMatchesEvolutionConvention) {
  // Regression for the rz sign bug: the builders emitted rz(+2*gamma*h),
  // which evolves under -sum h_i s_i instead of +sum h_i s_i whenever the
  // model mixes fields and couplers. For H = h*s on one qubit with beta = 0
  // the state must be e^{-i*gamma*E(z)} per basis state, i.e.
  // arg(amp(1)) - arg(amp(0)) = -gamma*(E(1) - E(0)) = -2*gamma*h.
  IsingModel model;
  model.h = {0.7};
  const double gamma = 0.6;
  const Circuit circuit = build_qaoa_circuit(model, {gamma, 0.0});
  StateVector state(1);
  circuit.run(state);
  const double phase =
      std::arg(state.amplitude(1)) - std::arg(state.amplitude(0));
  EXPECT_NEAR(phase, -2.0 * gamma * model.h[0], 1e-12);

  StateVector fused(1);
  const DiagonalCost cost(model, 1);
  cost.evolve_qaoa(fused, {gamma, 0.0});
  EXPECT_NEAR(std::arg(fused.amplitude(1)) - std::arg(fused.amplitude(0)),
              -2.0 * gamma * model.h[0], 1e-12);
}

TEST(FusedDiagonal, RxLayerMatchesPerQubitRx) {
  Rng rng(55);
  const std::size_t n = 7;
  StateVector a(n), b(n);
  a.fill_uniform();
  b.fill_uniform();
  const double theta = 0.73;
  a.rx_layer(theta);
  for (std::size_t q = 0; q < n; ++q) b.rx(q, theta);
  for (std::uint64_t z = 0; z < a.dimension(); ++z) {
    EXPECT_NEAR(std::abs(a.amplitude(z) - b.amplitude(z)), 0.0, 1e-13);
  }
}

TEST(FusedDiagonal, FillUniformMatchesHadamardLayer) {
  const std::size_t n = 9;
  StateVector a(n), b(n);
  a.fill_uniform();
  for (std::size_t q = 0; q < n; ++q) b.h(q);
  for (std::uint64_t z = 0; z < a.dimension(); ++z) {
    EXPECT_NEAR(std::abs(a.amplitude(z) - b.amplitude(z)), 0.0, 1e-12);
  }
  EXPECT_NEAR(a.norm(), 1.0, 1e-12);
}

// ------------------------------ Bit identity with the scalar QAOA loops
//
// The level-indexed phase and the cache-blocked mixer promise the exact
// amplitudes, before normalization, of the plain loops they replaced: an
// E(z) table summed one Ising term at a time, std::polar per amplitude,
// and one rx pass per qubit in qubit order. Those loops live here, scalar
// and in std::complex arithmetic, as the reference.

using Amps = std::vector<std::complex<double>>;

std::vector<double> scalar_energy_table(const IsingModel& model,
                                        std::size_t n) {
  std::vector<double> table(std::size_t{1} << n, 0.0);
  for (std::size_t q = 0; q < model.h.size(); ++q) {
    const double hq = model.h[q];
    if (hq == 0.0) continue;
    for (std::uint64_t z = 0; z < table.size(); ++z) {
      table[z] += ((z >> q) & 1u) != 0 ? hq : -hq;
    }
  }
  for (const auto& [a, b, w] : model.j) {
    if (w == 0.0) continue;
    for (std::uint64_t z = 0; z < table.size(); ++z) {
      const bool parity = (((z >> a) ^ (z >> b)) & 1u) != 0;
      table[z] += parity ? -w : w;
    }
  }
  return table;
}

Amps scalar_qaoa_amplitudes(const IsingModel& model, std::size_t n,
                            const std::vector<double>& params) {
  const std::vector<double> table = scalar_energy_table(model, n);
  Amps amps(table.size(), std::complex<double>(
                              1.0 / std::sqrt(static_cast<double>(
                                        table.size())),
                              0.0));
  for (std::size_t layer = 0; layer < params.size() / 2; ++layer) {
    const double gamma = params[2 * layer];
    for (std::size_t z = 0; z < amps.size(); ++z) {
      amps[z] *= std::polar(1.0, -gamma * table[z]);
    }
    const double theta = 2.0 * params[2 * layer + 1];
    const double c = std::cos(theta / 2);
    const std::complex<double> ms(0.0, -std::sin(theta / 2));
    for (std::size_t q = 0; q < n; ++q) {
      const std::uint64_t stride = std::uint64_t{1} << q;
      for (std::uint64_t z = 0; z < amps.size(); ++z) {
        if (z & stride) continue;
        const std::complex<double> a0 = amps[z];
        const std::complex<double> a1 = amps[z | stride];
        amps[z] = c * a0 + ms * a1;
        amps[z | stride] = ms * a0 + c * a1;
      }
    }
  }
  return amps;
}

Amps amplitudes_of(const StateVector& state) {
  Amps amps(state.dimension());
  for (std::uint64_t z = 0; z < amps.size(); ++z) amps[z] = state.amplitude(z);
  return amps;
}

// The kernels under test, without evolve_qaoa's final renormalize.
Amps kernel_qaoa_amplitudes(const DiagonalCost& cost,
                            const std::vector<double>& params) {
  StateVector state(cost.num_qubits());
  state.fill_uniform();
  for (std::size_t layer = 0; layer < params.size() / 2; ++layer) {
    cost.apply(state, params[2 * layer]);
    state.rx_layer(2.0 * params[2 * layer + 1]);
  }
  return amplitudes_of(state);
}

bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

std::size_t bitwise_mismatches(const Amps& a, const Amps& b) {
  EXPECT_EQ(a.size(), b.size());
  std::size_t mismatches = 0;
  for (std::size_t z = 0; z < std::min(a.size(), b.size()); ++z) {
    if (!same_bits(a[z].real(), b[z].real()) ||
        !same_bits(a[z].imag(), b[z].imag())) {
      ++mismatches;
    }
  }
  return mismatches;
}

// Sparse Ising with the small integer weights of a compiled NchooseK QUBO,
// so E(z) takes few distinct levels.
IsingModel integer_weight_ising(std::size_t n, Rng& rng) {
  IsingModel model;
  model.h.resize(n);
  for (double& h : model.h) {
    h = 0.5 * static_cast<double>(static_cast<int>(rng.uniform(-4.0, 5.0)));
  }
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      if (!rng.bernoulli(std::min(1.0, 3.0 / static_cast<double>(n)))) continue;
      const double w =
          static_cast<double>(static_cast<int>(rng.uniform(-3.0, 4.0)));
      model.j.emplace_back(static_cast<Qubo::Var>(a),
                           static_cast<Qubo::Var>(b), w);
    }
  }
  return model;
}

std::vector<double> random_angles(std::size_t p, Rng& rng) {
  std::vector<double> params(2 * p);
  for (double& v : params) v = rng.uniform(-1.5, 1.5);
  return params;
}

TEST(FusedBitIdentity, LevelPhaseAndBlockedMixerMatchScalarLoops) {
  const std::size_t block = StateVector::kMixerBlockQubits;
  const std::size_t sizes[] = {1, 2, block - 1, block, block + 1, 18};
  Rng rng(2506);
  for (const std::size_t n : sizes) {
    const IsingModel model = integer_weight_ising(n, rng);
    const DiagonalCost cost(model, n);
    for (const std::size_t p : {std::size_t{1}, std::size_t{3}}) {
      const std::vector<double> params = random_angles(p, rng);
      EXPECT_EQ(bitwise_mismatches(kernel_qaoa_amplitudes(cost, params),
                                   scalar_qaoa_amplitudes(model, n, params)),
                0u)
          << "n " << n << " p " << p << ", " << cost.levels().size()
          << " levels";
    }
  }
}

TEST(FusedBitIdentity, ManyLevelsRandomRealCoefficients) {
  // Random real weights make almost every E(z) its own level: the phase
  // pass then evaluates std::polar once per basis state, as the scalar
  // loop does, and must still agree bit for bit.
  Rng rng(77);
  const std::size_t n = 14;
  const IsingModel model = random_embedded_ising(n, rng);
  const DiagonalCost cost(model, n);
  EXPECT_GT(cost.levels().size(), std::size_t{1} << (n - 1));
  for (const std::size_t p : {std::size_t{1}, std::size_t{3}}) {
    const std::vector<double> params = random_angles(p, rng);
    EXPECT_EQ(bitwise_mismatches(kernel_qaoa_amplitudes(cost, params),
                                 scalar_qaoa_amplitudes(model, n, params)),
              0u)
        << "p " << p;
  }
}

TEST(FusedBitIdentity, LevelsReproduceTheTermByTermTable) {
  Rng rng(31);
  for (const std::size_t n : {std::size_t{3}, std::size_t{13}}) {
    for (const bool many : {false, true}) {
      const IsingModel model =
          many ? random_embedded_ising(n, rng) : integer_weight_ising(n, rng);
      const DiagonalCost cost(model, n);
      const std::vector<double> table = scalar_energy_table(model, n);
      std::size_t mismatches = 0;
      for (std::uint64_t z = 0; z < table.size(); ++z) {
        if (!same_bits(cost.energy(z), table[z])) ++mismatches;
      }
      EXPECT_EQ(mismatches, 0u) << "n " << n << " many " << many;
      // Levels are distinct bit patterns.
      std::vector<std::uint64_t> bits;
      for (const double e : cost.levels()) {
        bits.push_back(std::bit_cast<std::uint64_t>(e));
      }
      std::sort(bits.begin(), bits.end());
      EXPECT_EQ(std::adjacent_find(bits.begin(), bits.end()), bits.end());
    }
  }
}

// --------------------------------- QAOA state-vector determinism contract

TEST(QaoaDeterminism, IdenticalAcrossRerunsAndThreadCounts) {
  // The norm behind evolve_qaoa's renormalize sums fixed blocks in index
  // order, so the normalized amplitudes, and with them every sample, are
  // bit-identical for any OpenMP thread count and on every rerun.
  Rng model_rng(1818);
  const std::size_t n = 18;
  const IsingModel model = integer_weight_ising(n, model_rng);
  const DiagonalCost cost(model, n);
  const std::vector<double> params = random_angles(2, model_rng);

  const Qubo qubo = ising_to_qubo(model);
  QaoaOptions options;
  options.shots = 512;
  options.optimizer.max_evaluations = 6;
  const QaoaPrepared prepared =
      prepare_qaoa(qubo, brooklyn_coupling(), options);

  struct Run {
    Amps amps;
    std::vector<std::vector<bool>> samples;
  };
  const auto run = [&](int threads) {
    omp_set_num_threads(threads);
    StateVector state(n);
    cost.evolve_qaoa(state, params);
    Run out;
    out.amps = amplitudes_of(state);
    Rng rng(4321);
    out.samples = run_qaoa_prepared(qubo, prepared, options, rng).samples;
    return out;
  };

  const int saved = omp_get_max_threads();
  const Run first = run(4);
  const Run again = run(4);
  const Run single = run(1);
  const Run eight = run(8);
  omp_set_num_threads(saved);

  for (const Run* other : {&again, &single, &eight}) {
    EXPECT_EQ(bitwise_mismatches(other->amps, first.amps), 0u);
    EXPECT_EQ(other->samples, first.samples);
  }
}

// ------------------------------------------- Sampler determinism contract

struct SamplerFixture {
  IsingModel logical;
  EmbeddedProblem problem;

  SamplerFixture() {
    logical.h = {-0.5, -0.5, -0.5, 0.25};
    logical.j = {{0, 1, -1.0}, {0, 2, -1.0}, {1, 2, -1.0}, {2, 3, 0.75}};
    const Graph logical_graph = complete_graph(4);
    const Graph physical = pegasus_graph(2);
    Rng rng(7);
    const auto embedding = find_embedding(logical_graph, physical, rng);
    EXPECT_TRUE(embedding.has_value());
    problem = embed_ising(logical, *embedding, physical);
  }
};

bool reads_identical(const AnnealSampleResult& a, const AnnealSampleResult& b) {
  if (a.reads.size() != b.reads.size()) return false;
  for (std::size_t i = 0; i < a.reads.size(); ++i) {
    const AnnealRead& x = a.reads[i];
    const AnnealRead& y = b.reads[i];
    if (x.read_index != y.read_index || x.logical != y.logical ||
        x.logical_energy != y.logical_energy ||
        x.chain_breaks != y.chain_breaks || x.chain_ties != y.chain_ties) {
      return false;
    }
  }
  return true;
}

TEST(SamplerDeterminism, ResultsIdenticalAcrossThreadCounts) {
  // Satellite bugfix audit: every read draws from an independently split
  // per-read stream, so 1-thread and 8-thread runs must be bit-identical
  // (the PR 4 contract). This pins the property against future kernels.
  const SamplerFixture fx;
  AnnealerSamplerOptions options;
  options.num_reads = 24;
  options.num_sweeps = 256;

  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  Rng rng1(1234);
  const auto single = sample_annealer(fx.logical, fx.problem, options, rng1);
  omp_set_num_threads(8);
  Rng rng8(1234);
  const auto eight = sample_annealer(fx.logical, fx.problem, options, rng8);
  omp_set_num_threads(saved);

  EXPECT_TRUE(reads_identical(single, eight));
}

TEST(SamplerDeterminism, PostprocessDoesNotPerturbOtherReads) {
  // Satellite bugfix audit: chain-tie coin flips come from the same
  // per-read stream as the read itself, and postprocessing consumes no
  // randomness — so enabling postprocess must leave every read's
  // pre-postprocess sample (and its unembedding decisions) unchanged, and
  // only apply a deterministic greedy descent on top.
  const SamplerFixture fx;
  AnnealerSamplerOptions options;
  options.num_reads = 32;
  options.num_sweeps = 256;
  options.postprocess = false;

  Rng rng_off(4321);
  const auto off = sample_annealer(fx.logical, fx.problem, options, rng_off);
  options.postprocess = true;
  Rng rng_on(4321);
  const auto on = sample_annealer(fx.logical, fx.problem, options, rng_on);

  ASSERT_EQ(off.reads.size(), on.reads.size());
  std::map<std::size_t, const AnnealRead*> by_index;
  for (const AnnealRead& read : on.reads) by_index[read.read_index] = &read;

  const Qubo logical_qubo = ising_to_qubo(fx.logical);
  for (const AnnealRead& raw : off.reads) {
    ASSERT_TRUE(by_index.count(raw.read_index));
    const AnnealRead& cooked = *by_index[raw.read_index];
    // Unembedding decisions identical: same chain stats per read.
    EXPECT_EQ(raw.chain_breaks, cooked.chain_breaks);
    EXPECT_EQ(raw.chain_ties, cooked.chain_ties);
    // The postprocessed sample is exactly the greedy descent of the raw one.
    EXPECT_EQ(cooked.logical, greedy_descent(logical_qubo, raw.logical).x);
    EXPECT_LE(cooked.logical_energy, raw.logical_energy + 1e-12);
  }
}

TEST(SamplerDeterminism, RepeatedRunsAreBitIdentical) {
  const SamplerFixture fx;
  AnnealerSamplerOptions options;
  options.num_reads = 16;
  options.num_sweeps = 128;
  Rng a(777), b(777);
  EXPECT_TRUE(reads_identical(sample_annealer(fx.logical, fx.problem, options, a),
                              sample_annealer(fx.logical, fx.problem, options, b)));
}

TEST(SamplerDeterminism, SingleReplicaPathStillDeterministic) {
  const SamplerFixture fx;
  AnnealerSamplerOptions options;
  options.num_reads = 8;
  options.num_sweeps = 128;
  options.num_replicas = 1;
  Rng a(31), b(31);
  EXPECT_TRUE(reads_identical(sample_annealer(fx.logical, fx.problem, options, a),
                              sample_annealer(fx.logical, fx.problem, options, b)));
}

// ------------------------------------------ Packed sweep bit-identity pins

// x on every 1/64 grid point up to past the cutoff, one ulp either side of
// it, and midway to the next one; then the cutoff, the exp underflow
// threshold (about 745.13), infinities, NaN and negative x.
std::vector<double> accept_probe_xs() {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> xs;
  for (int k = 0; k <= 40 * 64 + 2; ++k) {
    const double grid = k / 64.0;
    xs.push_back(grid);
    xs.push_back(std::nextafter(grid, 0.0));
    xs.push_back(std::nextafter(grid, inf));
    xs.push_back((k + 0.5) / 64.0);
  }
  for (double x : {39.999, 40.5, 41.0, 100.0, 700.0, 744.4, 745.1, 745.2,
                   746.0, 1e308, inf, -0.0, 1e-300, 5e-324, -1e-300, -0.5,
                   -inf, std::numeric_limits<double>::quiet_NaN()}) {
    xs.push_back(x);
  }
  return xs;
}

TEST(AcceptDraw, MatchesExpCompareAtAndAroundExpOfX) {
  // u = exp(-x) and its neighbours sit on the decision edge: the bracket
  // must hand every one of them to exp, and the answer must be exp's.
  // Draws are multiples of 2^-53 in [0, 1), so u below 2^-53 is only
  // tried as 0 (a real draw) once exp(-x) falls under it.
  for (double x : accept_probe_xs()) {
    const double e = std::exp(-x);
    std::vector<double> us = {0.0, 0x1p-53, 0.5, 1.0 - 0x1p-53};
    for (double u : {e, std::nextafter(e, -1.0), std::nextafter(e, 1.0)}) {
      if (u >= 0x1p-53 && u < 1.0) us.push_back(u);
    }
    for (double u : us) {
      EXPECT_EQ(metropolis_accept(x, u), u < std::exp(-x))
          << "x " << x << " u " << u;
    }
  }
}

TEST(AcceptDraw, MatchesExpCompareOnRandomDraws) {
  Rng rng(64);
  for (int trial = 0; trial < 2'000'000; ++trial) {
    const double x = trial % 2 == 0 ? rng.uniform(0.0, 45.0)
                                    : rng.uniform(0.0, 0.25);
    const double u = rng.uniform();
    ASSERT_EQ(metropolis_accept(x, u), u < std::exp(-x))
        << "x " << x << " u " << u;
  }
}

// Scalar copy of the Metropolis sweep as it stood before the
// register-resident kernel: spins read and written through the state on
// every proposal, libm exp on every uphill one.
void reference_sweep(const PackedWorkspace& workspace, PackedState& state,
                     double beta, Rng& rng) {
  const PackedIsing& packed = workspace.packed();
  const std::vector<double>& jw = workspace.coupler_weights();
  for (std::size_t i = 0; i < packed.num_spins(); ++i) {
    const double s = state.up(i) ? 1.0 : -1.0;
    const double d = -2.0 * s * state.field[i];
    if (d <= 0.0 || rng.uniform() < std::exp(-beta * d)) {
      state.toggle(i);
      state.energy += d;
      const double shift = -2.0 * s;
      for (std::uint32_t k = packed.offsets[i]; k < packed.offsets[i + 1];
           ++k) {
        state.field[packed.neighbors[k]] += shift * jw[packed.coupler_of[k]];
      }
    }
  }
}

bool bitwise_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(PackedBitIdentity, SweepMatchesScalarReferenceAtEveryLadderBeta) {
  // 200 random embedded-style problems of 1 to 150 spins (one to three
  // words), each under a random gauge, ICE noise and a scale that spreads
  // beta * dE from far below 1/64 to far above 40; every ladder rung runs
  // three sweeps through both kernels from the same state and stream.
  Rng gen(909);
  const std::vector<double> ladder = tempering_ladder(TemperingOptions{});
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(trial * 37) % 150;
    const IsingModel model = random_embedded_ising(n, gen);
    const PackedIsing packed(model);
    PackedWorkspace workspace(packed);
    const double scale = std::exp(gen.uniform(-2.5, 3.0));
    workspace.load_program(trial % 3 != 0, 0.05, scale, gen);

    PackedState fast;
    fast.words.resize(packed.num_words());
    fast.field.resize(n);
    workspace.randomize(fast, gen);
    workspace.refresh(fast);
    PackedState slow = fast;
    Rng fast_rng(gen());
    Rng slow_rng = fast_rng;

    for (double beta : ladder) {
      for (int rep = 0; rep < 3; ++rep) {
        workspace.sweep(fast, beta, fast_rng);
        reference_sweep(workspace, slow, beta, slow_rng);
      }
      ASSERT_EQ(fast.words, slow.words)
          << "trial " << trial << " beta " << beta;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(bitwise_equal(fast.field[i], slow.field[i]))
            << "trial " << trial << " beta " << beta << " spin " << i;
      }
      ASSERT_TRUE(bitwise_equal(fast.energy, slow.energy))
          << "trial " << trial << " beta " << beta;
      Rng fast_next = fast_rng;
      Rng slow_next = slow_rng;
      ASSERT_EQ(fast_next(), slow_next()) << "trial " << trial;
    }
  }
}

// FNV-1a over every field of every read, in result order.
std::uint64_t reads_hash(const AnnealSampleResult& result) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const AnnealRead& read : result.reads) {
    mix(read.read_index);
    mix(read.logical.size());
    for (bool bit : read.logical) mix(bit ? 1u : 0u);
    mix(std::bit_cast<std::uint64_t>(read.logical_energy));
    mix(read.chain_breaks);
    mix(read.chain_ties);
  }
  return h;
}

TEST(PackedBitIdentity, SampleAnnealerReadsMatchRecordedGoldenHash) {
  // Recorded from the scalar sweep (libm exp on every uphill proposal)
  // before the exp-free, register-resident kernel replaced it: any change
  // to an accept decision, a draw or the arithmetic order moves the hash.
  const SamplerFixture fx;
  Rng gen(4242);
  IsingModel logical;
  logical.h.resize(10);
  for (double& h : logical.h) h = gen.uniform(-1.0, 1.0);
  for (std::uint32_t a = 0; a < 10; ++a) {
    for (std::uint32_t b = a + 1; b < 10; ++b) {
      if (gen.bernoulli(0.4)) {
        logical.j.emplace_back(a, b, gen.uniform(-1.0, 1.0));
      }
    }
  }
  Graph logical_graph(10);
  for (const auto& [a, b, w] : logical.j) logical_graph.add_edge(a, b);
  const Graph physical = pegasus_graph(3);
  Rng embed_rng(8);
  const auto embedding = find_embedding(logical_graph, physical, embed_rng);
  ASSERT_TRUE(embedding.has_value());
  const EmbeddedProblem problem = embed_ising(logical, *embedding, physical);

  AnnealerSamplerOptions tempered;
  tempered.num_reads = 24;
  tempered.num_sweeps = 256;
  AnnealerSamplerOptions ramp = tempered;
  ramp.num_replicas = 1;
  AnnealerSamplerOptions clean = tempered;
  clean.ice_sigma = 0.0;
  clean.spin_reversal_transform = false;
  clean.beta_final = 40.0;

  std::vector<std::uint64_t> hashes;
  for (const AnnealerSamplerOptions* options : {&tempered, &ramp, &clean}) {
    Rng small_rng(1234);
    hashes.push_back(reads_hash(
        sample_annealer(fx.logical, fx.problem, *options, small_rng)));
    Rng large_rng(99);
    hashes.push_back(
        reads_hash(sample_annealer(logical, problem, *options, large_rng)));
  }
  const std::vector<std::uint64_t> golden = {
      0xfaaac0811b5ac6fbull, 0x30062584df4c9bedull, 0x5de84723ee06f5e5ull,
      0xc146426dac6abe55ull, 0x3846632353429e0bull, 0xe23a711b55a1561cull};
  EXPECT_EQ(hashes, golden);
}

}  // namespace
}  // namespace nck
