// Bit-packed parallel-tempering annealing kernel: the hardware-fast hot
// loop behind sample_annealer (DESIGN.md §3g). Spin states are packed into
// uint64_t words (bit set == spin +1, matching the repo-wide x = (1+s)/2
// convention), the interaction graph is a flat CSR neighbor list built once
// per embedded problem, and per-spin local fields are maintained
// incrementally so a Metropolis proposal costs O(1) instead of O(degree).
// Each read runs a ladder of replicas at fixed inverse temperatures with
// replica-exchange moves; every draw (program noise, sweeps, exchanges)
// comes from one per-read Rng stream, so outputs are bit-identical for a
// fixed seed regardless of thread count (the PR 4 determinism contract).
#pragma once

#include <cstdint>
#include <vector>

#include "qubo/ising.hpp"
#include "util/rng.hpp"

namespace nck {

/// Immutable CSR view of an Ising model, built once per (embedded) problem
/// and shared read-only by every read and thread.
struct PackedIsing {
  explicit PackedIsing(const IsingModel& model);

  std::size_t num_spins() const noexcept { return h.size(); }
  std::size_t num_couplers() const noexcept { return couplers.size(); }
  std::size_t num_words() const noexcept { return (h.size() + 63) / 64; }

  struct Coupler {
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    double weight = 0.0;
  };

  std::vector<double> h;          // clean per-spin fields
  std::vector<Coupler> couplers;  // clean couplers, in the model's j order

  // CSR over directed coupler entries: the neighbors of spin i are entries
  // [offsets[i], offsets[i+1]). coupler_of maps each directed entry back to
  // its undirected coupler, so per-read noise drawn once per coupler lands
  // identically on both directions.
  std::vector<std::uint32_t> offsets;    // num_spins + 1
  std::vector<std::uint32_t> neighbors;  // 2 * num_couplers
  std::vector<std::uint32_t> coupler_of; // 2 * num_couplers
};

struct TemperingOptions {
  /// Ladder width; 1 disables tempering in favor of a single-replica
  /// geometric beta ramp (still bit-packed).
  std::size_t num_replicas = 8;
  /// Total sweep budget for the read, split evenly across replicas.
  std::size_t num_sweeps = 1024;
  /// Sweeps between replica-exchange rounds.
  std::size_t exchange_interval = 16;
  double beta_initial = 0.05;
  double beta_final = 6.0;
};

/// Geometric inverse-temperature ladder with both endpoints exact:
/// ladder.front() == beta_initial, ladder.back() == beta_final. A
/// single-replica ladder is {beta_final} (anneal cold, never hot-only).
std::vector<double> tempering_ladder(const TemperingOptions& options);

/// Metropolis acceptance of an uphill move, x = beta * dE, for a draw u of
/// Rng::uniform() (0 or a multiple of 2^-53 below 1): returns exactly
/// `u < std::exp(-x)` for every x, NaN and infinities included, but settles
/// almost every call from a 1/64-step table of exp brackets instead of
/// calling exp (DESIGN.md §3g).
bool metropolis_accept(double x, double u) noexcept;

/// One replica: packed spins, incrementally-maintained local fields
/// field[i] = h_i + sum_j J_ij s_j, and the tracked energy
/// sum_i h_i s_i + sum_{i<j} J_ij s_i s_j (model offset excluded).
struct PackedState {
  std::vector<std::uint64_t> words;
  std::vector<double> field;
  double energy = 0.0;

  bool up(std::size_t i) const noexcept {
    return ((words[i >> 6] >> (i & 63)) & 1u) != 0;
  }
  void toggle(std::size_t i) noexcept { words[i >> 6] ^= 1ull << (i & 63); }
};

/// Per-thread scratch: the gauged/noisy/scaled program of the current read
/// plus the replica ensemble, reused across reads so the hot loop never
/// allocates.
class PackedWorkspace {
 public:
  explicit PackedWorkspace(const PackedIsing& packed);

  /// Loads the clean program (no gauge, no noise, unit scale).
  void load_clean();

  /// Loads one read's physical program: optional spin-reversal gauge,
  /// Gaussian ICE noise of absolute stddev `sigma` on every field and
  /// coupler, then division by `scale` (hardware-style auto-scaling;
  /// `scale <= 0` means no scaling). Draw order — gauge bits, field noise,
  /// coupler noise — matches the original scalar sampler so the per-read
  /// stream discipline is preserved.
  void load_program(bool gauge_enabled, double sigma, double scale, Rng& rng);

  /// Runs bit-packed parallel tempering on the loaded program and returns
  /// the coldest replica after a final greedy quench. Deterministic given
  /// `rng`; the returned reference is owned by the workspace and valid
  /// until the next anneal() or destruction.
  const PackedState& anneal(const TemperingOptions& options, Rng& rng);

  /// One Metropolis sweep at inverse temperature beta; flip delta is
  /// dE(i) = -2 s_i field_i, accepted when dE <= 0 or, with one uniform()
  /// draw, when metropolis_accept(beta * dE, u).
  void sweep(PackedState& state, double beta, Rng& rng) const;

  /// Greedy single-flip descent to a local minimum.
  void descend(PackedState& state) const;

  /// Recomputes fields and energy of `state` from its spin words.
  void refresh(PackedState& state) const;

  /// Uniform random spins (one word draw per 64 spins).
  void randomize(PackedState& state, Rng& rng) const;

  bool gauge_bit(std::size_t i) const noexcept {
    return ((gauge_[i >> 6] >> (i & 63)) & 1u) != 0;
  }

  const PackedIsing& packed() const noexcept { return *packed_; }
  const std::vector<double>& fields() const noexcept { return h_; }
  const std::vector<double>& coupler_weights() const noexcept { return jw_; }

 private:
  void flip(PackedState& state, std::size_t i, double s_old, double d) const;

  const PackedIsing* packed_;
  std::vector<double> h_;             // current program fields
  std::vector<double> jw_;            // current per-coupler weights
  std::vector<double> w_;             // per-directed-entry weights
  std::vector<std::uint64_t> gauge_;  // packed gauge bits of the read
  std::vector<PackedState> replicas_;
  std::vector<std::size_t> order_;    // ladder rung -> replica index
  std::vector<double> ladder_;
};

}  // namespace nck
