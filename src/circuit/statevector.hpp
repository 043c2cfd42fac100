// Dense state-vector simulator for the circuit-model backend. Amplitudes
// are stored with qubit 0 as the least significant bit of the basis index.
// Gate kernels are OpenMP-parallel; practical up to ~24 qubits.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace nck {

class StateVector {
 public:
  using Amplitude = std::complex<double>;

  /// Initializes |0...0>. Throws for num_qubits > kMaxQubits.
  explicit StateVector(std::size_t num_qubits);

  static constexpr std::size_t kMaxQubits = 26;

  std::size_t num_qubits() const noexcept { return num_qubits_; }
  std::size_t dimension() const noexcept { return amps_.size(); }

  Amplitude amplitude(std::uint64_t basis) const { return amps_[basis]; }

  /// Applies an arbitrary single-qubit unitary (row-major 2x2).
  void apply_1q(std::size_t q, const Amplitude u[4]);

  void h(std::size_t q);
  void x(std::size_t q);
  void rx(std::size_t q, double theta);
  void ry(std::size_t q, double theta);
  void rz(std::size_t q, double theta);

  void cx(std::size_t control, std::size_t target);
  void cz(std::size_t a, std::size_t b);
  /// exp(-i theta/2 Z\otimes Z) — the QAOA cost-layer two-qubit gate.
  void rzz(std::size_t a, std::size_t b, double theta);
  /// exp(-i theta/4 (X\otimes X + Y\otimes Y)) — the number-preserving
  /// "XY" / Givens mixing gate of the Quantum Alternating Operator Ansatz:
  /// rotates within the {|01>, |10>} subspace, leaving |00> and |11> fixed.
  void xy(std::size_t a, std::size_t b, double theta);
  void swap(std::size_t a, std::size_t b);

  /// Resets to the uniform superposition |+>^n — the QAOA initial state,
  /// replacing n Hadamard passes with one fill.
  void fill_uniform();

  /// Fused diagonal layer: amps[z] *= factor[index[z]] in a single
  /// branch-free gather pass (DiagonalCost passes one phase per energy
  /// level). `index` must have one entry per basis state, each below
  /// factor.size(); throws on a size mismatch.
  void multiply_diagonal(const std::vector<std::uint32_t>& index,
                         const std::vector<Amplitude>& factor);

  /// The mixer's cache block: rx_layer applies qubits below this one
  /// block of 2^kMixerBlockQubits amplitudes (64 KiB) at a time.
  static constexpr std::size_t kMixerBlockQubits = 12;

  /// Applies rx(theta) to every qubit — the QAOA transverse-field mixer
  /// layer. Qubits below kMixerBlockQubits pair amplitudes within one
  /// block, so they all run in a single pass, block by block; each higher
  /// qubit takes one pass over the pair index. Every amplitude sees the
  /// same arithmetic, qubit by qubit, as per-qubit rx passes in qubit
  /// order.
  void rx_layer(double theta);

  /// Rescales so norm() == 1, pinning the drift of long products of unit
  /// complex factors (deep-p QAOA); no-op on the zero vector.
  void renormalize();

  /// Sum of |amplitude|^2 (1 for any unitary evolution; tested invariant).
  /// Summed in fixed blocks combined in index order, so the result does
  /// not depend on the thread count.
  double norm() const;

  /// Probability of each basis state.
  std::vector<double> probabilities() const;

  /// Samples `shots` basis states i.i.d. from the output distribution.
  /// The cumulative distribution is built in a buffer kept across calls.
  std::vector<std::uint64_t> sample(std::size_t shots, Rng& rng);

 private:
  std::size_t num_qubits_;
  std::vector<Amplitude> amps_;
  std::vector<double> cdf_;  // sample()'s buffer
};

}  // namespace nck
