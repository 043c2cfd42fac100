// Fused diagonal cost kernel for QAOA-style circuits (DESIGN.md §3g). The
// RZZ/RZ layer of each cost step is the diagonal unitary exp(-i gamma H_C),
// so instead of one state-vector traversal per gate the Ising energy E(z)
// is tabulated once per problem and every cost layer becomes a single
// phase pass. E(z) takes few distinct values (an integer-weighted QUBO has
// tens of energy levels over millions of basis states), so the table is
// stored as the distinct levels plus a 4-byte level index per basis state:
// each cost layer evaluates one phase per level and gathers it per
// amplitude, with no trigonometry in the per-amplitude loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/statevector.hpp"
#include "qubo/ising.hpp"

namespace nck {

class DiagonalCost {
 public:
  using Level = std::uint32_t;

  /// Tabulates E(z) = sum_q h_q s_q + sum_{a<b} J_ab s_a s_b for every
  /// basis state z, with bit q of z set meaning s_q = +1 (the repo-wide
  /// x = (1+s)/2 convention). The model offset is excluded — it is a
  /// global phase. Each E(z) is summed fields first (by qubit), then
  /// couplers (in model order), so the table is a fixed function of the
  /// model. Throws for num_qubits > StateVector::kMaxQubits or a field or
  /// coupler index out of range.
  DiagonalCost(const IsingModel& ising, std::size_t num_qubits);

  std::size_t num_qubits() const noexcept { return num_qubits_; }

  /// The distinct values of E(z), bitwise, in order of first appearance
  /// over z = 0, 1, ...
  const std::vector<double>& levels() const noexcept { return levels_; }
  /// E(z) for basis state z.
  double energy(std::uint64_t z) const { return levels_[level_of_[z]]; }

  /// One fused cost layer: amps[z] *= exp(-i gamma E(z)) — matches the
  /// per-gate RZZ/RZ sequence of build_qaoa_circuit exactly (up to
  /// floating-point association). std::polar runs once per level.
  void apply(StateVector& state, double gamma) const;

  /// The full fused QAOA evolution: |+>^n via fill_uniform, then per layer
  /// one fused cost pass and one cache-blocked RX mixer layer, then a final
  /// renormalize to pin ||psi|| against unit-factor drift at deep p.
  /// params = {gamma_1, beta_1, ..., gamma_p, beta_p}.
  void evolve_qaoa(StateVector& state, const std::vector<double>& params) const;

 private:
  std::size_t num_qubits_;
  std::vector<double> levels_;
  std::vector<Level> level_of_;  // one per basis state, indexes levels_
};

}  // namespace nck
