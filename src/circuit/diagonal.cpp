#include "circuit/diagonal.hpp"

#include <omp.h>

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace nck {

namespace {

// One Ising term as it acts on E(z): +odd when bits a and b of z differ,
// -odd when they agree. A field h_q is (q, kClearBit) with odd = h_q, since
// bit kClearBit of a basis index (below 2^kMaxQubits) is always clear; a
// coupler J_ab is (a, b) with odd = -J_ab, since s_a s_b = -1 iff the bits
// differ.
struct Term {
  unsigned a;
  unsigned b;
  double odd;
};
constexpr unsigned kClearBit = 31;

// Basis states per chunk of the table pass: a chunk's energies stay in L1
// while every term is added to them.
constexpr std::uint32_t kTableChunk = 1024;

// Assigns each energy the index of its level, adding levels in order of
// first appearance. Levels are found by bit pattern in an open-addressing
// table kept at most half full, so two energies share a level exactly when
// they are bitwise equal.
void index_levels(const std::vector<double>& energy,
                  std::vector<double>& levels,
                  std::vector<DiagonalCost::Level>& level_of) {
  using Level = DiagonalCost::Level;
  constexpr Level kEmpty = ~Level{0};
  std::vector<Level> slots(64, kEmpty);
  // The slot holding `key`'s level, or the empty slot ending its probe.
  // Probes start at the top bits of a multiplicative hash: the low bits of
  // a short binary fraction are all zero.
  const auto slot_of = [&](std::uint64_t key) -> Level& {
    const std::size_t mask = slots.size() - 1;
    std::size_t i = static_cast<std::size_t>(
        (key * 0x9E3779B97F4A7C15ull) >> (64 - std::countr_zero(slots.size())));
    while (slots[i] != kEmpty &&
           std::bit_cast<std::uint64_t>(levels[slots[i]]) != key) {
      i = (i + 1) & mask;
    }
    return slots[i];
  };
  level_of.resize(energy.size());
  for (std::size_t z = 0; z < energy.size(); ++z) {
    Level& slot = slot_of(std::bit_cast<std::uint64_t>(energy[z]));
    if (slot == kEmpty) {
      slot = static_cast<Level>(levels.size());
      levels.push_back(energy[z]);
    }
    level_of[z] = slot;
    if (2 * levels.size() > slots.size()) {
      slots.assign(2 * slots.size(), kEmpty);
      for (std::size_t k = 0; k < levels.size(); ++k) {
        slot_of(std::bit_cast<std::uint64_t>(levels[k])) =
            static_cast<Level>(k);
      }
    }
  }
}

}  // namespace

DiagonalCost::DiagonalCost(const IsingModel& ising, std::size_t num_qubits)
    : num_qubits_(num_qubits) {
  if (num_qubits > StateVector::kMaxQubits) {
    throw std::invalid_argument("DiagonalCost: too many qubits");
  }
  std::vector<Term> terms;
  for (std::size_t q = 0; q < ising.h.size(); ++q) {
    if (ising.h[q] == 0.0) continue;
    if (q >= num_qubits) {
      throw std::invalid_argument("DiagonalCost: field index out of range");
    }
    terms.push_back({static_cast<unsigned>(q), kClearBit, ising.h[q]});
  }
  for (const auto& [a, b, w] : ising.j) {
    if (w == 0.0) continue;
    if (a >= num_qubits || b >= num_qubits) {
      throw std::invalid_argument("DiagonalCost: coupler index out of range");
    }
    terms.push_back({static_cast<unsigned>(a), static_cast<unsigned>(b), -w});
  }

  // One pass over the table, chunk by chunk: every E(z) starts at 0.0 and
  // adds the terms in the order above, so its value depends on neither the
  // chunking nor the thread count. A term's sign is applied by multiplying
  // with +-1.0, which is exact, so the inner loop vectorizes.
  const std::uint32_t dim = std::uint32_t{1} << num_qubits;
  std::vector<double> energy(dim, 0.0);
  const auto chunks =
      static_cast<std::int64_t>((dim + kTableChunk - 1) / kTableChunk);
#pragma omp parallel for schedule(static)
  for (std::int64_t c = 0; c < chunks; ++c) {
    const std::uint32_t begin = static_cast<std::uint32_t>(c) * kTableChunk;
    const std::uint32_t end = std::min(begin + kTableChunk, dim);
    double* e = energy.data();
    for (const Term& t : terms) {
      const unsigned a = t.a;
      const unsigned b = t.b;
      const double odd = t.odd;
#pragma omp simd
      for (std::uint32_t z = begin; z < end; ++z) {
        const auto sign =
            static_cast<std::int32_t>((((z >> a) ^ (z >> b)) & 1u) * 2) - 1;
        e[z] += odd * static_cast<double>(sign);
      }
    }
  }
  index_levels(energy, levels_, level_of_);
}

void DiagonalCost::apply(StateVector& state, double gamma) const {
  std::vector<StateVector::Amplitude> phase(levels_.size());
  const auto count = static_cast<std::int64_t>(levels_.size());
#pragma omp parallel for schedule(static) if (count > 4096)
  for (std::int64_t k = 0; k < count; ++k) {
    const auto i = static_cast<std::size_t>(k);
    phase[i] = std::polar(1.0, -gamma * levels_[i]);
  }
  state.multiply_diagonal(level_of_, phase);
}

void DiagonalCost::evolve_qaoa(StateVector& state,
                               const std::vector<double>& params) const {
  if (params.size() % 2 != 0 || params.empty()) {
    throw std::invalid_argument("evolve_qaoa: need 2p parameters");
  }
  state.fill_uniform();
  for (std::size_t layer = 0; layer < params.size() / 2; ++layer) {
    apply(state, params[2 * layer]);
    state.rx_layer(2.0 * params[2 * layer + 1]);
  }
  state.renormalize();
}

}  // namespace nck
