#include "circuit/statevector.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nck {

StateVector::StateVector(std::size_t num_qubits) : num_qubits_(num_qubits) {
  if (num_qubits > kMaxQubits) {
    throw std::invalid_argument("StateVector: too many qubits");
  }
  amps_.assign(1ull << num_qubits, Amplitude(0.0, 0.0));
  amps_[0] = Amplitude(1.0, 0.0);
}

void StateVector::apply_1q(std::size_t q, const Amplitude u[4]) {
  const std::uint64_t stride = 1ull << q;
  const std::int64_t n = static_cast<std::int64_t>(amps_.size());
  const Amplitude u00 = u[0], u01 = u[1], u10 = u[2], u11 = u[3];
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    const auto idx = static_cast<std::uint64_t>(i);
    if (idx & stride) continue;  // handle each pair once, from the 0 side
    const Amplitude a0 = amps_[idx];
    const Amplitude a1 = amps_[idx | stride];
    amps_[idx] = u00 * a0 + u01 * a1;
    amps_[idx | stride] = u10 * a0 + u11 * a1;
  }
}

void StateVector::h(std::size_t q) {
  const double s = 1.0 / std::sqrt(2.0);
  const Amplitude u[4] = {{s, 0}, {s, 0}, {s, 0}, {-s, 0}};
  apply_1q(q, u);
}

void StateVector::x(std::size_t q) {
  const Amplitude u[4] = {{0, 0}, {1, 0}, {1, 0}, {0, 0}};
  apply_1q(q, u);
}

void StateVector::rx(std::size_t q, double theta) {
  const double c = std::cos(theta / 2), s = std::sin(theta / 2);
  const Amplitude u[4] = {{c, 0}, {0, -s}, {0, -s}, {c, 0}};
  apply_1q(q, u);
}

void StateVector::ry(std::size_t q, double theta) {
  const double c = std::cos(theta / 2), s = std::sin(theta / 2);
  const Amplitude u[4] = {{c, 0}, {-s, 0}, {s, 0}, {c, 0}};
  apply_1q(q, u);
}

void StateVector::rz(std::size_t q, double theta) {
  const Amplitude e0 = std::polar(1.0, -theta / 2);
  const Amplitude e1 = std::polar(1.0, theta / 2);
  const std::uint64_t stride = 1ull << q;
  const std::int64_t n = static_cast<std::int64_t>(amps_.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    const auto idx = static_cast<std::uint64_t>(i);
    amps_[idx] *= (idx & stride) ? e1 : e0;
  }
}

void StateVector::cx(std::size_t control, std::size_t target) {
  const std::uint64_t cbit = 1ull << control;
  const std::uint64_t tbit = 1ull << target;
  const std::int64_t n = static_cast<std::int64_t>(amps_.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    const auto idx = static_cast<std::uint64_t>(i);
    if ((idx & cbit) && !(idx & tbit)) {
      std::swap(amps_[idx], amps_[idx | tbit]);
    }
  }
}

void StateVector::cz(std::size_t a, std::size_t b) {
  const std::uint64_t mask = (1ull << a) | (1ull << b);
  const std::int64_t n = static_cast<std::int64_t>(amps_.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    const auto idx = static_cast<std::uint64_t>(i);
    if ((idx & mask) == mask) amps_[idx] = -amps_[idx];
  }
}

void StateVector::rzz(std::size_t a, std::size_t b, double theta) {
  const std::uint64_t abit = 1ull << a;
  const std::uint64_t bbit = 1ull << b;
  const Amplitude even = std::polar(1.0, -theta / 2);  // Z.Z eigenvalue +1
  const Amplitude odd = std::polar(1.0, theta / 2);    // Z.Z eigenvalue -1
  const std::int64_t n = static_cast<std::int64_t>(amps_.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    const auto idx = static_cast<std::uint64_t>(i);
    const bool parity = ((idx & abit) != 0) != ((idx & bbit) != 0);
    amps_[idx] *= parity ? odd : even;
  }
}

void StateVector::xy(std::size_t a, std::size_t b, double theta) {
  const std::uint64_t abit = 1ull << a;
  const std::uint64_t bbit = 1ull << b;
  const double c = std::cos(theta / 2);
  const Amplitude ms(0.0, -std::sin(theta / 2));
  const std::int64_t n = static_cast<std::int64_t>(amps_.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    const auto idx = static_cast<std::uint64_t>(i);
    // Touch each {|01>, |10>} pair once, from the a-set/b-clear side.
    if ((idx & abit) && !(idx & bbit)) {
      const std::uint64_t other = (idx & ~abit) | bbit;
      const Amplitude hi = amps_[idx];
      const Amplitude lo = amps_[other];
      amps_[idx] = c * hi + ms * lo;
      amps_[other] = ms * hi + c * lo;
    }
  }
}

void StateVector::swap(std::size_t a, std::size_t b) {
  const std::uint64_t abit = 1ull << a;
  const std::uint64_t bbit = 1ull << b;
  const std::int64_t n = static_cast<std::int64_t>(amps_.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    const auto idx = static_cast<std::uint64_t>(i);
    if ((idx & abit) && !(idx & bbit)) {
      std::swap(amps_[idx], amps_[(idx & ~abit) | bbit]);
    }
  }
}

void StateVector::fill_uniform() {
  const double a = 1.0 / std::sqrt(static_cast<double>(amps_.size()));
  const std::int64_t n = static_cast<std::int64_t>(amps_.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    amps_[static_cast<std::uint64_t>(i)] = Amplitude(a, 0.0);
  }
}

namespace {

using Amplitude = StateVector::Amplitude;

// The complex products of the phase and mixer kernels, spelled out as the
// real operations std::complex multiplication performs (a zero real part is
// still multiplied, so signed zeros come out the same) without its NaN
// recovery call, which keeps the loops free of calls and vectorizable.
inline Amplitude mul(Amplitude x, Amplitude y) {
  return {x.real() * y.real() - x.imag() * y.imag(),
          x.real() * y.imag() + x.imag() * y.real()};
}

// One RX butterfly: (a0, a1) <- (c a0 + ms a1, ms a0 + c a1).
inline void rx_pair(Amplitude& a0, Amplitude& a1, double c, Amplitude ms) {
  const Amplitude x0 = a0;
  const Amplitude x1 = a1;
  const Amplitude m1 = mul(ms, x1);
  const Amplitude m0 = mul(ms, x0);
  a0 = {c * x0.real() + m1.real(), c * x0.imag() + m1.imag()};
  a1 = {m0.real() + c * x1.real(), m0.imag() + c * x1.imag()};
}

}  // namespace

void StateVector::multiply_diagonal(const std::vector<std::uint32_t>& index,
                                    const std::vector<Amplitude>& factor) {
  if (index.size() != amps_.size()) {
    throw std::invalid_argument("multiply_diagonal: index size mismatch");
  }
  Amplitude* amps = amps_.data();
  const std::uint32_t* level = index.data();
  const Amplitude* f = factor.data();
  const std::int64_t n = static_cast<std::int64_t>(amps_.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    amps[i] = mul(amps[i], f[level[i]]);
  }
}

void StateVector::rx_layer(double theta) {
  const double c = std::cos(theta / 2);
  const Amplitude ms(0.0, -std::sin(theta / 2));
  const std::size_t low = std::min(num_qubits_, kMixerBlockQubits);
  const std::uint64_t block = 1ull << low;
  const std::int64_t blocks = static_cast<std::int64_t>(amps_.size() >> low);
  Amplitude* amps = amps_.data();
  // Low qubits: each block holds both halves of all its pairs, so the
  // block stays in cache while every low qubit is applied to it.
#pragma omp parallel for schedule(static)
  for (std::int64_t b = 0; b < blocks; ++b) {
    Amplitude* base = amps + static_cast<std::uint64_t>(b) * block;
    for (std::size_t q = 0; q < low; ++q) {
      const std::uint64_t stride = 1ull << q;
      for (std::uint64_t start = 0; start < block; start += 2 * stride) {
        Amplitude* lo = base + start;
        Amplitude* hi = lo + stride;
        for (std::uint64_t k = 0; k < stride; ++k) {
          rx_pair(lo[k], hi[k], c, ms);
        }
      }
    }
  }
  // High qubits: one pass over the pair index each.
  for (std::size_t q = low; q < num_qubits_; ++q) {
    const std::uint64_t stride = 1ull << q;
    const std::int64_t pairs = static_cast<std::int64_t>(amps_.size() >> 1);
#pragma omp parallel for schedule(static)
    for (std::int64_t p = 0; p < pairs; ++p) {
      const auto k = static_cast<std::uint64_t>(p);
      // Interleave the pair index around bit q: low bits stay, high bits
      // shift up one, leaving bit q clear for the |0> side of the pair.
      const std::uint64_t lo = ((k & ~(stride - 1)) << 1) | (k & (stride - 1));
      rx_pair(amps[lo], amps[lo | stride], c, ms);
    }
  }
}

void StateVector::renormalize() {
  const double total = norm();
  if (total <= 0.0) return;
  const double inv = 1.0 / std::sqrt(total);
  const std::int64_t n = static_cast<std::int64_t>(amps_.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    amps_[static_cast<std::uint64_t>(i)] *= inv;
  }
}

double StateVector::norm() const {
  // Fixed blocks summed in index order: the same additions in the same
  // order for every thread count, unlike an OpenMP reduction.
  constexpr std::uint64_t kBlock = 4096;
  const std::uint64_t dim = amps_.size();
  std::vector<double> partial((dim + kBlock - 1) / kBlock);
  const std::int64_t blocks = static_cast<std::int64_t>(partial.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t b = 0; b < blocks; ++b) {
    const std::uint64_t begin = static_cast<std::uint64_t>(b) * kBlock;
    const std::uint64_t end = std::min(begin + kBlock, dim);
    double sum = 0.0;
    for (std::uint64_t i = begin; i < end; ++i) sum += std::norm(amps_[i]);
    partial[static_cast<std::uint64_t>(b)] = sum;
  }
  double total = 0.0;
  for (const double sum : partial) total += sum;
  return total;
}

std::vector<double> StateVector::probabilities() const {
  std::vector<double> p(amps_.size());
  const std::int64_t n = static_cast<std::int64_t>(amps_.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    p[static_cast<std::uint64_t>(i)] =
        std::norm(amps_[static_cast<std::uint64_t>(i)]);
  }
  return p;
}

std::vector<std::uint64_t> StateVector::sample(std::size_t shots, Rng& rng) {
  // Cumulative inverse sampling; the CDF build dominates, so shots are cheap.
  cdf_.resize(amps_.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    acc += std::norm(amps_[i]);
    cdf_[i] = acc;
  }
  std::vector<std::uint64_t> out(shots);
  for (std::size_t s = 0; s < shots; ++s) {
    const double r = rng.uniform() * acc;
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), r);
    out[s] = static_cast<std::uint64_t>(it - cdf_.begin());
  }
  return out;
}

}  // namespace nck
