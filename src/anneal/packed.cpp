#include "anneal/packed.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "qubo/heuristic.hpp"
#include "qubo/qubo.hpp"

namespace nck {
namespace {

// exp(-x) on the grid x = k/64, as a bracket per step: for k = floor(64 x)
// (exact, since 64 x is a power-of-two scaling) exp(-x) lies in
// (exp(-(k+1)/64), exp(-k/64)]. The 1e-12 relative slack on both ends is
// far above the sub-ulp error of std::exp at the grid points and at x, so a
// draw outside the slackened bracket settles u < std::exp(-x) without
// calling exp (DESIGN.md §3g).
struct ExpBracket {
  double reject_at;     // exp(-k/64) * (1 + 1e-12)
  double accept_below;  // exp(-(k+1)/64) * (1 - 1e-12)
};

constexpr double kExpGrid = 64.0;
// exp(-40) < 2^-53, the smallest nonzero uniform() draw.
constexpr double kExpCutoff = 40.0;
// -2 s for a spin bit of 0 (s = -1) and 1 (s = +1).
constexpr double kMinusTwoS[2] = {2.0, -2.0};

const ExpBracket* exp_brackets() {
  static const std::vector<ExpBracket> table = [] {
    const auto steps = static_cast<std::size_t>(kExpCutoff * kExpGrid);
    std::vector<ExpBracket> t(steps);
    for (std::size_t k = 0; k < steps; ++k) {
      const double x = static_cast<double>(k) / kExpGrid;
      const double next = static_cast<double>(k + 1) / kExpGrid;
      t[k] = {std::exp(-x) * (1 + 1e-12), std::exp(-next) * (1 - 1e-12)};
    }
    return t;
  }();
  return table.data();
}

inline bool accept_uphill(const ExpBracket* brackets, double x,
                          double u) noexcept {
  if (x >= 0.0 && x < kExpCutoff) {
    const ExpBracket& b = brackets[static_cast<std::size_t>(x * kExpGrid)];
    if (u >= b.reject_at) return false;
    if (u < b.accept_below) return true;
  } else if (!(x < 0.0) && u != 0.0) {
    return false;  // x >= 40 or NaN: exp(-x) < u, or the compare is false
  }
  return u < std::exp(-x);
}

}  // namespace

bool metropolis_accept(double x, double u) noexcept {
  return accept_uphill(exp_brackets(), x, u);
}

PackedIsing::PackedIsing(const IsingModel& model) : h(model.h) {
  const std::size_t n = model.num_spins();
  couplers.reserve(model.j.size());
  for (const auto& [a, b, w] : model.j) {
    couplers.push_back({a, b, w});
  }

  offsets.assign(n + 1, 0);
  for (const Coupler& c : couplers) {
    ++offsets[c.a + 1];
    ++offsets[c.b + 1];
  }
  for (std::size_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];

  neighbors.resize(2 * couplers.size());
  coupler_of.resize(2 * couplers.size());
  std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::size_t c = 0; c < couplers.size(); ++c) {
    const Coupler& cp = couplers[c];
    neighbors[cursor[cp.a]] = cp.b;
    coupler_of[cursor[cp.a]++] = static_cast<std::uint32_t>(c);
    neighbors[cursor[cp.b]] = cp.a;
    coupler_of[cursor[cp.b]++] = static_cast<std::uint32_t>(c);
  }
}

std::vector<double> tempering_ladder(const TemperingOptions& options) {
  AnnealParams ramp;
  ramp.num_sweeps = std::max<std::size_t>(1, options.num_replicas);
  ramp.beta_initial = options.beta_initial;
  ramp.beta_final = options.beta_final;
  return beta_schedule(ramp);
}

PackedWorkspace::PackedWorkspace(const PackedIsing& packed)
    : packed_(&packed),
      h_(packed.num_spins(), 0.0),
      jw_(packed.num_couplers(), 0.0),
      w_(packed.neighbors.size(), 0.0),
      gauge_(packed.num_words(), 0) {}

void PackedWorkspace::load_clean() {
  std::fill(gauge_.begin(), gauge_.end(), 0);
  std::copy(packed_->h.begin(), packed_->h.end(), h_.begin());
  for (std::size_t c = 0; c < jw_.size(); ++c) {
    jw_[c] = packed_->couplers[c].weight;
  }
  for (std::size_t k = 0; k < w_.size(); ++k) {
    w_[k] = jw_[packed_->coupler_of[k]];
  }
}

void PackedWorkspace::load_program(bool gauge_enabled, double sigma,
                                   double scale, Rng& rng) {
  const std::size_t n = packed_->num_spins();
  std::fill(gauge_.begin(), gauge_.end(), 0);
  if (gauge_enabled) {
    for (std::size_t q = 0; q < n; ++q) {
      if (rng.bernoulli(0.5)) gauge_[q >> 6] |= 1ull << (q & 63);
    }
  }
  const double inv = scale > 0.0 ? 1.0 / scale : 1.0;
  for (std::size_t q = 0; q < n; ++q) {
    double v = gauge_bit(q) ? -packed_->h[q] : packed_->h[q];
    if (sigma > 0.0) v += rng.gaussian(0.0, sigma);
    h_[q] = v * inv;
  }
  for (std::size_t c = 0; c < jw_.size(); ++c) {
    const PackedIsing::Coupler& cp = packed_->couplers[c];
    double v = gauge_bit(cp.a) != gauge_bit(cp.b) ? -cp.weight : cp.weight;
    if (sigma > 0.0) v += rng.gaussian(0.0, sigma);
    jw_[c] = v * inv;
  }
  for (std::size_t k = 0; k < w_.size(); ++k) {
    w_[k] = jw_[packed_->coupler_of[k]];
  }
}

void PackedWorkspace::refresh(PackedState& state) const {
  const std::size_t n = packed_->num_spins();
  double e = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    state.field[i] = h_[i];
    e += state.up(i) ? h_[i] : -h_[i];
  }
  for (std::size_t c = 0; c < jw_.size(); ++c) {
    const PackedIsing::Coupler& cp = packed_->couplers[c];
    const double sa = state.up(cp.a) ? 1.0 : -1.0;
    const double sb = state.up(cp.b) ? 1.0 : -1.0;
    const double w = jw_[c];
    e += w * sa * sb;
    state.field[cp.a] += w * sb;
    state.field[cp.b] += w * sa;
  }
  state.energy = e;
}

void PackedWorkspace::randomize(PackedState& state, Rng& rng) const {
  const std::size_t n = packed_->num_spins();
  for (std::uint64_t& word : state.words) word = rng();
  if ((n & 63) != 0 && !state.words.empty()) {
    state.words.back() &= (1ull << (n & 63)) - 1;
  }
}

void PackedWorkspace::flip(PackedState& state, std::size_t i, double s_old,
                           double d) const {
  state.toggle(i);
  state.energy += d;
  const std::uint32_t begin = packed_->offsets[i];
  const std::uint32_t end = packed_->offsets[i + 1];
  const double shift = -2.0 * s_old;
  for (std::uint32_t k = begin; k < end; ++k) {
    state.field[packed_->neighbors[k]] += shift * w_[k];
  }
}

void PackedWorkspace::sweep(PackedState& state, double beta, Rng& rng) const {
  // The spin word, the energy and the generator live in locals for the
  // whole sweep; arithmetic and draw order are those of a plain loop over
  // state.up(i) / state.field[i] / rng.uniform() with libm exp.
  const ExpBracket* brackets = exp_brackets();
  const std::size_t n = packed_->num_spins();
  const std::uint32_t* offsets = packed_->offsets.data();
  const std::uint32_t* neighbors = packed_->neighbors.data();
  const double* w = w_.data();
  double* field = state.field.data();
  std::uint64_t* words = state.words.data();
  double energy = state.energy;
  Rng local = rng;
  for (std::size_t base = 0; base < n; base += 64) {
    std::uint64_t word = words[base >> 6];
    const std::size_t end = std::min(n, base + 64);
    for (std::size_t i = base; i < end; ++i) {
      // -2 s_i, picked without a branch: exactly the factor of -2.0 * s.
      const double shift = kMinusTwoS[(word >> (i & 63)) & 1];
      const double d = shift * field[i];
      if (d <= 0.0 || accept_uphill(brackets, beta * d, local.uniform())) {
        word ^= 1ull << (i & 63);
        energy += d;
        for (std::uint32_t k = offsets[i]; k < offsets[i + 1]; ++k) {
          field[neighbors[k]] += shift * w[k];
        }
      }
    }
    words[base >> 6] = word;
  }
  state.energy = energy;
  rng = local;
}

void PackedWorkspace::descend(PackedState& state) const {
  const std::size_t n = packed_->num_spins();
  bool improved = true;
  while (improved) {
    improved = false;
    for (std::size_t i = 0; i < n; ++i) {
      const double s = state.up(i) ? 1.0 : -1.0;
      const double d = -2.0 * s * state.field[i];
      if (d < -Qubo::kEps) {
        flip(state, i, s, d);
        improved = true;
      }
    }
  }
}

const PackedState& PackedWorkspace::anneal(const TemperingOptions& options,
                                           Rng& rng) {
  const std::size_t num_replicas = std::max<std::size_t>(1, options.num_replicas);
  const std::size_t n = packed_->num_spins();
  const std::size_t nwords = packed_->num_words();
  if (replicas_.size() < num_replicas) replicas_.resize(num_replicas);
  for (std::size_t r = 0; r < num_replicas; ++r) {
    replicas_[r].words.resize(nwords);
    replicas_[r].field.resize(n);
  }
  order_.resize(num_replicas);
  std::iota(order_.begin(), order_.end(), std::size_t{0});

  TemperingOptions ladder_options = options;
  ladder_options.num_replicas = num_replicas;
  ladder_ = tempering_ladder(ladder_options);

  for (std::size_t r = 0; r < num_replicas; ++r) {
    randomize(replicas_[r], rng);
    refresh(replicas_[r]);
  }

  const std::size_t per_replica =
      std::max<std::size_t>(1, options.num_sweeps / num_replicas);

  if (num_replicas == 1) {
    // Single-replica fallback: the classic geometric ramp, endpoints exact.
    AnnealParams ramp;
    ramp.num_sweeps = per_replica;
    ramp.beta_initial = options.beta_initial;
    ramp.beta_final = options.beta_final;
    for (double beta : beta_schedule(ramp)) {
      sweep(replicas_[0], beta, rng);
    }
    descend(replicas_[0]);
    return replicas_[0];
  }

  const std::size_t interval =
      options.exchange_interval > 0 ? options.exchange_interval : per_replica;
  const ExpBracket* brackets = exp_brackets();
  std::size_t done = 0;
  std::size_t parity = 0;
  while (done < per_replica) {
    const std::size_t block = std::min(interval, per_replica - done);
    for (std::size_t t = 0; t < num_replicas; ++t) {
      PackedState& state = replicas_[order_[t]];
      for (std::size_t s = 0; s < block; ++s) sweep(state, ladder_[t], rng);
    }
    done += block;
    if (done >= per_replica) break;
    // Replica exchange between adjacent rungs, alternating pair parity.
    // Swap acceptance min(1, exp((beta_t - beta_u)(E_t - E_u))) moves low
    // energies toward cold rungs; one uniform draw per attempted pair keeps
    // the stream's draw count data-independent.
    for (std::size_t t = parity; t + 1 < num_replicas; t += 2) {
      const double d = (ladder_[t] - ladder_[t + 1]) *
                       (replicas_[order_[t]].energy -
                        replicas_[order_[t + 1]].energy);
      const double u = rng.uniform();
      if (d >= 0.0 || accept_uphill(brackets, -d, u)) {
        std::swap(order_[t], order_[t + 1]);
      }
    }
    parity ^= 1;
  }

  PackedState& best = replicas_[order_[num_replicas - 1]];
  descend(best);
  return best;
}

}  // namespace nck
