#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nck {
namespace {

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

Summary summarize(std::span<const double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::vector<double> v(values.begin(), values.end());
  std::sort(v.begin(), v.end());
  s.min = v.front();
  s.max = v.back();
  s.p10 = quantile(v, 0.1);
  s.q1 = quantile(v, 0.25);
  s.median = quantile(v, 0.5);
  s.q3 = quantile(v, 0.75);
  s.p90 = quantile(v, 0.9);
  double sum = 0.0;
  for (double x : v) sum += x;
  s.mean = sum / static_cast<double>(v.size());
  double ss = 0.0;
  for (double x : v) ss += (x - s.mean) * (x - s.mean);
  s.stddev = v.size() > 1 ? std::sqrt(ss / static_cast<double>(v.size() - 1)) : 0.0;
  return s;
}

std::vector<double> polyfit(std::span<const double> x,
                            std::span<const double> y, int degree) {
  if (x.size() != y.size()) throw std::invalid_argument("polyfit: size mismatch");
  if (degree < 0) throw std::invalid_argument("polyfit: negative degree");
  const int m = degree + 1;
  if (x.size() < static_cast<std::size_t>(m)) {
    throw std::invalid_argument("polyfit: not enough points");
  }
  // Normal equations A c = b with A[i][j] = sum x^(i+j), b[i] = sum y x^i.
  std::vector<double> pow_sums(2 * m - 1, 0.0);
  std::vector<double> b(m, 0.0);
  for (std::size_t k = 0; k < x.size(); ++k) {
    double p = 1.0;
    for (int i = 0; i < 2 * m - 1; ++i) {
      pow_sums[i] += p;
      if (i < m) b[i] += y[k] * p;
      p *= x[k];
    }
  }
  std::vector<std::vector<double>> a(m, std::vector<double>(m));
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < m; ++j) a[i][j] = pow_sums[i + j];

  // Gaussian elimination with partial pivoting.
  for (int col = 0; col < m; ++col) {
    int pivot = col;
    for (int r = col + 1; r < m; ++r)
      if (std::abs(a[r][col]) > std::abs(a[pivot][col])) pivot = r;
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    if (std::abs(a[col][col]) < 1e-12) {
      throw std::runtime_error("polyfit: singular normal matrix");
    }
    for (int r = col + 1; r < m; ++r) {
      const double f = a[r][col] / a[col][col];
      for (int c = col; c < m; ++c) a[r][c] -= f * a[col][c];
      b[r] -= f * b[col];
    }
  }
  std::vector<double> coeffs(m);
  for (int r = m - 1; r >= 0; --r) {
    double acc = b[r];
    for (int c = r + 1; c < m; ++c) acc -= a[r][c] * coeffs[c];
    coeffs[r] = acc / a[r][r];
  }
  return coeffs;
}

double polyval(std::span<const double> coeffs, double x) {
  double acc = 0.0;
  for (std::size_t i = coeffs.size(); i-- > 0;) acc = acc * x + coeffs[i];
  return acc;
}

double r_squared(std::span<const double> x, std::span<const double> y,
                 std::span<const double> coeffs) {
  if (x.size() != y.size() || y.empty()) return 0.0;
  double mean = 0.0;
  for (double v : y) mean += v;
  mean /= static_cast<double>(y.size());
  double ss_tot = 0.0, ss_res = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double fit = polyval(coeffs, x[i]);
    ss_res += (y[i] - fit) * (y[i] - fit);
    ss_tot += (y[i] - mean) * (y[i] - mean);
  }
  if (ss_tot == 0.0) return 1.0;
  return 1.0 - ss_res / ss_tot;
}

}  // namespace nck
