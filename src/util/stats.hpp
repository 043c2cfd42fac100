// Summary statistics and least-squares fitting used by the evaluation
// harnesses (box-plot rows for Fig 11, polynomial fit for Fig 12).
#pragma once

#include <span>
#include <vector>

namespace nck {

/// Five-number summary plus mean, as printed for box-plot style figures,
/// and the 10th/90th percentiles for repeated timings.
struct Summary {
  double min = 0.0;
  double p10 = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double p90 = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
  std::size_t n = 0;
};

/// Computes the summary of `values` (copies and sorts internally).
/// Quartiles use linear interpolation. Empty input yields all zeros.
Summary summarize(std::span<const double> values);

/// Least-squares fit of a polynomial of the given degree;
/// returns coefficients c0..c_degree such that y ~= sum c_k x^k.
/// Solved via normal equations with Gaussian elimination and partial
/// pivoting — adequate for the small degrees (<= 4) used here.
std::vector<double> polyfit(std::span<const double> x,
                            std::span<const double> y, int degree);

/// Evaluates a polynomial (coefficients low-order first) at x.
double polyval(std::span<const double> coeffs, double x);

/// Coefficient of determination (R^2) of a fit over the given data.
double r_squared(std::span<const double> x, std::span<const double> y,
                 std::span<const double> coeffs);

}  // namespace nck
