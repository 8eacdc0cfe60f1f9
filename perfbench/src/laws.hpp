// Task-time laws the benchmark evaluates exactly: closed-form survival
// functions and moments, and the exact p-quantile of the maximum of
// independent nodes, found by the benchmark's own bisection.
#pragma once

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <limits>
#include <vector>

#include "core/predictor.hpp"

namespace perfbench {

/// Task-time families with closed-form survival functions and moments;
/// each takes one shape parameter (ignored by the exponential).
enum class Family { kExponential, kErlang, kWeibull, kHyperExp2, kShiftedExp, kLognormal };

/// One node's law: a family, its shape and its mean (ms).
///   kErlang     shape = number of phases (integer)
///   kWeibull    shape = Weibull shape c
///   kHyperExp2  shape = squared coefficient of variation (> 1), balanced means
///   kShiftedExp shape = deterministic share of the mean, in [0, 1)
///   kLognormal  shape = coefficient of variation
struct Law {
  Family family = Family::kExponential;
  double shape = 1.0;
  double mean = 1.0;

  std::string name() const {
    static const char* names[] = {"exponential", "erlang", "weibull",
                                  "hyperexp", "shifted-exp", "lognormal"};
    const std::string base = names[static_cast<int>(family)];
    if (family == Family::kExponential) return base;
    char buf[32];
    std::snprintf(buf, sizeof buf, "-%g", shape);
    return base + buf;
  }

  /// P(T > x).
  double survival(double x) const {
    if (!(x > 0.0)) return 1.0;
    switch (family) {
      case Family::kExponential:
        return std::exp(-x / mean);
      case Family::kErlang: {
        const double z = x * shape / mean;
        double term = 1.0, sum = 1.0;
        for (int i = 1; i < static_cast<int>(shape); ++i) {
          term *= z / i;
          sum += term;
        }
        return std::exp(-z) * sum;
      }
      case Family::kWeibull: {
        const double scale = mean / std::tgamma(1.0 + 1.0 / shape);
        return std::exp(-std::pow(x / scale, shape));
      }
      case Family::kHyperExp2: {
        const double p = 0.5 * (1.0 + std::sqrt((shape - 1.0) / (shape + 1.0)));
        return p * std::exp(-x * 2.0 * p / mean) +
               (1.0 - p) * std::exp(-x * 2.0 * (1.0 - p) / mean);
      }
      case Family::kShiftedExp: {
        const double shift = shape * mean;
        if (x <= shift) return 1.0;
        return std::exp(-(x - shift) / ((1.0 - shape) * mean));
      }
      case Family::kLognormal: {
        const double s2 = std::log(1.0 + shape * shape);
        const double mu = std::log(mean) - 0.5 * s2;
        return 0.5 * std::erfc((std::log(x) - mu) / std::sqrt(2.0 * s2));
      }
    }
    return 1.0;
  }

  forktail::core::TaskStats moments() const {
    double cv2 = 1.0;
    switch (family) {
      case Family::kExponential: cv2 = 1.0; break;
      case Family::kErlang: cv2 = 1.0 / shape; break;
      case Family::kWeibull: {
        const double g1 = std::tgamma(1.0 + 1.0 / shape);
        cv2 = std::tgamma(1.0 + 2.0 / shape) / (g1 * g1) - 1.0;
        break;
      }
      case Family::kHyperExp2: cv2 = shape; break;
      case Family::kShiftedExp: cv2 = (1.0 - shape) * (1.0 - shape); break;
      case Family::kLognormal: cv2 = shape * shape; break;
    }
    return forktail::core::TaskStats{mean, cv2 * mean * mean};
  }

  /// Inverse-transform draw from a uniform u in (0, 1); the serve workload
  /// sends Weibull samples only.
  double sample(double u) const {
    if (family != Family::kWeibull) throw std::logic_error("no sampler for " + name());
    return mean / std::tgamma(1.0 + 1.0 / shape) * std::pow(-std::log(u), 1.0 / shape);
  }
};

/// Exact p-quantile of the max of independent nodes: the x solving
/// sum_i log F_i(x) = log(p/100), by bisection on a bracket grown from the
/// largest node mean.
inline double exact_max_quantile(const std::vector<const Law*>& laws, double p) {
  const double target = std::log(p / 100.0);
  auto g = [&](double x) {
    double s = 0.0;
    for (const Law* law : laws) {
      const double sv = law->survival(x);
      if (sv >= 1.0) return -std::numeric_limits<double>::infinity();
      s += std::log1p(-sv);
    }
    return s - target;
  };
  double top = 0.0;
  for (const Law* law : laws) top = std::max(top, law->mean);
  double hi = top;
  while (g(hi) < 0.0) hi *= 2.0;
  double lo = hi;
  while (g(lo) >= 0.0) lo *= 0.5;
  for (int i = 0; i < 200 && hi - lo > 1e-14 * hi; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (g(mid) < 0.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace perfbench
