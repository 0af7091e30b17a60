#include "tsp/instance.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace adx::tsp {

namespace {

/// Checked before any n x n matrix is allocated.
void check_cities(int n) {
  if (n < 3) throw std::invalid_argument("instance: need at least 3 cities");
  if (n > kMaxCities) {
    throw std::invalid_argument("instance: more than " + std::to_string(kMaxCities) +
                                " cities");
  }
}

}  // namespace

instance::instance(int n, std::vector<std::int32_t> d) : n_(n), d_(std::move(d)) {
  check_cities(n);
  if (d_.size() != static_cast<std::size_t>(n) * n) {
    throw std::invalid_argument("instance: matrix size mismatch");
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const auto w = d_[static_cast<std::size_t>(i) * n + j];
      if (i != j && (w < 0 || w > kMaxWeight)) {
        throw std::invalid_argument("instance: weight " + std::to_string(w) + " at (" +
                                    std::to_string(i) + ", " + std::to_string(j) +
                                    ") outside [0, " + std::to_string(kMaxWeight) + "]");
      }
    }
    d_[static_cast<std::size_t>(i) * n + i] = kInf;
  }
}

std::int64_t instance::tour_cost(const std::vector<std::int16_t>& order) const {
  if (order.size() != static_cast<std::size_t>(n_)) {
    throw std::invalid_argument("tour_cost: order size mismatch");
  }
  std::int64_t c = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    c += at(order[i], order[(i + 1) % order.size()]);
  }
  return c;
}

instance instance::random_asymmetric(int n, std::uint64_t seed, std::int32_t lo,
                                     std::int32_t hi) {
  check_cities(n);
  sim::rng r(seed);
  std::vector<std::int32_t> d(static_cast<std::size_t>(n) * n, kInf);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j) {
        d[static_cast<std::size_t>(i) * n + j] =
            static_cast<std::int32_t>(r.uniform(lo, hi));
      }
    }
  }
  return instance(n, std::move(d));
}

instance instance::random_euclidean(int n, std::uint64_t seed, std::int32_t span) {
  check_cities(n);
  sim::rng r(seed);
  std::vector<std::pair<double, double>> pts;
  pts.reserve(n);
  for (int i = 0; i < n; ++i) {
    pts.emplace_back(r.uniform01() * span, r.uniform01() * span);
  }
  std::vector<std::int32_t> d(static_cast<std::size_t>(n) * n, kInf);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j) {
        const double dx = pts[i].first - pts[j].first;
        const double dy = pts[i].second - pts[j].second;
        d[static_cast<std::size_t>(i) * n + j] =
            static_cast<std::int32_t>(std::lround(std::sqrt(dx * dx + dy * dy))) + 1;
      }
    }
  }
  return instance(n, std::move(d));
}

}  // namespace adx::tsp
