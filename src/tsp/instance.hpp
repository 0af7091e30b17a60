// TSP problem instances: dense distance matrices over a fully connected
// graph (the paper's LMSK algorithm operates on exactly this). Generators
// are seeded and bit-reproducible.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/rng.hpp"

namespace adx::tsp {

/// One cell of an LMSK cost matrix. Every queued search node carries its own
/// matrix, so the cell width sets the size of the node store.
using cell_t = std::int16_t;

/// "No edge" marker inside cost matrices: the diagonal and forbidden arcs.
inline constexpr cell_t kInf = std::numeric_limits<cell_t>::max();

/// Largest off-diagonal weight an instance accepts. Since 2 * kMaxWeight <
/// kInf, any sum of two finite cells stays below any sum that involves kInf.
inline constexpr std::int32_t kMaxWeight = kInf / 2;
static_assert(2 * kMaxWeight < kInf);

/// Most cities an instance accepts: city labels are int16.
inline constexpr int kMaxCities = std::numeric_limits<std::int16_t>::max();

class instance {
 public:
  /// Throws std::invalid_argument unless 3 <= n <= kMaxCities, d is n x n
  /// and every off-diagonal weight lies in [0, kMaxWeight]. The diagonal is
  /// set to kInf.
  instance(int n, std::vector<std::int32_t> d);

  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] std::int32_t at(int i, int j) const { return d_[static_cast<std::size_t>(i) * n_ + j]; }
  [[nodiscard]] const std::vector<std::int32_t>& data() const { return d_; }

  /// Cost of a closed tour visiting `order` (size n) in sequence.
  [[nodiscard]] std::int64_t tour_cost(const std::vector<std::int16_t>& order) const;

  /// Asymmetric instance with uniform edge weights in [lo, hi].
  [[nodiscard]] static instance random_asymmetric(int n, std::uint64_t seed,
                                                  std::int32_t lo = 1,
                                                  std::int32_t hi = 100);

  /// Symmetric instance from random points on a `span` x `span` grid
  /// (rounded Euclidean distance).
  [[nodiscard]] static instance random_euclidean(int n, std::uint64_t seed,
                                                 std::int32_t span = 1000);

 private:
  int n_;
  std::vector<std::int32_t> d_;
};

}  // namespace adx::tsp
