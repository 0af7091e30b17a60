// LMSK (Little, Murty, Sweeney, Karel) branch-and-bound for the Travelling
// Sales Person problem — the algorithm the paper's §4 application implements
// [SBBG89]. The search proceeds by dynamic construction of a tree of
// subproblems: each node carries a reduced cost matrix and a lower bound;
// branching includes or excludes the zero-cost edge with maximum penalty;
// subtour-closing arcs are forbidden as edges are committed.
//
// The expander counts every matrix-cell operation it performs; the parallel
// driver converts those counts into charged virtual time, so simulated
// execution time tracks the real arithmetic actually done.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/machine_config.hpp"
#include "tsp/instance.hpp"

namespace adx::tsp {

/// Lower-bound value marking an infeasible subproblem.
inline constexpr std::int64_t kInfBound = std::int64_t{1} << 50;

/// A completed tour.
struct tour {
  std::vector<std::int16_t> order;  ///< city sequence (closed implicitly)
  std::int64_t cost{kInfBound};

  [[nodiscard]] bool valid() const { return cost < kInfBound; }
};

/// One node of the search tree.
struct subproblem {
  std::vector<cell_t> m;              ///< k x k reduced cost matrix
  std::vector<std::int16_t> rows;     ///< city label of each matrix row
  std::vector<std::int16_t> cols;     ///< city label of each matrix column
  std::vector<std::array<std::int16_t, 2>> edges;  ///< committed (from,to) arcs
  std::int64_t bound{0};
  std::uint32_t seq{0};          ///< creation sequence, deterministic PQ ties
  sim::node_id data_home{0};     ///< node holding the matrix (NUMA charging)

  [[nodiscard]] int k() const { return static_cast<int>(rows.size()); }
  [[nodiscard]] cell_t cell(int i, int j) const {
    return m[static_cast<std::size_t>(i) * rows.size() + j];
  }
  cell_t& cell(int i, int j) {
    return m[static_cast<std::size_t>(i) * rows.size() + j];
  }
  /// Matrix words, for data-movement charging: one per cell, whatever the
  /// host cell width, so the simulated machine moves what it always did.
  [[nodiscard]] std::uint64_t words() const {
    return static_cast<std::uint64_t>(rows.size()) * rows.size();
  }
};

/// Best-first queue of subproblems: lowest bound first, ties by creation
/// sequence. A binary heap under the same push_heap/pop_heap calls as
/// std::priority_queue, so nodes pop in the same order, but pop() moves the
/// node out instead of copying its matrix.
class node_queue {
 public:
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  void push(subproblem sp) {
    heap_.push_back(std::move(sp));
    std::push_heap(heap_.begin(), heap_.end(), worse{});
  }
  /// Removes and returns the best node (requires !empty()).
  subproblem pop() {
    std::pop_heap(heap_.begin(), heap_.end(), worse{});
    subproblem sp = std::move(heap_.back());
    heap_.pop_back();
    return sp;
  }

 private:
  struct worse {
    bool operator()(const subproblem& a, const subproblem& b) const {
      return a.bound == b.bound ? a.seq > b.seq : a.bound > b.bound;
    }
  };
  std::vector<subproblem> heap_;
};

/// Result of expanding one node.
struct expand_result {
  std::optional<tour> completed;       ///< set when the node resolved to a tour
  std::vector<subproblem> children;    ///< surviving children (0-2)
  std::uint64_t ops{0};                ///< matrix-cell operations performed
};

class lmsk {
 public:
  explicit lmsk(const instance& inst) : inst_(&inst) {}

  /// The root subproblem: full reduced matrix.
  [[nodiscard]] subproblem root();

  /// Expands `sp`; children with bound >= `best` are pruned. `next_seq` is
  /// advanced for each child created (caller supplies the counter so that
  /// parallel searchers produce globally unique, deterministic sequence ids).
  [[nodiscard]] expand_result expand(subproblem sp, std::int64_t best,
                                     std::uint32_t& next_seq);

  [[nodiscard]] const instance& problem() const { return *inst_; }

  [[nodiscard]] std::uint64_t total_ops() const { return total_ops_; }
  [[nodiscard]] std::uint64_t total_expansions() const { return expansions_; }

  // ------- the kernels expand() runs, public so tests can check them
  //         against a scalar reference.

  /// Full row+column reduction; returns the bound increase (or kInfBound).
  /// Charges what reducing each row, then each column, in turn would: k per
  /// line scanned, k more per line with 0 < min < kInf, stopping at the
  /// first infeasible line.
  std::int64_t reduce(subproblem& sp);

  struct branch_pick {
    int i{-1};
    int j{-1};
    std::int64_t penalty{-1};
  };
  /// The zero cell with maximum penalty (min row alternative + min col
  /// alternative) — the LMSK branching rule; ties go to the first zero in
  /// row-major order. One row-major pass keeps the two smallest cells of
  /// each row and column; it is charged as the cell-by-cell scan it
  /// replaces: k*k cells plus a row and a column (2k) per zero.
  branch_pick choose_branch(const subproblem& sp);

  /// Running count of charged operations; expand() and root() reset it on
  /// entry.
  [[nodiscard]] std::uint64_t ops() const { return ops_; }

 private:
  std::int64_t reduce_row(subproblem& sp, int i);
  std::int64_t reduce_col(subproblem& sp, int j);

  /// Forbids the arc that would close the partial chain ending the committed
  /// edge set into a premature subtour.
  void forbid_subtour_arc(subproblem& child);

  /// Resolves a k==2 node into a tour (or nothing if infeasible).
  std::optional<tour> finish(const subproblem& sp);

  /// Builds the closed tour from a complete edge set; empty optional if the
  /// edges do not form a single Hamiltonian cycle.
  std::optional<tour> assemble(const std::vector<std::array<std::int16_t, 2>>& edges);

  const instance* inst_;
  // Scratch, resized per call: the two smallest cells of each row and
  // column, the column minima, the zero cells' flat indices, and each
  // city's successor and predecessor over the committed arcs.
  std::vector<cell_t> row1_, row2_, col1_, col2_, colmin_;
  std::vector<std::int32_t> zeros_;
  std::vector<std::int16_t> next_, prev_;
  std::uint64_t ops_{0};
  std::uint64_t total_ops_{0};
  std::uint64_t expansions_{0};
};

/// Sequential best-first LMSK solver (the paper's sequential baseline in
/// Table 1).
struct seq_result {
  tour best;
  std::uint64_t expansions{0};
  std::uint64_t ops{0};
  std::size_t peak_queue{0};
};

[[nodiscard]] seq_result solve_sequential(const instance& inst);

/// Exhaustive solver for cross-checking on tiny instances (n <= 10).
[[nodiscard]] tour solve_brute_force(const instance& inst);

}  // namespace adx::tsp
