// LMSK (Little, Murty, Sweeney, Karel) branch-and-bound for the Travelling
// Sales Person problem — the algorithm the paper's §4 application implements
// [SBBG89]. The search proceeds by dynamic construction of a tree of
// subproblems: each node stands for a reduced cost matrix and carries a
// lower bound; branching includes or excludes the zero-cost edge with
// maximum penalty; subtour-closing arcs are forbidden as edges are
// committed. A queued node stores its matrix as one potential per row and
// column over the instance (see subproblem); the expander writes the dense
// matrix out in its own scratch.
//
// The expander counts every matrix-cell operation it performs; the parallel
// driver converts those counts into charged virtual time, so simulated
// execution time tracks the real arithmetic actually done. Writing a node's
// matrix out is not such an operation: the modelled expander is handed it.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
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

/// A dense k x k cost matrix, the form the expander's kernels work on. Each
/// row is padded with kInf to a whole number of vectors, so the kernels'
/// vector sweeps need no tail loop; every kernel keeps the padding kInf.
class cost_matrix {
 public:
  /// Cells per vector (16 bytes of cell_t).
  static constexpr int kLanes = 8;

  /// k x k, every cell kInf.
  explicit cost_matrix(int k = 0) {
    reshape(k);
    std::fill(cells_.begin(), cells_.end(), kInf);
  }

  /// Sets the shape to k x k and leaves the cells for the caller to write.
  void reshape(int k) {
    k_ = k;
    stride_ = (static_cast<std::size_t>(k) + kLanes - 1) / kLanes * kLanes;
    const auto need = static_cast<std::size_t>(k) * stride_;
    if (cells_.size() < need) cells_.resize(need);
  }

  [[nodiscard]] int k() const { return k_; }
  /// Cells from one row's start to the next's: k rounded up to kLanes.
  [[nodiscard]] std::size_t stride() const { return stride_; }
  [[nodiscard]] cell_t* row(int i) { return cells_.data() + static_cast<std::size_t>(i) * stride_; }
  [[nodiscard]] const cell_t* row(int i) const {
    return cells_.data() + static_cast<std::size_t>(i) * stride_;
  }
  cell_t& operator()(int i, int j) { return row(i)[j]; }
  [[nodiscard]] cell_t operator()(int i, int j) const { return row(i)[j]; }

  /// Same shape and the same cells, padding included.
  friend bool operator==(const cost_matrix& a, const cost_matrix& b) {
    const auto n = static_cast<std::size_t>(a.k_) * a.stride_;
    return a.k_ == b.k_ && std::equal(a.cells_.begin(), a.cells_.begin() + n, b.cells_.begin());
  }

 private:
  int k_{0};
  std::size_t stride_{0};
  std::vector<cell_t> cells_;
};

/// One node of the search tree, in potential form. Its reduced cost matrix
/// is never stored: cell (i, j) is D[rows[i]][cols[j]] - u[i] - v[j], and
/// kInf where D is kInf (the diagonal) and at the forbidden cells.
/// lmsk::rebuild() writes it out. Labels, potentials, committed arcs and
/// forbidden cells share one int16 allocation of 4k + 2 (edges + forbids)
/// values, against the k x k cells of the matrix.
class subproblem {
 public:
  std::int64_t bound{0};
  std::uint32_t seq{0};          ///< creation sequence, deterministic PQ ties
  sim::node_id data_home{0};     ///< node holding the matrix (NUMA charging)

  subproblem() = default;

  [[nodiscard]] int k() const { return k_; }
  /// City label of each matrix row and column, both ascending.
  [[nodiscard]] std::span<const std::int16_t> rows() const { return part(0, uk()); }
  [[nodiscard]] std::span<const std::int16_t> cols() const { return part(uk(), uk()); }
  /// Potential of each row and column.
  [[nodiscard]] std::span<const std::int16_t> u() const { return part(2 * uk(), uk()); }
  [[nodiscard]] std::span<const std::int16_t> v() const { return part(3 * uk(), uk()); }
  /// Committed arcs as (from, to) label pairs, in commit order.
  [[nodiscard]] std::span<const std::int16_t> edges() const {
    return part(4 * uk(), 2 * std::size_t{edges_});
  }
  /// Forbidden cells as (row, column) index pairs into this node's matrix.
  [[nodiscard]] std::span<const std::int16_t> forbids() const {
    return part(4 * uk() + 2 * std::size_t{edges_}, 2 * std::size_t{forbids_});
  }

  /// Matrix words, for data-movement charging: one per cell of the k x k
  /// matrix the node stands for, whatever the host stores, so the simulated
  /// machine moves what it always did.
  [[nodiscard]] std::uint64_t words() const {
    return static_cast<std::uint64_t>(k_) * static_cast<std::uint64_t>(k_);
  }

 private:
  friend class lmsk;

  /// Room for k rows and columns, `edges` arcs and `forbids` cells.
  subproblem(int k, std::size_t edges, std::size_t forbids)
      : data_(std::make_unique_for_overwrite<std::int16_t[]>(4 * static_cast<std::size_t>(k) +
                                                             2 * (edges + forbids))),
        k_(static_cast<std::int16_t>(k)),
        edges_(static_cast<std::uint16_t>(edges)),
        forbids_(static_cast<std::uint32_t>(forbids)) {}

  [[nodiscard]] std::size_t uk() const { return static_cast<std::size_t>(k_); }
  [[nodiscard]] std::span<const std::int16_t> part(std::size_t at, std::size_t n) const {
    return {data_.get() + at, n};
  }
  /// Write access to one of the parts above.
  std::int16_t* writable(std::span<const std::int16_t> p) {
    return data_.get() + (p.data() - data_.get());
  }

  std::unique_ptr<std::int16_t[]> data_;
  std::int16_t k_{0};
  std::uint16_t edges_{0};
  std::uint32_t forbids_{0};
};

/// Best-first queue of subproblems: lowest bound first, ties by creation
/// sequence. A binary heap under the same push_heap/pop_heap calls as
/// std::priority_queue, so nodes pop in the same order, but pop() moves the
/// node out.
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
  /// The 0-2 surviving children, held inline.
  class child_list {
   public:
    [[nodiscard]] bool empty() const { return n_ == 0; }
    [[nodiscard]] std::size_t size() const { return n_; }
    subproblem& operator[](std::size_t i) { return slots_[i]; }
    subproblem* begin() { return slots_.data(); }
    subproblem* end() { return slots_.data() + n_; }
    void push_back(subproblem sp) { slots_[n_++] = std::move(sp); }

   private:
    std::array<subproblem, 2> slots_;
    std::size_t n_{0};
  };

  std::optional<tour> completed;       ///< set when the node resolved to a tour
  child_list children;                 ///< surviving children (0-2)
  std::uint64_t ops{0};                ///< matrix-cell operations performed
};

class lmsk {
 public:
  /// Keeps an int16 copy of the instance's weights to rebuild matrices from.
  explicit lmsk(const instance& inst);

  /// The root subproblem: the instance, reduced.
  [[nodiscard]] subproblem root();

  /// Expands `sp`; children with bound >= `best` are pruned. `next_seq` is
  /// advanced for each child created (caller supplies the counter so that
  /// parallel searchers produce globally unique, deterministic sequence ids).
  [[nodiscard]] expand_result expand(subproblem sp, std::int64_t best,
                                     std::uint32_t& next_seq);

  /// Writes out `sp`'s reduced cost matrix (in scratch the next rebuild() or
  /// expand() overwrites). Charges no ops: the modelled expander reads the
  /// matrix it was handed.
  const cost_matrix& rebuild(const subproblem& sp);

  [[nodiscard]] const instance& problem() const { return *inst_; }

  [[nodiscard]] std::uint64_t total_ops() const { return total_ops_; }
  [[nodiscard]] std::uint64_t total_expansions() const { return expansions_; }

  // ------- the kernels expand() runs, public so tests can check them
  //         against a scalar reference.

  /// Full row+column reduction; returns the bound increase (or kInfBound).
  /// Charges what reducing each row, then each column, in turn would: k per
  /// line scanned, k more per line with 0 < min < kInf, stopping at the
  /// first infeasible line.
  std::int64_t reduce(cost_matrix& m);

  struct branch_pick {
    int i{-1};
    int j{-1};
    std::int64_t penalty{-1};
  };
  /// The zero cell with maximum penalty (min row alternative + min col
  /// alternative) — the LMSK branching rule; ties go to the first zero in
  /// row-major order. One row-major vector sweep keeps the two smallest
  /// cells of each row and column; it is charged as the cell-by-cell scan it
  /// replaces: k*k cells plus a row and a column (2k) per zero.
  branch_pick choose_branch(const cost_matrix& m);

  /// Running count of charged operations; expand() and root() reset it on
  /// entry.
  [[nodiscard]] std::uint64_t ops() const { return ops_; }

 private:
  std::int64_t reduce_row(cost_matrix& m, int i);
  std::int64_t reduce_col(cost_matrix& m, int j);

  /// The (row, column) of the include child's matrix whose arc would close
  /// the chain holding its newest committed arc into a premature subtour;
  /// -1 where that city's row or column is gone.
  std::array<int, 2> subtour_cell(const subproblem& parent, int pi, int pj);

  /// The exclude child: `sp` with cell (pi, pj) forbidden and the row and
  /// column reductions ra, ca added to its potentials.
  static subproblem exclude_child(const subproblem& sp, int pi, int pj, cell_t ra, cell_t ca);
  /// The include child: `sp` without row pi and column pj, arc (rows[pi],
  /// cols[pj]) committed, potentials raised by the reduction of sub_, and
  /// `subtour` (if any) forbidden.
  subproblem include_child(const subproblem& sp, int pi, int pj, std::array<int, 2> subtour);

  /// Resolves a k==2 node, whose matrix is in mat_, into a tour (or nothing
  /// if infeasible).
  std::optional<tour> finish(const subproblem& sp);

  /// Builds the closed tour from a complete edge set; empty optional if the
  /// edges do not form a single Hamiltonian cycle.
  std::optional<tour> assemble(const std::vector<std::array<std::int16_t, 2>>& edges);

  const instance* inst_;
  std::vector<cell_t> dist_;  ///< the instance's weights, n x n
  // Scratch, grown and never shrunk: the expanded node's matrix and its
  // include child's; the two smallest cells of each row and column; each
  // line's reduction; the column potentials padded to the stride; the zero
  // cells as (row << 16 | column); each city's successor and predecessor
  // over the committed arcs.
  cost_matrix mat_, sub_;
  std::vector<cell_t> row1_, row2_, col1_, col2_, rowmin_, colmin_, vpad_;
  std::vector<std::uint32_t> zeros_;
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
