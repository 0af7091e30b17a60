// LMSK (Little, Murty, Sweeney, Karel) branch-and-bound for the Travelling
// Sales Person problem — the algorithm the paper's §4 application implements
// [SBBG89]. The search proceeds by dynamic construction of a tree of
// subproblems: each node stands for a reduced cost matrix and carries a
// lower bound; branching includes or excludes the zero-cost edge with
// maximum penalty; subtour-closing arcs are forbidden as edges are
// committed. A queued node is a handle to the one step that made it from
// its parent (see step and subproblem); the expander folds the steps back to
// the root and writes the dense matrix out in its own scratch.
//
// The expander counts every matrix-cell operation it performs; the parallel
// driver converts those counts into charged virtual time, so simulated
// execution time tracks the real arithmetic actually done. Writing a node's
// matrix out is not such an operation: the modelled expander is handed it.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <type_traits>
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
  /// One vector of slack follows the last row, so a kernel may load a
  /// vector that starts inside a row and runs past its end.
  void reshape(int k) {
    k_ = k;
    stride_ = (static_cast<std::size_t>(k) + kLanes - 1) / kLanes * kLanes;
    const auto need = static_cast<std::size_t>(k) * stride_ + kLanes;
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

/// One branching decision of the search tree, written once and never
/// changed. A node differs from its parent by one decision about an arc
/// between two city labels: include commits it, so its row and column leave
/// the matrix, and forbids the arc that would close the new chain into a
/// premature subtour, if any; exclude forbids it. Label n, one past the
/// last city of an n-city instance, stands for none: an exclude step
/// commits arc (n, n). The decision's reduction raises a few row and column
/// potentials, as (line, amount) pairs, where line is a row label, or
/// n + 1 + a column label (unsigned: up to 65535 for 32767 cities): up to
/// kInlineRaises in the step, the rest right after it. The root step
/// decides nothing and raises the root's potentials.
///
/// Every step is folded the same way, so a walk over a path takes no branch
/// on what a step decided or how much it raised: an unused inline raise adds
/// 0 to the row of the step's arc, or to none at the root.
struct step {
  struct raise {
    std::uint16_t line;
    cell_t amount;
  };
  /// Raises held in the step itself: an exclude raises its arc's row and
  /// column, and nearly every include raises at most three lines.
  static constexpr std::size_t kInlineRaises = 3;

  const step* parent{nullptr};  ///< null at the root
  std::int16_t from{0};         ///< the committed arc
  std::int16_t to{0};
  std::int16_t forbid_from{0};  ///< the forbidden arc
  std::int16_t forbid_to{0};
  std::array<raise, kInlineRaises> raised{};
  std::uint16_t more{0};  ///< raises after the step
  std::int16_t k{0};      ///< rows (and columns) of the node's matrix

  [[nodiscard]] const raise* more_raised() const {
    return reinterpret_cast<const raise*>(this + 1);
  }
  [[nodiscard]] raise* more_raised() { return reinterpret_cast<raise*>(this + 1); }
};
static_assert(std::is_trivially_destructible_v<step>);
static_assert(sizeof(step) % alignof(step::raise) == 0);

/// Bump allocator for the steps of one search: fixed-size blocks, all freed
/// with the arena. Steps are trivially destructible and never freed one by
/// one: best-first keeps nearly every node queued until the first tour, and
/// a queued node keeps its whole path alive, so there is little to reclaim
/// before the search ends.
class step_arena {
 public:
  /// Bytes per block (a step larger than a block gets a block of its own).
  static constexpr std::size_t kBlockBytes = std::size_t{64} << 10;

  step_arena() = default;
  step_arena(const step_arena&) = delete;
  step_arena& operator=(const step_arena&) = delete;
  ~step_arena();

  /// A step with room for `more` raises after it.
  step* make(std::size_t more);

  /// Bytes handed out so far.
  [[nodiscard]] std::size_t bytes() const { return bytes_; }

 private:
  /// Each block starts with a link to the block before it.
  struct block {
    block* prev;
  };
  block* last_{nullptr};
  std::byte* next_{nullptr};
  std::byte* end_{nullptr};
  std::size_t bytes_{0};
};

/// One node of the search tree: its bound and queue keys and a handle to the
/// step that made it, which also holds its k. Its reduced cost matrix is
/// never stored: cell (i, j) is D[r][c] - U[r] - V[c]
/// over the live row labels r and column labels c, where U and V sum the
/// raises on the path from the root, and kInf where D is kInf (the diagonal)
/// and at the arcs forbidden on that path. lmsk::rebuild() folds the path
/// and writes the matrix out. The step lives in its search's step_arena, so
/// a node must not outlive that arena.
class subproblem {
 public:
  std::int64_t bound{0};
  std::uint32_t seq{0};          ///< creation sequence, deterministic PQ ties
  sim::node_id data_home{0};     ///< node holding the matrix (NUMA charging)

  subproblem() = default;

  [[nodiscard]] int k() const { return at_ != nullptr ? at_->k : 0; }

  /// Matrix words, for data-movement charging: one per cell of the k x k
  /// matrix the node stands for, whatever the host stores, so the simulated
  /// machine moves what it always did.
  [[nodiscard]] std::uint64_t words() const {
    const auto k = static_cast<std::uint64_t>(this->k());
    return k * k;
  }

 private:
  friend class lmsk;

  explicit subproblem(const step* at) : at_(at) {}

  const step* at_{nullptr};
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
  /// Keeps an int16 copy of the instance's weights to rebuild matrices from
  /// and writes the search's steps to an arena of its own, so the nodes it
  /// makes must not outlive it.
  explicit lmsk(const instance& inst);
  /// The same, but writes the steps to `steps`, which engines working on one
  /// search share: each can then expand the others' nodes.
  lmsk(const instance& inst, step_arena& steps);

  /// The root subproblem: the instance, reduced.
  [[nodiscard]] subproblem root();

  /// Expands `sp`; children with bound >= `best` are pruned. `next_seq` is
  /// advanced for each child created (caller supplies the counter so that
  /// parallel searchers produce globally unique, deterministic sequence ids).
  [[nodiscard]] expand_result expand(subproblem sp, std::int64_t best,
                                     std::uint32_t& next_seq);

  /// Writes out `sp`'s reduced cost matrix (in scratch the next rebuild() or
  /// expand() overwrites) by folding the steps from `sp` back to the root.
  /// Charges no ops: the modelled expander reads the matrix it was handed.
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
  /// row-major order. Cells must lie in [0, kInf], as a reduced matrix's
  /// do. One row-major vector sweep keeps the two smallest cells of each row
  /// and column, a second scores every zero; they are charged as the
  /// cell-by-cell scan they replace: k*k cells plus a row and a column (2k)
  /// per zero.
  branch_pick choose_branch(const cost_matrix& m);

  /// Running count of charged operations; expand() and root() reset it on
  /// entry.
  [[nodiscard]] std::uint64_t ops() const { return ops_; }

 private:
  std::int64_t reduce_row(cost_matrix& m, int i);
  std::int64_t reduce_col(cost_matrix& m, int j);

  /// Folds the path from `s` back to the root into the label-space scratch
  /// below (null: the instance itself, no decision and zero potentials);
  /// returns k. Potentials add, committed arcs and forbidden arcs collect,
  /// and the committed arcs' rows and columns die, in any order.
  int fold_path(const step* s);
  /// Writes the folded node's k x k matrix into mat_.
  void write_matrix(int k);

  /// The (row, column) of the include child's matrix whose arc would close
  /// the chain holding its newest committed arc, (rows_[pi], cols_[pj]), into
  /// a premature subtour; -1 where that city's row or column is gone. Adds
  /// the new arc to next_ and prev_.
  std::array<int, 2> subtour_cell(int pi, int pj);

  /// A step of a k x k node after `parent` that decides nothing and raises
  /// the `count` lines of raise_buf_; its unused inline raises add 0 to line
  /// `spare`.
  step* make_step(const step* parent, int k, std::size_t count, std::uint16_t spare);
  /// The exclude child: `sp` with arc (rows_[pi], cols_[pj]) forbidden and
  /// the row and column reductions ra, ca added to its potentials.
  subproblem exclude_child(const subproblem& sp, int pi, int pj, cell_t ra, cell_t ca);
  /// The include child: arc (rows_[pi], cols_[pj]) committed, its potentials
  /// raised by the reduction of sub_ (rowmin_, colmin_), and `subtour` (if
  /// any) forbidden.
  subproblem include_child(const subproblem& sp, int pi, int pj, std::array<int, 2> subtour);

  /// Resolves a k==2 node, folded and written to mat_, into a tour (or
  /// nothing if infeasible).
  std::optional<tour> finish();

  /// Builds the closed tour from the successor map next_ once it holds n
  /// arcs; empty optional if they do not form a single Hamiltonian cycle.
  std::optional<tour> assemble();

  const instance* inst_;
  int n_;
  /// The instance's weights, n rows of n + 1 cells: column n is kInf, the
  /// label a row gather reads for the padding.
  std::vector<cell_t> dist_;
  step_arena own_steps_;  ///< unused when the engine shares an arena
  step_arena* steps_;
  // Label-space scratch, sized once, each array a whole number of vectors,
  // where label n is none: the folded node's potentials by line (rows
  // 0..n, columns n+1..2n+1); each label's row and column index (-1: gone);
  // each city's successor and predecessor over the committed arcs. Then its
  // live row and column labels, ascending (cols_ padded to the stride with
  // n), and its forbidden arcs as (row label, column label) pairs.
  std::vector<cell_t> pot_;
  std::vector<std::int16_t> row_at_, col_at_, next_, prev_;
  std::vector<std::int16_t> rows_, cols_, forbid_;
  std::size_t forbids_{0};  ///< cells of forbid_ in use
  std::vector<step::raise> raise_buf_;  ///< the raises of the step being made
  // Scratch, grown and never shrunk: the expanded node's matrix and its
  // include child's; the two smallest cells of each row and column; each
  // line's reduction; the column potentials padded to the stride; each
  // column's best zero score and the first row with it.
  cost_matrix mat_, sub_;
  std::vector<cell_t> row1_, row2_, col1_, col2_, rowmin_, colmin_, vpad_;
  std::vector<std::uint16_t> best_score_;
  std::vector<std::int16_t> best_row_;
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
