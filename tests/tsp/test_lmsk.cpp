#include "tsp/lmsk.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <set>

namespace adx::tsp {
namespace {

TEST(Lmsk, RootBoundIsReductionSum) {
  // Hand-checkable 3-city matrix.
  std::vector<std::int32_t> d = {0, 4, 7, 5, 0, 3, 6, 8, 0};
  instance inst(3, std::move(d));
  lmsk engine(inst);
  const auto root = engine.root();
  // Row minima 4,3,6 = 13; after row subtraction every column has a zero.
  EXPECT_EQ(root.bound, 13);
  EXPECT_EQ(root.k(), 3);
}

TEST(Lmsk, RootMatrixHasZeroInEveryRowAndColumn) {
  const auto inst = instance::random_asymmetric(12, 5);
  lmsk engine(inst);
  const auto root = engine.root();
  const auto& m = engine.rebuild(root);
  for (int i = 0; i < root.k(); ++i) {
    bool row_zero = false;
    bool col_zero = false;
    for (int j = 0; j < root.k(); ++j) {
      row_zero |= m(i, j) == 0;
      col_zero |= m(j, i) == 0;
    }
    EXPECT_TRUE(row_zero) << "row " << i;
    EXPECT_TRUE(col_zero) << "col " << i;
  }
}

TEST(Lmsk, ChildBoundsNeverDecrease) {
  const auto inst = instance::random_asymmetric(10, 11);
  lmsk engine(inst);
  std::uint32_t seq = 1;
  std::vector<subproblem> stack;
  stack.push_back(engine.root());
  int checked = 0;
  while (!stack.empty() && checked < 200) {
    auto sp = std::move(stack.back());
    stack.pop_back();
    const auto parent_bound = sp.bound;
    auto er = engine.expand(std::move(sp), kInfBound, seq);
    for (auto& c : er.children) {
      EXPECT_GE(c.bound, parent_bound);
      ++checked;
      stack.push_back(std::move(c));
    }
  }
  EXPECT_GT(checked, 10);
}

TEST(Lmsk, ExpandProducesAtMostTwoChildren) {
  const auto inst = instance::random_asymmetric(9, 2);
  lmsk engine(inst);
  std::uint32_t seq = 1;
  auto er = engine.expand(engine.root(), kInfBound, seq);
  EXPECT_LE(er.children.size(), 2u);
  EXPECT_FALSE(er.completed.has_value());
}

TEST(Lmsk, PruneParameterDropsChildren) {
  const auto inst = instance::random_asymmetric(9, 2);
  lmsk engine(inst);
  std::uint32_t seq = 1;
  auto root = engine.root();
  const auto bound = root.bound;
  auto er = engine.expand(std::move(root), /*best=*/bound, seq);  // nothing can beat it
  EXPECT_TRUE(er.children.empty());
}

TEST(Lmsk, OpsAreCounted) {
  const auto inst = instance::random_asymmetric(10, 3);
  lmsk engine(inst);
  std::uint32_t seq = 1;
  (void)engine.expand(engine.root(), kInfBound, seq);
  EXPECT_GT(engine.total_ops(), 100u);
  EXPECT_EQ(engine.total_expansions(), 1u);
}

struct brute_case {
  int n;
  std::uint64_t seed;
  bool euclidean;
};

class LmskVsBruteForce : public testing::TestWithParam<brute_case> {};

TEST_P(LmskVsBruteForce, FindsOptimalTour) {
  const auto& pc = GetParam();
  const auto inst = pc.euclidean ? instance::random_euclidean(pc.n, pc.seed)
                                 : instance::random_asymmetric(pc.n, pc.seed);
  const auto bf = solve_brute_force(inst);
  const auto lm = solve_sequential(inst);
  ASSERT_TRUE(lm.best.valid());
  EXPECT_EQ(lm.best.cost, bf.cost);
  // The reported tour must be a real Hamiltonian cycle with that cost.
  EXPECT_EQ(inst.tour_cost(lm.best.order), lm.best.cost);
  std::set<std::int16_t> cities(lm.best.order.begin(), lm.best.order.end());
  EXPECT_EQ(cities.size(), static_cast<std::size_t>(pc.n));
}

std::vector<brute_case> brute_cases() {
  std::vector<brute_case> v;
  for (int n : {5, 6, 7, 8}) {
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 17ULL}) {
      v.push_back({n, seed, false});
    }
  }
  for (std::uint64_t seed : {4ULL, 5ULL}) v.push_back({7, seed, true});
  return v;
}

INSTANTIATE_TEST_SUITE_P(SmallInstances, LmskVsBruteForce,
                         testing::ValuesIn(brute_cases()),
                         [](const testing::TestParamInfo<brute_case>& info) {
                           return (info.param.euclidean ? std::string("euc")
                                                        : std::string("asym")) +
                                  "_n" + std::to_string(info.param.n) + "_s" +
                                  std::to_string(info.param.seed);
                         });

TEST(Lmsk, SequentialSolverStatsPopulated) {
  const auto inst = instance::random_asymmetric(14, 21);
  const auto r = solve_sequential(inst);
  EXPECT_TRUE(r.best.valid());
  EXPECT_GT(r.expansions, 0u);
  EXPECT_GT(r.ops, 0u);
  EXPECT_GT(r.peak_queue, 0u);
}

TEST(Lmsk, SequentialDeterministic) {
  const auto inst = instance::random_asymmetric(16, 77);
  const auto a = solve_sequential(inst);
  const auto b = solve_sequential(inst);
  EXPECT_EQ(a.best.cost, b.best.cost);
  EXPECT_EQ(a.expansions, b.expansions);
  EXPECT_EQ(a.best.order, b.best.order);
}

// Exact results of the sequential solver, pinned so a change to the engine's
// internals (subtour bookkeeping, reduction, branching) cannot silently move
// the search: cost, expansion count and op count must all stay put.
struct pinned_case {
  int n;
  std::uint64_t seed;
  std::int64_t cost;
  std::uint64_t expansions;
  std::uint64_t ops;
};

class LmskPinned : public testing::TestWithParam<pinned_case> {};

TEST_P(LmskPinned, SequentialResultUnchanged) {
  const auto& p = GetParam();
  const auto r = solve_sequential(instance::random_asymmetric(p.n, p.seed));
  EXPECT_EQ(r.best.cost, p.cost);
  EXPECT_EQ(r.expansions, p.expansions);
  EXPECT_EQ(r.ops, p.ops);
}

INSTANTIATE_TEST_SUITE_P(RandomAsymmetric, LmskPinned,
                         testing::Values(pinned_case{16, 9001, 183, 135, 110215},
                                         pinned_case{16, 1234, 203, 64, 66216},
                                         pinned_case{16, 777, 146, 41, 38879},
                                         pinned_case{20, 9001, 154, 77, 120265},
                                         pinned_case{20, 1234, 210, 142, 166412},
                                         pinned_case{20, 777, 153, 132, 179858},
                                         // The four 36-city instances of the
                                         // benchmark's tsp_paper workload.
                                         pinned_case{36, 9001, 201, 777, 3707326},
                                         pinned_case{36, 1234, 205, 896, 3599697},
                                         pinned_case{36, 777, 176, 14322, 53733041},
                                         pinned_case{36, 31337, 179, 1908, 9267557}),
                         [](const testing::TestParamInfo<pinned_case>& info) {
                           return "n" + std::to_string(info.param.n) + "_s" +
                                  std::to_string(info.param.seed);
                         });

// The scalar kernels the vector ones replaced, kept as the reference: the
// same pick, the same matrix and the same charged ops on any input. Its
// arithmetic is int64, so it cannot share a 16-bit overflow with the engine.
struct scalar_reference {
  std::uint64_t ops{0};

  std::int64_t reduce_line(cost_matrix& m, int fixed, bool row) {
    const int k = m.k();
    const auto cell = [&](int x) -> cell_t& { return row ? m(fixed, x) : m(x, fixed); };
    std::int64_t mn = kInf;
    for (int x = 0; x < k; ++x) {
      ++ops;
      mn = std::min<std::int64_t>(mn, cell(x));
    }
    if (mn >= kInf) return kInfBound;
    if (mn > 0) {
      for (int x = 0; x < k; ++x) {
        ++ops;
        if (cell(x) < kInf) cell(x) = static_cast<cell_t>(cell(x) - mn);
      }
    }
    return mn;
  }

  std::int64_t reduce(cost_matrix& m) {
    std::int64_t added = 0;
    for (const bool row : {true, false}) {
      for (int x = 0; x < m.k(); ++x) {
        const auto r = reduce_line(m, x, row);
        if (r >= kInfBound) return kInfBound;
        added += r;
      }
    }
    return added;
  }

  lmsk::branch_pick choose_branch(const cost_matrix& m) {
    const int k = m.k();
    lmsk::branch_pick best;
    for (int i = 0; i < k; ++i) {
      for (int j = 0; j < k; ++j) {
        ++ops;
        if (m(i, j) != 0) continue;
        std::int64_t row_alt = kInf;
        for (int jj = 0; jj < k; ++jj) {
          ++ops;
          if (jj != j) row_alt = std::min<std::int64_t>(row_alt, m(i, jj));
        }
        std::int64_t col_alt = kInf;
        for (int ii = 0; ii < k; ++ii) {
          ++ops;
          if (ii != i) col_alt = std::min<std::int64_t>(col_alt, m(ii, j));
        }
        const std::int64_t penalty = row_alt + col_alt;
        if (penalty > best.penalty) best = {i, j, penalty};
      }
    }
    return best;
  }
};

/// A k x k matrix with kInf cells at `inf_pct` percent and, when `dead_line`
/// is set, one row or column all kInf. Finite cells are small (many zeros
/// and equal penalties) unless `wide` is set. Then they span the whole
/// weight range [0, kMaxWeight], and one row and one column are all
/// kMaxWeight but for a zero where they cross: that zero's penalty is
/// 2 * kMaxWeight, the largest finite one. When `forced` is set, one zero
/// is the only finite cell of its row and column, and another the only one
/// of its row: penalties with two and with one kInf term.
cost_matrix random_matrix(std::mt19937_64& rng, int k, unsigned inf_pct, bool dead_line,
                          bool wide, bool forced) {
  cost_matrix m(k);
  const auto hi = wide ? kMaxWeight : static_cast<std::int32_t>(1 + rng() % 12);
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      m(i, j) = rng() % 100 < inf_pct ? kInf : static_cast<cell_t>(rng() % (hi + 1));
    }
  }
  if (wide) {
    const int x = static_cast<int>(rng() % k);
    const int y = static_cast<int>(rng() % k);
    for (int z = 0; z < k; ++z) m(x, z) = m(z, y) = kMaxWeight;
    m(x, y) = 0;
  }
  if (forced) {
    const int x = static_cast<int>(rng() % k);
    const int y = static_cast<int>(rng() % k);
    for (int z = 0; z < k; ++z) m(x, z) = m(z, y) = kInf;
    m(x, y) = 0;
    const int x2 = static_cast<int>(rng() % k);
    const int y2 = static_cast<int>(rng() % k);
    for (int z = 0; z < k; ++z) m(x2, z) = kInf;
    m(x2, y2) = 0;
  }
  if (dead_line) {
    const int x = static_cast<int>(rng() % k);
    const bool row = rng() % 2 == 0;
    for (int y = 0; y < k; ++y) (row ? m(x, y) : m(y, x)) = kInf;
  }
  return m;
}

TEST(LmskKernels, MatchTheScalarReference) {
  lmsk engine(instance::random_asymmetric(4, 1));
  std::mt19937_64 rng(20240611);
  int feasible = 0;
  int infeasible = 0;
  int wide_trials = 0;
  int forced_trials = 0;
  int dead_small = 0;
  for (int trial = 0; trial < 1200; ++trial) {
    // Every k from 3 to 17 in turn first, so that each padding width of the
    // last vector of a row (and rows shorter than a vector) runs many
    // times; then k up to 80.
    const int k = trial < 450 ? 3 + trial % 15 : 3 + static_cast<int>(rng() % 78);
    const unsigned inf_pct = static_cast<unsigned>(rng() % 4) * 10;
    const bool dead = rng() % 8 == 0;
    const bool wide = rng() % 3 == 0;
    const bool forced = rng() % 4 == 0;
    wide_trials += wide ? 1 : 0;
    forced_trials += forced ? 1 : 0;
    dead_small += dead && k <= 17 ? 1 : 0;
    SCOPED_TRACE(testing::Message() << "trial " << trial << " k=" << k << " wide=" << wide
                                    << " forced=" << forced << " dead=" << dead);
    const cost_matrix raw = random_matrix(rng, k, inf_pct, dead, wide, forced);

    // reduce: same bound increase, same matrix, same ops — feasible or not.
    cost_matrix mine = raw;
    cost_matrix ref = raw;
    scalar_reference sr;
    const auto before = engine.ops();
    const auto added = engine.reduce(mine);
    const auto ref_added = sr.reduce(ref);
    EXPECT_EQ(added, ref_added);
    EXPECT_TRUE(mine == ref);
    EXPECT_EQ(engine.ops() - before, sr.ops);
    ++(ref_added < kInfBound ? feasible : infeasible);

    // choose_branch on the reduced matrix (zeros in every line, many ties)
    // and on the raw one (lines without zeros, kInf runners-up).
    const cost_matrix* inputs[] = {&ref, &raw};
    for (const cost_matrix* m : inputs) {
      sr.ops = 0;
      const auto b0 = engine.ops();
      const auto pick = engine.choose_branch(*m);
      const auto ref_pick = sr.choose_branch(*m);
      EXPECT_EQ(pick.i, ref_pick.i);
      EXPECT_EQ(pick.j, ref_pick.j);
      EXPECT_EQ(pick.penalty, ref_pick.penalty);
      EXPECT_EQ(engine.ops() - b0, sr.ops);
    }
  }
  EXPECT_GT(feasible, 100);
  EXPECT_GT(infeasible, 50);
  EXPECT_GT(wide_trials, 300);
  EXPECT_GT(forced_trials, 200);
  EXPECT_GT(dead_small, 30);
}

// A matrix whose every cell is zero charges 2k per zero: k^3 zeros' worth,
// more than a 16-bit count per vector lane holds at k = 600.
TEST(Lmsk, ChooseBranchCountsEveryZeroOfALargeMatrix) {
  lmsk engine(instance::random_asymmetric(4, 1));
  constexpr int k = 600;
  cost_matrix m(k);
  for (int i = 0; i < k; ++i) std::fill_n(m.row(i), k, cell_t{0});
  const auto before = engine.ops();
  const auto pick = engine.choose_branch(m);
  EXPECT_EQ(pick.i, 0);
  EXPECT_EQ(pick.j, 0);
  EXPECT_EQ(pick.penalty, 0);
  const std::uint64_t n = k;
  EXPECT_EQ(engine.ops() - before, n * n + 2 * n * n * n);
}

// The matrix-carrying expander the potential-form one replaced, kept as the
// reference: every node owns its k x k reduced matrix, the include child
// copies it around the picked row and column, and the exclude child edits
// the parent's in place. It runs the scalar kernels above.
struct ref_node {
  cost_matrix m;
  std::vector<std::int16_t> rows;
  std::vector<std::int16_t> cols;
  std::vector<std::array<std::int16_t, 2>> edges;
  std::int64_t bound{0};
  std::uint32_t seq{0};
};

struct ref_result {
  lmsk::branch_pick pick;
  std::optional<tour> completed;
  std::vector<ref_node> children;
  std::uint64_t ops{0};
};

class reference_expander {
 public:
  explicit reference_expander(const instance& inst) : inst_(inst) {}

  ref_node root() {
    const int n = inst_.n();
    ref_node sp;
    sp.m = cost_matrix(n);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) sp.m(i, j) = static_cast<cell_t>(inst_.at(i, j));
      sp.rows.push_back(static_cast<std::int16_t>(i));
      sp.cols.push_back(static_cast<std::int16_t>(i));
    }
    sr_.ops = 0;
    sp.bound = sr_.reduce(sp.m);
    return sp;
  }

  ref_result expand(ref_node sp, std::int64_t best, std::uint32_t& next_seq) {
    sr_.ops = 0;
    ref_result out;
    const int k = sp.m.k();
    if (k == 2) {
      out.completed = finish(sp);
      out.ops = sr_.ops + 8;
      return out;
    }
    out.pick = sr_.choose_branch(sp.m);
    const auto pick = out.pick;
    if (pick.i < 0) {
      out.ops = sr_.ops;
      return out;
    }
    ref_node in;
    in.m = cost_matrix(k - 1);
    for (int i = 0; i < k; ++i) {
      if (i != pick.i) in.rows.push_back(sp.rows[i]);
      if (i != pick.j) in.cols.push_back(sp.cols[i]);
    }
    for (int i = 0, di = 0; i < k; ++i) {
      if (i == pick.i) continue;
      for (int j = 0, dj = 0; j < k; ++j) {
        if (j != pick.j) in.m(di, dj++) = sp.m(i, j);
      }
      ++di;
    }
    sr_.ops += static_cast<std::uint64_t>(k - 1) * (k - 1);
    in.edges = sp.edges;
    in.edges.push_back({sp.rows[pick.i], sp.cols[pick.j]});
    forbid_subtour_arc(in);
    sr_.ops += in.edges.size() * 2;
    const auto in_added = sr_.reduce(in.m);

    const std::int64_t parent_bound = sp.bound;
    ref_node ex = std::move(sp);
    sr_.ops += static_cast<std::uint64_t>(k) * k;
    ex.m(pick.i, pick.j) = kInf;
    const auto ra = sr_.reduce_line(ex.m, pick.i, true);
    const auto ca = sr_.reduce_line(ex.m, pick.j, false);
    if (ra < kInfBound && ca < kInfBound) {
      ex.bound = parent_bound + ra + ca;
      if (ex.bound < best) {
        ex.seq = next_seq++;
        out.children.push_back(std::move(ex));
      }
    }
    if (in_added < kInfBound) {
      in.bound = parent_bound + in_added;
      if (in.bound < best) {
        in.seq = next_seq++;
        out.children.push_back(std::move(in));
      }
    }
    out.ops = sr_.ops;
    return out;
  }

 private:
  void forbid_subtour_arc(ref_node& child) const {
    std::vector<int> next(inst_.n(), -1);
    std::vector<int> prev(inst_.n(), -1);
    for (const auto& e : child.edges) {
      next[e[0]] = e[1];
      prev[e[1]] = e[0];
    }
    int s = child.edges.back()[0];
    while (prev[s] != -1) s = prev[s];
    int e = child.edges.back()[1];
    while (next[e] != -1) e = next[e];
    const auto ri = std::find(child.rows.begin(), child.rows.end(), e);
    const auto cj = std::find(child.cols.begin(), child.cols.end(), s);
    if (ri != child.rows.end() && cj != child.cols.end()) {
      child.m(static_cast<int>(ri - child.rows.begin()),
              static_cast<int>(cj - child.cols.begin())) = kInf;
    }
  }

  std::optional<tour> finish(const ref_node& sp) const {
    const std::int64_t a = std::int64_t{sp.m(0, 0)} + sp.m(1, 1);
    const std::int64_t b = std::int64_t{sp.m(0, 1)} + sp.m(1, 0);
    auto edges = sp.edges;
    if (a < kInf && a <= b) {
      edges.push_back({sp.rows[0], sp.cols[0]});
      edges.push_back({sp.rows[1], sp.cols[1]});
    } else if (b < kInf) {
      edges.push_back({sp.rows[0], sp.cols[1]});
      edges.push_back({sp.rows[1], sp.cols[0]});
    } else {
      return std::nullopt;
    }
    // A single Hamiltonian cycle, listed from city 0.
    const int n = inst_.n();
    std::vector<int> next(n, -1);
    for (const auto& e : edges) {
      if (next[e[0]] != -1) return std::nullopt;
      next[e[0]] = e[1];
    }
    tour t;
    std::set<int> seen;
    for (int c = 0; static_cast<int>(t.order.size()) < n; c = next[c]) {
      if (c < 0 || !seen.insert(c).second) return std::nullopt;
      t.order.push_back(static_cast<std::int16_t>(c));
    }
    if (next[t.order.back()] != 0) return std::nullopt;
    t.cost = inst_.tour_cost(t.order);
    return t;
  }

  const instance& inst_;
  scalar_reference sr_;
};

/// Checks one expansion of the engine against the reference's: ops, the
/// completed tour, and each child's bound, sequence id and rebuilt matrix.
/// Returns false where the two searches can no longer be compared.
bool same_expansion(lmsk& engine, expand_result& er, const ref_result& rr) {
  EXPECT_EQ(er.ops, rr.ops);
  EXPECT_EQ(er.completed.has_value(), rr.completed.has_value());
  if (er.completed && rr.completed) {
    EXPECT_EQ(er.completed->order, rr.completed->order);
    EXPECT_EQ(er.completed->cost, rr.completed->cost);
  }
  if (er.children.size() != rr.children.size()) {
    ADD_FAILURE() << "children " << er.children.size() << " vs " << rr.children.size();
    return false;
  }
  for (std::size_t c = 0; c < er.children.size(); ++c) {
    EXPECT_EQ(er.children[c].bound, rr.children[c].bound);
    EXPECT_EQ(er.children[c].seq, rr.children[c].seq);
    EXPECT_TRUE(engine.rebuild(er.children[c]) == rr.children[c].m) << "child " << c;
  }
  return !testing::Test::HasFailure();
}

/// Best-first search driving the engine and the reference side by side, as
/// solve_sequential does, for at most `max_expansions` expansions. Returns
/// the number of expansions run.
std::size_t differential_search(const instance& inst, std::size_t max_expansions) {
  lmsk engine(inst);
  reference_expander ref(inst);
  const auto worse = [](const ref_node& a, const ref_node& b) {
    return a.bound == b.bound ? a.seq > b.seq : a.bound > b.bound;
  };
  node_queue q;
  std::vector<ref_node> rq;
  const auto push_ref = [&](ref_node n) {
    rq.push_back(std::move(n));
    std::push_heap(rq.begin(), rq.end(), worse);
  };

  auto root = engine.root();
  auto ref_root = ref.root();
  EXPECT_EQ(root.bound, ref_root.bound);
  EXPECT_TRUE(engine.rebuild(root) == ref_root.m);
  q.push(std::move(root));
  push_ref(std::move(ref_root));

  std::uint32_t seq = 1;
  std::uint32_t ref_seq = 1;
  std::int64_t best = kInfBound;
  std::size_t expansions = 0;
  while (!q.empty() && expansions < max_expansions) {
    if (rq.size() != q.size()) {
      ADD_FAILURE() << "queue sizes " << q.size() << " vs " << rq.size();
      break;
    }
    auto sp = q.pop();
    std::pop_heap(rq.begin(), rq.end(), worse);
    ref_node rp = std::move(rq.back());
    rq.pop_back();
    if (sp.bound != rp.bound || sp.seq != rp.seq || !(engine.rebuild(sp) == rp.m)) {
      ADD_FAILURE() << "popped node differs at expansion " << expansions << ": bound "
                    << sp.bound << " vs " << rp.bound << ", seq " << sp.seq << " vs " << rp.seq;
      break;
    }
    if (sp.bound >= best) continue;

    lmsk::branch_pick pick;
    if (sp.k() > 2) pick = engine.choose_branch(engine.rebuild(sp));
    auto er = engine.expand(std::move(sp), best, seq);
    auto rr = ref.expand(std::move(rp), best, ref_seq);
    ++expansions;
    SCOPED_TRACE(testing::Message() << "expansion " << expansions);
    EXPECT_EQ(pick.i, rr.pick.i);
    EXPECT_EQ(pick.j, rr.pick.j);
    EXPECT_EQ(pick.penalty, rr.pick.penalty);
    if (!same_expansion(engine, er, rr)) break;
    if (er.completed && er.completed->cost < best) best = er.completed->cost;
    for (auto& c : er.children) q.push(std::move(c));
    for (auto& c : rr.children) push_ref(std::move(c));
  }
  return expansions;
}

TEST(LmskDifferential, SearchMatchesTheMatrixCarryingExpander) {
  std::size_t total = 0;
  std::size_t finished = 0;
  for (const bool euclidean : {false, true}) {
    for (const int n : {5, 6, 8, 11, 14, 17, 24, 36}) {
      for (const std::uint64_t seed : {1ULL, 2ULL, 9001ULL}) {
        SCOPED_TRACE(testing::Message() << (euclidean ? "euclidean" : "asymmetric") << " n=" << n
                                        << " seed=" << seed);
        const auto inst = euclidean ? instance::random_euclidean(n, seed)
                                    : instance::random_asymmetric(n, seed);
        const std::size_t cap = 1500;
        const auto ran = differential_search(inst, cap);
        total += ran;
        finished += ran < cap ? 1 : 0;
        if (testing::Test::HasFailure()) return;
      }
    }
  }
  EXPECT_GT(total, 10000u);
  EXPECT_GT(finished, 20u);  // searches run to the end, completed tours and all
}

struct pool_stats {
  std::size_t expansions{0};
  std::size_t completed{0};
  int deepest{0};  ///< longest path (decisions from the root) expanded
};

/// The engine and the reference side by side, but each next node comes from
/// the live pool in a seeded random order rather than best-first: half the
/// time the newest node (a dive to the leaves), otherwise any node (a jump
/// across the tree, as a steal makes one). Before each expansion a random
/// other live node is rebuilt, so no rebuild starts from its parent's.
pool_stats random_order_search(const instance& inst, std::size_t max_expansions,
                               std::uint64_t seed) {
  lmsk engine(inst);
  reference_expander ref(inst);
  std::mt19937_64 rng(seed);
  struct live {
    subproblem sp;
    ref_node rp;
    int depth;
  };
  std::vector<live> pool;
  pool.push_back({engine.root(), ref.root(), 0});
  EXPECT_EQ(pool[0].sp.bound, pool[0].rp.bound);

  std::uint32_t seq = 1;
  std::uint32_t ref_seq = 1;
  std::int64_t best = kInfBound;
  pool_stats st;
  while (!pool.empty() && st.expansions < max_expansions) {
    const std::size_t at = rng() % 2 == 0 ? pool.size() - 1 : rng() % pool.size();
    std::swap(pool[at], pool.back());
    auto [sp, rp, depth] = std::move(pool.back());
    pool.pop_back();
    if (!pool.empty()) {
      const live& other = pool[rng() % pool.size()];
      EXPECT_TRUE(engine.rebuild(other.sp) == other.rp.m);
    }
    if (sp.bound != rp.bound || !(engine.rebuild(sp) == rp.m)) {
      ADD_FAILURE() << "node differs at expansion " << st.expansions << ": bound " << sp.bound
                    << " vs " << rp.bound;
      break;
    }
    if (sp.bound >= best) continue;
    st.deepest = std::max(st.deepest, depth);
    auto er = engine.expand(std::move(sp), best, seq);
    auto rr = ref.expand(std::move(rp), best, ref_seq);
    ++st.expansions;
    SCOPED_TRACE(testing::Message() << "expansion " << st.expansions);
    if (!same_expansion(engine, er, rr)) break;
    if (er.completed) {
      ++st.completed;
      best = std::min(best, er.completed->cost);
    }
    for (std::size_t c = 0; c < er.children.size(); ++c) {
      pool.push_back({std::move(er.children[c]), std::move(rr.children[c]), depth + 1});
    }
  }
  return st;
}

TEST(LmskDifferential, RandomOrderRebuildsMatchTheMatrixCarryingExpander) {
  std::size_t total = 0;
  std::size_t completed = 0;
  int deepest = 0;
  for (const bool euclidean : {false, true}) {
    for (const int n : {6, 9, 14, 24, 36}) {
      for (const std::uint64_t seed : {3ULL, 9001ULL}) {
        SCOPED_TRACE(testing::Message() << (euclidean ? "euclidean" : "asymmetric") << " n=" << n
                                        << " seed=" << seed);
        const auto inst = euclidean ? instance::random_euclidean(n, seed)
                                    : instance::random_asymmetric(n, seed);
        const auto st = random_order_search(inst, 600, seed * 31 + static_cast<std::uint64_t>(n));
        total += st.expansions;
        completed += st.completed;
        deepest = std::max(deepest, st.deepest);
        if (testing::Test::HasFailure()) return;
      }
    }
  }
  EXPECT_GT(total, 4000u);
  EXPECT_GT(completed, 20u);  // dives reach k == 2 and complete tours
  EXPECT_GE(deepest, 30);     // and walk paths of 30 decisions and more
}

TEST(StepArena, StepsDoNotOverlapAcrossBlocks) {
  step_arena arena;
  EXPECT_EQ(arena.bytes(), 0u);
  std::vector<step*> made;
  std::size_t bytes = 0;
  // Enough steps for several blocks, one of them larger than a block.
  for (std::size_t i = 0; i < 6000; ++i) {
    const std::size_t more = i == 3000 ? step_arena::kBlockBytes / sizeof(step::raise) : i % 5;
    step* s = arena.make(more);
    ASSERT_EQ(reinterpret_cast<std::uintptr_t>(s) % alignof(step), 0u);
    EXPECT_EQ(s->parent, nullptr);
    s->from = static_cast<std::int16_t>(i);
    s->more = static_cast<std::uint16_t>(more % 65536);
    std::fill_n(s->more_raised(), more, step::raise{static_cast<std::uint16_t>(i), 1});
    made.push_back(s);
    bytes += (sizeof(step) + more * sizeof(step::raise) + alignof(step) - 1) / alignof(step) *
             alignof(step);
  }
  EXPECT_EQ(arena.bytes(), bytes);
  for (std::size_t i = 0; i < made.size(); ++i) {
    ASSERT_EQ(made[i]->from, static_cast<std::int16_t>(i));
    const std::size_t more = i == 3000 ? step_arena::kBlockBytes / sizeof(step::raise) : i % 5;
    for (std::size_t t = 0; t < more; ++t) {
      ASSERT_EQ(made[i]->more_raised()[t].line, static_cast<std::uint16_t>(i));
    }
  }
}

// Instances at the top of the weight range, where a penalty or a two-cell
// sum held in a 16-bit cell would overflow: LMSK must still find the optimum.
TEST(Lmsk, WeightsUpToTheMaximumMatchBruteForce) {
  const int n = 8;
  const instance all_max(n, std::vector<std::int32_t>(n * n, kMaxWeight));
  const instance near_max = instance::random_asymmetric(9, 5, kMaxWeight - 100, kMaxWeight);
  const instance full_range = instance::random_asymmetric(9, 6, 0, kMaxWeight);
  for (const instance* inst : {&all_max, &near_max, &full_range}) {
    SCOPED_TRACE(testing::Message() << "n=" << inst->n() << " w(0,1)=" << inst->at(0, 1));
    const auto bf = solve_brute_force(*inst);
    const auto lm = solve_sequential(*inst);
    ASSERT_TRUE(lm.best.valid());
    EXPECT_EQ(lm.best.cost, bf.cost);
    EXPECT_EQ(inst->tour_cost(lm.best.order), lm.best.cost);
  }
  EXPECT_EQ(solve_sequential(all_max).best.cost, std::int64_t{n} * kMaxWeight);
}

TEST(Lmsk, OptimalNeverWorseThanGreedyUpperBound) {
  const auto inst = instance::random_asymmetric(18, 99);
  // Greedy nearest-neighbour tour as an upper bound.
  std::vector<std::int16_t> order{0};
  std::set<int> left;
  for (int i = 1; i < 18; ++i) left.insert(i);
  while (!left.empty()) {
    const int cur = order.back();
    int best = -1;
    for (int c : left) {
      if (best < 0 || inst.at(cur, c) < inst.at(cur, best)) best = c;
    }
    order.push_back(static_cast<std::int16_t>(best));
    left.erase(best);
  }
  const auto r = solve_sequential(inst);
  EXPECT_LE(r.best.cost, inst.tour_cost(order));
}

TEST(Lmsk, RootBoundLowerBoundsOptimal) {
  const auto inst = instance::random_asymmetric(12, 123);
  lmsk engine(inst);
  const auto root = engine.root();
  const auto r = solve_sequential(inst);
  EXPECT_LE(root.bound, r.best.cost);
}

}  // namespace
}  // namespace adx::tsp
