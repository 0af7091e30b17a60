#include "tsp/lmsk.hpp"

#include <algorithm>
#include <numeric>
#include <queue>

namespace adx::tsp {

namespace {

/// Saturating add against kInf cells.
inline std::int32_t sat(std::int32_t v) { return v >= kInf ? kInf : v; }

}  // namespace

subproblem lmsk::root() {
  const int n = inst_->n();
  subproblem sp;
  sp.m = inst_->data();
  sp.rows.resize(n);
  sp.cols.resize(n);
  std::iota(sp.rows.begin(), sp.rows.end(), std::int16_t{0});
  std::iota(sp.cols.begin(), sp.cols.end(), std::int16_t{0});
  ops_ = 0;
  sp.bound = reduce(sp);
  total_ops_ += ops_;
  return sp;
}

std::int64_t lmsk::reduce_row(subproblem& sp, int i) {
  const int k = sp.k();
  std::int32_t mn = kInf;
  for (int j = 0; j < k; ++j) {
    ++ops_;
    mn = std::min(mn, sp.cell(i, j));
  }
  if (mn >= kInf) return kInfBound;  // no outgoing arc: infeasible
  if (mn > 0) {
    for (int j = 0; j < k; ++j) {
      ++ops_;
      auto& c = sp.cell(i, j);
      if (c < kInf) c -= mn;
    }
  }
  return mn;
}

std::int64_t lmsk::reduce_col(subproblem& sp, int j) {
  const int k = sp.k();
  std::int32_t mn = kInf;
  for (int i = 0; i < k; ++i) {
    ++ops_;
    mn = std::min(mn, sp.cell(i, j));
  }
  if (mn >= kInf) return kInfBound;
  if (mn > 0) {
    for (int i = 0; i < k; ++i) {
      ++ops_;
      auto& c = sp.cell(i, j);
      if (c < kInf) c -= mn;
    }
  }
  return mn;
}

std::int64_t lmsk::reduce(subproblem& sp) {
  const int k = sp.k();
  std::int64_t added = 0;
  for (int i = 0; i < k; ++i) {
    const auto r = reduce_row(sp, i);
    if (r >= kInfBound) return kInfBound;
    added += r;
  }
  for (int j = 0; j < k; ++j) {
    const auto c = reduce_col(sp, j);
    if (c >= kInfBound) return kInfBound;
    added += c;
  }
  return added;
}

lmsk::branch_pick lmsk::choose_branch(const subproblem& sp) {
  const int k = sp.k();
  branch_pick best;
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      ++ops_;
      if (sp.cell(i, j) != 0) continue;
      // Penalty: cheapest alternative use of row i plus of column j.
      std::int32_t row_alt = kInf;
      for (int jj = 0; jj < k; ++jj) {
        ++ops_;
        if (jj != j) row_alt = std::min(row_alt, sp.cell(i, jj));
      }
      std::int32_t col_alt = kInf;
      for (int ii = 0; ii < k; ++ii) {
        ++ops_;
        if (ii != i) col_alt = std::min(col_alt, sp.cell(ii, j));
      }
      const std::int64_t penalty =
          static_cast<std::int64_t>(sat(row_alt)) + static_cast<std::int64_t>(sat(col_alt));
      if (penalty > best.penalty) best = {i, j, penalty};
    }
  }
  return best;
}

void lmsk::forbid_subtour_arc(subproblem& child) {
  // Successor/predecessor of each city over committed arcs (-1: none). The
  // chain containing the newest arc runs from some start city s (no incoming
  // committed arc) to some end city e (no outgoing committed arc); arc (e, s)
  // would close a premature subtour.
  const int n = inst_->n();
  std::vector<std::int16_t> next(n, -1), prev(n, -1);
  for (const auto& e : child.edges) {
    next[e[0]] = e[1];
    prev[e[1]] = e[0];
  }
  std::int16_t s = child.edges.back()[0];
  while (prev[s] != -1) s = prev[s];
  std::int16_t e = child.edges.back()[1];
  while (next[e] != -1) e = next[e];

  const auto ri = std::find(child.rows.begin(), child.rows.end(), e);
  const auto cj = std::find(child.cols.begin(), child.cols.end(), s);
  if (ri != child.rows.end() && cj != child.cols.end()) {
    child.cell(static_cast<int>(ri - child.rows.begin()),
               static_cast<int>(cj - child.cols.begin())) = kInf;
  }
}

std::optional<tour> lmsk::finish(const subproblem& sp) {
  // k == 2: two arcs remain; pick the feasible (finite) assignment.
  const std::int64_t a = static_cast<std::int64_t>(sat(sp.cell(0, 0))) +
                         static_cast<std::int64_t>(sat(sp.cell(1, 1)));
  const std::int64_t b = static_cast<std::int64_t>(sat(sp.cell(0, 1))) +
                         static_cast<std::int64_t>(sat(sp.cell(1, 0)));
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
  return assemble(edges);
}

std::optional<tour> lmsk::assemble(
    const std::vector<std::array<std::int16_t, 2>>& edges) {
  const int n = inst_->n();
  if (edges.size() != static_cast<std::size_t>(n)) return std::nullopt;
  std::vector<std::int16_t> next(n, -1);
  for (const auto& e : edges) {
    if (next[e[0]] != -1) return std::nullopt;  // duplicate out-arc
    next[e[0]] = e[1];
  }
  tour t;
  t.order.reserve(n);
  std::int16_t c = 0;
  for (int i = 0; i < n; ++i) {
    if (c < 0 || c >= n) return std::nullopt;
    t.order.push_back(c);
    c = next[c];
  }
  if (c != 0) return std::nullopt;  // not a single closed cycle
  // Reject cycles that skip cities (t.order would repeat one).
  std::vector<bool> seen(n, false);
  for (auto v : t.order) {
    if (seen[v]) return std::nullopt;
    seen[v] = true;
  }
  t.cost = inst_->tour_cost(t.order);
  return t;
}

expand_result lmsk::expand(subproblem sp, std::int64_t best, std::uint32_t& next_seq) {
  ops_ = 0;
  ++expansions_;
  expand_result out;

  if (sp.k() == 2) {
    out.completed = finish(sp);
    out.ops = ops_ += 8;
    total_ops_ += ops_;
    return out;
  }

  const auto pick = choose_branch(sp);
  if (pick.i < 0) {
    // No zero cell: the node is infeasible (all arcs forbidden).
    out.ops = ops_;
    total_ops_ += ops_;
    return out;
  }

  // --- Exclude child: forbid arc (rows[i] -> cols[j]).
  {
    subproblem ex = sp;
    ops_ += ex.words();  // matrix copy
    ex.cell(pick.i, pick.j) = kInf;
    const auto ra = reduce_row(ex, pick.i);
    const auto ca = reduce_col(ex, pick.j);
    if (ra < kInfBound && ca < kInfBound) {
      ex.bound = sp.bound + ra + ca;
      if (ex.bound < best) {
        ex.seq = next_seq++;
        out.children.push_back(std::move(ex));
      }
    }
  }

  // --- Include child: commit arc (rows[i] -> cols[j]), drop row i / col j.
  {
    const int k = sp.k();
    subproblem in;
    in.rows.reserve(k - 1);
    in.cols.reserve(k - 1);
    for (int i = 0; i < k; ++i) {
      if (i != pick.i) in.rows.push_back(sp.rows[i]);
    }
    for (int j = 0; j < k; ++j) {
      if (j != pick.j) in.cols.push_back(sp.cols[j]);
    }
    in.m.resize(static_cast<std::size_t>(k - 1) * (k - 1));
    for (int i = 0, ii = 0; i < k; ++i) {
      if (i == pick.i) continue;
      for (int j = 0, jj = 0; j < k; ++j) {
        if (j == pick.j) continue;
        ++ops_;
        in.cell(ii, jj) = sp.cell(i, j);
        ++jj;
      }
      ++ii;
    }
    in.edges = sp.edges;
    in.edges.push_back({sp.rows[pick.i], sp.cols[pick.j]});
    forbid_subtour_arc(in);
    ops_ += static_cast<std::uint64_t>(in.edges.size()) * 2;
    const auto added = reduce(in);
    if (added < kInfBound) {
      in.bound = sp.bound + added;
      if (in.bound < best) {
        in.seq = next_seq++;
        out.children.push_back(std::move(in));
      }
    }
  }

  out.ops = ops_;
  total_ops_ += ops_;
  return out;
}

seq_result solve_sequential(const instance& inst) {
  lmsk engine(inst);
  seq_result res;

  struct worse {
    bool operator()(const subproblem& a, const subproblem& b) const {
      return a.bound == b.bound ? a.seq > b.seq : a.bound > b.bound;
    }
  };
  std::priority_queue<subproblem, std::vector<subproblem>, worse> pq;
  std::uint32_t seq = 1;
  pq.push(engine.root());

  while (!pq.empty()) {
    res.peak_queue = std::max(res.peak_queue, pq.size());
    subproblem sp = pq.top();
    pq.pop();
    if (sp.bound >= res.best.cost) continue;  // pruned
    auto er = engine.expand(std::move(sp), res.best.cost, seq);
    ++res.expansions;
    if (er.completed && er.completed->cost < res.best.cost) {
      res.best = *er.completed;
    }
    for (auto& c : er.children) pq.push(std::move(c));
  }
  res.ops = engine.total_ops();
  return res;
}

tour solve_brute_force(const instance& inst) {
  const int n = inst.n();
  std::vector<std::int16_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::int16_t{0});
  tour best;
  // Fix city 0 first; permute the rest.
  do {
    const auto c = inst.tour_cost(perm);
    if (c < best.cost) {
      best.cost = c;
      best.order = perm;
    }
  } while (std::next_permutation(perm.begin() + 1, perm.end()));
  return best;
}

}  // namespace adx::tsp
