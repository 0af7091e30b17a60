#include "tsp/lmsk.hpp"

#include <algorithm>
#include <numeric>

namespace adx::tsp {

subproblem lmsk::root() {
  const int n = inst_->n();
  subproblem sp;
  // The instance keeps every weight in [0, kMaxWeight] and its diagonal at
  // kInf, so each one fits a cell as is.
  sp.m.assign(inst_->data().begin(), inst_->data().end());
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
  cell_t mn = kInf;
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
  cell_t mn = kInf;
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
  // Column minima in one row-major pass rather than k strided scans.
  const auto n = static_cast<std::size_t>(k);
  cell_t* m = sp.m.data();
  colmin_.assign(n, kInf);
  for (std::size_t i = 0; i < n; ++i) {
    const cell_t* row = m + i * n;
    for (std::size_t j = 0; j < n; ++j) colmin_[j] = std::min(colmin_[j], row[j]);
  }
  // Charged and summed column by column; an infeasible column ends the
  // reduction with only the columns before it reduced. colmin_ becomes the
  // amount each column subtracts (0 unless its minimum is positive).
  std::size_t feasible = n;
  bool any = false;
  for (std::size_t j = 0; j < n; ++j) {
    ops_ += n;
    const auto mn = colmin_[j];
    if (mn >= kInf) {
      feasible = j;
      break;
    }
    added += mn;
    if (mn > 0) {
      ops_ += n;
      any = true;
    } else {
      colmin_[j] = 0;
    }
  }
  if (any) {
    for (std::size_t i = 0; i < n; ++i) {
      cell_t* row = m + i * n;
      for (std::size_t j = 0; j < feasible; ++j) {
        row[j] = row[j] < kInf ? static_cast<cell_t>(row[j] - colmin_[j]) : row[j];
      }
    }
  }
  return feasible < n ? kInfBound : added;
}

lmsk::branch_pick lmsk::choose_branch(const subproblem& sp) {
  const auto n = static_cast<std::size_t>(sp.k());
  row1_.resize(n);
  row2_.resize(n);
  col1_.assign(n, kInf);
  col2_.assign(n, kInf);
  zeros_.resize(n * n);
  // One row-major pass: the two smallest cells of each row and column, as a
  // multiset (a repeated minimum is its own runner-up), and the zero cells
  // in row-major order, appended without a branch.
  const cell_t* m = sp.m.data();
  cell_t* c1 = col1_.data();
  cell_t* c2 = col2_.data();
  std::int32_t* zeros = zeros_.data();
  std::size_t z = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const cell_t* row = m + i * n;
    cell_t r1 = kInf;
    cell_t r2 = kInf;
    for (std::size_t j = 0; j < n; ++j) {
      const cell_t v = row[j];
      r2 = std::min(r2, std::max(r1, v));
      r1 = std::min(r1, v);
      c2[j] = std::min(c2[j], std::max(c1[j], v));
      c1[j] = std::min(c1[j], v);
      zeros[z] = static_cast<std::int32_t>(i * n + j);
      z += v == 0 ? 1 : 0;
    }
    row1_[i] = r1;
    row2_[i] = r2;
  }
  ops_ += n * n + 2 * n * z;

  // Penalty of a zero: the cheapest other cell of its row plus of its column.
  // Without the zero itself that is the runner-up when the zero is the
  // line's minimum, and the minimum otherwise. A finite penalty is at most
  // 2 * kMaxWeight < kInf, so it loses to any penalty with a kInf term.
  branch_pick best;
  for (std::size_t t = 0; t < z; ++t) {
    const auto i = static_cast<std::size_t>(zeros[t]) / n;
    const auto j = static_cast<std::size_t>(zeros[t]) % n;
    const cell_t row_alt = row1_[i] == 0 ? row2_[i] : row1_[i];
    const cell_t col_alt = c1[j] == 0 ? c2[j] : c1[j];
    const std::int64_t penalty = std::int64_t{row_alt} + col_alt;
    if (penalty > best.penalty) best = {static_cast<int>(i), static_cast<int>(j), penalty};
  }
  return best;
}

void lmsk::forbid_subtour_arc(subproblem& child) {
  // Successor/predecessor of each city over committed arcs (-1: none). The
  // chain containing the newest arc runs from some start city s (no incoming
  // committed arc) to some end city e (no outgoing committed arc); arc (e, s)
  // would close a premature subtour.
  const auto n = static_cast<std::size_t>(inst_->n());
  next_.assign(n, -1);
  prev_.assign(n, -1);
  for (const auto& e : child.edges) {
    next_[e[0]] = e[1];
    prev_[e[1]] = e[0];
  }
  std::int16_t s = child.edges.back()[0];
  while (prev_[s] != -1) s = prev_[s];
  std::int16_t e = child.edges.back()[1];
  while (next_[e] != -1) e = next_[e];

  const auto ri = std::find(child.rows.begin(), child.rows.end(), e);
  const auto cj = std::find(child.cols.begin(), child.cols.end(), s);
  if (ri != child.rows.end() && cj != child.cols.end()) {
    child.cell(static_cast<int>(ri - child.rows.begin()),
               static_cast<int>(cj - child.cols.begin())) = kInf;
  }
}

std::optional<tour> lmsk::finish(const subproblem& sp) {
  // k == 2: two arcs remain; pick the feasible (finite) assignment. Two
  // finite cells sum to at most 2 * kMaxWeight < kInf.
  const std::int64_t a = std::int64_t{sp.cell(0, 0)} + sp.cell(1, 1);
  const std::int64_t b = std::int64_t{sp.cell(0, 1)} + sp.cell(1, 0);
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

  // --- Include child: commit arc (rows[i] -> cols[j]), drop row i / col j.
  // Built first, while `sp` still holds the parent matrix.
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
  auto dst = in.m.begin();
  for (int i = 0; i < k; ++i) {
    if (i == pick.i) continue;
    const auto row = sp.m.cbegin() + static_cast<std::ptrdiff_t>(i) * k;
    dst = std::copy(row, row + pick.j, dst);
    dst = std::copy(row + pick.j + 1, row + k, dst);
  }
  ops_ += static_cast<std::uint64_t>(k - 1) * (k - 1);
  in.edges.reserve(sp.edges.size() + 1);
  in.edges = sp.edges;
  in.edges.push_back({sp.rows[pick.i], sp.cols[pick.j]});
  forbid_subtour_arc(in);
  ops_ += static_cast<std::uint64_t>(in.edges.size()) * 2;
  const auto in_added = reduce(in);

  // --- Exclude child: forbid arc (rows[i] -> cols[j]). It takes over the
  // parent's storage; the matrix copy it models is still charged.
  const std::int64_t parent_bound = sp.bound;
  subproblem ex = std::move(sp);
  ops_ += ex.words();
  ex.cell(pick.i, pick.j) = kInf;
  const auto ra = reduce_row(ex, pick.i);
  const auto ca = reduce_col(ex, pick.j);

  // Children in creation order: exclude, then include.
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

  out.ops = ops_;
  total_ops_ += ops_;
  return out;
}

seq_result solve_sequential(const instance& inst) {
  lmsk engine(inst);
  seq_result res;

  node_queue pq;
  std::uint32_t seq = 1;
  pq.push(engine.root());

  while (!pq.empty()) {
    res.peak_queue = std::max(res.peak_queue, pq.size());
    subproblem sp = pq.pop();
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
