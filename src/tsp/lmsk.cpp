#include "tsp/lmsk.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

namespace adx::tsp {

namespace {

// The kernels' vectors: GCC vector extensions of 8 int16 lanes, one SSE2
// register on x86-64 — no -march flag and no second path per ISA.
using vec = cell_t __attribute__((vector_size(16)));
using byte_vec = std::int8_t __attribute__((vector_size(8)));
constexpr std::size_t kLanes = cost_matrix::kLanes;
static_assert(sizeof(vec) == kLanes * sizeof(cell_t));

vec load(const cell_t* p) {
  vec x;
  std::memcpy(&x, p, sizeof x);
  return x;
}
void store(cell_t* p, vec x) { std::memcpy(p, &x, sizeof x); }
vec splat(cell_t c) { return vec{} + c; }
vec vmin(vec a, vec b) { return a < b ? a : b; }
vec vmax(vec a, vec b) { return a < b ? b : a; }

/// x - d in every finite lane; kInf lanes stay kInf.
vec sub_finite(vec x, vec d) { return x < kInf ? x - d : x; }

/// Bit 8l set for each lane l of x that is zero.
std::uint64_t zero_lanes(vec x) {
  const byte_vec b = __builtin_convertvector(x == 0, byte_vec);
  std::uint64_t bits = 0;
  std::memcpy(&bits, &b, sizeof bits);
  return bits & 0x0101010101010101ULL;
}

/// The butterfly's lane pairings: swap halves, quarters, neighbours.
vec swap4(vec x) { return __builtin_shufflevector(x, x, 4, 5, 6, 7, 0, 1, 2, 3); }
vec swap2(vec x) { return __builtin_shufflevector(x, x, 2, 3, 0, 1, 6, 7, 4, 5); }
vec swap1(vec x) { return __builtin_shufflevector(x, x, 1, 0, 3, 2, 5, 4, 7, 6); }

/// One butterfly step of fold(): merges each lane's two smallest with those
/// of the lane `Swap` pairs it with.
template <vec (*Swap)(vec)>
void fold_step(vec& lo, vec& hi) {
  const vec lo2 = Swap(lo);
  const vec hi2 = Swap(hi);
  hi = vmin(vmax(lo, lo2), vmin(hi, hi2));
  lo = vmin(lo, lo2);
}

/// Folds per-lane two smallest values (lo <= hi in each lane) into the two
/// smallest of all lanes, as a multiset, in lane 0. Each step merges
/// disjoint lane groups, so no value counts twice.
void fold(vec& lo, vec& hi) {
  fold_step<swap4>(lo, hi);
  fold_step<swap2>(lo, hi);
  fold_step<swap1>(lo, hi);
}

/// Smallest lane of x.
cell_t hmin(vec x) {
  x = vmin(x, swap4(x));
  x = vmin(x, swap2(x));
  x = vmin(x, swap1(x));
  return x[0];
}

/// Scratch only ever grows, so a steady search stops allocating.
template <typename T>
void grow(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
}

}  // namespace

lmsk::lmsk(const instance& inst) : inst_(&inst) {
  // The instance keeps every weight in [0, kMaxWeight] and its diagonal at
  // kInf, so each one fits a cell as is.
  dist_.assign(inst.data().begin(), inst.data().end());
}

subproblem lmsk::root() {
  const int n = inst_->n();
  subproblem sp(n, 0, 0);
  std::int16_t* rows = sp.writable(sp.rows());
  std::int16_t* cols = sp.writable(sp.cols());
  std::iota(rows, rows + n, std::int16_t{0});
  std::iota(cols, cols + n, std::int16_t{0});
  std::fill_n(sp.writable(sp.u()), n, std::int16_t{0});
  std::fill_n(sp.writable(sp.v()), n, std::int16_t{0});
  ops_ = 0;
  rebuild(sp);
  sp.bound = reduce(mat_);
  if (sp.bound < kInfBound) {
    std::copy_n(rowmin_.begin(), n, sp.writable(sp.u()));
    std::copy_n(colmin_.begin(), n, sp.writable(sp.v()));
  }
  total_ops_ += ops_;
  return sp;
}

const cost_matrix& lmsk::rebuild(const subproblem& sp) {
  const int k = sp.k();
  const auto rows = sp.rows();
  const auto cols = sp.cols();
  const auto u = sp.u();
  const auto n = static_cast<std::size_t>(inst_->n());
  mat_.reshape(k);
  const std::size_t stride = mat_.stride();
  grow(vpad_, stride);
  std::copy(sp.v().begin(), sp.v().end(), vpad_.begin());
  std::fill(vpad_.begin() + k, vpad_.begin() + static_cast<std::ptrdiff_t>(stride), cell_t{0});
  // Each row is gathered from the instance and padded with kInf; then every
  // finite cell loses its row's and column's potential. The padding's column
  // potential is 0, and its cells stay kInf.
  for (int i = 0; i < k; ++i) {
    const cell_t* src = dist_.data() + static_cast<std::size_t>(rows[i]) * n;
    cell_t* row = mat_.row(i);
    for (int j = 0; j < k; ++j) row[j] = src[cols[j]];
    std::fill(row + k, row + stride, kInf);
    const vec ui = splat(u[i]);
    for (std::size_t b = 0; b < stride; b += kLanes) {
      store(row + b, sub_finite(load(row + b), ui + load(vpad_.data() + b)));
    }
  }
  const auto f = sp.forbids();
  for (std::size_t t = 0; t < f.size(); t += 2) mat_(f[t], f[t + 1]) = kInf;
  return mat_;
}

std::int64_t lmsk::reduce_row(cost_matrix& m, int i) {
  const std::size_t stride = m.stride();
  cell_t* row = m.row(i);
  vec lo = splat(kInf);
  for (std::size_t b = 0; b < stride; b += kLanes) lo = vmin(lo, load(row + b));
  const cell_t mn = hmin(lo);
  ops_ += static_cast<std::uint64_t>(m.k());
  if (mn >= kInf) return kInfBound;  // no outgoing arc: infeasible
  if (mn > 0) {
    ops_ += static_cast<std::uint64_t>(m.k());
    const vec d = splat(mn);
    for (std::size_t b = 0; b < stride; b += kLanes) store(row + b, sub_finite(load(row + b), d));
  }
  return mn;
}

std::int64_t lmsk::reduce_col(cost_matrix& m, int j) {
  const int k = m.k();
  cell_t mn = kInf;
  for (int i = 0; i < k; ++i) mn = std::min(mn, m(i, j));
  ops_ += static_cast<std::uint64_t>(k);
  if (mn >= kInf) return kInfBound;
  if (mn > 0) {
    ops_ += static_cast<std::uint64_t>(k);
    for (int i = 0; i < k; ++i) {
      cell_t& c = m(i, j);
      c = c < kInf ? static_cast<cell_t>(c - mn) : c;
    }
  }
  return mn;
}

std::int64_t lmsk::reduce(cost_matrix& m) {
  const int k = m.k();
  const auto n = static_cast<std::size_t>(k);
  const std::size_t stride = m.stride();
  grow(rowmin_, n);
  std::int64_t added = 0;
  for (int i = 0; i < k; ++i) {
    const auto r = reduce_row(m, i);
    if (r >= kInfBound) return kInfBound;
    rowmin_[i] = static_cast<cell_t>(r);
    added += r;
  }
  // Column minima in one row-major pass rather than k strided scans.
  grow(colmin_, stride);
  cell_t* cm = colmin_.data();
  std::fill_n(cm, stride, kInf);
  for (int i = 0; i < k; ++i) {
    const cell_t* row = m.row(i);
    for (std::size_t b = 0; b < stride; b += kLanes) store(cm + b, vmin(load(cm + b), load(row + b)));
  }
  // Charged and summed column by column; an infeasible column ends the
  // reduction with only the columns before it reduced. colmin_ becomes the
  // amount each column subtracts (0 unless its minimum is positive, and 0
  // from an infeasible column on and in the padding).
  std::size_t feasible = n;
  bool any = false;
  for (std::size_t j = 0; j < n; ++j) {
    ops_ += n;
    const auto mn = cm[j];
    if (mn >= kInf) {
      feasible = j;
      break;
    }
    added += mn;
    if (mn > 0) {
      ops_ += n;
      any = true;
    } else {
      cm[j] = 0;
    }
  }
  std::fill(cm + feasible, cm + stride, cell_t{0});
  if (any) {
    for (int i = 0; i < k; ++i) {
      cell_t* row = m.row(i);
      for (std::size_t b = 0; b < stride; b += kLanes) {
        store(row + b, sub_finite(load(row + b), load(cm + b)));
      }
    }
  }
  return feasible < n ? kInfBound : added;
}

lmsk::branch_pick lmsk::choose_branch(const cost_matrix& m) {
  const int k = m.k();
  const auto n = static_cast<std::size_t>(k);
  const std::size_t stride = m.stride();
  grow(row1_, n);
  grow(row2_, n);
  grow(col1_, stride);
  grow(col2_, stride);
  grow(zeros_, n * n);
  cell_t* c1 = col1_.data();
  cell_t* c2 = col2_.data();
  std::fill_n(c1, stride, kInf);
  std::fill_n(c2, stride, kInf);
  // One row-major sweep, a vector at a time: each lane keeps the two
  // smallest cells it has seen of its row and of its column, as a multiset
  // (a repeated minimum is its own runner-up); a row's lanes are folded at
  // its end. The zero cells are appended in row-major order, found from the
  // compare mask, as (row << 16 | column).
  std::uint32_t* zeros = zeros_.data();
  std::size_t z = 0;
  for (int i = 0; i < k; ++i) {
    const cell_t* row = m.row(i);
    vec r1 = splat(kInf);
    vec r2 = r1;
    for (std::size_t b = 0; b < stride; b += kLanes) {
      const vec x = load(row + b);
      r2 = vmin(r2, vmax(r1, x));
      r1 = vmin(r1, x);
      const vec a1 = load(c1 + b);
      store(c2 + b, vmin(load(c2 + b), vmax(a1, x)));
      store(c1 + b, vmin(a1, x));
      for (auto bits = zero_lanes(x); bits != 0; bits &= bits - 1) {
        const auto j = b + static_cast<std::size_t>(__builtin_ctzll(bits)) / 8;
        zeros[z++] = static_cast<std::uint32_t>(i) << 16 | static_cast<std::uint32_t>(j);
      }
    }
    fold(r1, r2);
    row1_[i] = r1[0];
    row2_[i] = r2[0];
  }
  ops_ += n * n + 2 * n * z;

  // Penalty of a zero: the cheapest other cell of its row plus of its column.
  // Without the zero itself that is the runner-up when the zero is the
  // line's minimum, and the minimum otherwise. A finite penalty is at most
  // 2 * kMaxWeight < kInf, so it loses to any penalty with a kInf term.
  branch_pick best;
  for (std::size_t t = 0; t < z; ++t) {
    const auto i = static_cast<int>(zeros[t] >> 16);
    const auto j = static_cast<int>(zeros[t] & 0xffff);
    const cell_t row_alt = row1_[i] == 0 ? row2_[i] : row1_[i];
    const cell_t col_alt = c1[j] == 0 ? c2[j] : c1[j];
    const std::int64_t penalty = std::int64_t{row_alt} + col_alt;
    if (penalty > best.penalty) best = {i, j, penalty};
  }
  return best;
}

std::array<int, 2> lmsk::subtour_cell(const subproblem& parent, int pi, int pj) {
  // Successor/predecessor of each city over the child's committed arcs (-1:
  // none): the parent's and the new one. The chain containing the new arc
  // runs from some start city s (no incoming committed arc) to some end city
  // e (no outgoing committed arc); arc (e, s) would close a premature
  // subtour. e has an outgoing arc in neither the parent nor the child, so it
  // is not the dropped row; nor is s the dropped column.
  const auto n = static_cast<std::size_t>(inst_->n());
  next_.assign(n, -1);
  prev_.assign(n, -1);
  const auto edges = parent.edges();
  for (std::size_t t = 0; t < edges.size(); t += 2) {
    next_[edges[t]] = edges[t + 1];
    prev_[edges[t + 1]] = edges[t];
  }
  const std::int16_t from = parent.rows()[pi];
  const std::int16_t to = parent.cols()[pj];
  next_[from] = to;
  prev_[to] = from;
  std::int16_t s = from;
  while (prev_[s] != -1) s = prev_[s];
  std::int16_t e = to;
  while (next_[e] != -1) e = next_[e];

  const auto rows = parent.rows();
  const auto cols = parent.cols();
  const auto ri = std::find(rows.begin(), rows.end(), e);
  const auto cj = std::find(cols.begin(), cols.end(), s);
  if (ri == rows.end() || cj == cols.end()) return {-1, -1};
  const auto i = static_cast<int>(ri - rows.begin());
  const auto j = static_cast<int>(cj - cols.begin());
  return {i - (i > pi ? 1 : 0), j - (j > pj ? 1 : 0)};
}

subproblem lmsk::exclude_child(const subproblem& sp, int pi, int pj, cell_t ra, cell_t ca) {
  // The parent with u[pi] += ra, v[pj] += ca and the cell (pi, pj)
  // forbidden: forbids come last, so it is the parent's values plus one pair.
  subproblem ex(sp.k(), sp.edges_, std::size_t{sp.forbids_} + 1);
  const std::int16_t* first = sp.rows().data();
  const std::int16_t* last = sp.forbids().data() + sp.forbids().size();
  std::int16_t* out = std::copy(first, last, ex.writable(ex.rows()));
  out[0] = static_cast<std::int16_t>(pi);
  out[1] = static_cast<std::int16_t>(pj);
  ex.writable(ex.u())[pi] = static_cast<std::int16_t>(sp.u()[pi] + ra);
  ex.writable(ex.v())[pj] = static_cast<std::int16_t>(sp.v()[pj] + ca);
  return ex;
}

subproblem lmsk::include_child(const subproblem& sp, int pi, int pj,
                               std::array<int, 2> subtour) {
  // The parent without row pi and column pj, its potentials raised by the
  // reduction of sub_ (rowmin_, colmin_), arc (rows[pi], cols[pj])
  // committed, the forbidden cells outside the dropped lines renumbered,
  // and the subtour cell forbidden.
  const int k = sp.k();
  const auto f = sp.forbids();
  std::size_t kept = subtour[0] >= 0 ? 1 : 0;
  for (std::size_t t = 0; t < f.size(); t += 2) kept += f[t] != pi && f[t + 1] != pj ? 1 : 0;
  subproblem in(k - 1, std::size_t{sp.edges_} + 1, kept);
  std::int16_t* rows = in.writable(in.rows());
  std::int16_t* cols = in.writable(in.cols());
  std::int16_t* u = in.writable(in.u());
  std::int16_t* v = in.writable(in.v());
  for (int i = 0, d = 0; i < k; ++i) {
    if (i == pi) continue;
    rows[d] = sp.rows()[i];
    u[d] = static_cast<std::int16_t>(sp.u()[i] + rowmin_[d]);
    ++d;
  }
  for (int j = 0, d = 0; j < k; ++j) {
    if (j == pj) continue;
    cols[d] = sp.cols()[j];
    v[d] = static_cast<std::int16_t>(sp.v()[j] + colmin_[d]);
    ++d;
  }
  std::int16_t* edges = std::copy(sp.edges().begin(), sp.edges().end(), in.writable(in.edges()));
  edges[0] = sp.rows()[pi];
  edges[1] = sp.cols()[pj];
  std::int16_t* forbids = in.writable(in.forbids());
  for (std::size_t t = 0; t < f.size(); t += 2) {
    if (f[t] == pi || f[t + 1] == pj) continue;
    *forbids++ = static_cast<std::int16_t>(f[t] - (f[t] > pi ? 1 : 0));
    *forbids++ = static_cast<std::int16_t>(f[t + 1] - (f[t + 1] > pj ? 1 : 0));
  }
  if (subtour[0] >= 0) {
    forbids[0] = static_cast<std::int16_t>(subtour[0]);
    forbids[1] = static_cast<std::int16_t>(subtour[1]);
  }
  return in;
}

std::optional<tour> lmsk::finish(const subproblem& sp) {
  // k == 2: two arcs remain; pick the feasible (finite) assignment. Two
  // finite cells sum to at most 2 * kMaxWeight < kInf.
  const std::int64_t a = std::int64_t{mat_(0, 0)} + mat_(1, 1);
  const std::int64_t b = std::int64_t{mat_(0, 1)} + mat_(1, 0);
  const auto rows = sp.rows();
  const auto cols = sp.cols();
  const auto committed = sp.edges();
  std::vector<std::array<std::int16_t, 2>> edges;
  edges.reserve(committed.size() / 2 + 2);
  for (std::size_t t = 0; t < committed.size(); t += 2) {
    edges.push_back({committed[t], committed[t + 1]});
  }
  if (a < kInf && a <= b) {
    edges.push_back({rows[0], cols[0]});
    edges.push_back({rows[1], cols[1]});
  } else if (b < kInf) {
    edges.push_back({rows[0], cols[1]});
    edges.push_back({rows[1], cols[0]});
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
  rebuild(sp);

  if (sp.k() == 2) {
    out.completed = finish(sp);
    out.ops = ops_ += 8;
    total_ops_ += ops_;
    return out;
  }

  const auto pick = choose_branch(mat_);
  if (pick.i < 0) {
    // No zero cell: the node is infeasible (all arcs forbidden).
    out.ops = ops_;
    total_ops_ += ops_;
    return out;
  }

  // --- Include child: commit arc (rows[i] -> cols[j]), drop row i / col j.
  // Its matrix is built in sub_ first, while mat_ still holds the parent's.
  const int k = sp.k();
  sub_.reshape(k - 1);
  for (int i = 0, d = 0; i < k; ++i) {
    if (i == pick.i) continue;
    const cell_t* src = mat_.row(i);
    cell_t* row = sub_.row(d++);
    cell_t* out = std::copy(src, src + pick.j, row);
    out = std::copy(src + pick.j + 1, src + k, out);
    std::fill(out, row + sub_.stride(), kInf);
  }
  ops_ += static_cast<std::uint64_t>(k - 1) * (k - 1);
  // The subtour cell is recorded as forbidden unless it already is kInf:
  // then it is on the diagonal or forbidden through the parent.
  auto subtour = subtour_cell(sp, pick.i, pick.j);
  if (subtour[0] >= 0) {
    cell_t& c = sub_(subtour[0], subtour[1]);
    if (c == kInf) subtour = {-1, -1};
    c = kInf;
  }
  ops_ += static_cast<std::uint64_t>(sp.edges().size() / 2 + 1) * 2;
  const auto in_added = reduce(sub_);

  // --- Exclude child: forbid arc (rows[i] -> cols[j]) in the parent's
  // matrix; the matrix copy it models is still charged.
  ops_ += sp.words();
  mat_(pick.i, pick.j) = kInf;
  const auto ra = reduce_row(mat_, pick.i);
  const auto ca = reduce_col(mat_, pick.j);

  // Children in creation order: exclude, then include.
  if (ra < kInfBound && ca < kInfBound && sp.bound + ra + ca < best) {
    auto ex = exclude_child(sp, pick.i, pick.j, static_cast<cell_t>(ra), static_cast<cell_t>(ca));
    ex.bound = sp.bound + ra + ca;
    ex.seq = next_seq++;
    out.children.push_back(std::move(ex));
  }
  if (in_added < kInfBound && sp.bound + in_added < best) {
    auto in = include_child(sp, pick.i, pick.j, subtour);
    in.bound = sp.bound + in_added;
    in.seq = next_seq++;
    out.children.push_back(std::move(in));
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
