#include "tsp/lmsk.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <new>
#include <numeric>

namespace adx::tsp {

namespace {

// The kernels' vectors: GCC vector extensions of 8 int16 lanes, one SSE2
// register on x86-64 — no -march flag and no second path per ISA.
using vec = cell_t __attribute__((vector_size(16)));
using uvec = std::uint16_t __attribute__((vector_size(16)));
using wide_vec = std::int32_t __attribute__((vector_size(32)));  ///< a vec's lanes, widened
constexpr std::size_t kLanes = cost_matrix::kLanes;
static_assert(sizeof(vec) == kLanes * sizeof(cell_t));

vec load(const cell_t* p) {
  vec x;
  std::memcpy(&x, p, sizeof x);
  return x;
}
void store(cell_t* p, vec x) { std::memcpy(p, &x, sizeof x); }
uvec uload(const std::uint16_t* p) {
  uvec x;
  std::memcpy(&x, p, sizeof x);
  return x;
}
void ustore(std::uint16_t* p, uvec x) { std::memcpy(p, &x, sizeof x); }
vec splat(cell_t c) { return vec{} + c; }
constexpr vec kLaneIndex = {0, 1, 2, 3, 4, 5, 6, 7};
vec vmin(vec a, vec b) { return a < b ? a : b; }
vec vmax(vec a, vec b) { return a < b ? b : a; }

/// x - d in every finite lane; kInf lanes stay kInf.
vec sub_finite(vec x, vec d) { return x < kInf ? x - d : x; }

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

/// x with its lanes moved N places up, zeros shifted in.
template <int N>
vec shift_up(vec x) {
  static_assert(N == 1 || N == 2 || N == 4);
  if constexpr (N == 1) return __builtin_shufflevector(x, vec{}, 8, 0, 1, 2, 3, 4, 5, 6);
  if constexpr (N == 2) return __builtin_shufflevector(x, vec{}, 8, 8, 0, 1, 2, 3, 4, 5);
  return __builtin_shufflevector(x, vec{}, 8, 8, 8, 8, 0, 1, 2, 3);
}

/// Sets every cell of `v`, whose size is a whole number of vectors.
void fill_vectors(std::vector<cell_t>& v, cell_t c) {
  for (std::size_t b = 0; b < v.size(); b += kLanes) store(v.data() + b, splat(c));
}

/// Numbers the live lines of `at`, whose size is a whole number of vectors
/// and whose cells are 0 (live) or -1 (dead), in label order: a live line's
/// cell becomes its rank, and labels[rank] its label. Returns the number of
/// live lines. Without a branch on which lines are dead: every lane stores
/// its label at its rank, and a dead lane's rank is the next live lane's,
/// which overwrites it; so `labels` needs one cell more than there are live
/// lines.
int number_live(std::vector<cell_t>& at, std::int16_t* labels) {
  int k = 0;
  for (std::size_t b = 0; b < at.size(); b += kLanes) {
    const vec x = load(at.data() + b);
    const vec live = x + 1;
    vec upto = live + shift_up<1>(live);  // live lanes up to each lane
    upto += shift_up<2>(upto);
    upto += shift_up<4>(upto);
    const vec rank = upto - live + static_cast<cell_t>(k);
    store(at.data() + b, x == 0 ? rank : x);
    for (std::size_t l = 0; l < kLanes; ++l) labels[rank[l]] = static_cast<std::int16_t>(b + l);
    k += upto[kLanes - 1];
  }
  return k;
}

/// The potential line of row label r and of column label c of an n-city
/// instance: rows first, then columns.
std::uint16_t row_line(int r) { return static_cast<std::uint16_t>(r); }
std::uint16_t col_line(int n, int c) { return static_cast<std::uint16_t>(n + 1 + c); }

/// Scratch only ever grows, so a steady search stops allocating.
template <typename T>
void grow(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
}

}  // namespace

step_arena::~step_arena() {
  while (last_ != nullptr) {
    block* prev = last_->prev;
    ::operator delete(last_);
    last_ = prev;
  }
}

step* step_arena::make(std::size_t more) {
  static_assert(sizeof(block) % alignof(step) == 0);
  const std::size_t need = sizeof(step) + more * sizeof(step::raise);
  const std::size_t size = (need + alignof(step) - 1) / alignof(step) * alignof(step);
  if (static_cast<std::size_t>(end_ - next_) < size) {
    const std::size_t room = std::max(kBlockBytes, sizeof(block) + size);
    auto* b = static_cast<block*>(::operator new(room));
    b->prev = last_;
    last_ = b;
    next_ = reinterpret_cast<std::byte*>(b + 1);
    end_ = reinterpret_cast<std::byte*>(b) + room;
  }
  step* s = new (next_) step{};
  next_ += size;
  bytes_ += size;
  return s;
}

lmsk::lmsk(const instance& inst) : lmsk(inst, own_steps_) {}

lmsk::lmsk(const instance& inst, step_arena& steps) : inst_(&inst), n_(inst.n()), steps_(&steps) {
  // The instance keeps every weight in [0, kMaxWeight] and its diagonal at
  // kInf, so each one fits a cell as is.
  const auto n = static_cast<std::size_t>(n_);
  dist_.assign(n * (n + 1), kInf);
  for (std::size_t r = 0; r < n; ++r) {
    std::copy_n(inst.data().begin() + static_cast<std::ptrdiff_t>(r * n), n,
                dist_.begin() + static_cast<std::ptrdiff_t>(r * (n + 1)));
  }
  // The label-space scratch holds whole vectors: n labels and none,
  // padded.
  const std::size_t labels = (n + 1 + kLanes - 1) / kLanes * kLanes;
  pot_.resize(2 * labels);
  row_at_.resize(labels);
  col_at_.resize(labels);
  next_.resize(labels);
  prev_.resize(labels);
  rows_.resize(labels);
  cols_.resize(labels);
  vpad_.resize(labels);
  raise_buf_.resize(2 * n);
  // A path folds one forbid per step: the root, at most n includes, and at
  // most n * n - n excludes, since each forbids a finite cell for good.
  forbid_.resize(2 * (n * n + 1));
}

subproblem lmsk::root() {
  ops_ = 0;
  const int n = fold_path(nullptr);
  write_matrix(n);
  const std::int64_t bound = reduce(mat_);
  // The root's potentials are its reduction; an infeasible root keeps none.
  std::size_t count = 0;
  if (bound < kInfBound) {
    for (int l = 0; l < n; ++l) {
      if (rowmin_[l] != 0) raise_buf_[count++] = {row_line(l), rowmin_[l]};
    }
    for (int l = 0; l < n; ++l) {
      if (colmin_[l] != 0) raise_buf_[count++] = {col_line(n, l), colmin_[l]};
    }
  }
  subproblem sp(make_step(nullptr, n, count, row_line(n)));
  sp.bound = bound;
  total_ops_ += ops_;
  return sp;
}

int lmsk::fold_path(const step* s) {
  const auto n = static_cast<std::size_t>(n_);
  fill_vectors(pot_, 0);
  fill_vectors(row_at_, 0);
  fill_vectors(col_at_, 0);
  fill_vectors(next_, -1);
  fill_vectors(prev_, -1);
  const auto add = [this](const step::raise& r) {
    pot_[r.line] = static_cast<cell_t>(pot_[r.line] + r.amount);
  };
  // A decision about none writes to the none slots.
  std::int16_t* forbid = forbid_.data();
  for (; s != nullptr; s = s->parent) {
    for (const step::raise& r : s->raised) add(r);
    if (s->more != 0) [[unlikely]] std::for_each(s->more_raised(), s->more_raised() + s->more, add);
    row_at_[s->from] = -1;
    col_at_[s->to] = -1;
    next_[s->from] = s->to;
    prev_[s->to] = s->from;
    forbid[0] = s->forbid_from;
    forbid[1] = s->forbid_to;
    forbid += 2;
  }
  forbids_ = static_cast<std::size_t>(forbid - forbid_.data());
  // None and the padding are no line; a dead line, and they, map to -1.
  std::fill(row_at_.begin() + static_cast<std::ptrdiff_t>(n), row_at_.end(), std::int16_t{-1});
  std::fill(col_at_.begin() + static_cast<std::ptrdiff_t>(n), col_at_.end(), std::int16_t{-1});
  next_[n] = prev_[n] = -1;
  const int k = number_live(row_at_, rows_.data());
  number_live(col_at_, cols_.data());
  return k;
}

void lmsk::write_matrix(int k) {
  mat_.reshape(k);
  const std::size_t stride = mat_.stride();
  const auto dn = static_cast<std::size_t>(n_) + 1;
  // The padding columns are label n: kInf cells, potential 0.
  std::fill(cols_.begin() + k, cols_.begin() + static_cast<std::ptrdiff_t>(stride),
            static_cast<std::int16_t>(n_));
  const cell_t* v = pot_.data() + dn;
  for (std::size_t j = 0; j < stride; ++j) vpad_[j] = v[cols_[j]];
  // Each row is gathered from the instance a vector at a time, in registers;
  // then every finite cell loses its row's and column's potential.
  const std::int16_t* cols = cols_.data();
  for (int i = 0; i < k; ++i) {
    const cell_t* src = dist_.data() + static_cast<std::size_t>(rows_[i]) * dn;
    cell_t* row = mat_.row(i);
    const vec ui = splat(pot_[rows_[i]]);
    for (std::size_t b = 0; b < stride; b += kLanes) {
      const std::int16_t* c = cols + b;
      const vec x = {src[c[0]], src[c[1]], src[c[2]], src[c[3]],
                     src[c[4]], src[c[5]], src[c[6]], src[c[7]]};
      store(row + b, sub_finite(x, ui + load(vpad_.data() + b)));
    }
  }
  for (std::size_t t = 0; t < forbids_; t += 2) {
    const int i = row_at_[forbid_[t]];
    const int j = col_at_[forbid_[t + 1]];
    if (i >= 0 && j >= 0) mat_(i, j) = kInf;
  }
}

const cost_matrix& lmsk::rebuild(const subproblem& sp) {
  write_matrix(fold_path(sp.at_));
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
  grow(best_score_, stride);
  grow(best_row_, stride);
  cell_t* c1 = col1_.data();
  cell_t* c2 = col2_.data();
  std::fill_n(c1, stride, kInf);
  std::fill_n(c2, stride, kInf);
  // First row-major sweep, a vector at a time: each lane keeps the two
  // smallest cells it has seen of its row and of its column, as a multiset
  // (a repeated minimum is its own runner-up), and counts its zeros; a
  // row's lanes are folded, and its zero counts widened, at its end.
  wide_vec zero_count{};
  for (int i = 0; i < k; ++i) {
    const cell_t* row = m.row(i);
    vec r1 = splat(kInf);
    vec r2 = r1;
    vec row_zeros{};
    for (std::size_t b = 0; b < stride; b += kLanes) {
      const vec x = load(row + b);
      r2 = vmin(r2, vmax(r1, x));
      r1 = vmin(r1, x);
      const vec a1 = load(c1 + b);
      store(c2 + b, vmin(load(c2 + b), vmax(a1, x)));
      store(c1 + b, vmin(a1, x));
      row_zeros -= x == 0;  // a true lane is -1
    }
    zero_count += __builtin_convertvector(row_zeros, wide_vec);
    fold(r1, r2);
    row1_[i] = r1[0];
    row2_[i] = r2[0];
  }
  std::size_t z = 0;
  for (std::size_t l = 0; l < kLanes; ++l) z += static_cast<std::size_t>(zero_count[l]);
  ops_ += n * n + 2 * n * z;

  // Penalty of a zero: the cheapest other cell of its row plus of its column.
  // Without the zero itself that is the runner-up when the zero is the
  // line's minimum, and the minimum otherwise. A finite penalty is at most
  // 2 * kMaxWeight < kInf, so it loses to any penalty with a kInf term.
  // Cells lie in [0, kInf], so a zero's penalty + 1 fits an unsigned 16-bit
  // lane; a cell that is no zero scores 0. A second sweep keeps, per column,
  // the best score and the first row that reaches it; the pick is the best
  // score's first zero in row-major order: smallest row, then column.
  for (std::size_t b = 0; b < stride; b += kLanes) {
    const vec a1 = load(c1 + b);
    store(c1 + b, a1 == 0 ? load(c2 + b) : a1);  // c1 becomes each column's alternative
  }
  std::uint16_t* score = best_score_.data();
  std::int16_t* first = best_row_.data();
  std::fill_n(score, stride, std::uint16_t{0});
  for (int i = 0; i < k; ++i) {
    const cell_t* row = m.row(i);
    const cell_t row_alt = row1_[i] == 0 ? row2_[i] : row1_[i];
    const uvec base = __builtin_convertvector(splat(row_alt), uvec) + 1;
    for (std::size_t b = 0; b < stride; b += kLanes) {
      const vec x = load(row + b);
      const uvec cand = x == 0 ? base + __builtin_convertvector(load(c1 + b), uvec) : uvec{};
      const uvec have = uload(score + b);
      const auto better = cand > have;
      ustore(score + b, better ? cand : have);
      store(first + b, better ? splat(static_cast<cell_t>(i)) : load(first + b));
    }
  }
  branch_pick best;
  const std::uint16_t top = *std::max_element(score, score + stride);
  if (top == 0) return best;  // no zero cell
  best.penalty = top - 1;
  for (std::size_t j = 0; j < stride; ++j) {
    if (score[j] == top && (best.i < 0 || first[j] < best.i)) {
      best.i = first[j];
      best.j = static_cast<int>(j);
    }
  }
  return best;
}

std::array<int, 2> lmsk::subtour_cell(int pi, int pj) {
  // next_ and prev_ hold the parent's committed arcs; add the new one. The
  // chain containing it runs from some start city s (no incoming committed
  // arc) to some end city e (no outgoing committed arc); arc (e, s) would
  // close a premature subtour. e has an outgoing arc in neither the parent
  // nor the child, so it is not the dropped row; nor is s the dropped
  // column.
  const std::int16_t from = rows_[pi];
  const std::int16_t to = cols_[pj];
  next_[from] = to;
  prev_[to] = from;
  std::int16_t s = from;
  while (prev_[s] != -1) s = prev_[s];
  std::int16_t e = to;
  while (next_[e] != -1) e = next_[e];
  const int i = row_at_[e];
  const int j = col_at_[s];
  if (i < 0 || j < 0) return {-1, -1};
  return {i - (i > pi ? 1 : 0), j - (j > pj ? 1 : 0)};
}

step* lmsk::make_step(const step* parent, int k, std::size_t count, std::uint16_t spare) {
  const std::size_t more = count > step::kInlineRaises ? count - step::kInlineRaises : 0;
  step* s = steps_->make(more);
  s->parent = parent;
  s->k = static_cast<std::int16_t>(k);
  s->from = s->to = s->forbid_from = s->forbid_to = static_cast<std::int16_t>(n_);
  for (std::size_t t = 0; t < step::kInlineRaises; ++t) {
    s->raised[t] = t < count ? raise_buf_[t] : step::raise{spare, 0};
  }
  s->more = static_cast<std::uint16_t>(more);
  std::uninitialized_copy_n(raise_buf_.begin() + step::kInlineRaises, more, s->more_raised());
  return s;
}

subproblem lmsk::exclude_child(const subproblem& sp, int pi, int pj, cell_t ra, cell_t ca) {
  raise_buf_[0] = {row_line(rows_[pi]), ra};
  raise_buf_[1] = {col_line(n_, cols_[pj]), ca};
  step* s = make_step(sp.at_, sp.k(), 2, row_line(rows_[pi]));
  s->forbid_from = rows_[pi];
  s->forbid_to = cols_[pj];
  return subproblem(s);
}

subproblem lmsk::include_child(const subproblem& sp, int pi, int pj,
                               std::array<int, 2> subtour) {
  // Child row d is parent row d + (d >= pi), and likewise for columns.
  const int k = sp.k() - 1;
  std::size_t count = 0;
  for (int d = 0; d < k; ++d) {
    if (rowmin_[d] != 0) raise_buf_[count++] = {row_line(rows_[d + (d >= pi ? 1 : 0)]), rowmin_[d]};
  }
  for (int d = 0; d < k; ++d) {
    if (colmin_[d] != 0) {
      raise_buf_[count++] = {col_line(n_, cols_[d + (d >= pj ? 1 : 0)]), colmin_[d]};
    }
  }
  // The committed arc's row leaves the matrix: its potential is spare.
  step* s = make_step(sp.at_, k, count, row_line(rows_[pi]));
  s->from = rows_[pi];
  s->to = cols_[pj];
  if (subtour[0] >= 0) {
    s->forbid_from = rows_[subtour[0] + (subtour[0] >= pi ? 1 : 0)];
    s->forbid_to = cols_[subtour[1] + (subtour[1] >= pj ? 1 : 0)];
  }
  return subproblem(s);
}

std::optional<tour> lmsk::finish() {
  // k == 2: two arcs remain; pick the feasible (finite) assignment. Two
  // finite cells sum to at most 2 * kMaxWeight < kInf.
  const std::int64_t a = std::int64_t{mat_(0, 0)} + mat_(1, 1);
  const std::int64_t b = std::int64_t{mat_(0, 1)} + mat_(1, 0);
  if (a < kInf && a <= b) {
    next_[rows_[0]] = cols_[0];
    next_[rows_[1]] = cols_[1];
  } else if (b < kInf) {
    next_[rows_[0]] = cols_[1];
    next_[rows_[1]] = cols_[0];
  } else {
    return std::nullopt;
  }
  return assemble();
}

std::optional<tour> lmsk::assemble() {
  // Every city has its one outgoing arc: the committed ones leave the dead
  // rows, finish()'s the two live ones.
  const int n = n_;
  tour t;
  t.order.reserve(n);
  std::int16_t c = 0;
  for (int i = 0; i < n; ++i) {
    if (c < 0 || c >= n) return std::nullopt;
    t.order.push_back(c);
    c = next_[c];
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
  const int k = rebuild(sp).k();

  if (k == 2) {
    out.completed = finish();
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
  // Each lane takes its own cell left of column j and its right neighbour's
  // from there on; the padding, whose neighbour may lie past the row, is
  // kInf.
  sub_.reshape(k - 1);
  const std::size_t sub_stride = sub_.stride();
  for (int i = 0, d = 0; i < k; ++i) {
    if (i == pick.i) continue;
    const cell_t* src = mat_.row(i);
    cell_t* row = sub_.row(d++);
    for (std::size_t b = 0; b < sub_stride; b += kLanes) {
      const vec lane = kLaneIndex + static_cast<cell_t>(b);
      const vec shifted = lane < static_cast<cell_t>(k - 1) ? load(src + b + 1) : splat(kInf);
      store(row + b, lane < static_cast<cell_t>(pick.j) ? load(src + b) : shifted);
    }
  }
  ops_ += static_cast<std::uint64_t>(k - 1) * (k - 1);
  // The subtour cell is recorded as forbidden unless it already is kInf:
  // then it is on the diagonal or forbidden through the parent.
  auto subtour = subtour_cell(pick.i, pick.j);
  if (subtour[0] >= 0) {
    cell_t& c = sub_(subtour[0], subtour[1]);
    if (c == kInf) subtour = {-1, -1};
    c = kInf;
  }
  ops_ += static_cast<std::uint64_t>(n_ - k + 1) * 2;
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
