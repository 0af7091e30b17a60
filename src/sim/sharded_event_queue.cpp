#include "sim/sharded_event_queue.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace adx::sim {
namespace {

using host_clock = std::chrono::steady_clock;

double ns_since(host_clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(host_clock::now() - t0).count();
}

}  // namespace

bool sharded_event_queue::window(exec::job_executor* ex) {
  // Drain outboxes first so the shard heaps are the whole pending set. For
  // sends emitted inside a window this is the same barrier as flushing at
  // window end; doing it here additionally covers sends issued from outside
  // any event (before the first window runs).
  deliver_outboxes();

  // The global minimum pending timestamp.
  bool any = false;
  vtime tmin{};
  for (const auto& s : shards_) {
    if (s.q.empty()) continue;
    if (!any || s.q.next_at() < tmin) tmin = s.q.next_at();
    any = true;
  }
  if (!any) return false;

  // Events with timestamp < tmin + lookahead are safe: any cross-shard
  // influence generated inside the window lands at >= sender_now + lookahead
  // >= tmin + lookahead, past the horizon. run_until is inclusive, so the
  // bound is horizon - 1ns (lookahead >= 1ns is enforced at construction).
  const vtime until{(tmin + lookahead_).ns - 1};
  if (ex != nullptr) {
    // Only the shards with an event inside the horizon have work: an idle
    // shard's run_until is a no-op, and no shard can schedule onto another
    // mid-window (sends wait in outboxes), so the set is fixed up front.
    active_.clear();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const auto& q = shards_[i].q;
      if (!q.empty() && q.next_at() <= until) active_.push_back(i);
    }
    run_active(*ex, until);
  } else {
    for (auto& s : shards_) s.q.run_until(until);
  }
  ++windows_;
  return true;
}

void sharded_event_queue::run_active(exec::job_executor& ex, vtime until) {
  const auto run_inline = [&] {
    for (const auto i : active_) shards_[i].q.run_until(until);
  };
  const std::size_t p = std::min<std::size_t>(active_.size(), ex.jobs());
  if (p <= 1) {  // nothing to overlap: the crossover is infinite
    run_inline();
    return;
  }
  // Before the first fork there is no overhead estimate: crossover 0 makes
  // that fork unconditional, and its per-job timing seeds the cost per due
  // event, so no window is ever charged whole as overhead.
  const double due_ns = timed_due_ > 0 ? timed_ns_ / timed_due_ : 0;
  const double crossover = forks_ == 0 || due_ns <= 0
                               ? 0
                               : overhead_ns_ / static_cast<double>(forks_) /
                                     (due_ns * (1 - 1 / static_cast<double>(p)));
  // Capped so an infinite crossover still converts to a size.
  const auto cap = static_cast<std::size_t>(std::ceil(std::min(crossover, 1e15)));

  // due <= pending(), so a pending total below the crossover settles most
  // windows without a walk. Timing and counting cost about as much as a few
  // events, so only every kMeasureEvery-th decision times an inline run.
  const bool measure = ++decisions_ % kMeasureEvery == 0;
  std::size_t due = 0;
  for (const auto i : active_) due += shards_[i].q.pending();
  if (measure || due >= cap) {
    due = 0;
    for (const auto i : active_) {
      if (due >= cap) break;
      due += shards_[i].q.due_by(until, cap - due);
    }
  }
  if (due < cap) {  // inline; when measured, the count is exact
    if (!measure) {
      run_inline();
      return;
    }
    const auto t0 = host_clock::now();
    run_inline();
    timed_ns_ += ns_since(t0);
    timed_due_ += static_cast<double>(due);
    return;
  }

  ++forks_;  // before the fork, so a window that throws still counts
  job_costs_.resize(active_.size());
  const auto t0 = host_clock::now();
  ex.for_each(active_.size(), [&](std::size_t j) {
    auto& q = shards_[active_[j]].q;
    const auto start = host_clock::now();
    job_costs_[j].due = q.due_by(until, ~std::size_t{0});
    q.run_until(until);
    job_costs_[j].ns = ns_since(start);
  });
  const double wall = ns_since(t0);
  double forked_due = 0;
  double busy_ns = 0;
  for (std::size_t j = 0; j < active_.size(); ++j) {
    forked_due += static_cast<double>(job_costs_[j].due);
    busy_ns += job_costs_[j].ns;
  }
  // A forked job runs cache-cold, up to several times slower per event than
  // the same shard inline, so only the first fork's timing enters the cost,
  // as its seed; measured inline windows carry it from then on, and the
  // slowdown is charged to the overhead below.
  if (timed_due_ == 0) {
    timed_ns_ = busy_ns;
    timed_due_ = forked_due;
  }
  // What the fork cost beyond its events' share of p workers: handoff,
  // join, cache migration and imbalance.
  overhead_ns_ += std::max(
      0.0, wall - forked_due * timed_ns_ / timed_due_ / static_cast<double>(p));
}

void sharded_event_queue::deliver_outboxes() {
  // Merge every outbox in ascending (at, origin) order — a total order as
  // long as origins are unique per delivery, and independent of both the
  // worker schedule (outboxes are complete at the barrier) and the shard
  // count (the key never mentions a shard index). The stable sort makes even
  // duplicate-origin ties deterministic for a fixed shard count: outboxes
  // are concatenated in shard order and each one is in emission order.
  merge_.clear();
  for (auto& s : shards_) {
    if (s.outbox.empty()) continue;
    for (auto& p : s.outbox) merge_.push_back(std::move(p));
    s.outbox.clear();
  }
  if (merge_.empty()) return;
  std::stable_sort(merge_.begin(), merge_.end(),
                   [](const pending_send& a, const pending_send& b) {
                     if (a.at != b.at) return a.at < b.at;
                     return a.origin < b.origin;
                   });
  for (auto& p : merge_) {
    shards_[p.to].q.schedule_at(p.at, std::move(p.fn));
  }
  cross_sends_ += merge_.size();
}

std::uint64_t sharded_event_queue::run_budgeted(exec::job_executor* ex,
                                               std::uint64_t max_events) {
  const auto before = processed();
  // A single shard has no concurrency to exploit; skip the fan-out so the
  // degenerate case stays the plain sequential loop.
  exec::job_executor* driver =
      ex != nullptr && shards_.size() > 1 && ex->jobs() > 1 ? ex : nullptr;
  while (processed() - before < max_events && window(driver)) {
  }
  return processed() - before;
}

std::uint64_t sharded_event_queue::run(exec::job_executor& ex) {
  return run_budgeted(&ex, ~0ULL);
}

std::uint64_t sharded_event_queue::run() { return run_budgeted(nullptr, ~0ULL); }

}  // namespace adx::sim
