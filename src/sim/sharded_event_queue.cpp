#include "sim/sharded_event_queue.hpp"

#include <algorithm>

namespace adx::sim {

bool sharded_event_queue::window(exec::job_executor* ex) {
  // Drain outboxes first so the shard heaps are the whole pending set. For
  // sends emitted inside a window this is the same barrier as flushing at
  // window end; doing it here additionally covers sends issued from outside
  // any event (before the first window runs).
  std::uint64_t traffic = deliver_outboxes();

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
  //
  // With adaptive lookahead the round covers `widen_` consecutive L-sized
  // sub-segments, separated by delivery barriers: a send emitted in
  // sub-segment k is timestamped >= tmin + k*lookahead, so delivering it at
  // the barrier after sub-segment k puts it on its target heap before any
  // sub-segment that could reach its timestamp — the conservative argument
  // applies inductively per sub-segment, and L stays the correctness floor.
  const std::uint64_t w = widen_;
  for (std::uint64_t k = 1; k <= w; ++k) {
    const vtime until{(tmin + lookahead_ * static_cast<std::int64_t>(k)).ns - 1};
    if (ex != nullptr) {
      // Fan out only the shards with an event inside the horizon: an idle
      // shard's run_until is a no-op, and no shard can schedule onto another
      // mid-window (sends wait in outboxes), so the set is fixed up front. A
      // lone busy shard runs inline: for_each never hands off one job.
      active_.clear();
      for (std::size_t i = 0; i < shards_.size(); ++i) {
        const auto& q = shards_[i].q;
        if (!q.empty() && q.next_at() <= until) active_.push_back(i);
      }
      ex->for_each(active_.size(),
                   [&](std::size_t i) { shards_[active_[i]].q.run_until(until); });
    } else {
      for (auto& s : shards_) s.q.run_until(until);
    }
    if (k < w) traffic += deliver_outboxes();
  }
  ++windows_;
  if (w > 1) ++widened_windows_;
  if (adaptive_) {
    widen_ = traffic == 0 ? std::min<std::uint64_t>(widen_ * 2, max_widen_) : 1;
    peak_widen_ = std::max(peak_widen_, w);
  }
  return true;
}

std::uint64_t sharded_event_queue::deliver_outboxes() {
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
  if (merge_.empty()) return 0;
  std::stable_sort(merge_.begin(), merge_.end(),
                   [](const pending_send& a, const pending_send& b) {
                     if (a.at != b.at) return a.at < b.at;
                     return a.origin < b.origin;
                   });
  for (auto& p : merge_) {
    shards_[p.to].q.schedule_at(p.at, std::move(p.fn));
  }
  cross_sends_ += merge_.size();
  return merge_.size();
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
