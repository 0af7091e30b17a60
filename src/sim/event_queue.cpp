#include "sim/event_queue.hpp"

#include <atomic>
#include <chrono>

namespace adx::sim {
namespace {

// The only process-global in the simulator. Atomic because independent
// event_queue instances now pop concurrently on exec::job_executor workers;
// relaxed is enough — it is a debug knob set before runs start, and the hot
// path only needs a data-race-free load.
std::atomic<std::uint64_t> g_debug_pop_delay_ns{0};

void debug_pop_delay() {
  const auto ns = g_debug_pop_delay_ns.load(std::memory_order_relaxed);
  if (ns == 0) return;
  const auto t0 = std::chrono::steady_clock::now();
  const auto until = t0 + std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < until) {
  }
}

}  // namespace

void event_queue::set_debug_pop_delay_ns(std::uint64_t ns) {
  g_debug_pop_delay_ns.store(ns, std::memory_order_relaxed);
}
std::uint64_t event_queue::debug_pop_delay_ns() {
  return g_debug_pop_delay_ns.load(std::memory_order_relaxed);
}

event_queue::~event_queue() {
  // Pending events still own their callbacks; run their destructors. The
  // freelist slots hold nothing.
  for (const auto& h : heap_) {
    auto& s = slot_at(h.slot);
    s.destroy(s);
  }
}

void event_queue::grow_slab() {
  const auto base = static_cast<std::uint32_t>(chunks_.size()) * kEventsPerChunk;
  chunks_.push_back(std::make_unique<event_slot[]>(kEventsPerChunk));
  auto* chunk = chunks_.back().get();
  for (std::uint32_t i = 0; i + 1 < kEventsPerChunk; ++i) {
    chunk[i].next_free = base + i + 1;
  }
  // Splice ahead of any existing freelist (reserve_slots grows while slots
  // are still free; the hot path only grows when free_head_ == kNoSlot).
  chunk[kEventsPerChunk - 1].next_free = free_head_;
  free_head_ = base;
}

std::size_t event_queue::slab_free() const {
  std::size_t n = 0;
  for (auto s = free_head_; s != kNoSlot;
       s = chunks_[s / kEventsPerChunk][s % kEventsPerChunk].next_free) {
    ++n;
  }
  return n;
}

std::size_t event_queue::due_by(vtime until, std::size_t cap) const {
  // Depth-first over the 4-ary heap, pushing only due children: each pop is
  // one due event, so the walk stops after min(due, cap) pops. Each level
  // leaves at most 3 siblings on the stack, and a heap that fits in memory
  // is under 32 levels deep, so the fixed stack cannot overflow.
  if (cap == 0 || heap_.empty() || heap_[0].at > until) return 0;
  std::size_t stack[4 * 64];
  std::size_t top = 0;
  stack[top++] = 0;
  std::size_t due = 0;
  while (top > 0 && due < cap) {
    const std::size_t i = stack[--top];
    ++due;
    const std::size_t first = 4 * i + 1;
    const std::size_t end = first + 4 < heap_.size() ? first + 4 : heap_.size();
    for (std::size_t c = first; c < end; ++c) {
      stack[top] = c;
      top += heap_[c].at <= until ? 1 : 0;
    }
  }
  return due;
}

class event_queue::drain_scope {
 public:
  drain_scope(event_queue& q, drain_bounds b) : q_(q), outer_(q.drain_) { q.drain_ = b; }
  ~drain_scope() { q_.drain_ = outer_; }
  drain_scope(const drain_scope&) = delete;
  drain_scope& operator=(const drain_scope&) = delete;

 private:
  event_queue& q_;
  drain_bounds outer_;
};

void event_queue::run_top() {
  debug_pop_delay();
  const handle h = heap_pop_top();
  now_ = h.at;
  ++processed_;
  // Invoke in place: chunks are never moved or freed, so the callback's
  // address stays valid even if it schedules further events (which may grow
  // the slab or the heap). The guard destroys the callback and recycles the
  // slot even if the callback throws.
  struct slot_guard {
    event_queue* q;
    std::uint32_t slot;
    ~slot_guard() {
      auto& s = q->slot_at(slot);
      s.destroy(s);
      q->release_slot(slot);
    }
  } guard{this, h.slot};
  auto& s = slot_at(h.slot);
  s.invoke(s);
}

bool event_queue::run_one() {
  if (heap_.empty()) return false;
  const drain_scope scope(*this, {});
  run_top();
  return true;
}

std::uint64_t event_queue::run(std::uint64_t limit) {
  return run_until(vtime{~std::uint64_t{0}}, limit);
}

std::uint64_t event_queue::run_until(vtime until) { return run_until(until, ~0ULL); }

std::uint64_t event_queue::run_until(vtime until, std::uint64_t limit) {
  // Counted through processed(), so events run ahead inside a callback count
  // toward `limit` exactly like popped ones.
  const std::uint64_t start = processed_;
  const std::uint64_t end = limit > ~std::uint64_t{0} - start ? ~std::uint64_t{0} : start + limit;
  const drain_scope scope(*this, {until, end});
  while (processed_ < end && !heap_.empty() && heap_.front().at <= until) run_top();
  return processed_ - start;
}

bool event_queue::try_run_ahead(vtime at) {
  if (at < now_) at = now_;  // as schedule_at clamps
  // The event would get the highest seq yet, so a pending event at the same
  // time sorts before it: only a strictly earlier `at` is next.
  if (perturber_ != nullptr || processed_ >= drain_.end || at > drain_.until ||
      (!heap_.empty() && !(at < heap_[0].at))) {
    return false;
  }
  debug_pop_delay();
  ++seq_;
  ++processed_;
  ++run_aheads_;
  now_ = at;
  return true;
}

}  // namespace adx::sim
