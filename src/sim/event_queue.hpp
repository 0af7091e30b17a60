// The discrete-event core: a time-ordered queue of callbacks. The whole
// simulation is single-threaded and deterministic; ties are broken by
// insertion sequence number so identical runs replay identically. An attached
// perturber can override the tie-break key (schedule exploration); ordering
// stays deterministic because the key is computed once, at insertion.
//
// Layout is tuned for the simulator's hot loop (every simulated microsecond
// is one or more schedule/pop pairs):
//
//   * The priority queue is a 4-ary implicit heap of 32-byte POD handles
//     {at, key, seq, slot}. A 4-ary heap halves the tree depth of a binary
//     heap and keeps each node's children in one cache line; sifting moves
//     handles, never callbacks. The top element is always heap_[0] — peeking
//     the next timestamp (run_until's loop condition) is a single load.
//   * Callbacks live in a chunked slab (fixed-size chunks, freelist reuse)
//     with 48 bytes of in-place storage per event — enough for every capture
//     list the runtime schedules, so steady-state event traffic performs no
//     heap allocation at all. Larger callables spill to the heap
//     transparently. Chunks are never moved or freed, so a callback's address
//     stays valid while it runs even if it schedules further events.
//
// Ordering is exactly what the old binary-heap implementation produced:
// (at, key, seq) ascending, strict total order because seq is unique.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/perturb.hpp"
#include "sim/time.hpp"

namespace adx::sim {

class event_queue {
 public:
  using callback = std::function<void()>;

  event_queue() = default;
  event_queue(const event_queue&) = delete;
  event_queue& operator=(const event_queue&) = delete;
  ~event_queue();

  /// Schedules `fn` to run at absolute time `at`. Scheduling in the past is a
  /// logic error and is clamped to `now()` (the event still runs, after all
  /// events already due at `now()`). Accepts any void() callable; capture
  /// lists up to 48 bytes are stored without allocating.
  template <typename F>
  void schedule_at(vtime at, F&& fn) {
    if (at < now_) at = now_;
    const auto seq = seq_++;
    const auto key = perturber_ ? perturber_->tie_key(at, seq) : seq;
    const std::uint32_t slot = acquire_slot();
    if constexpr (sizeof(std::decay_t<F>) > kInlineCallbackBytes ||
                  alignof(std::decay_t<F>) > alignof(std::max_align_t)) {
      ++spills_;
    }
    construct_callback(slot_at(slot), std::forward<F>(fn));
    heap_push(handle{at, key, seq, slot});
  }

  /// Schedules `fn` to run `after` from now.
  template <typename F>
  void schedule_after(vdur after, F&& fn) {
    schedule_at(now_ + after, std::forward<F>(fn));
  }

  [[nodiscard]] vtime now() const { return now_; }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  /// Timestamp of the earliest pending event (requires !empty()). The top of
  /// the 4-ary heap is heap_[0], so this is a single load — the sharded
  /// queue's window computation peeks every shard each round.
  [[nodiscard]] vtime next_at() const { return heap_.front().at; }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t processed() const { return processed_; }

  /// Pending events with timestamp <= `until`, counted up to `cap`: returns
  /// min(due, cap). A pruned walk of the heap — a node past `until` has no
  /// due descendants — so it costs O(min(due, cap)), not O(pending()).
  [[nodiscard]] std::size_t due_by(vtime until, std::size_t cap) const;

  /// Runs the earliest event; returns false if the queue was empty. A
  /// single step admits no run-ahead (see try_run_ahead()).
  bool run_one();

  /// Runs events until the queue drains or `limit` events have run.
  /// Returns the number of events processed, run-ahead events included.
  std::uint64_t run(std::uint64_t limit = ~0ULL);

  /// Runs events with timestamp <= `until` (events scheduled during the run
  /// are included if due). Returns the number processed.
  std::uint64_t run_until(vtime until);

  /// Bounded variant: stops after `limit` events even if more are due — the
  /// livelock guard for window-driven runs whose events respawn at one
  /// timestamp.
  std::uint64_t run_until(vtime until, std::uint64_t limit);

  /// Run-ahead: called from inside a running callback that is about to
  /// schedule, as its last act, an event at `at` whose whole effect is to
  /// continue that callback's work. If that event would be the very next one
  /// this drain runs — no perturber, `at` inside the drain's time bound and
  /// event budget, and strictly earlier than every pending event (an
  /// equal-time pending event has a lower seq and runs first) — the event is
  /// counted as scheduled and run right here: seq, processed() and now()
  /// advance exactly as a push and a pop would, and the caller continues in
  /// place instead of scheduling. Returns false (nothing changed) otherwise;
  /// the caller then schedules as usual. Outside run()/run_until() — e.g.
  /// under run_one() stepping — it always returns false.
  bool try_run_ahead(vtime at);

  /// Host-only count of successful try_run_ahead() calls (tests). Not a
  /// virtual metric: every run-ahead event is also counted in processed().
  [[nodiscard]] std::uint64_t run_aheads() const { return run_aheads_; }

  /// Attaches a schedule perturber (not owned; null detaches). Only the
  /// tie-break hook is consulted here; events already queued keep the key
  /// they were inserted with.
  void set_perturber(perturber* p) { perturber_ = p; }
  [[nodiscard]] perturber* get_perturber() const { return perturber_; }

  /// Slab observability (tests): total callback slots ever allocated, and how
  /// many of them are currently on the freelist. The slab grows in
  /// fixed-size chunks and never shrinks; capacity - free == pending().
  [[nodiscard]] std::size_t slab_capacity() const {
    return chunks_.size() * kEventsPerChunk;
  }
  [[nodiscard]] std::size_t slab_free() const;

  /// Grows this queue's private slab until at least `n` slots are free, so a
  /// burst of `n` schedules performs no allocation. Each queue owns its
  /// arena outright — under the sharded DES, shards pre-size before the run
  /// and parallel windows never touch a shared allocator.
  void reserve_slots(std::size_t n) {
    while (slab_capacity() - pending() < n) grow_slab();
  }

  /// Slots ever acquired == events ever scheduled (processed() + pending()).
  /// A pure function of the logical schedule, so it is invariant under
  /// re-sharding — the virtual-metrics hook for the slab-locality claim.
  [[nodiscard]] std::uint64_t slots_acquired() const { return seq_; }

  /// Callbacks whose captures exceeded the inline slot and spilled to the
  /// heap. Also shard-count-invariant; steady-state event traffic keeps
  /// this at zero.
  [[nodiscard]] std::uint64_t callback_spills() const { return spills_; }

  /// CI/test hook: busy-wait `ns` of host wall time in every event run
  /// (popped or run ahead).
  /// Virtual-time results are unaffected (the simulated clock cannot see host
  /// time); wall metrics degrade proportionally. adx-bench's regression-gate
  /// self-test uses this to prove the gate trips. 0 (the default) disables.
  static void set_debug_pop_delay_ns(std::uint64_t ns);
  [[nodiscard]] static std::uint64_t debug_pop_delay_ns();

 private:
  static constexpr std::size_t kInlineCallbackBytes = 48;
  static constexpr std::uint32_t kEventsPerChunk = 128;
  static constexpr std::uint32_t kNoSlot = ~0U;

  /// What the heap sifts: timestamp and tie-break keys plus the slab slot
  /// holding the callback. POD, 32 bytes.
  struct handle {
    vtime at;
    std::uint64_t key;  ///< tie-break key (== seq unless perturbed)
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(std::is_trivially_copyable_v<handle> && sizeof(handle) <= 32);

  /// One slab slot: in-place callback storage plus its type-erased entry
  /// points. `next_free` threads the freelist through unused slots.
  struct event_slot {
    alignas(alignof(std::max_align_t)) unsigned char buf[kInlineCallbackBytes];
    void (*invoke)(event_slot&);
    void (*destroy)(event_slot&);
    std::uint32_t next_free;
  };

  static bool earlier(const handle& a, const handle& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.key == b.key ? a.seq < b.seq : a.key < b.key;
  }

  /// Sift-up with a hole (no swaps): parent of i is (i-1)/4.
  void heap_push(handle h) {
    std::size_t i = heap_.size();
    heap_.push_back(h);
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!earlier(h, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = h;
  }

  /// Removes and returns heap_[0]; sifts the last element down with a hole.
  handle heap_pop_top() {
    const handle top = heap_[0];
    const handle last = heap_.back();
    heap_.pop_back();
    if (const std::size_t n = heap_.size(); n != 0) {
      std::size_t i = 0;
      for (;;) {
        const std::size_t first = 4 * i + 1;
        if (first >= n) break;
        std::size_t best = first;
        const std::size_t end = first + 4 < n ? first + 4 : n;
        for (std::size_t c = first + 1; c < end; ++c) {
          if (earlier(heap_[c], heap_[best])) best = c;
        }
        if (!earlier(heap_[best], last)) break;
        heap_[i] = heap_[best];
        i = best;
      }
      heap_[i] = last;
    }
    return top;
  }

  template <typename F>
  static void construct_callback(event_slot& s, F&& fn) {
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineCallbackBytes &&
                  alignof(D) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(s.buf)) D(std::forward<F>(fn));
      s.invoke = [](event_slot& e) { (*std::launder(reinterpret_cast<D*>(e.buf)))(); };
      s.destroy = [](event_slot& e) { std::launder(reinterpret_cast<D*>(e.buf))->~D(); };
    } else {
      ::new (static_cast<void*>(s.buf)) (D*)(new D(std::forward<F>(fn)));
      s.invoke = [](event_slot& e) { (**std::launder(reinterpret_cast<D**>(e.buf)))(); };
      s.destroy = [](event_slot& e) { delete *std::launder(reinterpret_cast<D**>(e.buf)); };
    }
  }

  [[nodiscard]] event_slot& slot_at(std::uint32_t s) {
    return chunks_[s / kEventsPerChunk][s % kEventsPerChunk];
  }

  std::uint32_t acquire_slot() {
    if (free_head_ == kNoSlot) grow_slab();
    const auto s = free_head_;
    free_head_ = slot_at(s).next_free;
    return s;
  }

  void release_slot(std::uint32_t s) {
    slot_at(s).next_free = free_head_;
    free_head_ = s;
  }

  void grow_slab();  // cold path: appends one chunk, rebuilds the freelist

  /// Pops and runs the earliest event (the queue must not be empty).
  void run_top();

  /// The bounds of the drain in progress: run-ahead may run an event only at
  /// or before `until` while processed() < `end`. `end == 0` (no drain, or
  /// run_one()) admits none.
  struct drain_bounds {
    vtime until{};
    std::uint64_t end{0};
  };
  /// Installs a drain's bounds for its duration, restoring the outer ones on
  /// exit (also when a callback throws).
  class drain_scope;

  std::vector<handle> heap_;
  std::vector<std::unique_ptr<event_slot[]>> chunks_;
  std::uint32_t free_head_{kNoSlot};
  vtime now_{};
  std::uint64_t seq_{0};
  std::uint64_t processed_{0};
  std::uint64_t spills_{0};
  std::uint64_t run_aheads_{0};
  drain_bounds drain_{};
  perturber* perturber_{nullptr};
};

}  // namespace adx::sim
