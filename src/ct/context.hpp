// Per-thread view of the machine: every way a simulated thread can spend
// virtual time is an awaitable on its context.
//
//   co_await ctx.compute(us)          — burn processor time
//   co_await ctx.read(x) / write(x,v) — shared-memory access (NUMA-priced)
//   co_await ctx.fetch_or(x, m)       — atomic RMW at the owning module
//                                       (the GP1000 `atomior` analog)
//   co_await ctx.yield()/block()/sleep_for()/join()
//
// Plain C++ between awaits costs no virtual time; anything that would cost
// time on the real machine must go through an awaitable.
#pragma once

#include <coroutine>

#include "ct/runtime.hpp"
#include "ct/shared.hpp"
#include "sim/memory.hpp"

namespace adx::ct {

namespace detail {

/// Suspends until `resume_at`. await_suspend returns false when the resume
/// ran ahead (runtime::schedule_resume), so the coroutine continues at once
/// without growing the stack.
struct timed_awaiter {
  runtime* rt;
  tcb* t;
  sim::vtime resume_at;

  bool await_ready() const noexcept { return resume_at <= rt->now(); }
  bool await_suspend(std::coroutine_handle<> h) const {
    return rt->schedule_resume(*t, h, resume_at);
  }
  void await_resume() const noexcept {}
};

template <typename T>
struct value_timed_awaiter {
  runtime* rt;
  tcb* t;
  sim::vtime resume_at;
  T value;

  bool await_ready() const noexcept { return resume_at <= rt->now(); }
  bool await_suspend(std::coroutine_handle<> h) const {
    return rt->schedule_resume(*t, h, resume_at);
  }
  T await_resume() const noexcept { return value; }
};

struct block_awaiter {
  runtime* rt;
  tcb* t;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const { rt->suspend_block(*t, h); }
  void await_resume() const noexcept {}
};

struct block_for_awaiter {
  runtime* rt;
  tcb* t;
  sim::vdur timeout;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    rt->suspend_block_for(*t, h, timeout);
  }
  /// True if woken by a peer; false if the timeout fired.
  bool await_resume() const noexcept { return !t->last_block_timed_out; }
};

struct yield_awaiter {
  runtime* rt;
  tcb* t;

  bool await_ready() const noexcept { return !rt->has_ready_peer(t->proc); }
  void await_suspend(std::coroutine_handle<> h) const { rt->suspend_yield(*t, h); }
  void await_resume() const noexcept {}
};

struct sleep_awaiter {
  runtime* rt;
  tcb* t;
  sim::vdur d;

  bool await_ready() const noexcept { return d.ns <= 0; }
  void await_suspend(std::coroutine_handle<> h) const { rt->suspend_sleep(*t, h, d); }
  void await_resume() const noexcept {}
};

struct join_awaiter {
  runtime* rt;
  tcb* t;
  thread_id target;

  bool await_ready() const noexcept {
    return rt->state_of(target) == thread_state::done;
  }
  bool await_suspend(std::coroutine_handle<> h) const {
    if (!rt->add_joiner(target, t->id)) return false;  // exited meanwhile
    rt->suspend_block(*t, h);
    return true;
  }
  void await_resume() const noexcept {}
};

}  // namespace detail

class context {
 public:
  context(runtime& rt, tcb& t) : rt_(&rt), t_(&t) {}

  [[nodiscard]] runtime& rt() { return *rt_; }
  [[nodiscard]] sim::machine& mach() { return rt_->mach(); }
  [[nodiscard]] thread_id self() const { return t_->id; }
  [[nodiscard]] proc_id proc() const { return t_->proc; }
  [[nodiscard]] sim::vtime now() const { return rt_->now(); }
  [[nodiscard]] int priority() const { return t_->priority; }
  void set_priority(int p) { t_->priority = p; }

  /// Burn `d` of processor time.
  [[nodiscard]] detail::timed_awaiter compute(sim::vdur d) {
    return {rt_, t_, now() + d};
  }

  /// Shared-memory read; returns the value.
  template <typename T>
  [[nodiscard]] detail::value_timed_awaiter<T> read(const svar<T>& v) {
    const auto done = mach().access(proc(), v.home(), sim::access_kind::read);
    return {rt_, t_, done, v.raw()};
  }

  /// Shared-memory write.
  template <typename T>
  [[nodiscard]] detail::timed_awaiter write(svar<T>& v, T value) {
    const auto done = mach().access(proc(), v.home(), sim::access_kind::write);
    v.raw() = value;
    return {rt_, t_, done};
  }

  /// Generic atomic read-modify-write executed at the owning memory module;
  /// returns the previous value.
  template <typename T, typename F>
  [[nodiscard]] detail::value_timed_awaiter<T> rmw(svar<T>& v, F&& op) {
    const auto done = mach().access(proc(), v.home(), sim::access_kind::rmw);
    T old = v.raw();
    v.raw() = op(old);
    return {rt_, t_, done, old};
  }

  /// Atomic-or (the Butterfly `atomior` primitive); returns the old value.
  template <typename T>
  [[nodiscard]] auto fetch_or(svar<T>& v, T mask) {
    return rmw(v, [mask](T old) { return static_cast<T>(old | mask); });
  }

  template <typename T>
  [[nodiscard]] auto fetch_add(svar<T>& v, T delta) {
    return rmw(v, [delta](T old) { return static_cast<T>(old + delta); });
  }

  template <typename T>
  [[nodiscard]] auto exchange(svar<T>& v, T nv) {
    return rmw(v, [nv](T) { return nv; });
  }

  /// Compare-and-swap; returns the previous value (success iff == expect).
  template <typename T>
  [[nodiscard]] detail::value_timed_awaiter<T> cas(svar<T>& v, T expect, T desired) {
    const auto done = mach().access(proc(), v.home(), sim::access_kind::rmw);
    T old = v.raw();
    if (old == expect) v.raw() = desired;
    return {rt_, t_, done, old};
  }

  /// Charge `n` plain accesses to memory homed at `home` without modelling
  /// the data (bulk structure traffic: queue records, matrices, ...).
  [[nodiscard]] detail::timed_awaiter touch(sim::node_id home, sim::access_kind k,
                                            std::uint64_t n = 1) {
    return {rt_, t_, mach().access_n(proc(), home, k, n)};
  }

  /// Give up the processor to a ready peer (no-op when alone).
  [[nodiscard]] detail::yield_awaiter yield() { return {rt_, t_}; }

  /// Block until another thread calls unblock(self). The caller must have
  /// published its intent (e.g. enqueued itself on a lock's registration
  /// queue) *before* awaiting — there are no awaits between the two in lock
  /// code, which makes the pair atomic in the simulation.
  [[nodiscard]] detail::block_awaiter block() { return {rt_, t_}; }

  /// Block with a timeout; resumes with true if woken, false if it expired.
  [[nodiscard]] detail::block_for_awaiter block_for(sim::vdur d) { return {rt_, t_, d}; }

  /// Wake `target`; charges one write toward the target's processor node
  /// (run-queue manipulation traffic). Resumes with false if the target was
  /// not blocked (e.g. its timed wait expired concurrently).
  [[nodiscard]] detail::value_timed_awaiter<bool> unblock(thread_id target) {
    const auto t_proc = rt_->thread_ref(target).proc;
    const auto done = mach().access(proc(), t_proc, sim::access_kind::write);
    const bool woke = rt_->unblock(target);
    return {rt_, t_, done, woke};
  }

  /// Sleep for `d` of virtual time (processor is released).
  [[nodiscard]] detail::sleep_awaiter sleep_for(sim::vdur d) { return {rt_, t_, d}; }

  /// Wait for `target` to exit.
  [[nodiscard]] detail::join_awaiter join(thread_id target) { return {rt_, t_, target}; }

 private:
  runtime* rt_;
  tcb* t_;
};

}  // namespace adx::ct
