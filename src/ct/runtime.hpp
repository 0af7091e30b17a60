// The configurable thread package (multiprocessor Cthreads analog, [Muk91]).
//
// Each simulated thread is a coroutine pinned to a processor. Processors run
// one thread at a time with FIFO ready queues; blocking, yielding and waking
// pay the configured context-switch / dispatch latencies. All scheduling is
// driven by the machine's event queue, so runs are deterministic.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ct/task.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/machine.hpp"
#include "sim/small_ring.hpp"

namespace adx::ct {

using thread_id = std::uint32_t;
using proc_id = sim::node_id;

inline constexpr thread_id invalid_thread = ~thread_id{0};

enum class thread_state : std::uint8_t { embryo, ready, running, blocked, sleeping, done };

[[nodiscard]] const char* to_string(thread_state s);

class context;
class runtime;

/// Thread control block. Stable address for the lifetime of the runtime.
struct tcb {
  thread_id id{invalid_thread};
  proc_id proc{0};
  int priority{0};
  thread_state state{thread_state::embryo};

  /// Coroutine to resume when this thread is next scheduled.
  std::coroutine_handle<> resume_point{};
  /// Bumped on every state transition; invalidates in-flight timer events.
  std::uint64_t epoch{0};
  /// When the current dispatch put this thread on its processor; closes the
  /// "run" span when the thread next gives the processor up.
  sim::vtime run_started{};
  /// Result of the last block_for(): true if the wait timed out.
  bool last_block_timed_out{false};

  std::vector<thread_id> joiners;
  task<void> root;
  std::unique_ptr<context> ctx;
  std::exception_ptr error{};

  tcb();
  ~tcb();
  tcb(const tcb&) = delete;
  tcb& operator=(const tcb&) = delete;
};

/// Thrown by run_all() when the event queue drains with live threads left.
class deadlock_error : public std::runtime_error {
 public:
  deadlock_error(std::string msg, std::vector<thread_id> stuck)
      : std::runtime_error(std::move(msg)), stuck_(std::move(stuck)) {}
  [[nodiscard]] const std::vector<thread_id>& stuck() const { return stuck_; }

 private:
  std::vector<thread_id> stuck_;
};

/// Thrown when a run exceeds its event budget (livelock guard).
class simulation_limit_error : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Host-side observer of scheduling transitions. Like the tracer, it never
/// charges virtual time and never schedules events, so attaching one cannot
/// perturb a run. adx::check's invariant oracles (lost-wakeup, deadlock)
/// subscribe here to see wakeups that lock-level instrumentation cannot.
class runtime_observer {
 public:
  virtual ~runtime_observer() = default;

  /// A blocked/sleeping thread was woken by unblock().
  virtual void on_unblock(thread_id t, sim::vtime at) {
    (void)t;
    (void)at;
  }

  /// A thread became ready (wakeup, timeout self-wake, sleep expiry, fork).
  virtual void on_ready(thread_id t, sim::vtime at) {
    (void)t;
    (void)at;
  }
};

class runtime {
 public:
  using thread_fn = std::function<task<void>(context&)>;

  explicit runtime(sim::machine_config cfg);

  /// Places the runtime on an execution domain's queue: the machine borrows
  /// `queue` (a domain shard), so this runtime's events interleave with
  /// every other runtime on the same shard while the domain's window loop
  /// drives them all. Drive with the domain's run(), then read results via
  /// finish()/finish_all(). `home_place` is the domain place (NUMA group)
  /// this runtime's nodes belong to; locks bound to a place check it.
  runtime(sim::machine_config cfg, sim::event_queue& queue, unsigned home_place = 0);

  ~runtime();
  runtime(const runtime&) = delete;
  runtime& operator=(const runtime&) = delete;

  [[nodiscard]] sim::machine& mach() { return mach_; }
  [[nodiscard]] const sim::machine& mach() const { return mach_; }
  [[nodiscard]] sim::vtime now() const { return mach_.now(); }
  [[nodiscard]] unsigned processors() const { return mach_.nodes(); }

  /// The execution-domain place this runtime lives on (0 for standalone
  /// runtimes). Federated workloads bind each lock to its runtime's place;
  /// the lock grant/release paths reject threads from another place.
  [[nodiscard]] unsigned home_place() const { return home_place_; }

  /// Creates a thread pinned to processor `p`; it becomes runnable
  /// immediately (dispatched through the normal ready-queue machinery).
  thread_id fork(proc_id p, thread_fn fn, int priority = 0);

  struct run_result {
    sim::vtime end_time{};
    std::uint64_t events{0};
    bool completed{false};
    std::vector<thread_id> stuck;
  };

  /// Drives the simulation until the event queue drains or `max_events` have
  /// been processed (one event_queue::run drain, so resumes run ahead count
  /// toward the budget). Does not throw on stuck threads; inspect the result.
  run_result run(std::uint64_t max_events = 500'000'000ULL);

  /// Like run(), but throws deadlock_error / simulation_limit_error and
  /// rethrows the first thread exception, so tests fail loudly.
  run_result run_all(std::uint64_t max_events = 500'000'000ULL);

  /// Assembles a run_result without driving the queue — for runtimes driven
  /// by an execution domain's window loop. `events` is echoed into the
  /// result (pass the domain's processed count, or this runtime's share).
  [[nodiscard]] run_result finish(std::uint64_t events) const;

  /// Throwing variant of finish(): rethrows the first thread exception and
  /// throws simulation_limit_error / deadlock_error exactly like run_all().
  run_result finish_all(std::uint64_t events) const;

  [[nodiscard]] std::size_t thread_count() const { return threads_.size(); }
  /// Threads forked and not yet done. Daemon-style tasks (the async policy
  /// runtime) use this to stop once only they remain live, so run() still
  /// drains naturally.
  [[nodiscard]] std::size_t live_threads() const { return live_threads_; }
  [[nodiscard]] thread_state state_of(thread_id t) const { return thread_ref(t).state; }
  [[nodiscard]] std::exception_ptr error_of(thread_id t) const { return thread_ref(t).error; }
  [[nodiscard]] thread_id current_on(proc_id p) const;
  [[nodiscard]] std::size_t ready_depth(proc_id p) const { return procs_.at(p).ready.size(); }

  // ------- services used by context awaitables and synchronization objects.

  [[nodiscard]] tcb& thread_ref(thread_id t);
  [[nodiscard]] const tcb& thread_ref(thread_id t) const;

  /// Resumes `h` (belonging to thread `t`) at absolute time `at`; the thread
  /// keeps its processor meanwhile (computing / waiting on memory). Returns
  /// false when the resume ran ahead (sim::event_queue::try_run_ahead): the
  /// clock is already at `at` and the caller must continue `h` in place —
  /// await_suspend returns this value.
  bool schedule_resume(tcb& t, std::coroutine_handle<> h, sim::vtime at);

  /// Current thread gives up its processor until unblock(); `h` resumes it.
  void suspend_block(tcb& t, std::coroutine_handle<> h);

  /// Block with a timeout; on expiry the thread self-wakes with
  /// last_block_timed_out = true.
  void suspend_block_for(tcb& t, std::coroutine_handle<> h, sim::vdur timeout);

  /// Makes a blocked/sleeping thread ready. Returns false if it was not
  /// blocked (already ready, running or done) — callers treat that as a
  /// harmless lost-wakeup race, as on real hardware.
  bool unblock(thread_id t);

  /// True if yielding would actually switch (another thread is ready).
  [[nodiscard]] bool has_ready_peer(proc_id p) const { return !procs_.at(p).ready.empty(); }

  void suspend_yield(tcb& t, std::coroutine_handle<> h);
  void suspend_sleep(tcb& t, std::coroutine_handle<> h, sim::vdur d);

  /// Registers `waiter` to be woken when `target` exits; returns false if
  /// target already exited (waiter should not block).
  bool add_joiner(thread_id target, thread_id waiter);

  void on_thread_exit(tcb& t);

  // ------- observability (host-side only; never charges virtual time).

  /// Attaches a structured-event tracer (not owned). Each dispatched slice
  /// becomes a "run" span on the processor's track; blocks / yields / sleeps
  /// / unblocks become instants.
  void attach_tracer(obs::tracer* t) { tracer_ = t; }
  [[nodiscard]] obs::tracer* tracer() const { return tracer_; }

  /// Attaches a host-side scheduling observer (not owned; null detaches).
  void attach_observer(runtime_observer* o) { observer_ = o; }
  [[nodiscard]] runtime_observer* observer() const { return observer_; }

  /// Attaches a schedule perturber (not owned; null detaches): forwarded to
  /// the machine (tie-breaks, access spikes) and consulted directly for
  /// resume-point delays. Lock code reads it back via perturber() to honour
  /// forced preemption at lock-word touchpoints.
  void set_perturber(sim::perturber* p) {
    perturber_ = p;
    mach_.set_perturber(p);
  }
  [[nodiscard]] sim::perturber* perturber() const { return perturber_; }

  /// Snapshots the scheduling counters into a metrics registry.
  void export_metrics(obs::metrics& m, const std::string& prefix = "ct") const;

  [[nodiscard]] std::uint64_t dispatches() const { return dispatches_; }
  [[nodiscard]] std::uint64_t blocks() const { return blocks_; }
  [[nodiscard]] std::uint64_t unblocks() const { return unblocks_; }
  [[nodiscard]] std::uint64_t yields() const { return yields_; }

 private:
  struct processor {
    tcb* current{nullptr};
    sim::small_ring<tcb*, 4> ready;  ///< inline: ready depth rarely exceeds 4
  };

  void make_ready(tcb& t);
  void dispatch(proc_id p);
  void schedule_dispatch(proc_id p, sim::vdur after);

  /// Shared failure policy of run_all()/finish_all().
  void throw_failures(const run_result& r) const;

  [[nodiscard]] bool tracing() const { return tracer_ != nullptr && tracer_->recording(); }
  /// Closes the current "run" span of `t` and marks why it ended.
  void end_run_span(tcb& t, const char* how);

  sim::machine mach_;
  unsigned home_place_{0};
  std::vector<processor> procs_;
  std::vector<std::unique_ptr<tcb>> threads_;
  std::size_t live_threads_{0};

  obs::tracer* tracer_{nullptr};
  runtime_observer* observer_{nullptr};
  sim::perturber* perturber_{nullptr};
  std::uint64_t forks_{0};
  std::uint64_t dispatches_{0};
  std::uint64_t blocks_{0};
  std::uint64_t unblocks_{0};
  std::uint64_t yields_{0};
  std::uint64_t sleeps_{0};
  std::uint64_t exits_{0};
};

}  // namespace adx::ct
