#include "ct/runtime.hpp"

#include <sstream>
#include <utility>

#include "ct/context.hpp"

namespace adx::ct {

const char* to_string(thread_state s) {
  switch (s) {
    case thread_state::embryo: return "embryo";
    case thread_state::ready: return "ready";
    case thread_state::running: return "running";
    case thread_state::blocked: return "blocked";
    case thread_state::sleeping: return "sleeping";
    case thread_state::done: return "done";
  }
  return "?";
}

tcb::tcb() = default;
tcb::~tcb() = default;

namespace {

/// Outer coroutine for every thread: runs the user body, captures any
/// exception into the TCB, and performs exit processing (joiner wakeup,
/// processor handoff) while the frame is still live.
task<void> trampoline(runtime* rt, tcb* t, runtime::thread_fn fn) {
  try {
    co_await fn(*t->ctx);
  } catch (...) {
    t->error = std::current_exception();
  }
  rt->on_thread_exit(*t);
}

}  // namespace

runtime::runtime(sim::machine_config cfg) : mach_(cfg), procs_(cfg.nodes) {}

runtime::runtime(sim::machine_config cfg, sim::event_queue& queue, unsigned home_place)
    : mach_(cfg, queue), home_place_(home_place), procs_(cfg.nodes) {}

runtime::~runtime() = default;

thread_id runtime::fork(proc_id p, thread_fn fn, int priority) {
  if (p >= procs_.size()) throw std::out_of_range("runtime::fork: bad processor");
  ++forks_;
  auto t = std::make_unique<tcb>();
  t->id = static_cast<thread_id>(threads_.size());
  t->proc = p;
  t->priority = priority;
  t->ctx = std::make_unique<context>(*this, *t);
  t->root = trampoline(this, t.get(), std::move(fn));
  t->resume_point = t->root.handle();
  tcb& ref = *t;
  threads_.push_back(std::move(t));
  ++live_threads_;
  make_ready(ref);
  return ref.id;
}

runtime::run_result runtime::run(std::uint64_t max_events) {
  return finish(mach_.events().run(max_events));
}

runtime::run_result runtime::finish(std::uint64_t events) const {
  run_result r;
  r.end_time = mach_.now();
  r.events = events;
  for (const auto& t : threads_) {
    if (t->state != thread_state::done) r.stuck.push_back(t->id);
  }
  r.completed = r.stuck.empty() && mach_.events().empty();
  return r;
}

void runtime::throw_failures(const run_result& r) const {
  for (const auto& t : threads_) {
    if (t->error) std::rethrow_exception(t->error);
  }
  if (!mach_.events().empty()) {
    throw simulation_limit_error("runtime::run_all: event budget exhausted");
  }
  if (!r.completed) {
    std::ostringstream msg;
    msg << "runtime::run_all: deadlock, " << r.stuck.size() << " thread(s) stuck:";
    for (auto id : r.stuck) {
      msg << ' ' << id << '(' << to_string(threads_[id]->state) << ')';
    }
    throw deadlock_error(msg.str(), r.stuck);
  }
}

runtime::run_result runtime::run_all(std::uint64_t max_events) {
  auto r = run(max_events);
  throw_failures(r);
  return r;
}

runtime::run_result runtime::finish_all(std::uint64_t events) const {
  auto r = finish(events);
  throw_failures(r);
  return r;
}

thread_id runtime::current_on(proc_id p) const {
  const auto* cur = procs_.at(p).current;
  return cur ? cur->id : invalid_thread;
}

tcb& runtime::thread_ref(thread_id t) { return *threads_.at(t); }
const tcb& runtime::thread_ref(thread_id t) const { return *threads_.at(t); }

bool runtime::schedule_resume(tcb& t, std::coroutine_handle<> h, sim::vtime at) {
  t.resume_point = h;
  const auto epoch = ++t.epoch;
  // Injected resume-point delay (schedule exploration): the thread holds its
  // processor slightly longer, widening the window for other processors'
  // memory traffic to interleave with this atomic window's neighbours.
  if (perturber_ != nullptr) at = at + perturber_->resume_delay(t.id);
  // The awaiting thread suspends right after this call, so the resume event
  // is the last thing the running callback schedules. If it would also be
  // the next event run, nothing can happen in between: its epoch check
  // would pass and it would resume `h` at `at`, so the queue counts it as
  // run and `h` continues in place.
  auto& q = mach_.events();
  if (q.try_run_ahead(at)) return false;
  q.schedule_at(at, [&t, h, epoch] {
    if (t.epoch == epoch && t.state == thread_state::running) h.resume();
  });
  return true;
}

void runtime::end_run_span(tcb& t, const char* how) {
  if (!tracing()) return;
  const auto now = mach_.now();
  tracer_->complete("run", "ct", t.run_started, now - t.run_started,
                    static_cast<std::uint32_t>(t.proc), t.id);
  tracer_->instant(how, "ct", now, static_cast<std::uint32_t>(t.proc), t.id);
}

void runtime::export_metrics(obs::metrics& m, const std::string& prefix) const {
  m.get_counter(prefix + ".forks").set(forks_);
  m.get_counter(prefix + ".dispatches").set(dispatches_);
  m.get_counter(prefix + ".blocks").set(blocks_);
  m.get_counter(prefix + ".unblocks").set(unblocks_);
  m.get_counter(prefix + ".yields").set(yields_);
  m.get_counter(prefix + ".sleeps").set(sleeps_);
  m.get_counter(prefix + ".exits").set(exits_);
}

void runtime::suspend_block(tcb& t, std::coroutine_handle<> h) {
  ++blocks_;
  end_run_span(t, "block");
  t.state = thread_state::blocked;
  t.resume_point = h;
  ++t.epoch;
  procs_[t.proc].current = nullptr;
  schedule_dispatch(t.proc, mach_.config().dispatch_latency);
}

void runtime::suspend_block_for(tcb& t, std::coroutine_handle<> h, sim::vdur timeout) {
  suspend_block(t, h);
  const auto epoch = t.epoch;
  tcb* tp = &t;
  mach_.events().schedule_after(timeout, [this, tp, epoch] {
    if (tp->epoch == epoch && tp->state == thread_state::blocked) {
      tp->last_block_timed_out = true;
      make_ready(*tp);
    }
  });
}

bool runtime::unblock(thread_id id) {
  tcb& t = thread_ref(id);
  if (t.state != thread_state::blocked && t.state != thread_state::sleeping) return false;
  ++unblocks_;
  if (tracing()) {
    tracer_->instant("unblock", "ct", mach_.now(),
                     static_cast<std::uint32_t>(t.proc), t.id);
  }
  t.last_block_timed_out = false;
  if (observer_ != nullptr) observer_->on_unblock(t.id, mach_.now());
  make_ready(t);
  return true;
}

void runtime::suspend_yield(tcb& t, std::coroutine_handle<> h) {
  ++yields_;
  end_run_span(t, "yield");
  t.resume_point = h;
  t.state = thread_state::ready;
  ++t.epoch;
  procs_[t.proc].current = nullptr;
  procs_[t.proc].ready.push_back(&t);
  schedule_dispatch(t.proc, mach_.config().dispatch_latency);
}

void runtime::suspend_sleep(tcb& t, std::coroutine_handle<> h, sim::vdur d) {
  ++sleeps_;
  end_run_span(t, "sleep");
  t.state = thread_state::sleeping;
  t.resume_point = h;
  ++t.epoch;
  procs_[t.proc].current = nullptr;
  const auto epoch = t.epoch;
  tcb* tp = &t;
  mach_.events().schedule_after(d, [this, tp, epoch] {
    if (tp->epoch == epoch && tp->state == thread_state::sleeping) make_ready(*tp);
  });
  schedule_dispatch(t.proc, mach_.config().dispatch_latency);
}

bool runtime::add_joiner(thread_id target, thread_id waiter) {
  tcb& t = thread_ref(target);
  if (t.state == thread_state::done) return false;
  t.joiners.push_back(waiter);
  return true;
}

void runtime::on_thread_exit(tcb& t) {
  ++exits_;
  end_run_span(t, "exit");
  t.state = thread_state::done;
  ++t.epoch;
  --live_threads_;
  for (auto j : t.joiners) unblock(j);
  t.joiners.clear();
  procs_[t.proc].current = nullptr;
  schedule_dispatch(t.proc, mach_.config().dispatch_latency);
}

void runtime::make_ready(tcb& t) {
  if (observer_ != nullptr) observer_->on_ready(t.id, mach_.now());
  t.state = thread_state::ready;
  ++t.epoch;
  auto& p = procs_[t.proc];
  p.ready.push_back(&t);
  if (p.current == nullptr) {
    schedule_dispatch(t.proc, mach_.config().dispatch_latency);
  }
}

void runtime::schedule_dispatch(proc_id p, sim::vdur after) {
  mach_.events().schedule_after(after, [this, p] { dispatch(p); });
}

void runtime::dispatch(proc_id p) {
  auto& proc = procs_[p];
  if (proc.current != nullptr || proc.ready.empty()) return;
  tcb* t = proc.ready.front();
  proc.ready.pop_front();
  proc.current = t;
  t->state = thread_state::running;
  ++t->epoch;
  ++dispatches_;
  t->run_started = mach_.now();
  // The context switch is charged on the switch-IN edge: restoring the
  // incoming thread's state occupies the processor for a full switch before
  // the thread runs (this is what makes a blocked lock waiter's wakeup cost
  // a switch, per Table 6's blocking locking cycle).
  const auto epoch = t->epoch;
  const auto h = t->resume_point;
  mach_.events().schedule_after(mach_.config().context_switch, [t, h, epoch] {
    if (t->epoch == epoch && t->state == thread_state::running) h.resume();
  });
}

}  // namespace adx::ct
