// Layer probes: small loops that price one layer's hot operation in
// isolation, at the workload's own shape (preset, shards, workers, pending
// set, lock kinds). They miss the cache effects of the real run, so the
// attribution built from them is an estimate.
#include <memory>

#include "bench.hpp"
#include "ct/context.hpp"
#include "ct/runtime.hpp"
#include "exec/job_executor.hpp"
#include "policy/runtime.hpp"
#include "sim/event_domain.hpp"
#include "sim/event_queue.hpp"
#include "sim/machine.hpp"

namespace adx::benchmark {

namespace {

/// One loop of a probe: sets up, times its hot part into `c`, and returns
/// the operations that part performed.
using probe_loop = std::uint64_t (*)(const probe_spec&, std::uint64_t ops, call_record& c);

// --- sim: event queue -------------------------------------------------------

struct chain {
  sim::event_queue* q{nullptr};
  std::uint64_t remaining{0};
  std::uint64_t x{0};
};

void chain_step(chain& c, std::uint64_t a, std::uint64_t b, std::uint64_t d, std::uint64_t e) {
  if (c.remaining-- == 0) return;
  c.x = c.x * 6364136223846793005ULL + 1442695040888963407ULL + (a ^ b ^ d ^ e);
  const auto delta = sim::nanoseconds(static_cast<std::int64_t>(c.x % 997) + 1);
  // A reference and five words: the 48-byte callback the runtime schedules.
  c.q->schedule_after(delta, [&c, a = c.x, b, d, e, f = c.remaining] {
    chain_step(c, a, b, d ^ f, e);
  });
}

std::uint64_t queue_loop(const probe_spec& spec, std::uint64_t ops, call_record& c) {
  sim::event_queue q;
  std::vector<chain> chains(spec.pending);
  for (std::size_t i = 0; i < chains.size(); ++i) {
    chains[i] = {&q, ops / chains.size(), 0x9e3779b97f4a7c15ULL + i};
    q.schedule_at(sim::vtime{i}, [&ch = chains[i]] { chain_step(ch, 1, 2, 3, 4); });
  }
  return timed(c, [&] { return q.run(); });
}

// --- sim: memory access pricing --------------------------------------------

std::uint64_t access_loop(const probe_spec& spec, std::uint64_t ops, call_record& c) {
  sim::machine m(spec.machine);
  const sim::node_id nodes = m.nodes();
  const sim::node_id hop = spec.machine.group_size % nodes;
  return timed(c, [&] {
    std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
      const auto from = static_cast<sim::node_id>((i * 7) % nodes);
      // Three local accesses to one remote one.
      const sim::node_id home = i % 4 == 3 ? (from + hop) % nodes : from;
      sink += m.access(from, home, sim::access_kind::read).ns;
    }
    return sink == 0 ? 0 : ops;
  });
}

// --- ct: block/unblock ping-pong -------------------------------------------

std::uint64_t switch_loop(const probe_spec& spec, std::uint64_t ops, call_record& c) {
  ct::runtime rt(spec.machine);
  const std::uint64_t rounds = ops / 2;
  ct::thread_id a = ct::invalid_thread;
  const ct::thread_id b = rt.fork(0, [&](ct::context& ctx) -> ct::task<void> {
    for (std::uint64_t i = 0; i < rounds; ++i) {
      co_await ctx.block();
      co_await ctx.unblock(a);
    }
  });
  a = rt.fork(0, [&](ct::context& ctx) -> ct::task<void> {
    for (std::uint64_t i = 0; i < rounds; ++i) {
      co_await ctx.unblock(b);
      co_await ctx.block();
    }
  });
  timed(c, [&] { return rt.run_all(); });
  return 2 * rounds;
}

// --- locks + policy: contended lock/unlock cycles ---------------------------

constexpr unsigned kLockThreads = 4;

std::uint64_t lock_loop(const probe_spec& spec, locks::lock_kind kind, std::uint64_t ops,
                        call_record& c) {
  ct::runtime rt(spec.machine);
  const auto cost = locks::lock_cost_model::butterfly_cthreads();
  auto lk = locks::make_lock(kind, 0, cost, spec.params);
  // Async policy specs get their daemon, as in the workload; synchronous
  // ones register nothing and start no thread.
  policy::runtime_config rc;
  rc.period = sim::microseconds(static_cast<double>(spec.params.policy.period_us));
  rc.proc = kLockThreads;
  policy::async_runtime art(rc);
  (void)art.adopt_lock(*lk, spec.params, cost);
  const std::uint64_t iterations = ops / kLockThreads;
  for (unsigned t = 0; t < kLockThreads; ++t) {
    rt.fork(t, [&](ct::context& ctx) -> ct::task<void> {
      for (std::uint64_t i = 0; i < iterations; ++i) {
        co_await lk->lock(ctx);
        co_await ctx.compute(sim::microseconds(1));
        co_await lk->unlock(ctx);
        co_await ctx.compute(sim::microseconds(2));
      }
    });
  }
  art.start(rt);
  timed(c, [&] { return rt.run_all(); });
  return iterations * kLockThreads;
}

// --- exec: fork/join of one window's shard jobs -----------------------------

std::uint64_t fork_join_loop(const probe_spec& spec, std::uint64_t ops, call_record& c) {
  exec::job_executor ex(spec.workers);
  return timed(c, [&] {
    for (std::uint64_t i = 0; i < ops; ++i) ex.for_each(spec.shards, [](std::size_t) {});
    return ops;
  });
}

// --- sim: one window of the execution domain --------------------------------

struct ticker {
  sim::event_queue* q{nullptr};
  sim::vdur every{};
  std::uint64_t remaining{0};
};

void tick(ticker& t) {
  if (t.remaining-- == 0) return;
  t.q->schedule_after(t.every, [&t] { tick(t); });
}

std::uint64_t window_loop(const probe_spec& spec, std::uint64_t ops, call_record& c) {
  auto dom = sim::make_event_domain(spec.machine, {.shards = spec.shards});
  std::unique_ptr<exec::job_executor> ex;
  if (spec.workers > 1) ex = std::make_unique<exec::job_executor>(spec.workers);
  // One self-rescheduling event every lookahead keeps every window busy with
  // a single event, so the loop prices the barrier and its scan of every
  // place; the event-queue probe prices the events themselves.
  ticker t{&dom->queue_of(0), dom->lookahead(), ops};
  dom->queue_of(0).schedule_at(sim::vtime{0}, [&t] { tick(t); });
  timed(c, [&] { return dom->run(ex.get()); });
  return dom->stats().windows;
}

/// Runs `loops` loops of `loop` as one probe; each loop is a span.
template <typename Loop>
probe_result run_probe(std::string name, const char* layer, const char* unit, double per_ns,
                       unsigned loops, std::uint64_t ops, Loop&& loop, obs::tracer* tr,
                       std::uint32_t pid) {
  probe_result p{name, unit, {}};
  for (unsigned i = 0; i < loops; ++i) {
    call_record c{name, layer, {}};
    const auto done = loop(ops, c);
    c.items = done;
    record_span(tr, pid, c);
    p.values.push_back(c.host_s * 1e9 / static_cast<double>(done) * per_ns);
  }
  return p;
}

}  // namespace

std::vector<probe_result> run_probes(const probe_spec& spec, size s, obs::tracer* tr,
                                     std::uint32_t pid) {
  const unsigned loops = s == size::full ? 5 : 2;
  const std::uint64_t scale = s == size::full ? 100 : 1;
  const auto with_spec = [&spec](probe_loop f) {
    return [&spec, f](std::uint64_t ops, call_record& c) { return f(spec, ops, c); };
  };
  std::vector<probe_result> out;
  out.push_back(run_probe("sim.queue_ns_per_event", "sim", "ns", 1, loops, 20'000 * scale,
                          with_spec(queue_loop), tr, pid));
  out.push_back(run_probe("sim.access_ns", "sim", "ns", 1, loops, 20'000 * scale,
                          with_spec(access_loop), tr, pid));
  out.push_back(run_probe("ct.switch_ns", "ct", "ns", 1, loops, 2'000 * scale,
                          with_spec(switch_loop), tr, pid));
  for (const auto k : spec.kinds) {
    out.push_back(run_probe(
        std::string("locks.cycle_ns.") + locks::to_string(k), "locks", "ns", 1, loops,
        200 * scale,
        [&spec, k](std::uint64_t ops, call_record& c) { return lock_loop(spec, k, ops, c); }, tr,
        pid));
  }
  if (spec.workers > 1) {
    out.push_back(run_probe("exec.fork_join_us", "exec", "us", 1e-3, loops, 200 * scale,
                            with_spec(fork_join_loop), tr, pid));
  }
  if (spec.uses_domain) {
    out.push_back(run_probe(spec.shards > 1 ? "sim.window_us" : "sim.window_us_seq", "sim", "us",
                            1e-3, loops, 50 * scale, with_spec(window_loop), tr, pid));
  }
  return out;
}

}  // namespace adx::benchmark
