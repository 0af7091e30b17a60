#include "check/runner.hpp"

#include <memory>
#include <sstream>
#include <stdexcept>

#include "check/broken_lock.hpp"
#include "locks/scheduler.hpp"
#include "policy/runtime.hpp"
#include "sim/event_domain.hpp"
#include "sim/rng.hpp"

namespace adx::check {

const char* to_string(fixture f) {
  switch (f) {
    case fixture::mutex: return "mutex";
    case fixture::oversub: return "oversub";
    case fixture::reconfig: return "reconfig";
    case fixture::broken_lock: return "broken_lock";
    case fixture::serve: return "serve";
  }
  return "?";
}

fixture parse_fixture(std::string_view name) {
  for (auto f : all_fixtures()) {
    if (name == to_string(f)) return f;
  }
  std::string msg = "unknown fixture: " + std::string(name) + " (valid:";
  for (auto f : all_fixtures()) {
    msg += ' ';
    msg += to_string(f);
  }
  msg += ')';
  throw std::invalid_argument(msg);
}

std::span<const fixture> all_fixtures() {
  static constexpr fixture all[] = {fixture::mutex, fixture::oversub,
                                    fixture::reconfig, fixture::broken_lock,
                                    fixture::serve};
  return all;
}

namespace {

/// Shared worker body: `iters` critical sections incrementing the witness
/// counter with a deliberate read-compute-write shape, so a mutual-exclusion
/// failure also loses updates (a second, independent evidence trail).
ct::task<void> worker(ct::context& ctx, locks::lock_object& lk, std::uint64_t& counter,
                      unsigned iters) {
  for (unsigned i = 0; i < iters; ++i) {
    co_await lk.lock(ctx);
    const auto v = counter;
    co_await ctx.compute(sim::microseconds(2));
    counter = v + 1;
    co_await lk.unlock(ctx);
    co_await ctx.compute(sim::microseconds(3));
  }
}

/// Serve-fixture worker: open-loop client. Arrival times are pre-determined
/// exponential draws (seeded per worker), NOT a function of lock progress —
/// so a slow lock faces a growing backlog instead of a politely throttled
/// load, and the oracles (starvation, lost wakeup, Ψ-atomicity) see the
/// tail-latency regime the adaptive argument targets. The witness-counter
/// read-compute-write shape matches `worker`.
ct::task<void> serve_worker(ct::context& ctx, locks::lock_object& lk,
                            std::uint64_t& counter, unsigned iters,
                            std::uint64_t seed) {
  sim::rng gen(seed);
  sim::vtime next{};
  for (unsigned i = 0; i < iters; ++i) {
    const double dt_us = gen.exponential(/*mean=*/220.0);
    next = next + sim::microseconds(dt_us > 1.0 ? dt_us : 1.0);
    if (ctx.now() < next) co_await ctx.sleep_for(next - ctx.now());
    co_await lk.lock(ctx);
    const auto v = counter;
    co_await ctx.compute(sim::microseconds(2));
    counter = v + 1;
    co_await lk.unlock(ctx);
  }
}

/// Ψ driver for the reconfig fixture: cycles waiting policies and scheduler
/// disciplines while the workers keep the lock busy.
ct::task<void> configurator(ct::context& ctx, locks::reconfigurable_lock& rl,
                            unsigned rounds) {
  for (unsigned round = 0; round < rounds; ++round) {
    co_await ctx.sleep_for(sim::microseconds(120));
    const auto wp = round % 3 == 0   ? locks::waiting_policy::pure_spin(32)
                    : round % 3 == 1 ? locks::waiting_policy::mixed(10)
                                     : locks::waiting_policy::pure_sleep();
    co_await rl.configure_waiting_policy(ctx, wp);
    if (round % 2 == 1) {
      std::unique_ptr<locks::lock_scheduler> next;
      if (round % 4 == 1) {
        next = std::make_unique<locks::priority_scheduler>();
      } else {
        next = std::make_unique<locks::fcfs_scheduler>();
      }
      co_await rl.configure_scheduler(ctx, std::move(next));
    }
  }
}

check_result run_with(const check_params& p, sim::perturber& pert) {
  const auto mc = p.config.effective_machine();
  auto dom = sim::make_event_domain(mc, {.shards = 1, .seed = mc.seed});
  ct::runtime rt(mc, dom->queue_of(0));
  rt.set_perturber(&pert);

  const locks::lock_cost_model cost{};
  std::unique_ptr<locks::lock_object> lk;
  if (p.fix == fixture::broken_lock) {
    lk = std::make_unique<broken_lock>(0, cost);
  } else {
    lk = locks::make_lock(p.config, 0, cost);
  }
  // Declared after the lock: ~monitor detaches from every watched lock, so
  // the monitor must die first.
  monitor mon(rt, p.oracles);
  mon.watch(*lk, std::string(lk->kind()));

  std::uint64_t counter = 0;
  const unsigned per_proc = p.fix == fixture::oversub ? 3 : 1;
  std::uint64_t expected = 0;
  for (ct::proc_id proc = 0; proc < rt.processors(); ++proc) {
    for (unsigned k = 0; k < per_proc; ++k) {
      if (p.fix == fixture::serve) {
        const std::uint64_t wseed =
            (p.config.seed != 0 ? p.config.seed : 0x5eedULL) ^
            (0x9e3779b97f4a7c15ULL * (proc + 1));
        rt.fork(proc, [&lk, &counter, &p, wseed](ct::context& ctx) -> ct::task<void> {
          return serve_worker(ctx, *lk, counter, p.iterations, wseed);
        });
      } else {
        rt.fork(proc, [&lk, &counter, &p](ct::context& ctx) -> ct::task<void> {
          return worker(ctx, *lk, counter, p.iterations);
        });
      }
      expected += p.iterations;
    }
  }
  if (p.fix == fixture::reconfig) {
    if (auto* rl = dynamic_cast<locks::reconfigurable_lock*>(lk.get())) {
      rt.fork(0, [rl](ct::context& ctx) -> ct::task<void> {
        return configurator(ctx, *rl, /*rounds=*/8);
      });
    }
  }
  // Async-mode specs hand the policy loop to the periodic runtime (a no-op
  // for sync specs and non-adaptive locks); the daemon shares the last
  // processor and exits once only it remains live.
  policy::async_runtime art(policy::runtime_config{
      .period = sim::microseconds(
          static_cast<double>(p.config.params.policy.period_us)),
      .proc = static_cast<ct::proc_id>(rt.processors() - 1),
  });
  art.adopt_lock(*lk, p.config.params, cost);
  art.start(rt);

  const auto events = dom->run(nullptr, p.max_events);
  const auto r = rt.finish(events);
  mon.finish(r);

  check_result out;
  out.completed = r.completed;
  out.end_time = r.end_time;
  out.events = r.events;
  out.violations = mon.violations();
  if (r.completed && counter != expected) {
    std::ostringstream os;
    os << "lost update: counter " << counter << ", expected " << expected;
    out.violations.push_back({"mutual-exclusion", std::string(lk->kind()),
                              ct::invalid_thread, r.end_time, os.str()});
  }
  if (!r.completed && !rt.mach().events().empty()) {
    // Event budget exhausted with work still queued: livelock guard tripped.
    std::ostringstream os;
    os << "event budget (" << p.max_events << ") exhausted with "
       << r.stuck.size() << " thread(s) live";
    out.violations.push_back({"livelock", std::string(lk->kind()),
                              ct::invalid_thread, r.end_time, os.str()});
  }
  return out;
}

}  // namespace

check_result run_check(const check_params& p) {
  recording_perturber pert(p.config.perturb, p.config.seed);
  auto out = run_with(p, pert);
  out.trace = pert.trace();
  return out;
}

check_result replay_check(const check_params& p,
                          const std::vector<perturb_action>& actions) {
  replay_perturber pert(p.config.perturb, p.config.seed, actions);
  return run_with(p, pert);
}

shrink_result shrink_trace(const check_params& p,
                           const std::vector<perturb_action>& full,
                           exec::job_executor& ex) {
  return shrink_journal(
      [&p](const std::vector<perturb_action>& candidate) {
        return replay_check(p, candidate).failed();
      },
      full, ex);
}

shrink_result shrink_journal(
    const std::function<bool(const std::vector<perturb_action>&)>& fails,
    const std::vector<perturb_action>& full, exec::job_executor& ex) {
  shrink_result out;
  out.minimal = full;
  // Greedy delta debugging over the action journal: try dropping chunks of
  // size n/2, n/4, ..., 1; keep any removal after which a replay still
  // fails. The seed-driven tie reordering is part of (config, seed), not the
  // journal, so the minimal journal can legitimately be empty.
  //
  // Parallel shape: the candidates a greedy pass would try from the current
  // `start` onward are all derived from the *same* journal, so they fan out
  // as speculative replay probes; committing the first (lowest-start)
  // failing candidate reproduces the sequential greedy walk exactly. Only
  // probes the sequential walk would have paid for count toward `replays`.
  std::size_t chunk = (out.minimal.size() + 1) / 2;
  while (chunk >= 1 && !out.minimal.empty()) {
    bool removed_any = false;
    std::size_t start = 0;
    while (start < out.minimal.size()) {
      std::vector<std::size_t> starts;
      for (std::size_t s = start; s < out.minimal.size(); s += chunk) {
        starts.push_back(s);
      }
      const auto& current = out.minimal;
      const auto hit = ex.find_first(starts.size(), [&](std::size_t k) {
        auto candidate = current;
        const auto b = starts[k];
        const auto e = std::min(b + chunk, candidate.size());
        candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(b),
                        candidate.begin() + static_cast<std::ptrdiff_t>(e));
        return fails(candidate);
      });
      if (hit == exec::job_executor::npos) {
        out.replays += static_cast<unsigned>(starts.size());
        break;  // nothing else removable at this granularity from `start`
      }
      out.replays += static_cast<unsigned>(hit) + 1;
      const auto b = starts[hit];
      const auto e = std::min(b + chunk, out.minimal.size());
      out.minimal.erase(out.minimal.begin() + static_cast<std::ptrdiff_t>(b),
                        out.minimal.begin() + static_cast<std::ptrdiff_t>(e));
      removed_any = true;
      // Same start index now addresses the next chunk of the shrunk journal.
      start = b;
    }
    if (chunk == 1) {
      if (!removed_any) break;  // fixpoint at granularity 1
      continue;                 // keep sweeping single actions
    }
    chunk = (chunk + 1) / 2;
  }
  ++out.replays;
  out.still_fails = fails(out.minimal);
  return out;
}

shrink_result shrink_trace(const check_params& p,
                           const std::vector<perturb_action>& full) {
  exec::job_executor seq(1);
  return shrink_trace(p, full, seq);
}

}  // namespace adx::check
