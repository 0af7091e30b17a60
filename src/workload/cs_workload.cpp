#include "workload/cs_workload.hpp"

#include <stdexcept>

#include "ct/context.hpp"
#include "ct/runtime.hpp"
#include "policy/runtime.hpp"
#include "sim/event_domain.hpp"

namespace adx::workload {

cs_result run_cs_workload(const cs_config& cfg) {
  if (cfg.processors == 0 || cfg.processors > cfg.machine.nodes) {
    throw std::invalid_argument("cs_workload: processors out of range");
  }
  if (cfg.threads == 0) throw std::invalid_argument("cs_workload: need threads");

  // One runtime on a sequential execution domain: the same drive path the
  // sharded federation uses, so this workload's schedules stay comparable
  // with the partitioned variants byte for byte.
  auto dom = sim::make_event_domain(cfg.machine, {.shards = 1, .seed = cfg.seed});
  ct::runtime rt(cfg.machine, dom->queue_of(0));
  auto lk = locks::make_lock(cfg.kind, cfg.lock_home, cfg.cost, cfg.params);
  sim::rng jitter_rng(cfg.seed);

  // Async-mode specs hand the policy to the periodic runtime: the daemon
  // runs on a spare node when the machine has one, else shares the last
  // workload processor. adopt_lock() is a no-op for sync specs.
  const ct::proc_id daemon_proc =
      cfg.processors < cfg.machine.nodes ? cfg.processors : cfg.processors - 1;
  policy::async_runtime art(policy::runtime_config{
      .period = sim::microseconds(static_cast<double>(cfg.params.policy.period_us)),
      .proc = daemon_proc,
      .coord = {},
  });
  art.adopt_lock(*lk, cfg.params, cfg.cost);

  // Pre-draw deterministic jitter factors (one stream per thread) so thread
  // scheduling order cannot perturb the draw sequence.
  std::vector<std::vector<double>> jitter(cfg.threads);
  for (unsigned t = 0; t < cfg.threads; ++t) {
    jitter[t].reserve(cfg.iterations);
    for (std::uint64_t i = 0; i < cfg.iterations; ++i) {
      jitter[t].push_back(1.0 + cfg.think_jitter * (2.0 * jitter_rng.uniform01() - 1.0));
    }
  }

  for (unsigned t = 0; t < cfg.threads; ++t) {
    const ct::proc_id proc = t % cfg.processors;
    rt.fork(proc, [&, t](ct::context& ctx) -> ct::task<void> {
      for (std::uint64_t i = 0; i < cfg.iterations; ++i) {
        co_await lk->lock(ctx);
        co_await ctx.compute(cfg.cs_length);
        co_await lk->unlock(ctx);
        const auto think =
            sim::nanoseconds(static_cast<std::int64_t>(
                static_cast<double>(cfg.think_time.ns) * jitter[t][i]));
        // With more threads than processors, thinking yields the processor
        // so runnable peers make progress (the multiprogramming case of §2).
        if (cfg.threads > cfg.processors) {
          co_await ctx.sleep_for(think);
        } else {
          co_await ctx.compute(think);
        }
      }
    });
  }

  // Fork the daemon last so workload threads exist before its first tick
  // (it exits when it is the last live thread).
  art.start(rt);

  const auto events = dom->run(nullptr, cfg.max_events);
  const auto run = rt.finish_all(events);

  cs_result res;
  res.policy_ticks = art.ticks();
  res.policy_pumped = art.pumped();
  res.demotions = art.demotions();
  res.elapsed = run.end_time;
  const auto& s = lk->stats();
  res.acquisitions = s.acquisitions();
  res.contended = s.contended();
  res.blocks = s.blocks();
  res.spin_iterations = s.spin_iterations();
  res.peak_waiting = s.peak_waiting();
  res.mean_wait_us = s.wait_time_us().mean();
  res.contention_ratio = s.contention_ratio();
  const double secs = static_cast<double>(res.elapsed.ns) / 1e9;
  res.throughput = secs > 0 ? static_cast<double>(res.acquisitions) / secs : 0.0;
  return res;
}

std::vector<cs_result> run_cs_sweep(const std::vector<cs_config>& configs,
                                    exec::job_executor& ex) {
  return ex.map(configs.size(),
                [&](std::size_t i) { return run_cs_workload(configs[i]); });
}

}  // namespace adx::workload
