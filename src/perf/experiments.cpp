#include "perf/experiments.hpp"

#include <memory>
#include <tuple>
#include <utility>

#include "locks/adaptive_lock.hpp"
#include "locks/reconfigurable_lock.hpp"
#include "locks/scheduler.hpp"
#include "policy/registry.hpp"
#include "policy/runtime.hpp"

namespace adx::perf {
namespace {

/// One point of the Figure 1 grid, with the adaptation constants suited to
/// multiprogramming: with threads > processors, long pure-spin phases steal
/// cycles from runnable peers, so cap the spin budget low and recover from it
/// in one sample.
workload::cs_config fig1_point(unsigned processors, unsigned threads,
                               std::uint64_t iterations, double cs_us) {
  workload::cs_config cfg;
  cfg.processors = processors;
  cfg.threads = threads;
  cfg.iterations = iterations;
  cfg.cs_length = sim::microseconds(cs_us);
  cfg.think_time = sim::microseconds(3 * cs_us + 100);
  cfg.params.adapt = {2, 25, 50, 2};
  return cfg;
}

/// The ablations' hot-spot lock: `threads` workers, one per processor, each
/// cycling through a 60 us section on `lk` and 150 us of think time staggered
/// by 11 us per thread.
void fork_hot_spot(ct::runtime& rt, locks::lock_object& lk, unsigned threads,
                   std::uint64_t iterations) {
  for (unsigned th = 0; th < threads; ++th) {
    rt.fork(th, [&lk, th, iterations](ct::context& ctx) -> ct::task<void> {
      for (std::uint64_t i = 0; i < iterations; ++i) {
        co_await lk.lock(ctx);
        co_await ctx.compute(sim::microseconds(60));
        co_await lk.unlock(ctx);
        co_await ctx.compute(sim::microseconds(150 + 11.0 * th));
      }
    });
  }
}

/// Virtual cost of one configuration operation on a fresh reconfigurable lock.
template <typename Op>
double time_config_op(bool remote, Op op) {
  ct::runtime rt(sim::machine_config::butterfly_gp1000());
  locks::reconfigurable_lock lk(remote ? 7 : 0, locks::lock_cost_model::butterfly_cthreads());
  double us = 0;
  rt.fork(0, [&](ct::context& ctx) -> ct::task<void> {
    const auto t0 = ctx.now();
    co_await op(lk, ctx);
    us = (ctx.now() - t0).us();
  });
  rt.run_all();
  return us;
}

template <typename Op>
cost_row config_op_row(Op op) {
  return {time_config_op(false, op), time_config_op(true, op)};
}

template <typename MakeLock>
cost_row cycle_row(MakeLock make) {
  return {time_cycle_us(make, false), time_cycle_us(make, true)};
}

}  // namespace

tsp_table_rows tsp_table(tsp::variant v, const tsp_table_shape& s) {
  tsp_table_rows out;
  out.blocking = run_tsp(v, locks::lock_kind::blocking, s.cities, s.processors, s.seeds);
  out.adaptive = run_tsp(v, locks::lock_kind::adaptive, s.cities, s.processors, s.seeds);
  out.sequential_ms = sequential_virtual_ms(
      s.cities, s.seeds.front(), tsp_cfg(v, locks::lock_kind::blocking, s.processors));
  return out;
}

op_cost_rows lock_op_costs(const op_cost_shape& shape) {
  op_cost_rows out;
  for (const auto kind : {locks::lock_kind::atomior, locks::lock_kind::spin,
                          locks::lock_kind::backoff, locks::lock_kind::blocking,
                          locks::lock_kind::adaptive}) {
    const auto local = time_lock_ops(kind, false, shape.unlock_reps);
    const auto remote = time_lock_ops(kind, true, shape.unlock_reps);
    out.lock.push_back({local.lock_us, remote.lock_us});
    out.unlock.push_back({local.unlock_us, remote.unlock_us});
  }
  return out;
}

std::vector<cost_row> cycle_static() {
  std::vector<cost_row> out;
  for (const auto kind :
       {locks::lock_kind::spin, locks::lock_kind::backoff, locks::lock_kind::blocking}) {
    out.push_back(cycle_row([kind](ct::runtime&, sim::node_id home) {
      return locks::make_lock(kind, home, locks::lock_cost_model::butterfly_cthreads());
    }));
  }
  return out;
}

std::vector<cost_row> cycle_adaptive() {
  std::vector<cost_row> out;
  for (const auto& policy :
       {locks::waiting_policy::pure_spin(4096), locks::waiting_policy::pure_sleep()}) {
    out.push_back(cycle_row([&policy](ct::runtime&, sim::node_id home) {
      // A reconfigurable lock pinned to the configuration (no monitor /
      // policy feedback, exactly like an adaptive lock between adaptations).
      return std::make_unique<locks::reconfigurable_lock>(
          home, locks::lock_cost_model::butterfly_cthreads(), policy);
    }));
  }
  return out;
}

std::vector<cost_row> config_op_costs() {
  using locks::reconfigurable_lock;
  std::vector<cost_row> out{
      config_op_row([](reconfigurable_lock& lk, ct::context& ctx) -> ct::task<void> {
        (void)co_await lk.acquire_attribute(ctx, "spin-time", 1);
      }),
      config_op_row([](reconfigurable_lock& lk, ct::context& ctx) -> ct::task<void> {
        co_await lk.configure_waiting_policy(ctx, locks::waiting_policy::pure_spin(16));
      }),
      config_op_row([](reconfigurable_lock& lk, ct::context& ctx) -> ct::task<void> {
        co_await lk.configure_scheduler(ctx, std::make_unique<locks::priority_scheduler>());
      }),
  };

  // The monitor sample: a sampling unlock (every 2nd) minus a plain one.
  ct::runtime rt(sim::machine_config::butterfly_gp1000());
  locks::simple_adapt_params p;
  p.sample_period = 2;
  locks::adaptive_lock lk(0, locks::lock_cost_model::butterfly_cthreads(), p,
                          locks::waiting_policy::pure_spin(200));
  double plain = 0;
  double sampling = 0;
  rt.fork(0, [&](ct::context& ctx) -> ct::task<void> {
    co_await lk.lock(ctx);
    auto t0 = ctx.now();
    co_await lk.unlock(ctx);  // 1st unlock: no sample
    plain = (ctx.now() - t0).us();
    co_await lk.lock(ctx);
    t0 = ctx.now();
    co_await lk.unlock(ctx);  // 2nd unlock: sample + policy (no-op Ψ)
    sampling = (ctx.now() - t0).us();
  });
  rt.run_all();
  out.push_back({sampling - plain, 0});
  return out;
}

std::vector<workload::cs_result> cs_sweep(const cs_sweep_shape& shape) {
  std::vector<std::pair<locks::lock_kind, std::int64_t>> cols{{locks::lock_kind::blocking, 0}};
  for (const auto k : shape.combined_spins) cols.emplace_back(locks::lock_kind::combined, k);
  cols.emplace_back(locks::lock_kind::adaptive, 0);

  std::vector<workload::cs_config> grid;
  for (const double cs : shape.cs_lengths_us) {
    for (const auto& [kind, spin_limit] : cols) {
      auto cfg = fig1_point(shape.processors, shape.threads, shape.iterations, cs);
      cfg.kind = kind;
      cfg.params.combined_spin_limit = spin_limit;
      grid.push_back(cfg);
    }
  }
  exec::job_executor ex(exec::resolve_jobs(shape.jobs));
  return run_cs_sweep(grid, ex);
}

tsp::parallel_result locking_pattern(tsp::variant v, const pattern_shape& shape) {
  auto cfg = tsp_cfg(v, shape.kind, shape.processors);
  cfg.record_patterns = true;
  cfg.tracer = shape.tracer;
  return tsp::solve_parallel(
      tsp::instance::random_asymmetric(static_cast<int>(shape.cities), shape.seed), cfg);
}

std::vector<spin_vs_block_row> spin_vs_block(const spin_vs_block_shape& shape) {
  constexpr unsigned kProcessors = 6;
  const unsigned thread_counts[] = {6, 12, 18};
  const locks::lock_kind kinds[] = {locks::lock_kind::spin, locks::lock_kind::combined,
                                    locks::lock_kind::blocking};
  // Pure spin livelocks when spinners and the owner share a processor, so
  // the spin column only runs at one thread per processor.
  exec::job_executor ex(exec::resolve_jobs(shape.jobs));
  const auto grid = ex.map(std::size(thread_counts) * 3, [&](std::size_t i) {
    workload::cs_config c;
    c.processors = kProcessors;
    c.threads = thread_counts[i / 3];
    c.iterations = shape.iterations;
    c.cs_length = sim::microseconds(100);
    c.think_time = sim::microseconds(300);
    c.kind = kinds[i % 3];
    if (c.kind == locks::lock_kind::spin && c.threads > kProcessors) return std::optional<double>{};
    if (c.kind == locks::lock_kind::combined) c.params.combined_spin_limit = 25;
    return std::optional{run_cs_workload(c).elapsed.ms()};
  });
  std::vector<spin_vs_block_row> out;
  for (std::size_t s = 0; s < std::size(thread_counts); ++s) {
    out.push_back({thread_counts[s], kProcessors, grid[3 * s], *grid[3 * s + 1],
                   *grid[3 * s + 2]});
  }
  return out;
}

std::vector<interconnect_row> interconnect_ablation(const interconnect_shape& shape) {
  std::vector<interconnect_row> rows;
  for (const bool staged : {false, true}) {
    for (const auto kind : shape.kinds) {
      rows.emplace_back();
      rows.back().staged = staged;
      rows.back().kind = kind;
    }
  }
  exec::job_executor ex(exec::resolve_jobs(shape.jobs));
  return ex.map(rows.size(), [&](std::size_t i) {
    auto row = rows[i];
    auto machine = sim::machine_config::butterfly_gp1000();
    if (row.staged) machine.wire_model = sim::interconnect_model::butterfly;
    ct::runtime rt(machine);
    locks::lock_params params;
    params.adapt = {12, 20, 400, 2};  // tuned per §4, as in Tables 1-3
    auto lk = locks::make_lock(row.kind, 0, locks::lock_cost_model::butterfly_cthreads(), params);
    fork_hot_spot(rt, *lk, 10, shape.iterations);
    row.elapsed_ms = rt.run_all().end_time.ms();
    row.mean_wait_us = lk->stats().wait_time_us().mean();
    row.queue_delay_ms = rt.mach().total_queue_delay().ms();
    if (const auto* net = rt.mach().network()) row.switch_delay_ms = net->total_switch_delay().ms();
    return row;
  });
}

std::vector<threshold_row> threshold_ablation(const threshold_shape& shape) {
  const auto inst = tsp::instance::random_asymmetric(static_cast<int>(shape.cities), shape.seed);
  std::vector<threshold_row> rows(1);  // the blocking baseline
  for (const auto threshold : shape.thresholds) {
    for (const auto n : shape.ns) rows.push_back({threshold, n, 0, 0});
  }
  exec::job_executor ex(exec::resolve_jobs(shape.jobs));
  return ex.map(rows.size(), [&](std::size_t i) {
    auto row = rows[i];
    auto cfg = tsp_cfg(tsp::variant::centralized,
                       i == 0 ? locks::lock_kind::blocking : locks::lock_kind::adaptive, 10);
    if (i != 0) {
      cfg.run.params.adapt.waiting_threshold = row.threshold;
      cfg.run.params.adapt.n = row.n;
    }
    const auto r = tsp::solve_parallel(inst, cfg);
    row.elapsed_ms = r.elapsed.ms();
    row.qlock_mean_wait_us = r.lock_reports[0].mean_wait_us;
    return row;
  });
}

std::vector<async_mode_row> async_policy_modes(const async_modes_shape& shape) {
  const auto cost = locks::lock_cost_model::butterfly_cthreads();
  constexpr auto kPeriod = policy::policy_spec::kDefaultPeriodUs;
  const std::pair<bool, std::uint64_t> modes[] = {{false, 0}, {true, kPeriod}, {true, 4 * kPeriod}};
  exec::job_executor ex(exec::resolve_jobs(shape.jobs));
  return ex.map(std::size(modes), [&](std::size_t i) {
    async_mode_row row;
    std::tie(row.async, row.period_us) = modes[i];
    ct::runtime rt(sim::machine_config::butterfly_gp1000());
    locks::lock_params params;
    params.policy = policy::default_spec(shape.policy);
    if (row.async) params.policy.with_async(row.period_us);
    auto lk = locks::make_lock(locks::lock_kind::adaptive, 0, cost, params);

    // The daemon lives on a spare processor, off the workers' nodes.
    policy::runtime_config daemon;
    daemon.period = sim::microseconds(static_cast<double>(params.policy.period_us));
    daemon.proc = shape.threads;
    policy::async_runtime art(daemon);
    art.adopt_lock(*lk, params, cost);
    fork_hot_spot(rt, *lk, shape.threads, shape.iterations);
    art.start(rt);
    row.elapsed_ms = rt.run_all().end_time.ms();

    auto* al = dynamic_cast<locks::adaptive_lock*>(lk.get());
    row.mean_wait_us = al->stats().wait_time_us().mean();
    row.decisions = al->policy()->decisions();
    row.delivered = row.async ? art.pumped() : al->object_monitor().total_samples();
    // Virtual time is exact: in async mode the feedback point delivers
    // nothing, so the inline policy cost is exactly 0 — the same per-sample
    // charge lands on the daemon's processor.
    const auto per_sample = cost.monitor_sample_overhead + cost.policy_execution;
    row.inline_cost_us =
        row.async ? 0.0 : (per_sample * static_cast<std::int64_t>(row.delivered)).us();
    row.ticks = art.ticks();
    return row;
  });
}

std::vector<async_grid_row> async_policy_grid(const async_grid_shape& shape) {
  const auto& fig1 = kCsSweepCi;
  std::vector<workload::cs_config> grid;
  for (const bool async : {false, true}) {
    for (const double cs : fig1.cs_lengths_us) {
      auto cfg = fig1_point(fig1.processors, fig1.threads, fig1.iterations, cs);
      cfg.kind = locks::lock_kind::adaptive;
      cfg.params.policy = policy::default_spec(shape.policy);
      if (async) cfg.params.policy.with_async();
      grid.push_back(cfg);
    }
  }
  exec::job_executor ex(exec::resolve_jobs(shape.jobs));
  const auto runs = run_cs_sweep(grid, ex);
  auto run = runs.begin();
  std::vector<async_grid_row> out(2);
  out[1].async = true;
  for (auto& row : out) {
    for (std::size_t c = 0; c < fig1.cs_lengths_us.size(); ++c, ++run) {
      row.cs_ms.push_back(run->elapsed.ms());
      row.total_ms += run->elapsed.ms();
      row.ticks += run->policy_ticks;
      row.pumped += run->policy_pumped;
    }
  }
  return out;
}

std::vector<workload::sharded_cs_result> sharded_cs_sweep(const sharded_cs_shape& shape) {
  workload::sharded_cs_config cfg;
  cfg.machine = sim::machine_config::hierarchical_numa(shape.groups, shape.group_nodes);
  cfg.threads_per_group = shape.threads;
  cfg.iterations = shape.iterations;
  cfg.cs_length = sim::microseconds(static_cast<double>(shape.cs_us));
  cfg.think_time = sim::microseconds(static_cast<double>(shape.think_us));
  cfg.remote_every = shape.remote_every;
  cfg.seed = shape.seed;
  cfg.shards = shape.shards;
  exec::job_executor ex(exec::resolve_jobs(shape.jobs));
  std::vector<workload::sharded_cs_result> out;
  for (const auto kind : shape.kinds) {
    cfg.kind = kind;
    out.push_back(run_sharded_cs(cfg, &ex));
  }
  return out;
}

workload::ct_serve_config serve_ct_config_of(const serve_ct_shape& shape) {
  workload::ct_serve_config cfg;
  cfg.machine = shape.groups == 0
                    ? sim::machine_config::fat_tree_hpc4096()
                    : sim::machine_config::hierarchical_numa(shape.groups, shape.group_nodes);
  cfg.servers_per_group = shape.servers;
  cfg.requests_per_group = shape.requests;
  cfg.mean_interarrival_us = static_cast<double>(shape.interarrival_us);
  cfg.remote_fraction = static_cast<double>(shape.remote_pct) / 100.0;
  cfg.service = sim::microseconds(static_cast<double>(shape.service_us));
  cfg.burst_mult = static_cast<double>(shape.burst_mult);
  cfg.seed = shape.seed;
  cfg.shards = shape.shards;
  return cfg;
}

std::vector<workload::ct_serve_result> serve_ct(
    const serve_ct_shape& shape,
    const std::function<void(locks::lock_kind, const workload::ct_serve_result&)>& on_row) {
  exec::job_executor ex(exec::resolve_jobs(shape.jobs));
  std::vector<workload::ct_serve_result> out;
  for (const auto kind : kServeCtKinds) {
    auto cfg = serve_ct_config_of(shape);
    cfg.kind = kind;
    out.push_back(run_ct_serve(cfg, &ex));
    if (on_row) on_row(kind, out.back());
  }
  return out;
}

}  // namespace adx::perf
