// Reusable measurement cores: the standard TSP experiment runner (Tables
// 1-3), the lock/unlock micro-cost probes (Tables 4-5) and the locking-cycle
// probe (Tables 6-7). The experiments in perf/experiments.hpp, which the bench
// binaries and the adx-bench scenarios both run, are built from these.
//
// Everything here reports *virtual* time (the simulator's deterministic
// clock) unless a name says otherwise; the perf runner layers host wall-time
// measurement on top.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "ct/context.hpp"
#include "locks/factory.hpp"
#include "tsp/parallel.hpp"

namespace adx::perf {

inline std::vector<std::uint64_t> default_seeds() {
  return {9001, 1234, 777, 31337, 2026, 5, 99, 4242};
}

/// The paper's TSP experiment configuration (Tables 1-3), with the adaptation
/// constants tuned for the TSP locks as §4 prescribes.
inline tsp::parallel_config tsp_cfg(tsp::variant v, locks::lock_kind k,
                                    unsigned processors) {
  tsp::parallel_config cfg;
  cfg.impl = v;
  cfg.processors = processors;
  cfg.run.lock = k;
  cfg.run.params.adapt = {/*waiting_threshold=*/12, /*n=*/20, /*spin_cap=*/400,
                          /*sample_period=*/2};
  return cfg;
}

struct tsp_summary {
  double mean_ms{0};
  double best_ms{1e300};
  /// Mean of (elapsed / expansions): wall time per unit of search work.
  /// Branch-and-bound exploration is timing-sensitive, so two lock kinds
  /// explore slightly different trees; normalizing by expansions isolates
  /// the synchronization efficiency the paper's tables are about.
  double mean_ms_per_expansion{0};
  std::uint64_t mean_expansions{0};
  double qlock_contention{0};
  std::int64_t qlock_peak{0};
};

/// Runs one TSP variant+lock over the seed set; returns per-seed means.
inline tsp_summary run_tsp(tsp::variant v, locks::lock_kind k, unsigned cities,
                           unsigned processors,
                           const std::vector<std::uint64_t>& seeds) {
  tsp_summary s;
  for (const auto seed : seeds) {
    const auto inst = tsp::instance::random_asymmetric(static_cast<int>(cities), seed);
    const auto r = tsp::solve_parallel(inst, tsp_cfg(v, k, processors));
    s.mean_ms += r.elapsed.ms();
    s.best_ms = std::min(s.best_ms, r.elapsed.ms());
    s.mean_ms_per_expansion +=
        r.elapsed.ms() / static_cast<double>(std::max<std::uint64_t>(1, r.expansions));
    s.mean_expansions += r.expansions;
    s.qlock_contention += r.lock_reports[0].contention_ratio;
    s.qlock_peak = std::max(s.qlock_peak, r.lock_reports[0].peak_waiting);
  }
  const auto n = static_cast<double>(seeds.size());
  s.mean_ms /= n;
  s.mean_ms_per_expansion /= n;
  s.mean_expansions = static_cast<std::uint64_t>(static_cast<double>(s.mean_expansions) / n);
  s.qlock_contention /= n;
  return s;
}

/// Virtual time of the sequential baseline: real LMSK arithmetic charged at
/// per_op_us plus local data movement, no locks, no parallel machinery.
inline double sequential_virtual_ms(unsigned cities, std::uint64_t seed,
                                    const tsp::parallel_config& cfg) {
  const auto inst = tsp::instance::random_asymmetric(static_cast<int>(cities), seed);
  const auto seq = tsp::solve_sequential(inst);
  const double compute_ms =
      static_cast<double>(seq.ops) * cfg.per_op_us / 1000.0;
  // Per expansion: read the parent matrix and write ~2 children, all local.
  const double words = static_cast<double>(seq.expansions) * 3.0 *
                       static_cast<double>(cities) * static_cast<double>(cities) /
                       static_cast<double>(cfg.data_word_divisor);
  const double word_us =
      (2.0 * cfg.run.machine.local_wire + cfg.run.machine.mem_service).us();
  return compute_ms + words * word_us / 1000.0;
}

/// Times uncontended lock/unlock ops on a lock homed locally or remotely
/// (Tables 4-5): the first lock, and the mean of `unlock_reps` lock/unlock
/// cycles' unlocks.
struct op_times {
  double lock_us{0};
  double unlock_us{0};
};

inline op_times time_lock_ops(locks::lock_kind k, bool remote, unsigned unlock_reps = 1) {
  ct::runtime rt(sim::machine_config::butterfly_gp1000());
  const sim::node_id home = remote ? 7 : 0;
  auto lk = locks::make_lock(k, home, locks::lock_cost_model::butterfly_cthreads());
  op_times out;
  rt.fork(0, [&](ct::context& ctx) -> ct::task<void> {
    for (unsigned i = 0; i < unlock_reps; ++i) {
      const auto t0 = ctx.now();
      co_await lk->lock(ctx);
      if (i == 0) out.lock_us = (ctx.now() - t0).us();
      const auto t1 = ctx.now();
      co_await lk->unlock(ctx);
      out.unlock_us += (ctx.now() - t1).us();
    }
  });
  rt.run_all();
  out.unlock_us /= unlock_reps;
  return out;
}

/// Locking cycle on a busy lock (Tables 6-7): the paper's unlock-followed-by-
/// lock latency, release-to-acquire with one waiter present. The waiter's
/// waiting loop has its own phase (spin pauses, backoff quanta), so the
/// measurement averages over several owner hold times.
template <typename MakeLock>
double time_cycle_us(MakeLock make, bool remote) {
  double total = 0;
  const double holds_ms[] = {1.62, 1.85, 2.04, 2.31, 2.58};
  for (const double hold : holds_ms) {
    ct::runtime rt(sim::machine_config::butterfly_gp1000());
    const sim::node_id home = remote ? 7 : 0;
    auto lk = make(rt, home);
    sim::vtime released{};
    sim::vtime acquired{};
    rt.fork(0, [&](ct::context& ctx) -> ct::task<void> {
      co_await lk->lock(ctx);
      co_await ctx.compute(sim::milliseconds(hold));  // waiter settles in
      co_await lk->unlock(ctx);
      released = ctx.now();
    });
    rt.fork(1, [&](ct::context& ctx) -> ct::task<void> {
      co_await ctx.compute(sim::microseconds(100));
      co_await lk->lock(ctx);
      acquired = ctx.now();
      co_await lk->unlock(ctx);
    });
    rt.run_all();
    total += (acquired - released).us();
  }
  return total / std::size(holds_ms);
}

}  // namespace adx::perf
