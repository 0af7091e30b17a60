// Scenario definitions for adx-bench. Most scenarios run an experiment that
// also has a bench binary of the same name (the three bench_serve_ct_*
// scenarios share bench_serve_ct): the experiment is defined once in
// perf/experiments.hpp and run here at its CI-reduced shape, so these bodies
// only name its rows as metrics. The rest have no binary and are defined
// here: the two pure-simulator churns (sim_*), the adaptation-policy family
// (bench_abl_policy), and the src/objects benches (bench_hashmap_*,
// bench_monitor_delegation).
//
// Scenario bodies report virtual-clock metrics (deterministic for the fixed
// seeds used here) plus wall-derived rates; the runner adds `wall_ns` around
// every repetition. Micro-cost scenarios repeat their probes several times per
// repetition so the wall measurement rises above scheduler jitter.
#include "perf/scenario.hpp"

#include <chrono>
#include <memory>
#include <utility>

#include "objects/adaptive_hash_map.hpp"
#include "objects/adaptive_monitor.hpp"
#include "perf/experiments.hpp"
#include "policy/registry.hpp"
#include "sim/event_queue.hpp"
#include "sim/sharded_event_queue.hpp"

namespace adx::perf {
namespace {

constexpr metric_clock kVirtual = metric_clock::virtual_time;
constexpr metric_clock kWall = metric_clock::wall;

double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Pure event-queue churn: 64 self-rescheduling chains plus tie bursts. The
// closest thing to a direct measurement of the simulator's hot path — every
// other scenario pays for its workload on top of this.
// ---------------------------------------------------------------------------

struct churn_chain {
  sim::event_queue* q{nullptr};
  std::uint64_t remaining{0};
  std::uint64_t x{0};
  std::uint64_t* tie_hits{nullptr};
};

void churn_step(churn_chain& c) {
  if (c.remaining-- == 0) return;
  c.x = c.x * 6364136223846793005ULL + 1442695040888963407ULL;
  const auto delta = sim::nanoseconds(static_cast<std::int64_t>(c.x % 997) + 1);
  c.q->schedule_after(delta, [&c] { churn_step(c); });
  if (c.x % 16 == 0) {
    // A burst of events due at the same instant: exercises FIFO tie-breaking.
    const auto at = c.q->now() + delta;
    for (int i = 0; i < 4; ++i) {
      c.q->schedule_at(at, [&c] { ++*c.tie_hits; });
    }
  }
}

scenario_result run_event_queue_churn() {
  sim::event_queue q;
  std::uint64_t tie_hits = 0;
  std::vector<churn_chain> chains(64);
  for (std::size_t i = 0; i < chains.size(); ++i) {
    chains[i] = {&q, /*remaining=*/4000, /*x=*/0x9e3779b97f4a7c15ULL + i, &tie_hits};
    q.schedule_at(sim::vtime{i}, [&c = chains[i]] { churn_step(c); });
  }
  const auto t0 = std::chrono::steady_clock::now();
  q.run();
  const double wall_s = wall_seconds_since(t0);

  scenario_result r;
  r.metrics.push_back({"events_processed", "count", kVirtual,
                       static_cast<double>(q.processed())});
  r.metrics.push_back({"tie_events", "count", kVirtual, static_cast<double>(tie_hits)});
  r.metrics.push_back({"end_virtual_us", "us", kVirtual, q.now().us()});
  r.metrics.push_back({"events_per_sec", "events/s", kWall,
                       static_cast<double>(q.processed()) / wall_s,
                       /*higher_better=*/true});
  return r;
}

// ---------------------------------------------------------------------------
// Sharded event-queue churn: 8 shards of dense self-rescheduling chains under
// a wide lookahead (big windows, few barriers) plus cross-shard sends landing
// exactly at the horizon. The sequential run supplies the virtual metrics and
// the sequential wall rate; a second, identical run fans the windows across 4
// workers — its wall rate over the sequential one is the sharding speedup the
// ROADMAP's scale item asks for.
// ---------------------------------------------------------------------------

struct sharded_churn_state {
  sim::sharded_event_queue* q{nullptr};
  std::vector<std::uint64_t> origin_counters;   // one per shard
  std::vector<std::uint64_t> deliveries;        // one per shard (local writes)
};

struct sharded_chain {
  sharded_churn_state* s{nullptr};
  unsigned shard{0};
  std::uint64_t remaining{0};
  std::uint64_t x{0};
};

void sharded_churn_step(sharded_chain& c) {
  if (c.remaining-- == 0) return;
  c.x = c.x * 6364136223846793005ULL + 1442695040888963407ULL;
  auto& q = *c.s->q;
  const auto delta = sim::nanoseconds(static_cast<std::int64_t>(c.x % 997) + 1);
  q.schedule_at(c.shard, q.now(c.shard) + delta, [&c] { sharded_churn_step(c); });
  if (c.x % 64 == 0 && q.shards() > 1) {
    // Cross-shard send at exactly now + lookahead: the legal horizon boundary.
    const unsigned to =
        static_cast<unsigned>((c.shard + 1 + c.x % (q.shards() - 1)) % q.shards());
    const std::uint64_t origin = (static_cast<std::uint64_t>(c.shard) << 32) |
                                 c.s->origin_counters[c.shard]++;
    auto* hits = &c.s->deliveries[to];
    q.send(c.shard, to, q.now(c.shard) + q.lookahead(), origin, [hits] { ++*hits; });
  }
}

struct sharded_churn_out {
  std::uint64_t processed{0};
  std::uint64_t windows{0};
  std::uint64_t cross_sends{0};
  double end_us{0};
  double wall_s{0};
};

sharded_churn_out run_sharded_churn_once(unsigned jobs) {
  constexpr unsigned kShards = 8;
  constexpr unsigned kChainsPerShard = 8;
  constexpr std::uint64_t kEventsPerChain = 2500;
  sim::sharded_event_queue q(kShards, sim::microseconds(1000));
  sharded_churn_state s{&q, std::vector<std::uint64_t>(kShards),
                        std::vector<std::uint64_t>(kShards)};
  std::vector<sharded_chain> chains(kShards * kChainsPerShard);
  for (unsigned sh = 0; sh < kShards; ++sh) {
    for (unsigned k = 0; k < kChainsPerShard; ++k) {
      auto& c = chains[sh * kChainsPerShard + k];
      c = {&s, sh, kEventsPerChain, 0x9e3779b97f4a7c15ULL + sh * 131 + k};
      q.schedule_at(sh, sim::vtime{k}, [&c] { sharded_churn_step(c); });
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  if (jobs > 1) {
    exec::job_executor ex(jobs);
    q.run(ex);
  } else {
    q.run();
  }
  sharded_churn_out out;
  out.wall_s = wall_seconds_since(t0);
  out.processed = q.processed();
  out.windows = q.windows();
  out.cross_sends = q.cross_sends();
  out.end_us = q.now().us();
  return out;
}

scenario_result run_sharded_queue_churn() {
  const auto seq = run_sharded_churn_once(1);
  const auto par = run_sharded_churn_once(4);

  scenario_result r;
  r.metrics.push_back({"events_processed", "count", kVirtual,
                       static_cast<double>(seq.processed)});
  r.metrics.push_back({"windows", "count", kVirtual, static_cast<double>(seq.windows)});
  r.metrics.push_back({"cross_sends", "count", kVirtual,
                       static_cast<double>(seq.cross_sends)});
  r.metrics.push_back({"end_virtual_us", "us", kVirtual, seq.end_us});
  r.metrics.push_back({"events_per_sec_seq", "events/s", kWall,
                       static_cast<double>(seq.processed) / seq.wall_s,
                       /*higher_better=*/true});
  r.metrics.push_back({"events_per_sec_jobs4", "events/s", kWall,
                       static_cast<double>(par.processed) / par.wall_s,
                       /*higher_better=*/true});
  return r;
}

// ---------------------------------------------------------------------------
// The experiments that also have a bench binary, run at their CI shapes
// (perf/experiments.hpp). The bodies below only name the rows as metrics and
// add wall-derived rates.
// ---------------------------------------------------------------------------

void put(scenario_result& r, std::string name, const char* unit, double value) {
  r.metrics.push_back({std::move(name), unit, kVirtual, value});
}

/// Runs a cheap probe `n` times and keeps the (deterministic) last result,
/// lifting the repetition's wall time above timer jitter.
template <typename Fn>
auto repeated(int n, Fn probe) {
  auto out = probe();
  for (int i = 1; i < n; ++i) out = probe();
  return out;
}

/// Names the leading cost rows `prefix + name + "_local_us"` and `..._remote_us`.
void put_costs(scenario_result& r, const std::string& prefix,
               const std::vector<cost_row>& rows, std::initializer_list<const char*> names) {
  auto row = rows.begin();
  for (const char* name : names) {
    put(r, prefix + name + "_local_us", "us", row->local_us);
    put(r, prefix + name + "_remote_us", "us", row->remote_us);
    ++row;
  }
}

scenario_result run_tsp_table(tsp::variant v) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto rows = tsp_table(v, kTspTableCi);
  const double wall_s = wall_seconds_since(t0);
  const double total_nodes =
      static_cast<double>(rows.blocking.mean_expansions + rows.adaptive.mean_expansions) *
      static_cast<double>(kTspTableCi.seeds.size());

  scenario_result r;
  put(r, "blocking_virtual_ms", "ms", rows.blocking.mean_ms);
  put(r, "adaptive_virtual_ms", "ms", rows.adaptive.mean_ms);
  put(r, "improvement_frac", "frac",
      (rows.blocking.mean_ms - rows.adaptive.mean_ms) / rows.blocking.mean_ms);
  put(r, "expansions_blocking", "count", static_cast<double>(rows.blocking.mean_expansions));
  put(r, "expansions_adaptive", "count", static_cast<double>(rows.adaptive.mean_expansions));
  r.metrics.push_back({"tsp_nodes_per_sec", "nodes/s", kWall, total_nodes / wall_s,
                       /*higher_better=*/true});
  return r;
}

scenario_result run_lock_op_costs(bool unlock_side) {
  const auto rows = repeated(8, [] { return lock_op_costs(kOpCostCi); });
  scenario_result r;
  put_costs(r, unlock_side ? "unlock_" : "lock_", unlock_side ? rows.unlock : rows.lock,
            {"atomior", "spin", "backoff", "blocking", "adaptive"});
  return r;
}

scenario_result run_cycle_static() {
  scenario_result r;
  put_costs(r, "cycle_", repeated(6, cycle_static), {"spin", "backoff", "blocking"});
  return r;
}

scenario_result run_cycle_adaptive() {
  scenario_result r;
  put_costs(r, "cycle_", repeated(20, cycle_adaptive), {"as_spin", "as_blocking"});
  return r;
}

scenario_result run_config_ops() {
  const auto rows = repeated(8, config_op_costs);
  scenario_result r;
  put_costs(r, "", rows, {"acquisition", "configure_policy", "configure_scheduler"});
  put(r, "monitor_sample_local_us", "us", rows.back().local_us);
  return r;
}

scenario_result run_fig1_cs_sweep() {
  const auto& shape = kCsSweepCi;
  const auto grid = cs_sweep(shape);
  std::vector<std::string> cols{"blocking"};
  for (const auto k : shape.combined_spins) cols.push_back("combined" + std::to_string(k));
  cols.push_back("adaptive");

  scenario_result r;
  double total_ms = 0;
  double total_blocks = 0;
  for (std::size_t c = 0; c < cols.size(); ++c) {
    double col_ms = 0;
    for (std::size_t row = 0; row < shape.cs_lengths_us.size(); ++row) {
      const auto& res = grid[row * cols.size() + c];
      col_ms += res.elapsed.ms();
      total_blocks += static_cast<double>(res.blocks);
    }
    total_ms += col_ms;
    put(r, cols[c] + "_virtual_ms", "ms", col_ms);
  }
  put(r, "total_virtual_ms", "ms", total_ms);
  put(r, "total_blocks", "count", total_blocks);
  return r;
}

scenario_result run_pattern_figure(tsp::variant v, bool qlock) {
  const auto res = locking_pattern(v, kPatternCi);
  const auto& report = qlock ? res.lock_reports[0] : res.lock_reports[2];
  scenario_result r;
  put(r, "elapsed_virtual_ms", "ms", res.elapsed.ms());
  put(r, "expansions", "count", static_cast<double>(res.expansions));
  put(r, "lock_requests", "count", static_cast<double>(report.requests));
  put(r, "contended_frac", "frac", report.contention_ratio);
  put(r, "peak_waiting", "count", static_cast<double>(report.peak_waiting));
  return r;
}

scenario_result run_ext_spin_vs_block() {
  scenario_result r;
  for (const auto& row : spin_vs_block(kSpinVsBlockCi)) {
    const auto x = std::to_string(row.threads / row.processors) + "x_virtual_ms";
    if (row.spin_ms) put(r, "spin_" + x, "ms", *row.spin_ms);
    put(r, "combined25_" + x, "ms", row.combined_ms);
    put(r, "blocking_" + x, "ms", row.blocking_ms);
  }
  return r;
}

scenario_result run_abl_interconnect() {
  scenario_result r;
  for (const auto& row : interconnect_ablation(kInterconnectCi)) {
    put(r, std::string(row.staged ? "butterfly_" : "constant_") + locks::to_string(row.kind) +
            "_virtual_ms",
        "ms", row.elapsed_ms);
  }
  return r;
}

scenario_result run_abl_threshold() {
  const auto rows = threshold_ablation(kThresholdCi);
  scenario_result r;
  put(r, "blocking_baseline_virtual_ms", "ms", rows.front().elapsed_ms);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    put(r, "t" + std::to_string(rows[i].threshold) + "_n" + std::to_string(rows[i].n) +
               "_virtual_ms",
        "ms", rows[i].elapsed_ms);
  }
  return r;
}

scenario_result run_abl_async_policy() {
  const auto rows = async_policy_grid(kAsyncGridCi);
  scenario_result r;
  put(r, "sync_total_virtual_ms", "ms", rows.front().total_ms);
  put(r, "async_total_virtual_ms", "ms", rows.back().total_ms);
  put(r, "async_daemon_ticks", "count", static_cast<double>(rows.back().ticks));
  put(r, "async_pumped", "count", static_cast<double>(rows.back().pumped));
  return r;
}

scenario_result run_sharded_cs_sweep() {
  const auto t0 = std::chrono::steady_clock::now();
  const auto rows = sharded_cs_sweep(kShardedCsCi);
  const double wall_s = wall_seconds_since(t0);
  scenario_result r;
  double total_acquisitions = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::string p = locks::to_string(kShardedCsCi.kinds[i]);
    total_acquisitions += static_cast<double>(rows[i].acquisitions);
    put(r, p + "_virtual_ms", "ms", rows[i].elapsed.ms());
    put(r, p + "_echo_p99_us", "us", rows[i].echo_rtt_p99_us);
    put(r, p + "_acquisitions", "count", static_cast<double>(rows[i].acquisitions));
  }
  const auto& adaptive = rows.back();
  put(r, "echoes", "count", static_cast<double>(adaptive.echoes));
  put(r, "cross_posts", "count", static_cast<double>(adaptive.posts));
  put(r, "windows", "count", static_cast<double>(adaptive.domain.windows));
  r.metrics.push_back({"acquisitions_per_sec", "acq/s", kWall, total_acquisitions / wall_s,
                       /*higher_better=*/true});
  return r;
}

/// Runs `shape` and names each row `prefix + kind + "_p50_us"`, ...: latency
/// quantiles plus either the tail (max, blocks) or the elapsed time. Returns
/// the rows; adds their served count to `served`.
std::vector<workload::ct_serve_result> put_serve(scenario_result& r, const serve_ct_shape& shape,
                                                 const std::string& prefix, bool tail,
                                                 double& served) {
  auto rows = serve_ct(shape);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto p = prefix + locks::to_string(kServeCtKinds[i]);
    served += static_cast<double>(rows[i].served);
    put(r, p + "_p50_us", "us", rows[i].latency_p50_us);
    put(r, p + "_p99_us", "us", rows[i].latency_p99_us);
    if (tail) {
      put(r, p + "_max_us", "us", rows[i].latency_max_us);
      put(r, p + "_blocks", "count", static_cast<double>(rows[i].blocks));
    } else {
      put(r, p + "_virtual_ms", "ms", rows[i].elapsed.ms());
    }
  }
  return rows;
}

void put_request_rate(scenario_result& r, double served,
                      std::chrono::steady_clock::time_point t0) {
  r.metrics.push_back({"requests_per_sec", "req/s", kWall, served / wall_seconds_since(t0),
                       /*higher_better=*/true});
}

scenario_result run_serve_ct_bursty() {
  scenario_result r;
  double served = 0;
  const auto t0 = std::chrono::steady_clock::now();
  (void)put_serve(r, kServeCtLightCi, "light_", true, served);
  (void)put_serve(r, kServeCtBurstyCi, "bursty_", true, served);
  put_request_rate(r, served, t0);
  return r;
}

scenario_result run_serve_ct_tail_1024() {
  scenario_result r;
  double served = 0;
  const auto t0 = std::chrono::steady_clock::now();
  const auto adaptive = put_serve(r, kServeCtTail1024Ci, "n1024_", true, served).back();
  put(r, "n1024_served", "count", static_cast<double>(adaptive.served));
  put(r, "n1024_windows", "count", static_cast<double>(adaptive.domain.windows));
  put(r, "n1024_cross_sends", "count", static_cast<double>(adaptive.domain.cross_sends));
  put_request_rate(r, served, t0);
  return r;
}

scenario_result run_serve_ct_fat4096() {
  scenario_result r;
  double served = 0;
  const auto t0 = std::chrono::steady_clock::now();
  const auto adaptive = put_serve(r, kServeCtFat4096Ci, "fat4096_", false, served).back();
  put(r, "fat4096_served", "count", static_cast<double>(adaptive.served));
  put(r, "fat4096_remote", "count", static_cast<double>(adaptive.remote_requests));
  put(r, "fat4096_posts", "count", static_cast<double>(adaptive.posts));
  put(r, "fat4096_windows", "count", static_cast<double>(adaptive.domain.windows));
  put_request_rate(r, served, t0);
  return r;
}

// ---------------------------------------------------------------------------
// Ablation: adaptation-policy sweep over the Figure 1 grid.
// ---------------------------------------------------------------------------

scenario_result run_abl_policy() {
  const double cs_lengths_us[] = {10, 100, 800};
  // The registered policy family plus one wrapped variant; the empty spec is
  // the default simple-adapt (the plain-adaptive reference column).
  const struct {
    const char* tag;
    policy::policy_spec spec;
  } cols[] = {
      {"simple_adapt", policy::policy_spec{}},
      {"break_even", policy::default_spec("break-even")},
      {"ewma_hold", policy::default_spec("ewma-hold")},
      {"multi_sensor", policy::default_spec("multi-sensor")},
      {"simple_adapt_hyst", policy::default_spec("simple-adapt").with_hysteresis(2)},
      // Same break-even core at a quarter of the sampling rate: probes the
      // paper's monitoring-overhead tradeoff against the period-2 columns.
      {"break_even_p8", policy::default_spec("break-even", 8)},
  };
  scenario_result r;
  for (const auto& col : cols) {
    double col_ms = 0;
    for (const double cs : cs_lengths_us) {
      workload::cs_config cfg;
      cfg.processors = 6;
      cfg.threads = 12;
      cfg.iterations = 60;
      cfg.cs_length = sim::microseconds(cs);
      cfg.think_time = sim::microseconds(3 * cs + 100);
      cfg.kind = locks::lock_kind::adaptive;
      cfg.params.adapt = {2, 25, 50, 2};
      cfg.params.policy = col.spec;
      const auto res = run_cs_workload(cfg);
      col_ms += res.elapsed.ms();
      r.metrics.push_back({std::string(col.tag) + "_cs" +
                               std::to_string(static_cast<int>(cs)) + "_virtual_ms",
                           "ms", kVirtual, res.elapsed.ms()});
    }
    r.metrics.push_back({std::string(col.tag) + "_total_virtual_ms", "ms", kVirtual,
                         col_ms});
  }
  return r;
}


// ---------------------------------------------------------------------------
// src/objects: striped hash map, fixed vs adaptive stripe granularity. The
// coarse column wins global sweeps (size_slow touches every stripe lock),
// the fine column wins point-op contention; the adaptive column must track
// whichever tradeoff the current shape rewards.
// ---------------------------------------------------------------------------

enum class map_mix { insert, find, mixed };

struct map_run_out {
  double virtual_ms = 0;
  unsigned final_stripes = 0;
  std::uint64_t resizes = 0;
};

map_run_out run_map_workload(map_mix mix, unsigned procs, unsigned threads,
                             unsigned fixed_stripes, bool adaptive,
                             std::uint64_t seed) {
  ct::runtime rt(sim::machine_config::test_machine(procs));

  objects::map_config mc;
  mc.min_stripes = adaptive ? 4 : fixed_stripes;
  mc.max_stripes = adaptive ? 64 : fixed_stripes;
  mc.initial_stripes = mc.min_stripes;
  mc.stripe_factor = 4;  // 4 -> 16 -> 64
  mc.buckets_per_stripe = 8;
  mc.nodes = procs;
  mc.adaptive = adaptive;
  // The oversubscribed shapes run 3 threads per processor: use the bounded
  // spin-then-block idle rule for the stripe locks (§4's multiprogramming
  // caveat — an unbounded idle spin can starve a ready stripe holder).
  mc.lock_params.adapt.pure_spin_on_idle = false;
  // Per-object policy tuning (the §4 caveat applies to the map policy too):
  // the default confirm/cooldown admits transient queue-skew spikes, which
  // on this workload thrashes grow/shrink cycles — each one a full quiesce.
  // With 2% global sweeps every extra stripe makes each sweep costlier, so
  // growth has to clear a high bar: a wide deadband (skew 6, load 400) plus
  // longer confirmation keeps Ψ for sustained signals and lets the map hold
  // coarse striping when the sweep tax outweighs point-op relief.
  mc.spec = objects::default_map_spec()
                .with_param("skew-grow", 6)
                .with_param("load-grow", 400)
                .with_param("load-shrink", 40)
                .with_param("confirm", 3)
                .with_param("cooldown", 16);
  objects::adaptive_hash_map<std::uint64_t, std::int64_t> map(mc);

  // The point-op working set scales with the thread count, as a live cache
  // would: the oversubscribed shape carries 4x the keys, so coarse striping
  // pays long chains exactly when contention is also at its worst.
  const std::uint64_t key_space = 40 * std::max(1u, threads / 6);
  constexpr std::uint64_t kInsertSpace = 256;  // insert bench key range
  constexpr unsigned kOps = 220;

  // Pre-drawn per-thread streams: scheduling cannot perturb the draws.
  sim::rng r(seed);
  std::vector<std::vector<double>> u(threads), jit(threads);
  std::vector<std::vector<std::uint64_t>> key(threads);
  for (unsigned t = 0; t < threads; ++t) {
    for (unsigned i = 0; i < kOps; ++i) {
      u[t].push_back(r.uniform01());
      key[t].push_back(r.below(mix == map_mix::insert ? kInsertSpace : key_space));
      jit[t].push_back(r.uniform01());
    }
  }

  if (mix == map_mix::find) {
    // Preload the working set so every probe traverses a realistic chain.
    rt.fork(0, [&](ct::context& ctx) -> ct::task<void> {
      for (std::uint64_t k = 0; k < key_space; ++k) {
        co_await map.insert(ctx, k, static_cast<std::int64_t>(k));
      }
    });
    rt.run_all();
  }

  for (unsigned t = 0; t < threads; ++t) {
    rt.fork(t % procs, [&, t](ct::context& ctx) -> ct::task<void> {
      for (unsigned i = 0; i < kOps; ++i) {
        const auto k = key[t][i];
        switch (mix) {
          case map_mix::insert:
            co_await map.insert(ctx, k, static_cast<std::int64_t>(k));
            break;
          case map_mix::find:
            co_await map.find(ctx, k);
            break;
          case map_mix::mixed:
            if (u[t][i] < 0.40) {
              co_await map.insert(ctx, k, static_cast<std::int64_t>(k));
            } else if (u[t][i] < 0.78) {
              co_await map.find(ctx, k);
            } else if (u[t][i] < 0.98) {
              co_await map.erase(ctx, k);
            } else {
              co_await map.size_slow(ctx);  // ~2% global ops
            }
            break;
        }
        co_await ctx.sleep_for(sim::nanoseconds(
            500 + static_cast<std::int64_t>(1500.0 * jit[t][i])));
      }
    });
  }
  const auto t0 = rt.now();
  rt.run_all();

  map_run_out out;
  out.virtual_ms = (rt.now() - t0).ms();
  out.final_stripes = map.active_stripes();
  out.resizes = map.resizes();
  return out;
}

scenario_result run_hashmap_bench(map_mix mix) {
  const struct {
    const char* tag;
    unsigned procs, threads;
  } shapes[] = {{"low", 6, 6}, {"high", 8, 24}};
  const struct {
    const char* tag;
    unsigned stripes;  // 0 = adaptive 4..64
  } cols[] = {{"fixed4", 4}, {"fixed64", 64}, {"adaptive", 0}};

  scenario_result r;
  for (const auto& s : shapes) {
    for (const auto& c : cols) {
      const auto out = run_map_workload(mix, s.procs, s.threads,
                                        c.stripes == 0 ? 4 : c.stripes,
                                        /*adaptive=*/c.stripes == 0, /*seed=*/41);
      r.metrics.push_back({std::string(s.tag) + "_" + c.tag + "_virtual_ms", "ms",
                           kVirtual, out.virtual_ms});
      if (c.stripes == 0) {
        r.metrics.push_back({std::string(s.tag) + "_adaptive_final_stripes", "count",
                             kVirtual, static_cast<double>(out.final_stripes)});
      }
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// src/objects: monitor execution-mode ablation. Under saturation every
// section serializes through the monitor either way, so delegated
// (combining) wins by replacing a handoff+wake per section with batched
// execution — decisively so at the long shape where classic's wake chain
// compounds; the mode-adapt column starts classic and must learn to
// delegate on both shapes.
// ---------------------------------------------------------------------------

double run_monitor_workload(std::int64_t initial_mode, bool adaptive,
                            sim::vdur section, std::uint64_t seed) {
  constexpr unsigned kProcs = 4;
  constexpr unsigned kThreads = 12;
  constexpr unsigned kOps = 120;
  ct::runtime rt(sim::machine_config::test_machine(kProcs));

  objects::monitor_config mc;
  mc.initial_mode = initial_mode;
  mc.adaptive = adaptive;
  // Both shapes keep the monitor saturated (12 threads, 4 procs), where
  // delegation's batched execution avoids a handoff+wake per section; widen
  // the delegate band so the 60us shape is inside it rather than in the
  // default 30..80us hold band, and reserve classic for truly long sections.
  mc.spec = objects::default_monitor_spec()
                .with_param("delegate-below-us", 70)
                .with_param("classic-above-us", 120);
  objects::adaptive_monitor mon(mc);

  sim::rng r(seed);
  std::vector<std::vector<double>> jit(kThreads);
  for (auto& v : jit) {
    for (unsigned i = 0; i < kOps; ++i) v.push_back(r.uniform01());
  }

  std::uint64_t counter = 0;
  for (unsigned t = 0; t < kThreads; ++t) {
    rt.fork(t % kProcs, [&, t](ct::context& ctx) -> ct::task<void> {
      for (unsigned i = 0; i < kOps; ++i) {
        co_await mon.execute(ctx, section, [&counter] { ++counter; });
        co_await ctx.sleep_for(sim::nanoseconds(
            1000 + static_cast<std::int64_t>(3000.0 * jit[t][i])));
      }
    });
  }
  const auto t0 = rt.now();
  rt.run_all();
  return (rt.now() - t0).ms();
}

scenario_result run_monitor_delegation() {
  const struct {
    const char* tag;
    sim::vdur section;
  } shapes[] = {{"short", sim::microseconds(4)}, {"long", sim::microseconds(60)}};
  const struct {
    const char* tag;
    std::int64_t mode;
    bool adaptive;
  } cols[] = {{"classic", objects::adaptive_monitor::kClassic, false},
              {"delegated", objects::adaptive_monitor::kDelegated, false},
              {"adaptive", objects::adaptive_monitor::kClassic, true}};
  scenario_result r;
  for (const auto& s : shapes) {
    for (const auto& c : cols) {
      r.metrics.push_back({std::string(s.tag) + "_" + c.tag + "_virtual_ms", "ms",
                           kVirtual,
                           run_monitor_workload(c.mode, c.adaptive, s.section, 43)});
    }
  }
  return r;
}

std::vector<scenario> make_registry() {
  std::vector<scenario> out;
  const auto add = [&](std::string name, std::string desc,
                       std::function<scenario_result()> body) {
    out.push_back({std::move(name), std::move(desc), std::move(body)});
  };

  add("sim_event_queue_churn",
      "pure event-queue stress: 64 self-rescheduling chains + tie bursts",
      run_event_queue_churn);
  add("sim_sharded_queue_churn",
      "sharded event-queue stress: 8 shards, windowed lookahead, horizon sends",
      run_sharded_queue_churn);
  add("bench_serve_ct_bursty",
      "ct serving on real locks: tail latency per lock kind, light + bursty load",
      run_serve_ct_bursty);
  add("bench_serve_ct_tail_1024",
      "bursty ct serving on the 1024-node hierarchical preset, 8 DES shards",
      run_serve_ct_tail_1024);
  add("bench_sharded_cs",
      "federated ct CS sweep: real threads, cross-shard echoes, 4 shards",
      run_sharded_cs_sweep);
  add("bench_serve_ct_fat4096",
      "ct serving on the 4096-node fat-tree preset, 64 federated runtimes",
      run_serve_ct_fat4096);
  add("bench_table1_tsp_central", "Table 1: centralized TSP, blocking vs adaptive",
      [] { return run_tsp_table(tsp::variant::centralized); });
  add("bench_table2_tsp_dist", "Table 2: distributed TSP, blocking vs adaptive",
      [] { return run_tsp_table(tsp::variant::distributed); });
  add("bench_table3_tsp_distlb", "Table 3: distributed+LB TSP, blocking vs adaptive",
      [] { return run_tsp_table(tsp::variant::distributed_lb); });
  add("bench_table4_lock_cost", "Table 4: Lock-op cost, every kind, local/remote",
      [] { return run_lock_op_costs(false); });
  add("bench_table5_unlock_cost", "Table 5: Unlock-op cost, every kind, local/remote",
      [] { return run_lock_op_costs(true); });
  add("bench_table6_cycle_static", "Table 6: locking cycle, static locks",
      run_cycle_static);
  add("bench_table7_cycle_adaptive", "Table 7: locking cycle, pinned adaptive lock",
      run_cycle_adaptive);
  add("bench_table8_config_ops", "Table 8: lock configuration-operation costs",
      run_config_ops);
  add("bench_fig1_cs_sweep", "Figure 1: CS-length sweep, blocking/combined/adaptive",
      run_fig1_cs_sweep);
  add("bench_fig4_pattern_central_qlock", "Figure 4: centralized TSP, qlock pattern",
      [] { return run_pattern_figure(tsp::variant::centralized, true); });
  add("bench_fig5_pattern_central_globact", "Figure 5: centralized TSP, globact pattern",
      [] { return run_pattern_figure(tsp::variant::centralized, false); });
  add("bench_fig6_pattern_dist_qlock", "Figure 6: distributed TSP, qlock pattern",
      [] { return run_pattern_figure(tsp::variant::distributed, true); });
  add("bench_fig7_pattern_dist_globact", "Figure 7: distributed TSP, globact pattern",
      [] { return run_pattern_figure(tsp::variant::distributed, false); });
  add("bench_fig8_pattern_distlb_qlock", "Figure 8: distributed+LB TSP, qlock pattern",
      [] { return run_pattern_figure(tsp::variant::distributed_lb, true); });
  add("bench_fig9_pattern_distlb_globact", "Figure 9: distributed+LB TSP, globact pattern",
      [] { return run_pattern_figure(tsp::variant::distributed_lb, false); });
  add("bench_ext_spin_vs_block", "extension: spin vs blocking by threads/processor",
      run_ext_spin_vs_block);
  add("bench_abl_interconnect", "ablation: constant-wire vs staged butterfly",
      run_abl_interconnect);
  add("bench_abl_threshold", "ablation: simple-adapt Waiting-Threshold x n",
      run_abl_threshold);
  add("bench_abl_policy", "ablation: adaptation-policy family over the Fig. 1 grid",
      run_abl_policy);
  add("bench_abl_async_policy",
      "ablation: sync vs async policy execution over the Fig. 1 grid",
      run_abl_async_policy);
  add("bench_hashmap_insert", "objects: hash-map insert storm, fixed vs adaptive stripes",
      [] { return run_hashmap_bench(map_mix::insert); });
  add("bench_hashmap_find", "objects: hash-map read-only probes, fixed vs adaptive stripes",
      [] { return run_hashmap_bench(map_mix::find); });
  add("bench_hashmap_mixed", "objects: hash-map mixed ops + 2% global sweeps, fixed vs adaptive",
      [] { return run_hashmap_bench(map_mix::mixed); });
  add("bench_monitor_delegation", "objects: monitor classic vs delegated vs mode-adapt",
      run_monitor_delegation);
  return out;
}

}  // namespace

const std::vector<scenario>& all_scenarios() {
  static const std::vector<scenario> registry = make_registry();
  return registry;
}

const scenario* find_scenario(std::string_view name) {
  for (const auto& s : all_scenarios()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace adx::perf
