// Scenario definitions for adx-bench: every paper table, Figure 1, the six
// locking-pattern figures, representative extension/ablation benches, and a
// pure event-queue microbench. Shapes are reduced from the bench binaries'
// defaults (fewer seeds, smaller instances) so a full sweep stays in CI
// budget, but each scenario exercises the same code path as the binary it is
// named after.
//
// Scenario bodies report virtual-clock metrics (deterministic for the fixed
// seeds used here) plus wall-derived rates; the runner adds `wall_ns` around
// every repetition. Micro-cost scenarios loop their probes several times per
// repetition so the wall measurement rises above scheduler jitter.
#include "perf/scenario.hpp"

#include <chrono>
#include <memory>

#include "locks/adaptive_lock.hpp"
#include "locks/reconfigurable_lock.hpp"
#include "locks/scheduler.hpp"
#include "objects/adaptive_hash_map.hpp"
#include "objects/adaptive_monitor.hpp"
#include "perf/probes.hpp"
#include "policy/registry.hpp"
#include "sim/event_queue.hpp"
#include "sim/sharded_event_queue.hpp"
#include "tsp/instance.hpp"
#include "tsp/parallel.hpp"
#include "workload/cs_workload.hpp"
#include "workload/ct_serve.hpp"
#include "workload/sharded_cs.hpp"

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
// Tail latency under open-loop load, served by real ct server threads
// (src/workload/ct_serve) on each group's place-bound spin, blocking or
// adaptive lock with default params. Light load is plain Poisson; the bursty
// load multiplies the arrival rate by 8 in every other 30 ms period. All
// latency quantiles and block counts are virtual-clock and gated exactly.
// ---------------------------------------------------------------------------

const struct {
  const char* tag;
  locks::lock_kind kind;
} kSpinBlockAdaptive[] = {{"spin", locks::lock_kind::spin},
                          {"blocking", locks::lock_kind::blocking},
                          {"adaptive", locks::lock_kind::adaptive}};

void push_tail(scenario_result& r, const std::string& p,
               const workload::ct_serve_result& res) {
  r.metrics.push_back({p + "_p50_us", "us", kVirtual, res.latency_p50_us});
  r.metrics.push_back({p + "_p99_us", "us", kVirtual, res.latency_p99_us});
  r.metrics.push_back({p + "_max_us", "us", kVirtual, res.latency_max_us});
  r.metrics.push_back({p + "_blocks", "count", kVirtual,
                       static_cast<double>(res.blocks)});
}

scenario_result run_serve_ct_bursty() {
  const struct {
    const char* tag;
    double burst_mult;
  } loads[] = {{"light", 1}, {"bursty", 8}};
  scenario_result r;
  double total_served = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& load : loads) {
    for (const auto& k : kSpinBlockAdaptive) {
      workload::ct_serve_config cfg;
      cfg.machine = sim::machine_config::hierarchical_numa(8, 8);
      cfg.servers_per_group = 8;  // one per node: lock queues can pass 4
      cfg.requests_per_group = 1500;
      cfg.mean_interarrival_us = 600;
      cfg.burst_mult = load.burst_mult;
      cfg.service = sim::microseconds(40);
      cfg.remote_fraction = 0.10;
      cfg.kind = k.kind;
      cfg.shards = 4;
      const auto res = run_ct_serve(cfg);
      total_served += static_cast<double>(res.served);
      push_tail(r, std::string(load.tag) + '_' + k.tag, res);
    }
  }
  const double wall_s = wall_seconds_since(t0);
  r.metrics.push_back({"requests_per_sec", "req/s", kWall, total_served / wall_s,
                       /*higher_better=*/true});
  return r;
}

// The 1000+-node end-to-end: the hierarchical_numa() preset (1024 nodes, 32
// groups) serving the bursty load on 8 DES shards.
scenario_result run_serve_ct_tail_1024() {
  scenario_result r;
  double total_served = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& k : kSpinBlockAdaptive) {
    workload::ct_serve_config cfg;
    cfg.machine = sim::machine_config::hierarchical_numa();  // 32x32 = 1024 nodes
    cfg.servers_per_group = 32;
    cfg.requests_per_group = 400;
    cfg.mean_interarrival_us = 600;
    cfg.burst_mult = 8;
    cfg.service = sim::microseconds(40);
    cfg.remote_fraction = 0.10;
    cfg.kind = k.kind;
    cfg.shards = 8;
    const auto res = run_ct_serve(cfg);
    total_served += static_cast<double>(res.served);
    push_tail(r, std::string("n1024_") + k.tag, res);
    if (k.kind == locks::lock_kind::adaptive) {
      r.metrics.push_back({"n1024_served", "count", kVirtual,
                           static_cast<double>(res.served)});
      r.metrics.push_back({"n1024_windows", "count", kVirtual,
                           static_cast<double>(res.domain.windows)});
      r.metrics.push_back({"n1024_cross_sends", "count", kVirtual,
                           static_cast<double>(res.domain.cross_sends)});
    }
  }
  const double wall_s = wall_seconds_since(t0);
  r.metrics.push_back({"requests_per_sec", "req/s", kWall, total_served / wall_s,
                       /*higher_better=*/true});
  return r;
}

// ---------------------------------------------------------------------------
// Federated ct sweep: the fig1-style closed-loop community with REAL ct
// threads, one runtime per NUMA group on the execution domain. Lock
// handoffs, echo round-trips and policy pumps all cross shard boundaries
// through federation::post(), and every reported figure is virtual-clock —
// the baseline gate therefore also pins the cross-shard protocol itself
// (elapsed times, echo quantiles and post counts are shard-invariant).
// ---------------------------------------------------------------------------

scenario_result run_ct_sharded_cs() {
  scenario_result r;
  double total_acquisitions = 0;
  const auto t0 = std::chrono::steady_clock::now();
  exec::job_executor ex(4);
  for (const auto& k : kSpinBlockAdaptive) {
    workload::sharded_cs_config cfg;
    cfg.machine = sim::machine_config::hierarchical_numa(4, 6);
    cfg.threads_per_group = 4;
    cfg.iterations = 30;
    cfg.remote_every = 3;
    cfg.kind = k.kind;
    cfg.shards = 4;
    const auto res = run_sharded_cs(cfg, &ex);
    total_acquisitions += static_cast<double>(res.acquisitions);
    const std::string p = k.tag;
    r.metrics.push_back({p + "_virtual_ms", "ms", kVirtual, res.elapsed.ms()});
    r.metrics.push_back({p + "_echo_p99_us", "us", kVirtual, res.echo_rtt_p99_us});
    r.metrics.push_back({p + "_acquisitions", "count", kVirtual,
                         static_cast<double>(res.acquisitions)});
    if (k.kind == locks::lock_kind::adaptive) {
      r.metrics.push_back({"echoes", "count", kVirtual,
                           static_cast<double>(res.echoes)});
      r.metrics.push_back({"cross_posts", "count", kVirtual,
                           static_cast<double>(res.posts)});
      r.metrics.push_back({"windows", "count", kVirtual,
                           static_cast<double>(res.domain.windows)});
    }
  }
  const double wall_s = wall_seconds_since(t0);
  r.metrics.push_back({"acquisitions_per_sec", "acq/s", kWall,
                       total_acquisitions / wall_s,
                       /*higher_better=*/true});
  return r;
}

// ---------------------------------------------------------------------------
// The 4096-node end-to-end: open-loop serving with real ct server threads on
// the fat_tree_hpc4096 preset (64 groups x 64 nodes), one federated runtime
// per group on 8 DES shards. The largest machine the repo simulates; latency
// quantiles, served counts and cross-group post counts gate exactly.
// ---------------------------------------------------------------------------

scenario_result run_serve_ct_fat4096() {
  scenario_result r;
  double total_served = 0;
  const auto t0 = std::chrono::steady_clock::now();
  exec::job_executor ex(4);
  for (const auto& k : kSpinBlockAdaptive) {
    workload::ct_serve_config cfg;
    cfg.machine = sim::machine_config::fat_tree_hpc4096();
    cfg.servers_per_group = 2;
    cfg.requests_per_group = 25;  // x64 groups = 1600 requests
    cfg.mean_interarrival_us = 80;
    cfg.remote_fraction = 0.25;
    cfg.kind = k.kind;
    cfg.shards = 8;
    const auto res = run_ct_serve(cfg, &ex);
    total_served += static_cast<double>(res.served);
    const std::string p = std::string("fat4096_") + k.tag;
    r.metrics.push_back({p + "_p50_us", "us", kVirtual, res.latency_p50_us});
    r.metrics.push_back({p + "_p99_us", "us", kVirtual, res.latency_p99_us});
    r.metrics.push_back({p + "_virtual_ms", "ms", kVirtual, res.elapsed.ms()});
    if (k.kind == locks::lock_kind::adaptive) {
      r.metrics.push_back({"fat4096_served", "count", kVirtual,
                           static_cast<double>(res.served)});
      r.metrics.push_back({"fat4096_remote", "count", kVirtual,
                           static_cast<double>(res.remote_requests)});
      r.metrics.push_back({"fat4096_posts", "count", kVirtual,
                           static_cast<double>(res.posts)});
      r.metrics.push_back({"fat4096_windows", "count", kVirtual,
                           static_cast<double>(res.domain.windows)});
    }
  }
  const double wall_s = wall_seconds_since(t0);
  r.metrics.push_back({"requests_per_sec", "req/s", kWall, total_served / wall_s,
                       /*higher_better=*/true});
  return r;
}

// ---------------------------------------------------------------------------
// Tables 1-3: TSP blocking vs adaptive (reduced: 16 cities, 3 seeds).
// ---------------------------------------------------------------------------

scenario_result run_tsp_scenario(tsp::variant v) {
  constexpr unsigned kCities = 16;
  constexpr unsigned kProcessors = 8;
  const std::vector<std::uint64_t> seeds = {9001, 1234, 777};

  const auto t0 = std::chrono::steady_clock::now();
  const auto blocking = run_tsp(v, locks::lock_kind::blocking, kCities, kProcessors, seeds);
  const auto adaptive = run_tsp(v, locks::lock_kind::adaptive, kCities, kProcessors, seeds);
  const double wall_s = wall_seconds_since(t0);

  const double total_nodes =
      static_cast<double>(blocking.mean_expansions + adaptive.mean_expansions) *
      static_cast<double>(seeds.size());

  scenario_result r;
  r.metrics.push_back({"blocking_virtual_ms", "ms", kVirtual, blocking.mean_ms});
  r.metrics.push_back({"adaptive_virtual_ms", "ms", kVirtual, adaptive.mean_ms});
  r.metrics.push_back({"improvement_frac", "frac", kVirtual,
                       (blocking.mean_ms - adaptive.mean_ms) / blocking.mean_ms});
  r.metrics.push_back({"expansions_blocking", "count", kVirtual,
                       static_cast<double>(blocking.mean_expansions)});
  r.metrics.push_back({"expansions_adaptive", "count", kVirtual,
                       static_cast<double>(adaptive.mean_expansions)});
  r.metrics.push_back({"tsp_nodes_per_sec", "nodes/s", kWall, total_nodes / wall_s,
                       /*higher_better=*/true});
  return r;
}

// ---------------------------------------------------------------------------
// Tables 4-5: lock/unlock op cost, every kind, local + remote.
// ---------------------------------------------------------------------------

scenario_result run_lock_op_costs(bool unlock_side) {
  constexpr int kInner = 8;  // lift wall time above timer jitter
  const struct {
    locks::lock_kind kind;
    const char* name;
  } kinds[] = {
      {locks::lock_kind::atomior, "atomior"},   {locks::lock_kind::spin, "spin"},
      {locks::lock_kind::backoff, "backoff"},   {locks::lock_kind::blocking, "blocking"},
      {locks::lock_kind::adaptive, "adaptive"},
  };
  scenario_result r;
  for (int i = 0; i < kInner; ++i) {
    const bool record = i == 0;  // identical every iteration (deterministic)
    for (const auto& k : kinds) {
      const auto local = time_lock_ops(k.kind, false);
      const auto remote = time_lock_ops(k.kind, true);
      if (!record) continue;
      const char* op = unlock_side ? "unlock" : "lock";
      const double lv = unlock_side ? local.unlock_us : local.lock_us;
      const double rv = unlock_side ? remote.unlock_us : remote.lock_us;
      r.metrics.push_back({std::string(op) + '_' + k.name + "_local_us", "us", kVirtual, lv});
      r.metrics.push_back({std::string(op) + '_' + k.name + "_remote_us", "us", kVirtual, rv});
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Tables 6-7: the locking cycle (release-to-acquire with a waiter present).
// ---------------------------------------------------------------------------

scenario_result run_cycle_static() {
  constexpr int kInner = 6;
  const struct {
    locks::lock_kind kind;
    const char* name;
  } kinds[] = {
      {locks::lock_kind::spin, "spin"},
      {locks::lock_kind::backoff, "backoff"},
      {locks::lock_kind::blocking, "blocking"},
  };
  scenario_result r;
  for (int i = 0; i < kInner; ++i) {
    const bool record = i == 0;
    for (const auto& k : kinds) {
      const auto make = [&](ct::runtime&, sim::node_id home) {
        return locks::make_lock(k.kind, home, locks::lock_cost_model::butterfly_cthreads());
      };
      const double local = time_cycle_us(make, false);
      const double remote = time_cycle_us(make, true);
      if (!record) continue;
      r.metrics.push_back({std::string("cycle_") + k.name + "_local_us", "us", kVirtual, local});
      r.metrics.push_back({std::string("cycle_") + k.name + "_remote_us", "us", kVirtual, remote});
    }
  }
  return r;
}

scenario_result run_cycle_adaptive() {
  constexpr int kInner = 20;  // small per-cycle cost: amortize timer jitter
  const struct {
    const char* name;
    locks::waiting_policy policy;
  } rows[] = {
      {"as_spin", locks::waiting_policy::pure_spin(4096)},
      {"as_blocking", locks::waiting_policy::pure_sleep()},
  };
  scenario_result r;
  for (int i = 0; i < kInner; ++i) {
    const bool record = i == 0;
    for (const auto& row : rows) {
      const auto make = [&](ct::runtime&, sim::node_id home) {
        // A reconfigurable lock pinned to the configuration (no monitor /
        // policy feedback, exactly like an adaptive lock between adaptations).
        return std::make_unique<locks::reconfigurable_lock>(
            home, locks::lock_cost_model::butterfly_cthreads(), row.policy);
      };
      const double local = time_cycle_us(make, false);
      const double remote = time_cycle_us(make, true);
      if (!record) continue;
      r.metrics.push_back({std::string("cycle_") + row.name + "_local_us", "us", kVirtual, local});
      r.metrics.push_back({std::string("cycle_") + row.name + "_remote_us", "us", kVirtual, remote});
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Table 8: configuration-operation costs (Ψ machinery).
// ---------------------------------------------------------------------------

double time_config_acquisition(bool remote) {
  ct::runtime rt(sim::machine_config::butterfly_gp1000());
  locks::reconfigurable_lock lk(remote ? 7 : 0,
                                locks::lock_cost_model::butterfly_cthreads());
  double us = 0;
  rt.fork(0, [&](ct::context& ctx) -> ct::task<void> {
    const auto t0 = ctx.now();
    (void)co_await lk.acquire_attribute(ctx, "spin-time", 1);
    us = (ctx.now() - t0).us();
  });
  rt.run_all();
  return us;
}

double time_config_policy(bool remote) {
  ct::runtime rt(sim::machine_config::butterfly_gp1000());
  locks::reconfigurable_lock lk(remote ? 7 : 0,
                                locks::lock_cost_model::butterfly_cthreads());
  double us = 0;
  rt.fork(0, [&](ct::context& ctx) -> ct::task<void> {
    const auto t0 = ctx.now();
    co_await lk.configure_waiting_policy(ctx, locks::waiting_policy::pure_spin(16));
    us = (ctx.now() - t0).us();
  });
  rt.run_all();
  return us;
}

double time_config_scheduler(bool remote) {
  ct::runtime rt(sim::machine_config::butterfly_gp1000());
  locks::reconfigurable_lock lk(remote ? 7 : 0,
                                locks::lock_cost_model::butterfly_cthreads());
  double us = 0;
  rt.fork(0, [&](ct::context& ctx) -> ct::task<void> {
    const auto t0 = ctx.now();
    co_await lk.configure_scheduler(ctx, std::make_unique<locks::priority_scheduler>());
    us = (ctx.now() - t0).us();
  });
  rt.run_all();
  return us;
}

scenario_result run_config_ops() {
  constexpr int kInner = 8;
  scenario_result r;
  for (int i = 0; i < kInner; ++i) {
    const bool record = i == 0;
    const double acq_l = time_config_acquisition(false);
    const double acq_r = time_config_acquisition(true);
    const double pol_l = time_config_policy(false);
    const double pol_r = time_config_policy(true);
    const double sch_l = time_config_scheduler(false);
    const double sch_r = time_config_scheduler(true);
    if (!record) continue;
    r.metrics.push_back({"acquisition_local_us", "us", kVirtual, acq_l});
    r.metrics.push_back({"acquisition_remote_us", "us", kVirtual, acq_r});
    r.metrics.push_back({"configure_policy_local_us", "us", kVirtual, pol_l});
    r.metrics.push_back({"configure_policy_remote_us", "us", kVirtual, pol_r});
    r.metrics.push_back({"configure_scheduler_local_us", "us", kVirtual, sch_l});
    r.metrics.push_back({"configure_scheduler_remote_us", "us", kVirtual, sch_r});
  }
  return r;
}

// ---------------------------------------------------------------------------
// Figure 1: critical-section-length sweep (reduced grid).
// ---------------------------------------------------------------------------

scenario_result run_fig1_cs_sweep() {
  const double cs_lengths_us[] = {10, 100, 800};
  const struct {
    const char* name;
    locks::lock_kind kind;
    std::int64_t spin_limit;
  } cols[] = {
      {"blocking", locks::lock_kind::blocking, 0},
      {"combined10", locks::lock_kind::combined, 10},
      {"adaptive", locks::lock_kind::adaptive, 0},
  };
  scenario_result r;
  double total_ms = 0;
  double total_blocks = 0;
  for (const auto& col : cols) {
    double col_ms = 0;
    for (const double cs : cs_lengths_us) {
      workload::cs_config cfg;
      cfg.processors = 6;
      cfg.threads = 12;
      cfg.iterations = 60;
      cfg.cs_length = sim::microseconds(cs);
      cfg.think_time = sim::microseconds(3 * cs + 100);
      cfg.kind = col.kind;
      cfg.params.combined_spin_limit = col.spin_limit;
      // Multiprogramming-appropriate adaptation constants (as in the bench).
      cfg.params.adapt = {2, 25, 50, 2};
      const auto res = run_cs_workload(cfg);
      col_ms += res.elapsed.ms();
      total_blocks += static_cast<double>(res.blocks);
    }
    total_ms += col_ms;
    r.metrics.push_back({std::string(col.name) + "_virtual_ms", "ms", kVirtual, col_ms});
  }
  r.metrics.push_back({"total_virtual_ms", "ms", kVirtual, total_ms});
  r.metrics.push_back({"total_blocks", "count", kVirtual, total_blocks});
  return r;
}

// ---------------------------------------------------------------------------
// Figures 4-9: TSP locking patterns (one recorded solve each).
// ---------------------------------------------------------------------------

scenario_result run_pattern_figure(tsp::variant v, bool qlock) {
  auto cfg = tsp_cfg(v, locks::lock_kind::blocking, 10);
  cfg.record_patterns = true;
  const auto inst = tsp::instance::random_asymmetric(20, 9001);
  const auto res = tsp::solve_parallel(inst, cfg);
  const auto& report = qlock ? res.lock_reports[0] : res.lock_reports[2];

  scenario_result r;
  r.metrics.push_back({"elapsed_virtual_ms", "ms", kVirtual, res.elapsed.ms()});
  r.metrics.push_back({"expansions", "count", kVirtual,
                       static_cast<double>(res.expansions)});
  r.metrics.push_back({"lock_requests", "count", kVirtual,
                       static_cast<double>(report.requests)});
  r.metrics.push_back({"contended_frac", "frac", kVirtual, report.contention_ratio});
  r.metrics.push_back({"peak_waiting", "count", kVirtual,
                       static_cast<double>(report.peak_waiting)});
  return r;
}

// ---------------------------------------------------------------------------
// Extension: spin vs. blocking by threads-per-processor (reduced).
// ---------------------------------------------------------------------------

scenario_result run_ext_spin_vs_block() {
  scenario_result r;
  const struct {
    unsigned threads;
    unsigned procs;
    const char* tag;
  } shapes[] = {{6, 6, "1x"}, {12, 6, "2x"}, {18, 6, "3x"}};
  for (const auto& s : shapes) {
    workload::cs_config base;
    base.processors = s.procs;
    base.threads = s.threads;
    base.iterations = 60;
    base.cs_length = sim::microseconds(100);
    base.think_time = sim::microseconds(300);
    if (s.threads <= s.procs) {
      auto c = base;
      c.kind = locks::lock_kind::spin;
      r.metrics.push_back({std::string("spin_") + s.tag + "_virtual_ms", "ms", kVirtual,
                           run_cs_workload(c).elapsed.ms()});
    }
    auto cc = base;
    cc.kind = locks::lock_kind::combined;
    cc.params.combined_spin_limit = 25;
    r.metrics.push_back({std::string("combined25_") + s.tag + "_virtual_ms", "ms", kVirtual,
                         run_cs_workload(cc).elapsed.ms()});
    auto cb = base;
    cb.kind = locks::lock_kind::blocking;
    r.metrics.push_back({std::string("blocking_") + s.tag + "_virtual_ms", "ms", kVirtual,
                         run_cs_workload(cb).elapsed.ms()});
  }
  return r;
}

// ---------------------------------------------------------------------------
// Ablation: constant-wire vs. staged-butterfly interconnect (reduced).
// ---------------------------------------------------------------------------

scenario_result run_abl_interconnect() {
  scenario_result r;
  for (const bool staged : {false, true}) {
    for (const auto kind : {locks::lock_kind::spin, locks::lock_kind::adaptive}) {
      workload::cs_config cfg;
      cfg.processors = 10;
      cfg.threads = 10;
      cfg.iterations = 60;
      cfg.cs_length = sim::microseconds(60);
      cfg.think_time = sim::microseconds(150);
      cfg.kind = kind;
      cfg.params.adapt = {12, 20, 400, 2};
      if (staged) cfg.machine.wire_model = sim::interconnect_model::butterfly;
      const auto res = run_cs_workload(cfg);
      r.metrics.push_back({std::string(staged ? "butterfly_" : "constant_") +
                               locks::to_string(kind) + "_virtual_ms",
                           "ms", kVirtual, res.elapsed.ms()});
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Ablation: simple-adapt constants sweep (reduced grid).
// ---------------------------------------------------------------------------

scenario_result run_abl_threshold() {
  constexpr unsigned kCities = 14;
  const auto inst = tsp::instance::random_asymmetric(kCities, 9001);
  scenario_result r;
  {
    auto cfg = tsp_cfg(tsp::variant::centralized, locks::lock_kind::blocking, 10);
    const auto res = tsp::solve_parallel(inst, cfg);
    r.metrics.push_back({"blocking_baseline_virtual_ms", "ms", kVirtual, res.elapsed.ms()});
  }
  for (const std::int64_t threshold : {1, 12}) {
    for (const std::int64_t n : {5, 20}) {
      auto cfg = tsp_cfg(tsp::variant::centralized, locks::lock_kind::adaptive, 10);
      cfg.run.params.adapt.waiting_threshold = threshold;
      cfg.run.params.adapt.n = n;
      const auto res = tsp::solve_parallel(inst, cfg);
      r.metrics.push_back({"t" + std::to_string(threshold) + "_n" + std::to_string(n) +
                               "_virtual_ms",
                           "ms", kVirtual, res.elapsed.ms()});
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Ablation: adaptation-policy sweep over the Figure 1 grid.
// ---------------------------------------------------------------------------

scenario_result run_abl_policy() {
  const double cs_lengths_us[] = {10, 100, 800};
  // The registered policy family plus one wrapped variant; the empty spec is
  // the built-in simple-adapt loop (the plain-adaptive reference column).
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
// Ablation: sync vs async policy execution (src/policy/runtime). The async
// rows queue observations at the feedback point (zero inline policy cost)
// and a daemon on a spare processor drains them periodically; all metrics
// are virtual-clock and therefore gated exactly.
// ---------------------------------------------------------------------------

scenario_result run_abl_async_policy() {
  const double cs_lengths_us[] = {10, 100, 800};
  const struct {
    const char* tag;
    bool async;
  } cols[] = {{"sync", false}, {"async", true}};
  scenario_result r;
  for (const auto& col : cols) {
    double col_ms = 0;
    std::uint64_t ticks = 0;
    std::uint64_t pumped = 0;
    for (const double cs : cs_lengths_us) {
      workload::cs_config cfg;
      cfg.processors = 6;
      cfg.threads = 12;
      cfg.iterations = 60;
      cfg.cs_length = sim::microseconds(cs);
      cfg.think_time = sim::microseconds(3 * cs + 100);
      cfg.kind = locks::lock_kind::adaptive;
      cfg.params.adapt = {2, 25, 50, 2};
      cfg.params.policy = policy::default_spec("break-even");
      if (col.async) cfg.params.policy.with_async();
      const auto res = run_cs_workload(cfg);
      col_ms += res.elapsed.ms();
      ticks += res.policy_ticks;
      pumped += res.policy_pumped;
    }
    r.metrics.push_back({std::string(col.tag) + "_total_virtual_ms", "ms", kVirtual,
                         col_ms});
    if (col.async) {
      r.metrics.push_back({"async_daemon_ticks", "count", kVirtual,
                           static_cast<double>(ticks)});
      r.metrics.push_back({"async_pumped", "count", kVirtual,
                           static_cast<double>(pumped)});
    }
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
      run_ct_sharded_cs);
  add("bench_serve_ct_fat4096",
      "ct serving on the 4096-node fat-tree preset, 64 federated runtimes",
      run_serve_ct_fat4096);
  add("bench_table1_tsp_central", "Table 1: centralized TSP, blocking vs adaptive",
      [] { return run_tsp_scenario(tsp::variant::centralized); });
  add("bench_table2_tsp_dist", "Table 2: distributed TSP, blocking vs adaptive",
      [] { return run_tsp_scenario(tsp::variant::distributed); });
  add("bench_table3_tsp_distlb", "Table 3: distributed+LB TSP, blocking vs adaptive",
      [] { return run_tsp_scenario(tsp::variant::distributed_lb); });
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
