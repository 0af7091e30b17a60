#include "workload/sharded_cs.hpp"

#include <deque>
#include <memory>
#include <stdexcept>

#include "ct/context.hpp"
#include "ct/federation.hpp"
#include "obs/log_histogram.hpp"
#include "policy/fed_coordinator.hpp"
#include "policy/runtime.hpp"

namespace adx::workload {

namespace {

struct echo_request {
  unsigned from_group;
  ct::thread_id client;
};

/// Per-group native state. Only events on the group's own shard touch it
/// (clients, the server, and delivered cross-group callbacks all execute
/// there), so parallel windows never race.
struct group_state {
  std::deque<echo_request> box;
  bool server_blocked = false;
  std::uint64_t served = 0;
  std::uint64_t expected = 0;
  ct::thread_id server_tid = ct::invalid_thread;
  obs::log_histogram rtt;  ///< echo round-trips, ns
};

}  // namespace

sharded_cs_result run_sharded_cs(const sharded_cs_config& cfg,
                                 exec::job_executor* ex) {
  if (cfg.threads_per_group == 0) {
    throw std::invalid_argument("sharded_cs: need threads");
  }
  if (cfg.machine.wire_model == sim::interconnect_model::butterfly) {
    throw std::invalid_argument("sharded_cs: butterfly model cannot federate");
  }

  auto dom = sim::make_event_domain(cfg.machine, {.shards = cfg.shards, .seed = cfg.seed});
  ct::federation fed(cfg.machine, *dom);
  const unsigned G = fed.groups();

  std::vector<group_state> groups(G);
  std::vector<std::unique_ptr<locks::lock_object>> lk(G);
  std::vector<std::unique_ptr<policy::async_runtime>> art(G);
  policy::fed_coordinator coord(fed);

  const std::uint64_t echoes_per_thread =
      (G > 1 && cfg.remote_every > 0) ? cfg.iterations / cfg.remote_every : 0;

  // Pre-draw think-time jitter host-side in (group, thread, iteration) order
  // from one stream, so neither sharding nor scheduling perturbs the draws.
  sim::rng jr(cfg.seed);
  std::vector<std::vector<double>> jitter(static_cast<std::size_t>(G) *
                                          cfg.threads_per_group);
  for (auto& v : jitter) {
    v.reserve(cfg.iterations);
    for (std::uint64_t i = 0; i < cfg.iterations; ++i) {
      v.push_back(1.0 + cfg.think_jitter * (2.0 * jr.uniform01() - 1.0));
    }
  }

  for (unsigned g = 0; g < G; ++g) {
    auto& gs = groups[g];
    gs.expected = cfg.threads_per_group * echoes_per_thread;

    // The group's lock lives on its first local node and is place-bound:
    // only this group's threads may operate it natively.
    lk[g] = locks::make_lock(cfg.kind, 0, cfg.cost, cfg.params);
    lk[g]->bind_place(g);

    auto& rt = fed.group_runtime(g);
    const unsigned gn = rt.processors();
    const ct::proc_id server_proc = gn - 1;
    const unsigned client_procs = gn > 1 ? gn - 1 : 1;

    // Clients.
    for (unsigned t = 0; t < cfg.threads_per_group; ++t) {
      const ct::proc_id proc = t % client_procs;
      auto* jit = &jitter[static_cast<std::size_t>(g) * cfg.threads_per_group + t];
      const bool oversub = cfg.threads_per_group > client_procs;
      rt.fork(proc, [&cfg, &fed, &groups, &lk, g, G, jit, oversub](ct::context& ctx)
                  -> ct::task<void> {
        for (std::uint64_t i = 0; i < cfg.iterations; ++i) {
          co_await lk[g]->lock(ctx);
          co_await ctx.compute(cfg.cs_length);
          co_await lk[g]->unlock(ctx);
          if (G > 1 && cfg.remote_every > 0 && (i + 1) % cfg.remote_every == 0) {
            const unsigned dest = (g + 1) % G;
            const auto t0 = ctx.now();
            const auto self = ctx.self();
            // The post and the block happen inside one event, so the reply
            // (at least one lookahead away) can never beat the suspension.
            fed.post(g, dest, [&fed, &groups, dest, g, self] {
              auto& ds = groups[dest];
              ds.box.push_back({g, self});
              if (ds.server_blocked) {
                fed.group_runtime(dest).unblock(ds.server_tid);
              }
            });
            co_await ctx.block();
            groups[g].rtt.add(static_cast<std::uint64_t>((ctx.now() - t0).ns));
          }
          const auto think = sim::nanoseconds(static_cast<std::int64_t>(
              static_cast<double>(cfg.think_time.ns) * (*jit)[i]));
          if (oversub) {
            co_await ctx.sleep_for(think);
          } else {
            co_await ctx.compute(think);
          }
        }
      });
    }

    // Echo server (skipped when no cross-group traffic can arrive).
    if (gs.expected > 0) {
      gs.server_tid = rt.fork(
          server_proc,
          [&cfg, &fed, &groups, &lk, g](ct::context& ctx) -> ct::task<void> {
            auto& gs = groups[g];
            while (gs.served < gs.expected) {
              if (gs.box.empty()) {
                gs.server_blocked = true;
                co_await ctx.block();
                gs.server_blocked = false;
                continue;
              }
              const auto req = gs.box.front();
              gs.box.pop_front();
              co_await lk[g]->lock(ctx);
              co_await ctx.compute(cfg.server_service);
              co_await lk[g]->unlock(ctx);
              ++gs.served;
              fed.post_unblock(g, {req.from_group, req.client});
            }
          },
          /*priority=*/10);
    }

    // Per-group policy daemon (registers only for async-mode specs); the
    // cross-shard coordinator owns idle decisions when enrolled.
    const ct::proc_id daemon_proc = gn >= 2 ? gn - 2 : 0;
    art[g] = std::make_unique<policy::async_runtime>(policy::runtime_config{
        .period = sim::microseconds(
            static_cast<double>(cfg.params.policy.period_us)),
        .proc = daemon_proc,
        .coord = {},
    });
    art[g]->adopt_lock(*lk[g], cfg.params, cfg.cost);
    if (cfg.coordinate) coord.attach(g, *art[g]);
    art[g]->start(rt);
  }

  const auto run = fed.run_all(ex, cfg.max_events);

  sharded_cs_result res;
  res.elapsed = run.end_time;
  res.completed = run.completed;
  res.group_acquisitions.reserve(G);
  obs::log_histogram rtt_all;
  for (unsigned g = 0; g < G; ++g) {
    const auto& s = lk[g]->stats();
    res.group_acquisitions.push_back(s.acquisitions());
    res.acquisitions += s.acquisitions();
    res.contended += s.contended();
    res.blocks += s.blocks();
    res.spin_iterations += s.spin_iterations();
    res.policy_ticks += art[g]->ticks();
    res.policy_pumped += art[g]->pumped();
    res.echoes += groups[g].rtt.count();
    rtt_all.merge(groups[g].rtt);
  }
  res.echo_rtt_mean_us = rtt_all.mean() / 1e3;
  res.echo_rtt_p99_us = static_cast<double>(rtt_all.p99()) / 1e3;
  res.posts = fed.posts();
  res.coord_reports = coord.reports();
  res.coord_demotions = coord.demotions_issued();
  res.domain = dom->stats();
  const double secs = static_cast<double>(res.elapsed.ns) / 1e9;
  res.throughput = secs > 0 ? static_cast<double>(res.acquisitions) / secs : 0.0;
  return res;
}

}  // namespace adx::workload
