#include "workload/ct_serve.hpp"

#include <cmath>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>

#include "ct/context.hpp"
#include "ct/federation.hpp"
#include "obs/log_histogram.hpp"

namespace adx::workload {

namespace {

/// Length of one burst half-wave: arrivals run at burst_mult times the rate
/// in every even period and at the base rate in every odd one.
constexpr sim::vdur kBurstPeriod = sim::milliseconds(30);

/// Per-group native state; touched only by events on the group's own shard.
struct group_state {
  std::deque<sim::vtime> box;        ///< pending requests (arrival times)
  std::deque<ct::thread_id> parked;  ///< blocked servers, FIFO wake order
  bool stop = false;
  std::uint64_t generated = 0;
  std::uint64_t served = 0;
  std::uint64_t remote_out = 0;
  obs::log_histogram latency;  ///< arrival-to-completion, ns
};

}  // namespace

ct_serve_result run_ct_serve(const ct_serve_config& cfg, exec::job_executor* ex) {
  if (cfg.servers_per_group == 0) {
    throw std::invalid_argument("ct_serve: need servers");
  }
  if (cfg.machine.wire_model == sim::interconnect_model::butterfly) {
    throw std::invalid_argument("ct_serve: butterfly model cannot federate");
  }
  if (!(cfg.burst_mult >= 1.0) || !std::isfinite(cfg.burst_mult)) {
    throw std::invalid_argument("ct_serve: burst_mult must be finite and >= 1");
  }

  // Mean interarrival for a gap drawn at `now`. Without bursts the mean is
  // used as is, so plain Poisson runs keep their exact draws.
  const auto mean_gap = [&cfg](sim::vtime now) {
    if (cfg.burst_mult == 1.0) return cfg.mean_interarrival_us;
    const bool burst = (now.ns / static_cast<std::uint64_t>(kBurstPeriod.ns)) % 2 == 0;
    return burst ? cfg.mean_interarrival_us / cfg.burst_mult : cfg.mean_interarrival_us;
  };

  auto dom = sim::make_event_domain(
      cfg.machine, {.shards = cfg.shards,
                    .seed = cfg.seed,
                    .adaptive_lookahead = cfg.adaptive_lookahead,
                    .max_widen = cfg.max_widen});
  ct::federation fed(cfg.machine, *dom);
  const unsigned G = fed.groups();

  std::vector<group_state> groups(G);
  std::vector<std::unique_ptr<locks::lock_object>> lk(G);
  unsigned sources_done = 0;  // hub (group-0 shard) only

  // Delivery to a group's mailbox: push and wake one parked server. Runs on
  // the destination's shard (directly for local arrivals, via post for
  // remote ones).
  auto deliver = [&](unsigned dest) {
    auto& ds = groups[dest];
    ds.box.push_back(dom->queue_of(dest).now());
    if (!ds.parked.empty()) {
      const auto tid = ds.parked.front();
      ds.parked.pop_front();
      fed.group_runtime(dest).unblock(tid);
    }
  };

  // The per-group arrival chain: each event draws this arrival's routing and
  // the next interarrival gap from the group's own domain stream — a single
  // sequential chain per place, so the draw order is shard-invariant.
  std::vector<std::function<void()>> chain(G);
  for (unsigned g = 0; g < G; ++g) {
    chain[g] = [&, g] {
      auto& gs = groups[g];
      auto& q = dom->queue_of(g);
      if (gs.generated == cfg.requests_per_group) {
        fed.post(g, 0, [&fed, &groups, &sources_done, G] {
          if (++sources_done < G) return;
          for (unsigned h = 0; h < G; ++h) {
            fed.post(0, h, [&fed, &groups, h] {
              auto& hs = groups[h];
              hs.stop = true;
              while (!hs.parked.empty()) {
                fed.group_runtime(h).unblock(hs.parked.front());
                hs.parked.pop_front();
              }
            });
          }
        });
        return;
      }
      ++gs.generated;
      auto& rs = dom->stream(g);
      const bool remote = G > 1 && rs.uniform01() < cfg.remote_fraction;
      if (remote) {
        const unsigned dest =
            (g + 1 + static_cast<unsigned>(rs.below(G - 1))) % G;
        ++gs.remote_out;
        fed.post(g, dest, [&deliver, dest] { deliver(dest); });
      } else {
        deliver(g);
      }
      const double dt = rs.exponential(mean_gap(q.now()));
      q.schedule_at(q.now() + sim::microseconds(dt < 0.01 ? 0.01 : dt),
                    [&chain, g] { chain[g](); });
    };
  }

  for (unsigned g = 0; g < G; ++g) {
    lk[g] = locks::make_lock(cfg.kind, 0, cfg.cost, cfg.params);
    lk[g]->bind_place(g);

    auto& rt = fed.group_runtime(g);
    const unsigned gn = rt.processors();
    for (unsigned s = 0; s < cfg.servers_per_group; ++s) {
      rt.fork(s % gn, [&cfg, &groups, &lk, g](ct::context& ctx) -> ct::task<void> {
        auto& gs = groups[g];
        for (;;) {
          if (!gs.box.empty()) {
            const auto arrived = gs.box.front();
            gs.box.pop_front();
            co_await lk[g]->lock(ctx);
            co_await ctx.compute(cfg.service);
            co_await lk[g]->unlock(ctx);
            ++gs.served;
            gs.latency.add(static_cast<std::uint64_t>((ctx.now() - arrived).ns));
            continue;
          }
          if (gs.stop) co_return;
          gs.parked.push_back(ctx.self());
          co_await ctx.block();
        }
      });
    }

    // Kick the arrival chain: the first gap is drawn host-side in group
    // order from the group's own stream (the chain continues it in-shard).
    const double dt0 = dom->stream(g).exponential(mean_gap(sim::vtime{}));
    dom->queue_of(g).schedule_at(
        sim::vtime{} + sim::microseconds(dt0 < 0.01 ? 0.01 : dt0),
        [&chain, g] { chain[g](); });
  }

  const auto run = fed.run_all(ex, cfg.max_events);

  ct_serve_result res;
  res.elapsed = run.end_time;
  res.completed = run.completed;
  obs::log_histogram all;
  for (unsigned g = 0; g < G; ++g) {
    res.generated += groups[g].generated;
    res.served += groups[g].served;
    res.remote_requests += groups[g].remote_out;
    all.merge(groups[g].latency);
    res.acquisitions += lk[g]->stats().acquisitions();
    res.blocks += lk[g]->stats().blocks();
  }
  res.latency_mean_us = all.mean() / 1e3;
  res.latency_p50_us = static_cast<double>(all.p50()) / 1e3;
  res.latency_p99_us = static_cast<double>(all.p99()) / 1e3;
  res.latency_max_us = static_cast<double>(all.max()) / 1e3;
  res.latency = std::move(all);
  res.posts = fed.posts();
  res.domain = dom->stats();
  const double secs = static_cast<double>(res.elapsed.ns) / 1e9;
  res.throughput = secs > 0 ? static_cast<double>(res.served) / secs : 0.0;
  return res;
}

}  // namespace adx::workload
