#include "workload/open_loop.hpp"

#include <cmath>
#include <deque>
#include <memory>
#include <stdexcept>

#include "obs/log_histogram.hpp"
#include "sim/event_domain.hpp"
#include "sim/rng.hpp"

namespace adx::workload {
namespace {

std::int64_t draw_ns(sim::rng& gen, double mean_us) {
  const double v = gen.exponential(mean_us) * 1000.0;
  return v < 1.0 ? 1 : static_cast<std::int64_t>(std::llround(v));
}

/// One in-flight request: when it arrived (client clock) and its service
/// demand, both fixed at the arrival draw so they are independent of lock
/// dynamics and shard count.
struct request {
  sim::vtime arrival;
  std::int64_t cs_ns;
};

struct lock_state {
  bool busy = false;
  std::deque<request> waiters;
};

/// Per-group service side: the lock-guarded objects and the latency record.
/// All fields are touched only by the group's events, which execute
/// sequentially on the group's shard — the shard discipline TSan polices.
struct group_state {
  std::vector<lock_state> locks;
  obs::log_histogram latency;
  std::uint64_t completed = 0;
  std::uint64_t grants_spin = 0;
  std::uint64_t grants_block = 0;
};

/// Per-group client side: the arrival process. Its draws come from the
/// group's domain stream, a pure function of (seed, group) — re-sharding
/// cannot reorder them.
struct client_state {
  std::uint64_t remaining = 0;
  std::uint64_t origin_counter = 0;
  std::uint64_t remote_requests = 0;
};

class engine {
 public:
  engine(const open_loop_config& cfg)
      : cfg_(cfg),
        dom_(sim::make_event_domain(cfg.machine, {.shards = cfg.shards, .seed = cfg.seed})) {
    if (cfg.locks_per_group == 0) {
      throw std::invalid_argument("open_loop: locks_per_group must be > 0");
    }
    if (cfg.requests_per_group == 0) {
      throw std::invalid_argument("open_loop: requests_per_group must be > 0");
    }
    if (cfg.mean_interarrival_us <= 0.0 || cfg.mean_service_us <= 0.0) {
      throw std::invalid_argument("open_loop: means must be positive");
    }
    const unsigned n = cfg.machine.groups();
    groups_.resize(n);
    clients_.resize(n);
    for (unsigned g = 0; g < n; ++g) {
      groups_[g].locks.resize(cfg.locks_per_group);
      clients_[g].remaining = cfg.requests_per_group;
      const auto first =
          sim::vtime{} + sim::vdur{draw_interarrival(dom_->stream(g), sim::vtime{})};
      dom_->queue_of(g).schedule_at(first, [this, g, first] { arrival(g, first); });
    }
  }

  open_loop_result run(exec::job_executor* ex) {
    dom_->run(ex);
    open_loop_result r;
    obs::log_histogram merged;
    for (const auto& g : groups_) {
      merged.merge(g.latency);
      r.completed += g.completed;
      r.grants_spin += g.grants_spin;
      r.grants_block += g.grants_block;
    }
    for (const auto& c : clients_) r.remote_requests += c.remote_requests;
    r.elapsed = dom_->now();
    r.p50_ns = merged.p50();
    r.p99_ns = merged.p99();
    r.p999_ns = merged.p999();
    r.max_ns = merged.max();
    r.mean_ns = merged.mean();
    const auto stats = dom_->stats();
    r.windows = stats.windows;
    r.cross_sends = stats.cross_sends;
    if (r.elapsed.ns > 0) {
      r.throughput =
          static_cast<double>(r.completed) / (static_cast<double>(r.elapsed.ns) * 1e-9);
    }
    return r;
  }

 private:
  /// Interarrival draw with the square-wave burst modulation applied at the
  /// draw's start time.
  std::int64_t draw_interarrival(sim::rng& gen, sim::vtime at) {
    double mean = cfg_.mean_interarrival_us;
    if (cfg_.bursty) {
      const auto period = static_cast<std::int64_t>(cfg_.burst_period_us * 1000.0);
      if (period > 0 && (at.ns / period) % 2 == 0) mean /= cfg_.burst_mult;
    }
    return draw_ns(gen, mean);
  }

  /// One client arrival on group `g` at time `t`: route the request, then
  /// schedule the next arrival — one pending arrival per group keeps the
  /// heap O(groups) instead of O(total requests).
  void arrival(unsigned g, sim::vtime t) {
    auto& c = clients_[g];
    auto& gen = dom_->stream(g);
    const bool remote = groups_.size() > 1 && gen.uniform01() < cfg_.remote_ratio;
    const auto target_off = remote ? 1 + gen.below(groups_.size() - 1) : 0;
    const unsigned lock = static_cast<unsigned>(gen.below(cfg_.locks_per_group));
    const request req{t, draw_ns(gen, cfg_.mean_service_us)};
    if (remote) {
      const unsigned h = static_cast<unsigned>((g + target_off) % groups_.size());
      // Transit == lookahead: the send lands exactly at the horizon — the
      // legal boundary of the conservative contract. The origin tag never
      // mentions a shard index, so the barrier merge order is invariant
      // under re-sharding.
      const std::uint64_t origin =
          (static_cast<std::uint64_t>(g) << 32) | c.origin_counter++;
      ++c.remote_requests;
      const sim::vtime deliver = t + dom_->lookahead();
      dom_->send(g, h, deliver, origin,
                 [this, h, lock, req, deliver] { arrive(h, lock, req, deliver); });
    } else {
      arrive(g, lock, req, t);
    }
    if (--c.remaining > 0) {
      const sim::vtime next = t + sim::vdur{draw_interarrival(gen, t)};
      dom_->queue_of(g).schedule_at(next, [this, g, next] { arrival(g, next); });
    }
  }

  void arrive(unsigned g, unsigned lock, request req, sim::vtime now) {
    auto& l = groups_[g].locks[lock];
    if (l.busy) {
      l.waiters.push_back(req);
    } else {
      grant(g, lock, req, now, 0);
    }
  }

  /// Whether this grant hands off in spin mode. `depth` is the queue depth
  /// at grant time (0 = uncontended arrival).
  [[nodiscard]] bool spin_grant(std::size_t depth) const {
    switch (cfg_.kind) {
      case locks::lock_kind::blocking:
        return false;
      case locks::lock_kind::combined:
        return static_cast<std::int64_t>(depth) <= cfg_.params.combined_spin_limit;
      case locks::lock_kind::advisory:
      case locks::lock_kind::reconfigurable:
      case locks::lock_kind::adaptive:
        return static_cast<std::int64_t>(depth) <= cfg_.params.adapt.waiting_threshold;
      default:
        return true;  // atomior / spin / backoff / ticket / mcs
    }
  }

  /// Starts service for `req` on (g, lock) at `now`; `depth` is the waiter
  /// count at grant (pricing input). All costs are integer-ns functions of
  /// (kind, cost model, machine, depth) — byte-stable by construction.
  void grant(unsigned g, unsigned lock, request req, sim::vtime now, std::size_t depth) {
    auto& gs = groups_[g];
    gs.locks[lock].busy = true;
    const bool spin = spin_grant(depth);
    std::int64_t pre = 0;
    if (spin) {
      pre = (cfg_.cost.spin_lock_overhead + cfg_.cost.spin_unlock_overhead).ns;
      if (depth > 0) pre += cfg_.cost.spin_pause.ns;  // handoff: one poll period
      if (cfg_.kind == locks::lock_kind::backoff && depth > 0) {
        pre += cfg_.cost.backoff_quantum.ns / 2;  // expected residual backoff
      }
      if (cfg_.kind == locks::lock_kind::mcs) {
        pre += cfg_.machine.mem_service.ns;  // enqueue the queue node
      }
    } else {
      pre = (cfg_.cost.blocking_lock_overhead + cfg_.cost.blocking_unlock_overhead).ns;
      if (depth > 0) {
        pre += (cfg_.machine.context_switch + cfg_.machine.dispatch_latency).ns;
      }
    }
    if (cfg_.kind == locks::lock_kind::adaptive ||
        cfg_.kind == locks::lock_kind::reconfigurable) {
      pre += cfg_.cost.adaptive_unlock_check.ns;
    }
    // Spin hot-spot tax: every still-waiting spinner fires one RMW at the
    // lock word's module per spin_pause, and the module services one access
    // at a time — so the holder's critical section stretches by
    // waiters x (cs / pause) x service. This is the §2 mechanism that makes
    // spinning collapse under deep queues (slower CS -> deeper queue).
    std::int64_t tax = 0;
    if (spin && depth > 0) {
      const std::int64_t hammer = cfg_.kind == locks::lock_kind::mcs
                                      ? 0  // local spinning: no module traffic
                                      : cfg_.kind == locks::lock_kind::ticket
                                            ? cfg_.machine.mem_service.ns  // polling reads
                                            : cfg_.machine.atomic_service.ns;
      tax = req.cs_ns * static_cast<std::int64_t>(depth) * hammer / cfg_.cost.spin_pause.ns;
    }
    const sim::vtime end = now + sim::vdur{pre + tax + req.cs_ns};
    const sim::vtime arrival = req.arrival;
    dom_->queue_of(g).schedule_at(end, [this, g, lock, arrival, spin, end] {
      complete(g, lock, arrival, spin, end);
    });
  }

  void complete(unsigned g, unsigned lock, sim::vtime arrival, bool spin, sim::vtime now) {
    auto& gs = groups_[g];
    gs.latency.add(static_cast<std::uint64_t>((now - arrival).ns));
    ++gs.completed;
    ++(spin ? gs.grants_spin : gs.grants_block);
    auto& l = gs.locks[lock];
    l.busy = false;
    if (!l.waiters.empty()) {
      const std::size_t depth = l.waiters.size();
      const request next = l.waiters.front();
      l.waiters.pop_front();
      grant(g, lock, next, now, depth);
    }
  }

  open_loop_config cfg_;
  std::unique_ptr<sim::event_domain> dom_;
  std::vector<group_state> groups_;
  std::vector<client_state> clients_;
};

}  // namespace

open_loop_result run_open_loop(const open_loop_config& cfg, exec::job_executor* ex) {
  return engine(cfg).run(ex);
}

std::vector<open_loop_result> run_open_loop_sweep(
    const std::vector<open_loop_config>& configs, exec::job_executor& ex) {
  return ex.map(configs.size(), [&](std::size_t i) { return run_open_loop(configs[i]); });
}

}  // namespace adx::workload
