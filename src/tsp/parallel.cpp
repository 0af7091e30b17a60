#include "tsp/parallel.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "ct/context.hpp"
#include "ct/runtime.hpp"

namespace adx::tsp {

const char* to_string(variant v) {
  switch (v) {
    case variant::centralized: return "centralized";
    case variant::distributed: return "distributed";
    case variant::distributed_lb: return "distributed-lb";
  }
  return "?";
}

namespace {

/// Number of queue-record words touched inside a qlock critical section
/// (pointer, bound key, list links — the node payload itself stays where it
/// was allocated and is charged when the matrix is actually read).
constexpr std::uint64_t kQueueRecordWords = 12;

/// The whole shared state of one parallel run.
struct tsp_sim {
  const instance& inst;
  const parallel_config& cfg;
  ct::runtime rt;

  unsigned P;
  unsigned nshards;

  // The steps of every node of the search, written by the seeder and all
  // searchers; declared before the queues, whose nodes point into it.
  step_arena steps;

  // Work-queue shards and their locks ("qlock").
  std::vector<node_queue> shards;
  std::vector<std::unique_ptr<ct::svar<std::int64_t>>> shard_size;
  std::vector<std::unique_ptr<locks::lock_object>> qlocks;

  // Best-tour value: one copy (centralized) or one per processor, each with
  // its own "glob-low-lock".
  std::vector<std::unique_ptr<ct::svar<std::int64_t>>> best_val;
  std::vector<std::unique_ptr<locks::lock_object>> low_locks;

  // Active-searcher count under "glob-act-lock"; global done flag and the
  // best tour's order under "globlock".
  ct::svar<std::int64_t> active;
  std::unique_ptr<locks::lock_object> act_lock;
  ct::svar<std::uint64_t> done;
  std::unique_ptr<locks::lock_object> glob_lock;
  ct::svar<std::int64_t> pending;  ///< total queued subproblems (atomic ctr)

  tour best_tour;  ///< order of the global best (guarded by globlock)

  // Aggregate counters (bookkeeping; mutated inside atomic windows only).
  std::uint64_t expansions{0};
  std::uint64_t pruned_pops{0};
  std::uint64_t steals{0};
  std::uint64_t total_ops{0};

  sim::trace qlock_pattern{"qlock"};
  sim::trace act_pattern{"glob-act-lock"};

  tsp_sim(const instance& in, const parallel_config& c)
      : inst(in),
        cfg(c),
        rt(c.run.effective_machine()),
        P(c.processors),
        nshards(c.impl == variant::centralized ? 1 : c.processors),
        active(0, static_cast<std::int64_t>(c.processors)),
        done(0, 0),
        pending(0, 0) {
    if (P == 0 || P > c.run.machine.nodes) {
      throw std::invalid_argument("tsp: processors out of range for machine");
    }
    if (c.data_word_divisor == 0) {
      throw std::invalid_argument("tsp: data_word_divisor must be > 0");
    }
    if (!std::isfinite(c.per_op_us) || c.per_op_us < 0) {
      throw std::invalid_argument("tsp: per_op_us must be finite and >= 0");
    }
    shards.resize(nshards);
    for (unsigned s = 0; s < nshards; ++s) {
      const sim::node_id home = shard_home(s);
      shard_size.push_back(std::make_unique<ct::svar<std::int64_t>>(home, 0));
      qlocks.push_back(locks::make_lock(cfg.run, home, cfg.cost));
    }
    const unsigned nbest = cfg.impl == variant::centralized ? 1 : P;
    for (unsigned b = 0; b < nbest; ++b) {
      const sim::node_id home = cfg.impl == variant::centralized ? 0 : b;
      best_val.push_back(std::make_unique<ct::svar<std::int64_t>>(home, kInfBound));
      low_locks.push_back(locks::make_lock(cfg.run, home, cfg.cost));
    }
    act_lock = locks::make_lock(cfg.run, 0, cfg.cost);
    glob_lock = locks::make_lock(cfg.run, 0, cfg.cost);

    if (cfg.record_patterns) {
      for (auto& q : qlocks) q->stats().attach_pattern_trace(&qlock_pattern);
      act_lock->stats().attach_pattern_trace(&act_pattern);
    }

    if (cfg.tracer) {
      rt.attach_tracer(cfg.tracer);
      for (std::size_t i = 0; i < qlocks.size(); ++i) {
        qlocks[i]->stats().attach_tracer(
            cfg.tracer,
            qlocks.size() == 1 ? "qlock" : "qlock[" + std::to_string(i) + ']',
            static_cast<std::uint32_t>(shard_home(static_cast<unsigned>(i))));
      }
      for (std::size_t i = 0; i < low_locks.size(); ++i) {
        low_locks[i]->stats().attach_tracer(
            cfg.tracer,
            low_locks.size() == 1 ? "glob-low-lock"
                                  : "glob-low-lock[" + std::to_string(i) + ']',
            static_cast<std::uint32_t>(low_locks[i]->home()));
      }
      act_lock->stats().attach_tracer(cfg.tracer, "glob-act-lock", 0);
      glob_lock->stats().attach_tracer(cfg.tracer, "globlock", 0);
    }

    // The main thread enqueues the initial problem before forking the
    // searchers. As in practical B&B codes, the root is first expanded
    // breadth-first into a frontier of ~2P subproblems so every searcher
    // starts on a coherent piece of the global tree (shard 0 for the
    // centralized queue, round-robin across the per-processor queues).
    lmsk seeder(inst, steps);
    std::uint32_t seed_seq = 1;
    std::deque<subproblem> frontier;
    frontier.push_back(seeder.root());
    while (frontier.size() < 2 * static_cast<std::size_t>(P) && !frontier.empty()) {
      auto sp = std::move(frontier.front());
      frontier.pop_front();
      if (sp.k() <= 2) {
        frontier.push_back(std::move(sp));
        break;  // tree bottomed out before the frontier filled
      }
      auto er = seeder.expand(std::move(sp), kInfBound, seed_seq);
      if (er.completed) {
        // Degenerate tiny tree: record nothing, searchers will re-derive.
        continue;
      }
      for (auto& c : er.children) frontier.push_back(std::move(c));
      if (er.children.empty() && frontier.empty()) break;
    }
    unsigned rr = 0;
    for (auto& sp : frontier) {
      const unsigned s = rr++ % nshards;
      auto node = std::move(sp);
      node.data_home = shard_home(s);
      shards[s].push(std::move(node));
      shard_size[s]->raw() = static_cast<std::int64_t>(shards[s].size());
      pending.raw() += 1;
    }
  }

  [[nodiscard]] sim::node_id shard_home(unsigned s) const {
    return cfg.impl == variant::centralized ? 0 : s;
  }

  [[nodiscard]] unsigned my_shard(unsigned me) const {
    return cfg.impl == variant::centralized ? 0 : me;
  }

  [[nodiscard]] unsigned best_slot(unsigned me) const {
    return cfg.impl == variant::centralized ? 0 : me;
  }

  /// Charged cost of moving `words` matrix words to/from `home`, as
  /// block-transfer accesses.
  ct::task<void> charge_data(ct::context& ctx, sim::node_id home,
                             sim::access_kind kind, std::uint64_t words) {
    const auto n = std::max<std::uint64_t>(1, words / cfg.data_word_divisor);
    co_await ctx.touch(home, kind, n);
  }

  /// Pops the best node from shard `s` under its qlock; updates the shard
  /// size word and the global pending counter.
  ct::task<std::optional<subproblem>> pop_shard(ct::context& ctx, unsigned s) {
    std::optional<subproblem> sp;
    co_await qlocks[s]->lock(ctx);
    co_await ctx.touch(shard_home(s), sim::access_kind::read, kQueueRecordWords);
    // --- atomic window.
    if (!shards[s].empty()) {
      sp = shards[s].pop();
      co_await ctx.write(*shard_size[s],
                         static_cast<std::int64_t>(shards[s].size()));
      co_await ctx.fetch_add(pending, std::int64_t{-1});
    }
    co_await qlocks[s]->unlock(ctx);
    co_return sp;
  }

  /// Pushes a node onto shard `s` under its qlock. The bound-ordered insert
  /// traverses ~half the queue inside the critical section.
  ct::task<void> push_shard(ct::context& ctx, unsigned s, subproblem sp) {
    co_await qlocks[s]->lock(ctx);
    const std::uint64_t scan = 1 + shards[s].size() / 2;
    co_await ctx.touch(shard_home(s), sim::access_kind::read,
                       scan * cfg.queue_scan_entry_words);
    co_await ctx.touch(shard_home(s), sim::access_kind::write, kQueueRecordWords);
    shards[s].push(std::move(sp));
    co_await ctx.write(*shard_size[s], static_cast<std::int64_t>(shards[s].size()));
    co_await ctx.fetch_add(pending, std::int64_t{1});
    co_await qlocks[s]->unlock(ctx);
  }

  /// Gets the next unit of work per the variant's discipline; nullopt means
  /// "no work visible anywhere right now".
  ct::task<std::optional<subproblem>> get_work(ct::context& ctx, unsigned me) {
    switch (cfg.impl) {
      case variant::centralized: {
        co_return co_await pop_shard(ctx, 0);
      }
      case variant::distributed: {
        auto sp = co_await pop_shard(ctx, me);
        if (sp) co_return sp;
        // Local queue empty: take from the next non-empty queue on the ring.
        for (unsigned off = 1; off < P; ++off) {
          const unsigned j = (me + off) % P;
          const auto size = co_await ctx.read(*shard_size[j]);
          if (size <= 0) continue;
          sp = co_await pop_shard(ctx, j);
          if (sp) {
            ++steals;
            co_return sp;
          }
        }
        co_return std::nullopt;
      }
      case variant::distributed_lb: {
        // Load balancing: pull one subproblem from the next processor's
        // queue into the local queue, then take the local best.
        const unsigned nb = (me + 1) % P;
        const auto nb_size = co_await ctx.read(*shard_size[nb]);
        if (nb_size > 0) {
          auto moved = co_await pop_shard(ctx, nb);
          if (moved) {
            ++steals;
            moved->data_home = shard_home(me);
            co_await charge_data(ctx, shard_home(me), sim::access_kind::write,
                                 moved->words());
            co_await push_shard(ctx, me, std::move(*moved));
          }
        }
        auto sp = co_await pop_shard(ctx, me);
        if (sp) co_return sp;
        for (unsigned off = 2; off < P; ++off) {
          const unsigned j = (me + off) % P;
          const auto size = co_await ctx.read(*shard_size[j]);
          if (size <= 0) continue;
          sp = co_await pop_shard(ctx, j);
          if (sp) {
            ++steals;
            co_return sp;
          }
        }
        co_return std::nullopt;
      }
    }
    co_return std::nullopt;
  }

  /// Reads this searcher's view of the best tour value (its local copy in
  /// the distributed variants).
  ct::task<std::int64_t> read_best(ct::context& ctx, unsigned me) {
    co_return co_await ctx.read(*best_val[best_slot(me)]);
  }

  /// Publishes an improved tour: updates the best value under glob-low-lock
  /// (all copies, in the distributed variants) and records the order under
  /// globlock.
  ct::task<void> publish_tour(ct::context& ctx, unsigned me, const tour& t) {
    bool improved = false;
    {
      auto& lk = *low_locks[best_slot(me)];
      co_await lk.lock(ctx);
      const auto cur = co_await ctx.read(*best_val[best_slot(me)]);
      if (t.cost < cur) {
        co_await ctx.write(*best_val[best_slot(me)], t.cost);
        improved = true;
      }
      co_await lk.unlock(ctx);
    }
    if (!improved) co_return;

    if (cfg.impl != variant::centralized) {
      // Propagate the new best to every other processor's copy.
      for (unsigned j = 0; j < P; ++j) {
        if (j == best_slot(me)) continue;
        co_await low_locks[j]->lock(ctx);
        const auto cur = co_await ctx.read(*best_val[j]);
        if (t.cost < cur) co_await ctx.write(*best_val[j], t.cost);
        co_await low_locks[j]->unlock(ctx);
      }
    }
    // Record the tour order itself under the multi-purpose global lock.
    co_await glob_lock->lock(ctx);
    co_await ctx.touch(0, sim::access_kind::write,
                       static_cast<std::uint64_t>(t.order.size()) / 4 + 1);
    if (t.cost < best_tour.cost) best_tour = t;
    co_await glob_lock->unlock(ctx);
  }

  /// The searcher thread body.
  ct::task<void> searcher(ct::context& ctx, unsigned me) {
    lmsk engine(inst, steps);
    // Globally unique, deterministic child sequence ids: stride by P.
    std::uint32_t seq = 1 + me;
    const std::uint32_t stride = P;

    for (;;) {
      auto sp = co_await get_work(ctx, me);
      if (!sp) {
        const bool keep_going = co_await idle(ctx, me);
        if (!keep_going) co_return;
        continue;
      }

      const auto best = co_await read_best(ctx, me);
      if (sp->bound >= best) {
        ++pruned_pops;
        continue;
      }

      // Read the node's matrix from wherever it lives.
      co_await charge_data(ctx, sp->data_home, sim::access_kind::read, sp->words());

      // Expand (real arithmetic, charged as processor time).
      std::uint32_t scratch_seq = 0;
      auto er = engine.expand(std::move(*sp), best, scratch_seq);
      // Hand out globally unique, per-searcher-strided sequence ids.
      for (auto& child : er.children) {
        child.seq = seq;
        seq += stride;
      }
      ++expansions;
      total_ops += er.ops;
      co_await ctx.compute(sim::microseconds(cfg.per_op_us * static_cast<double>(er.ops)));

      if (er.completed && er.completed->valid()) {
        co_await publish_tour(ctx, me, *er.completed);
      }
      for (auto& child : er.children) {
        const unsigned target = my_shard(me);
        child.data_home = shard_home(target);
        co_await charge_data(ctx, child.data_home, sim::access_kind::write,
                             child.words());
        co_await push_shard(ctx, target, std::move(child));
      }
    }
  }

  /// No work visible: deactivate and poll. Returns false when the
  /// computation is globally finished (this searcher should exit).
  ct::task<bool> idle(ct::context& ctx, unsigned me) {
    co_await act_lock->lock(ctx);
    const auto a = co_await ctx.read(active);
    co_await ctx.write(active, a - 1);
    co_await act_lock->unlock(ctx);

    for (;;) {
      if (co_await ctx.read(done) != 0) co_return false;

      const auto queued = co_await ctx.read(pending);
      if (queued > 0) {
        // Work appeared: reactivate.
        co_await act_lock->lock(ctx);
        const auto a2 = co_await ctx.read(active);
        co_await ctx.write(active, a2 + 1);
        co_await act_lock->unlock(ctx);
        co_return true;
      }

      // The active-slave count is read under its mutual-exclusion lock
      // (glob-act-lock) — the polling by idle searchers is what gives this
      // lock its contention pattern (Figures 5/7/9).
      co_await act_lock->lock(ctx);
      const auto act_now = co_await ctx.read(active);
      co_await act_lock->unlock(ctx);
      if (act_now == 0) {
        // Everyone idle and nothing queued: if a tour exists, declare done.
        const auto best = co_await read_best(ctx, me);
        if (best < kInfBound) {
          co_await glob_lock->lock(ctx);
          co_await ctx.write(done, std::uint64_t{1});
          co_await glob_lock->unlock(ctx);
          co_return false;
        }
      }
      // Per-searcher jitter: identical poll cadences in a deterministic
      // simulation can lock into starvation cycles that real systems escape
      // through natural timing noise.
      co_await ctx.sleep_for(cfg.poll_interval +
                             sim::microseconds(17.0 * (me + 1)));
    }
  }
};

lock_report merge_reports(const char* name,
                          const std::vector<std::unique_ptr<locks::lock_object>>& group) {
  lock_report r;
  r.name = name;
  double wait_sum = 0.0;
  std::uint64_t wait_n = 0;
  for (const auto& lk : group) {
    const auto& s = lk->stats();
    r.requests += s.requests();
    r.contended += s.contended();
    r.peak_waiting = std::max(r.peak_waiting, s.peak_waiting());
    wait_sum += s.wait_time_us().sum();
    wait_n += s.wait_time_us().count();
  }
  r.mean_wait_us = wait_n ? wait_sum / static_cast<double>(wait_n) : 0.0;
  r.contention_ratio =
      r.requests ? static_cast<double>(r.contended) / static_cast<double>(r.requests) : 0.0;
  return r;
}

}  // namespace

parallel_result solve_parallel(const instance& inst, const parallel_config& cfg) {
  tsp_sim s(inst, cfg);

  for (unsigned p = 0; p < s.P; ++p) {
    s.rt.fork(p, [&s, p](ct::context& ctx) -> ct::task<void> {
      co_await s.searcher(ctx, p);
    });
  }
  auto run = s.rt.run(cfg.max_events);
  if (!run.completed) {
    std::ostringstream msg;
    msg << "tsp::solve_parallel did not terminate: t=" << s.rt.now().ms()
        << "ms events=" << run.events << " done=" << s.done.raw()
        << " pending=" << s.pending.raw() << " active=" << s.active.raw()
        << " expansions=" << s.expansions << "; threads:";
    for (unsigned t = 0; t < s.P; ++t) {
      msg << ' ' << t << '=' << ct::to_string(s.rt.state_of(t));
    }
    const auto lockline = [&msg](const char* n, const locks::lock_object& lk) {
      msg << "; " << n << " held=" << lk.held_raw() << " owner=" << lk.owner()
          << " waiting=" << lk.waiting_now();
    };
    lockline("qlock0", *s.qlocks[0]);
    lockline("act", *s.act_lock);
    lockline("glob", *s.glob_lock);
    lockline("low0", *s.low_locks[0]);
    throw std::runtime_error(msg.str());
  }

  parallel_result res;
  res.best = s.best_tour;
  res.elapsed = run.end_time;
  res.events = run.events;
  res.expansions = s.expansions;
  res.pruned_pops = s.pruned_pops;
  res.ops = s.total_ops;
  res.steals = s.steals;
  res.lock_reports.push_back(merge_reports("qlock", s.qlocks));
  res.lock_reports.push_back(merge_reports("glob-low-lock", s.low_locks));
  {
    std::vector<std::unique_ptr<locks::lock_object>> one;
    one.push_back(std::move(s.act_lock));
    res.lock_reports.push_back(merge_reports("glob-act-lock", one));
    one.clear();
    one.push_back(std::move(s.glob_lock));
    res.lock_reports.push_back(merge_reports("globlock", one));
  }
  res.qlock_pattern = std::move(s.qlock_pattern);
  res.act_pattern = std::move(s.act_pattern);
  return res;
}

}  // namespace adx::tsp
