#include "check/objects.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>

#include "objects/adaptive_hash_map.hpp"
#include "objects/adaptive_monitor.hpp"
#include "objects/objects.hpp"
#include "policy/runtime.hpp"

namespace adx::check {
namespace {

void add_livelock(check_result& out, const ct::runtime::run_result& r,
                  const object_check_params& p, const char* name) {
  std::ostringstream os;
  os << "event budget (" << p.max_events << ") exhausted with " << r.stuck.size()
     << " thread(s) live";
  out.violations.push_back(
      {"livelock", name, ct::invalid_thread, r.end_time, os.str()});
}

/// Pre-drawn operation streams: one (op-selector, key, jitter) triple per
/// operation, drawn before any thread runs so scheduling cannot perturb the
/// random sequence.
struct op_stream {
  std::vector<double> op;
  std::vector<std::uint64_t> key;
  std::vector<double> jitter;
};

std::vector<op_stream> draw_streams(std::uint64_t seed, unsigned threads,
                                    unsigned ops, std::uint64_t key_space) {
  sim::rng r(seed);
  std::vector<op_stream> out(threads);
  for (auto& s : out) {
    s.op.reserve(ops);
    s.key.reserve(ops);
    s.jitter.reserve(ops);
    for (unsigned i = 0; i < ops; ++i) {
      s.op.push_back(r.uniform01());
      s.key.push_back(r.below(key_space));
      s.jitter.push_back(r.uniform01());
    }
  }
  return out;
}

constexpr std::int64_t value_of(std::uint64_t key) {
  return static_cast<std::int64_t>(key) * 2 + 1;
}

/// Hashmap fixture: an oversubscribed mixed workload on a small adaptive
/// map, with a Ψ driver forcing stripe reconfigurations mid-traffic. Every
/// stripe lock is watched; a shadow key-set fed from the commit hook is the
/// linearizability witness.
check_result run_map_check(const object_check_params& p, sim::perturber& pert) {
  ct::runtime rt(p.config.effective_machine());
  rt.set_perturber(&pert);

  objects::map_config mc;
  mc.min_stripes = 2;
  mc.max_stripes = 16;
  mc.initial_stripes = 2;
  mc.stripe_factor = 2;
  mc.buckets_per_stripe = 2;
  mc.lock = p.config.lock;
  mc.lock_params = p.config.params;
  // The fixture runs 3 threads per processor, and reconfigure/size_slow block
  // while holding earlier stripes. Under that multiprogramming an idle-adapted
  // unbounded pure spin can starve a ready stripe holder forever (§4's caveat:
  // pure spin on idle assumes one thread per processor), which reads as a
  // livelock even though every component is behaving as specified. Use the
  // bounded spin-then-block idle rule the paper prescribes for oversubscribed
  // workloads instead.
  mc.lock_params.adapt.pure_spin_on_idle = false;
  mc.cost = locks::lock_cost_model{};
  mc.nodes = rt.processors();
  mc.adaptive = true;
  if (!p.config.object_policy.is_default()) mc.spec = p.config.object_policy;
  objects::adaptive_hash_map<std::uint64_t, std::int64_t> map(mc);

  monitor mon(rt, p.oracles);
  for (unsigned s = 0; s < mc.max_stripes; ++s) {
    mon.watch(map.stripe_lock(s), "stripe" + std::to_string(s));
  }

  // Shadow model, updated inside the guarded sections (linearization order
  // under the single-threaded event loop).
  std::set<std::uint64_t> shadow;
  map.set_commit_hook([&shadow](char op, const std::uint64_t& key, bool effect) {
    if (!effect) return;
    if (op == 'i') shadow.insert(key);
    if (op == 'e') shadow.erase(key);
  });

  const unsigned threads = rt.processors() * 3;
  const auto streams =
      draw_streams(p.config.seed, threads, p.iterations, /*key_space=*/48);
  for (unsigned t = 0; t < threads; ++t) {
    rt.fork(t % rt.processors(), [&, t](ct::context& ctx) -> ct::task<void> {
      const auto& s = streams[t];
      for (unsigned i = 0; i < p.iterations; ++i) {
        const auto u = s.op[i];
        const auto k = s.key[i];
        if (u < 0.40) {
          co_await map.insert(ctx, k, value_of(k));
        } else if (u < 0.55) {
          co_await map.erase(ctx, k);
        } else if (u < 0.95) {
          co_await map.find(ctx, k);
        } else {
          co_await map.size_slow(ctx);  // global op: full ascending lock sweep
        }
        co_await ctx.sleep_for(sim::nanoseconds(
            1000 + static_cast<std::int64_t>(9000.0 * s.jitter[i])));
      }
    });
  }
  // Ψ driver: force stripe reconfigurations while the workers keep the map
  // busy, independent of what the stripe policy decides.
  rt.fork(0, [&map](ct::context& ctx) -> ct::task<void> {
    for (unsigned round = 0; round < 6; ++round) {
      co_await ctx.sleep_for(sim::microseconds(25));
      co_await map.reconfigure_stripes(ctx, round % 2 == 0 ? 8 : 2);
    }
  });
  // Async-mode object specs are pumped by the periodic runtime (no-op for
  // sync specs); the daemon shares the last processor.
  policy::async_runtime art(policy::runtime_config{
      .period = sim::microseconds(static_cast<double>(mc.spec.period_us)),
      .proc = static_cast<ct::proc_id>(rt.processors() - 1),
      .coord = {},
  });
  art.adopt_map(map, map, mc.spec, mc.cost);
  art.start(rt);

  const auto r = rt.run(p.max_events);
  mon.finish(r);

  check_result out;
  out.completed = r.completed;
  out.end_time = r.end_time;
  out.events = r.events;
  out.violations = mon.violations();
  if (r.completed) {
    auto snap = map.snapshot_raw();
    std::set<std::uint64_t> content;
    bool values_ok = true;
    for (const auto& [k, v] : snap) {
      content.insert(k);
      values_ok = values_ok && v == value_of(k);
    }
    if (content != shadow || snap.size() != shadow.size() || !values_ok) {
      std::ostringstream os;
      os << "final content (" << snap.size() << " entries) diverged from the "
         << "shadow model (" << shadow.size() << " keys)";
      out.violations.push_back({"linearizability", "hashmap", ct::invalid_thread,
                                r.end_time, os.str()});
    }
  }
  if (map.psi_violations() != 0) {
    std::ostringstream os;
    os << map.psi_violations() << " guarded section(s) observed a mid-flight rehash";
    out.violations.push_back({"reconfig-atomicity", "hashmap", ct::invalid_thread,
                              r.end_time, os.str()});
  }
  if (!r.completed && !rt.mach().events().empty()) add_livelock(out, r, p, "hashmap");
  return out;
}

/// Monitor fixture: oversubscribed short sections through execute() (the
/// delegated path's lost-section risk), a producer/consumer pair on the
/// condition variable (the classic lost-wakeup risk), and a Ψ driver
/// flipping the execution mode mid-traffic. The section counter is the
/// exactly-once witness.
check_result run_monitor_check(const object_check_params& p, sim::perturber& pert) {
  ct::runtime rt(p.config.effective_machine());
  rt.set_perturber(&pert);

  objects::monitor_config mc;
  mc.lock = p.config.lock;
  mc.lock_params = p.config.params;
  mc.lock_params.adapt.pure_spin_on_idle = false;  // oversubscribed, as above
  mc.cost = locks::lock_cost_model{};
  mc.adaptive = true;
  if (!p.config.object_policy.is_default()) mc.spec = p.config.object_policy;
  objects::adaptive_monitor mon_obj(mc);

  monitor mon(rt, p.oracles);
  mon.watch(mon_obj.entry_lock(), "entry");

  const unsigned threads = rt.processors() * 3;
  const auto streams = draw_streams(p.config.seed, threads, p.iterations, 1);
  std::uint64_t counter = 0;
  for (unsigned t = 0; t < threads; ++t) {
    rt.fork(t % rt.processors(), [&, t](ct::context& ctx) -> ct::task<void> {
      const auto& s = streams[t];
      for (unsigned i = 0; i < p.iterations; ++i) {
        co_await mon_obj.execute(ctx, sim::microseconds(4), [&counter] { ++counter; });
        co_await ctx.sleep_for(sim::nanoseconds(
            1000 + static_cast<std::int64_t>(9000.0 * s.jitter[i])));
      }
    });
  }
  // Producer/consumer handshake over the condition variable: a lost signal
  // strands the consumer, which the livelock guard and the lost-wakeup
  // oracle both surface.
  std::int64_t tokens = 0;
  std::uint64_t consumed = 0;
  rt.fork(0, [&](ct::context& ctx) -> ct::task<void> {
    for (unsigned i = 0; i < p.iterations; ++i) {
      co_await mon_obj.enter(ctx);
      ++tokens;
      co_await mon_obj.signal(ctx);
      co_await mon_obj.exit(ctx);
      co_await ctx.sleep_for(sim::microseconds(7));
    }
  });
  rt.fork(1 % rt.processors(), [&](ct::context& ctx) -> ct::task<void> {
    for (unsigned i = 0; i < p.iterations; ++i) {
      co_await mon_obj.enter(ctx);
      while (tokens == 0) co_await mon_obj.wait(ctx);
      --tokens;
      ++consumed;
      co_await mon_obj.exit(ctx);
    }
  });
  // Ψ driver: flip the execution mode while traffic is in flight.
  rt.fork(0, [&mon_obj](ct::context& ctx) -> ct::task<void> {
    for (unsigned round = 0; round < 4; ++round) {
      co_await ctx.sleep_for(sim::microseconds(40));
      mon_obj.request_mode(round % 2 == 0 ? objects::adaptive_monitor::kDelegated
                                          : objects::adaptive_monitor::kClassic);
    }
  });
  // Async-mode object specs are pumped by the periodic runtime (no-op for
  // sync specs); the daemon shares the last processor.
  policy::async_runtime art(policy::runtime_config{
      .period = sim::microseconds(static_cast<double>(mc.spec.period_us)),
      .proc = static_cast<ct::proc_id>(rt.processors() - 1),
      .coord = {},
  });
  art.adopt_object(mon_obj, mc.spec, mc.cost);
  art.start(rt);

  const auto r = rt.run(p.max_events);
  mon.finish(r);

  check_result out;
  out.completed = r.completed;
  out.end_time = r.end_time;
  out.events = r.events;
  out.violations = mon.violations();
  const std::uint64_t expected = std::uint64_t{threads} * p.iterations;
  if (r.completed && counter != expected) {
    std::ostringstream os;
    os << "lost section: counter " << counter << ", expected " << expected;
    out.violations.push_back(
        {"mutual-exclusion", "monitor", ct::invalid_thread, r.end_time, os.str()});
  }
  if (r.completed && consumed != p.iterations) {
    std::ostringstream os;
    os << "consumer handled " << consumed << " of " << p.iterations << " tokens";
    out.violations.push_back(
        {"lost-wakeup", "monitor", ct::invalid_thread, r.end_time, os.str()});
  }
  if (!r.completed && !rt.mach().events().empty()) add_livelock(out, r, p, "monitor");
  return out;
}

check_result run_with_object(const object_check_params& p, sim::perturber& pert) {
  switch (objects::parse_object_kind(p.config.object)) {
    case objects::object_kind::hashmap: return run_map_check(p, pert);
    case objects::object_kind::monitor: return run_monitor_check(p, pert);
  }
  throw std::logic_error("object_check: unreachable");
}

}  // namespace

check_result run_object_check(const object_check_params& p) {
  recording_perturber pert(p.config.perturb, p.config.seed);
  auto out = run_with_object(p, pert);
  out.trace = pert.trace();
  return out;
}

check_result replay_object_check(const object_check_params& p,
                                 const std::vector<perturb_action>& actions) {
  replay_perturber pert(p.config.perturb, p.config.seed, actions);
  return run_with_object(p, pert);
}

}  // namespace adx::check
