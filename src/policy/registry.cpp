#include "policy/registry.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "cli/parse_error.hpp"
#include "core/policy.hpp"
#include "policy/engine.hpp"
#include "policy/policies.hpp"
#include "policy/sensors.hpp"

namespace adx::policy {

namespace {

// ------------------------------------------------------------ lock family

using core_factory = std::unique_ptr<decision_core> (*)(
    const policy_spec&, const locks::simple_adapt_params&,
    const locks::lock_cost_model&);

struct registry_entry {
  policy_info info;
  core_factory make;
  /// Default sensor names, in delivery order (nullptr-terminated slots).
  const char* sensors[2];
  /// Aggregation applied to `lock-hold-time` style sensors by default.
  aggregation hold_agg;
};

const registry_entry kRegistry[] = {
    {{"simple-adapt", "the paper's §4 waiting-count rule (default)"},
     &make_simple_adapt_core,
     {"no-of-waiting-threads", nullptr},
     aggregation::last_value},
    {{"break-even", "cost-model break-even: spin while queue x hold < block cost"},
     &make_break_even_core,
     {"no-of-waiting-threads", "lock-hold-time"},
     aggregation::ewma},
    {{"ewma-hold", "size the spin budget to the smoothed hold time"},
     &make_ewma_hold_core,
     {"lock-hold-time", nullptr},
     aggregation::ewma},
    {{"multi-sensor", "spin only when queue AND hold time are both short"},
     &make_multi_sensor_core,
     {"no-of-waiting-threads", "lock-hold-time"},
     aggregation::ewma},
};

const registry_entry& find_entry(std::string_view name) {
  for (const auto& e : kRegistry) {
    if (e.info.name == name) return e;
  }
  throw cli::unknown_value("policy", name, kRegistry,
                           [](const auto& e) { return e.info.name; });
}

std::vector<sensor_spec> default_sensors(const registry_entry& e,
                                         std::uint64_t sample_period) {
  std::vector<sensor_spec> out;
  for (const char* name : e.sensors) {
    if (name == nullptr) break;
    sensor_spec s;
    s.name = name;
    s.period = sample_period;
    s.agg = std::string_view(name) == "no-of-waiting-threads" ? aggregation::last_value
                                                              : e.hold_agg;
    out.push_back(std::move(s));
  }
  return out;
}

// ---------------------------------------------------------- object family
//
// The object policies (stripe-adapt for maps, mode-adapt for monitors) run
// their raw rule through confirm/cooldown filtering so a mis-tuned
// threshold thrashes Ψ instead of oscillating the object (§4's tuning
// caveat applies to objects too). `vote` is -1 shrink/classic, 0 hold,
// +1 grow/delegate.

struct decision_filter {
  std::uint64_t confirm;
  std::uint64_t cooldown;
  int last_vote = 0;
  std::uint64_t streak = 0;
  std::uint64_t muted = 0;

  /// Returns true when the vote survives confirmation and cooldown.
  bool admit(int vote) {
    if (muted > 0) {
      --muted;
      return false;
    }
    if (vote == 0) {
      last_vote = 0;
      streak = 0;
      return false;
    }
    streak = vote == last_vote ? streak + 1 : 1;
    last_vote = vote;
    if (streak < confirm) return false;
    streak = 0;
    muted = cooldown;
    return true;
  }
};

class stripe_adapt_policy final : public core::adaptation_policy {
 public:
  stripe_adapt_policy(stripe_controller& ctl, stripe_adapt_params p)
      : ctl_(&ctl),
        p_(p),
        filter_{p.confirm, p.cooldown},
        bucket_filter_{p.confirm, p.cooldown} {}

  void observe(const core::observation& obs) override {
    if (obs.sensor == "load-factor") {
      load_ = obs.value;
    } else if (obs.sensor == "stripe-contention-skew") {
      skew_ = obs.value;
    } else if (obs.sensor == "probe-length") {
      probe_ = obs.value;
      // The probe-length rule is its own vote path: long chains under low
      // contention need more buckets, not more locks, so bucket-array
      // growth triggers independent of the stripe votes below.
      vote_buckets();
      return;
    }
    int vote = 0;
    if (skew_ >= p_.skew_grow || load_ >= p_.load_grow) {
      vote = +1;
    } else if (skew_ <= 0 && load_ <= p_.load_shrink) {
      vote = -1;
    }
    if (!filter_.admit(vote)) return;
    const unsigned active = ctl_->active_stripes();
    const unsigned f = std::max(2u, ctl_->stripe_factor());
    const unsigned target =
        vote > 0 ? std::min(ctl_->max_stripes(), active * f)
                 : std::max(ctl_->min_stripes(), active / f);
    if (target == active) return;
    note_decision();
    ctl_->request_stripes(target);
  }

 private:
  void vote_buckets() {
    const unsigned buckets = ctl_->buckets_per_stripe();
    const unsigned cap = ctl_->max_buckets_per_stripe();
    if (p_.probe_grow <= 0 || buckets == 0 || cap == 0) return;
    if (!bucket_filter_.admit(probe_ >= p_.probe_grow ? +1 : 0)) return;
    const unsigned target = std::min(cap, buckets * 2);
    if (target == buckets) return;
    note_decision();
    ctl_->request_buckets(target);
  }

  stripe_controller* ctl_;
  stripe_adapt_params p_;
  decision_filter filter_;
  decision_filter bucket_filter_;
  std::int64_t load_{0};
  std::int64_t skew_{0};
  std::int64_t probe_{0};
};

class mode_adapt_policy final : public core::adaptation_policy {
 public:
  mode_adapt_policy(mode_controller& ctl, mode_adapt_params p)
      : ctl_(&ctl), p_(p), filter_{p.confirm, p.cooldown} {}

  void observe(const core::observation& obs) override {
    if (obs.sensor == "section-time") {
      section_us_ = obs.value;
    } else if (obs.sensor == "monitor-waiters") {
      waiters_ = obs.value;
    }
    int vote = 0;
    if (section_us_ >= p_.classic_above_us) {
      vote = -1;  // long sections: delegation just serializes them on one thread
    } else if (section_us_ <= p_.delegate_below_us && waiters_ >= p_.min_waiters) {
      vote = +1;  // short contended sections: handoff cost dominates — combine
    }
    if (!filter_.admit(vote)) return;
    const std::int64_t want = vote > 0 ? 1 : 0;
    if (want == ctl_->current_mode()) return;
    note_decision();
    ctl_->request_mode(want);
  }

 private:
  mode_controller* ctl_;
  mode_adapt_params p_;
  decision_filter filter_;
  std::int64_t section_us_{0};
  std::int64_t waiters_{0};
};

std::vector<sensor_spec> map_default_sensors() {
  std::vector<sensor_spec> out;
  sensor_spec skew;
  skew.name = "stripe-contention-skew";
  skew.period = 2;
  skew.agg = aggregation::max_in_window;
  skew.window = 4;
  out.push_back(skew);
  sensor_spec load;
  load.name = "load-factor";
  load.period = 4;
  load.agg = aggregation::last_value;
  out.push_back(load);
  sensor_spec probe;
  probe.name = "probe-length";
  probe.period = 8;
  probe.agg = aggregation::ewma;
  out.push_back(probe);
  return out;
}

std::vector<sensor_spec> monitor_default_sensors() {
  std::vector<sensor_spec> out;
  sensor_spec section;
  section.name = "section-time";
  section.period = 2;
  section.agg = aggregation::ewma;
  out.push_back(section);
  sensor_spec waiters;
  waiters.name = "monitor-waiters";
  waiters.period = 2;
  waiters.agg = aggregation::max_in_window;
  waiters.window = 4;
  out.push_back(waiters);
  sensor_spec rate;
  rate.name = "entry-rate";
  rate.period = 8;
  rate.agg = aggregation::last_value;
  out.push_back(rate);
  return out;
}

/// Checks the single registered name of an object family and applies the
/// shared error UX.
void expect_object_policy(const policy_spec& spec, std::string_view want) {
  if (spec.name == want) return;
  throw cli::unknown_value("policy", spec.name, {want});
}

/// async mode: the object's monitor runs loosely coupled, so feedback
/// points only queue observations (zero policy cost on the fast path) and
/// the periodic runtime drains them out-of-band.
void apply_exec_mode(core::adaptive_object& obj, const policy_spec& spec) {
  if (spec.mode == exec_mode::async) {
    obj.object_monitor().set_mode(core::coupling::loosely_coupled);
  }
}

}  // namespace

// ------------------------------------------------------------- public API

std::span<const policy_info> all_policies() {
  static const std::vector<policy_info> infos = [] {
    std::vector<policy_info> v;
    for (const auto& e : kRegistry) v.push_back(e.info);
    return v;
  }();
  return infos;
}

std::vector<std::string_view> all_policy_names() {
  std::vector<std::string_view> names;
  for (const auto& e : kRegistry) names.push_back(e.info.name);
  return names;
}

std::string_view parse_policy_name(std::string_view name) {
  return find_entry(name).info.name;
}

policy_spec default_spec(std::string_view name, std::uint64_t sample_period) {
  if (name == "stripe-adapt") {
    policy_spec spec;
    spec.name = "stripe-adapt";
    spec.sensors = map_default_sensors();
    return spec;
  }
  if (name == "mode-adapt") {
    policy_spec spec;
    spec.name = "mode-adapt";
    spec.sensors = monitor_default_sensors();
    return spec;
  }
  const auto& e = find_entry(name);
  policy_spec spec;
  spec.name = std::string(e.info.name);
  // simple-adapt keeps the default value (empty sensors): the lock then
  // samples at its own adapt.sample_period.
  if (spec.name != "simple-adapt") {
    spec.sensors = default_sensors(e, sample_period);
  }
  return spec;
}

void install(locks::adaptive_lock& lk, const locks::lock_params& params,
             const locks::lock_cost_model& cost) {
  const auto& spec = params.policy;
  const auto& entry = find_entry(spec.name);

  auto sensors = spec.sensors.empty()
                     ? default_sensors(entry, params.adapt.sample_period)
                     : spec.sensors;

  // The spec's sensors go through the object-generic path; the monitor folds
  // them, and the engine decides on the folded values.
  lock_sensor_host host(lk);
  install_sensors(lk, host, sensors);
  apply_exec_mode(lk, spec);

  auto core = entry.make(spec, params.adapt, cost);
  // Wrappers are listed outermost-first; build inside-out.
  for (auto it = spec.wrappers.rbegin(); it != spec.wrappers.rend(); ++it) {
    if (it->kind == "hysteresis") {
      core = wrap_hysteresis(std::move(core), it->confirm);
    } else if (it->kind == "deadband") {
      core = wrap_deadband(std::move(core), it->band);
    } else if (it->kind == "cooldown") {
      core = wrap_cooldown(std::move(core), it->observations);
    } else {
      throw std::invalid_argument("unknown wrapper kind: " + it->kind +
                                  " (valid: hysteresis deadband cooldown)");
    }
  }

  std::string full_name(core->name());
  lk.set_engine(std::make_shared<engine>(lk, std::move(full_name), std::move(core)));
}

void install(core::adaptive_object& obj, sensor_host& host, stripe_controller& ctl,
             const policy_spec& spec) {
  expect_object_policy(spec, "stripe-adapt");
  const auto sensors = spec.sensors.empty() ? map_default_sensors() : spec.sensors;
  install_sensors(obj, host, sensors);
  apply_exec_mode(obj, spec);
  stripe_adapt_params p;
  p.skew_grow = int_knob(spec, "skew-grow", p.skew_grow);
  p.load_grow = int_knob(spec, "load-grow", p.load_grow);
  p.load_shrink = int_knob(spec, "load-shrink", p.load_shrink);
  p.probe_grow = int_knob(spec, "probe-grow", p.probe_grow);
  p.confirm = static_cast<std::uint64_t>(
      int_knob(spec, "confirm", static_cast<std::int64_t>(p.confirm), 0));
  p.cooldown = static_cast<std::uint64_t>(
      int_knob(spec, "cooldown", static_cast<std::int64_t>(p.cooldown), 0));
  obj.set_policy(std::make_shared<stripe_adapt_policy>(ctl, p));
}

void install(core::adaptive_object& obj, sensor_host& host, mode_controller& ctl,
             const policy_spec& spec) {
  expect_object_policy(spec, "mode-adapt");
  const auto sensors = spec.sensors.empty() ? monitor_default_sensors() : spec.sensors;
  install_sensors(obj, host, sensors);
  apply_exec_mode(obj, spec);
  mode_adapt_params p;
  p.delegate_below_us = int_knob(spec, "delegate-below-us", p.delegate_below_us);
  p.classic_above_us = int_knob(spec, "classic-above-us", p.classic_above_us);
  p.min_waiters = int_knob(spec, "min-waiters", p.min_waiters);
  p.confirm = static_cast<std::uint64_t>(
      int_knob(spec, "confirm", static_cast<std::int64_t>(p.confirm), 0));
  p.cooldown = static_cast<std::uint64_t>(
      int_knob(spec, "cooldown", static_cast<std::int64_t>(p.cooldown), 0));
  obj.set_policy(std::make_shared<mode_adapt_policy>(ctl, p));
}

}  // namespace adx::policy
