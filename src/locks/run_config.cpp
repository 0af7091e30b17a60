#include "locks/run_config.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"
#include "obs/json_reader.hpp"

namespace adx {
namespace {

// The JSON reader lives in obs/json_reader.hpp (shared with the perf
// baseline differ); run_config keeps only its typed field helpers here.
using obs::jobject;
using obs::jvalue;
using obs::json_find;

// Field helpers: absent keys keep the caller's default.
void read_ns(const jobject& o, std::string_view key, sim::vdur& out) {
  if (const auto* v = json_find(o, key)) out = sim::nanoseconds(v->number<std::int64_t>());
}
template <typename T>
void read_num(const jobject& o, std::string_view key, T& out) {
  if (const auto* v = json_find(o, key)) out = v->number<T>();
}
void read_bool(const jobject& o, std::string_view key, bool& out) {
  if (const auto* v = json_find(o, key)) out = v->boolean();
}

// Every key to_json() can print, per object.
constexpr std::string_view kTopLevelKeys[] = {"machine", "lock",   "params", "perturb",
                                              "seed",    "shards", "object", "object_policy"};
constexpr std::string_view kMachineKeys[] = {"nodes",
                                             "local_wire_ns",
                                             "remote_wire_ns",
                                             "wire_model",
                                             "switch_stage_latency_ns",
                                             "switch_service_ns",
                                             "mem_service_ns",
                                             "atomic_service_ns",
                                             "context_switch_ns",
                                             "dispatch_latency_ns",
                                             "group_size",
                                             "group_wire_ns",
                                             "seed"};
constexpr std::string_view kParamsKeys[] = {"combined_spin_limit", "grant_mode", "initial_policy",
                                            "adapt", "policy"};
constexpr std::string_view kInitialPolicyKeys[] = {"spin_time", "delay_time", "sleep_time",
                                                   "timeout_us"};
constexpr std::string_view kAdaptKeys[] = {"waiting_threshold", "n", "spin_cap", "sample_period",
                                           "pure_spin_on_idle"};
constexpr std::string_view kPerturbKeys[] = {"reorder_ties", "delay_pct",   "max_delay_us",
                                             "preempt_pct",  "latency_pct", "latency_spike_us"};

/// Throws on a key of `o` not in `known`, naming it by its path from the
/// root (`prefix` is the path of `o` followed by a dot, or empty).
template <std::size_t N>
void reject_unknown(const jobject& o, const std::string_view (&known)[N], std::string_view prefix) {
  for (const auto& [key, _] : o) {
    if (std::find(std::begin(known), std::end(known), key) == std::end(known)) {
      throw std::invalid_argument("run_config: unknown key: " + std::string(prefix) + key);
    }
  }
}

const char* to_string(sim::interconnect_model m) {
  switch (m) {
    case sim::interconnect_model::butterfly:
      return "butterfly";
    case sim::interconnect_model::hierarchical:
      return "hierarchical";
    case sim::interconnect_model::constant_wire:
      break;
  }
  return "constant_wire";
}

sim::interconnect_model parse_wire_model(std::string_view s) {
  if (s == "constant_wire") return sim::interconnect_model::constant_wire;
  if (s == "butterfly") return sim::interconnect_model::butterfly;
  if (s == "hierarchical") return sim::interconnect_model::hierarchical;
  throw std::invalid_argument("run_config: unknown wire_model: " + std::string(s) +
                              " (valid: constant_wire butterfly hierarchical)");
}

}  // namespace

std::string run_config::to_json() const {
  using obs::json_str;
  std::ostringstream os;
  os << "{\"machine\":{"
     << "\"nodes\":" << machine.nodes
     << ",\"local_wire_ns\":" << machine.local_wire.ns
     << ",\"remote_wire_ns\":" << machine.remote_wire.ns
     << ",\"wire_model\":" << json_str(to_string(machine.wire_model))
     << ",\"switch_stage_latency_ns\":" << machine.switch_stage_latency.ns
     << ",\"switch_service_ns\":" << machine.switch_service.ns
     << ",\"mem_service_ns\":" << machine.mem_service.ns
     << ",\"atomic_service_ns\":" << machine.atomic_service.ns
     << ",\"context_switch_ns\":" << machine.context_switch.ns
     << ",\"dispatch_latency_ns\":" << machine.dispatch_latency.ns;
  // Group keys exist only under the hierarchical model, keeping every
  // pre-hierarchical config (and replay journal) byte-stable.
  if (machine.wire_model == sim::interconnect_model::hierarchical) {
    os << ",\"group_size\":" << machine.group_size
       << ",\"group_wire_ns\":" << machine.group_wire.ns;
  }
  os << ",\"seed\":" << machine.seed << '}';
  os << ",\"lock\":" << json_str(locks::to_string(lock));
  os << ",\"params\":{"
     << "\"combined_spin_limit\":" << params.combined_spin_limit
     << ",\"grant_mode\":" << params.grant_mode
     << ",\"initial_policy\":{"
     << "\"spin_time\":" << params.initial_policy.spin_time
     << ",\"delay_time\":" << params.initial_policy.delay_time
     << ",\"sleep_time\":" << params.initial_policy.sleep_time
     << ",\"timeout_us\":" << params.initial_policy.timeout_us << '}'
     << ",\"adapt\":{"
     << "\"waiting_threshold\":" << params.adapt.waiting_threshold
     << ",\"n\":" << params.adapt.n
     << ",\"spin_cap\":" << params.adapt.spin_cap
     << ",\"sample_period\":" << params.adapt.sample_period
     << ",\"pure_spin_on_idle\":" << (params.adapt.pure_spin_on_idle ? "true" : "false")
     << '}'
     << ",\"policy\":" << params.policy.to_json() << '}';
  os << ",\"perturb\":{"
     << "\"reorder_ties\":" << (perturb.reorder_ties ? "true" : "false")
     << ",\"delay_pct\":" << perturb.delay_pct
     << ",\"max_delay_us\":" << perturb.max_delay_us
     << ",\"preempt_pct\":" << perturb.preempt_pct
     << ",\"latency_pct\":" << perturb.latency_pct
     << ",\"latency_spike_us\":" << perturb.latency_spike_us << '}';
  os << ",\"seed\":" << seed;
  // The object axis is emitted only when set, so pure lock configs keep
  // their historical shape (and replay journals stay byte-stable).
  if (shards != 1) os << ",\"shards\":" << shards;
  if (!object.empty()) os << ",\"object\":" << json_str(object);
  if (!object_policy.is_default()) {
    os << ",\"object_policy\":" << object_policy.to_json();
  }
  os << '}';
  return os.str();
}

run_config run_config::from_json(std::string_view text) {
  const auto root = obs::json_reader(text, "run_config").parse();
  if (!root.is_object()) throw std::invalid_argument("run_config: expected a JSON object");
  const auto& o = root.object();
  reject_unknown(o, kTopLevelKeys, "");

  run_config rc;
  if (const auto* m = json_find(o, "machine")) {
    if (!m->is_object()) throw std::invalid_argument("run_config: machine must be an object");
    const auto& mo = m->object();
    reject_unknown(mo, kMachineKeys, "machine.");
    read_num(mo, "nodes", rc.machine.nodes);
    read_ns(mo, "local_wire_ns", rc.machine.local_wire);
    read_ns(mo, "remote_wire_ns", rc.machine.remote_wire);
    if (const auto* wm = json_find(mo, "wire_model")) {
      rc.machine.wire_model = parse_wire_model(wm->str());
    }
    read_ns(mo, "switch_stage_latency_ns", rc.machine.switch_stage_latency);
    read_ns(mo, "switch_service_ns", rc.machine.switch_service);
    read_ns(mo, "mem_service_ns", rc.machine.mem_service);
    read_ns(mo, "atomic_service_ns", rc.machine.atomic_service);
    read_ns(mo, "context_switch_ns", rc.machine.context_switch);
    read_ns(mo, "dispatch_latency_ns", rc.machine.dispatch_latency);
    read_num(mo, "group_size", rc.machine.group_size);
    if (rc.machine.group_size == 0) {
      throw std::invalid_argument("run_config: group_size must be >= 1");
    }
    read_ns(mo, "group_wire_ns", rc.machine.group_wire);
    read_num(mo, "seed", rc.machine.seed);
  }
  if (const auto* lk = json_find(o, "lock")) rc.lock = locks::parse_lock_kind(lk->str());
  if (const auto* p = json_find(o, "params")) {
    if (!p->is_object()) throw std::invalid_argument("run_config: params must be an object");
    const auto& po = p->object();
    reject_unknown(po, kParamsKeys, "params.");
    read_num(po, "combined_spin_limit", rc.params.combined_spin_limit);
    read_num(po, "grant_mode", rc.params.grant_mode);
    if (const auto* ip = json_find(po, "initial_policy")) {
      const auto& io = ip->object();
      reject_unknown(io, kInitialPolicyKeys, "params.initial_policy.");
      read_num(io, "spin_time", rc.params.initial_policy.spin_time);
      read_num(io, "delay_time", rc.params.initial_policy.delay_time);
      read_num(io, "sleep_time", rc.params.initial_policy.sleep_time);
      read_num(io, "timeout_us", rc.params.initial_policy.timeout_us);
    }
    if (const auto* ad = json_find(po, "adapt")) {
      const auto& ao = ad->object();
      reject_unknown(ao, kAdaptKeys, "params.adapt.");
      read_num(ao, "waiting_threshold", rc.params.adapt.waiting_threshold);
      read_num(ao, "n", rc.params.adapt.n);
      read_num(ao, "spin_cap", rc.params.adapt.spin_cap);
      read_num(ao, "sample_period", rc.params.adapt.sample_period);
      read_bool(ao, "pure_spin_on_idle", rc.params.adapt.pure_spin_on_idle);
    }
    if (const auto* ps = json_find(po, "policy")) {
      rc.params.policy = policy::policy_spec::from_json_value(*ps);
    }
  }
  if (const auto* pt = json_find(o, "perturb")) {
    if (!pt->is_object()) throw std::invalid_argument("run_config: perturb must be an object");
    const auto& to = pt->object();
    reject_unknown(to, kPerturbKeys, "perturb.");
    read_bool(to, "reorder_ties", rc.perturb.reorder_ties);
    read_num(to, "delay_pct", rc.perturb.delay_pct);
    read_num(to, "max_delay_us", rc.perturb.max_delay_us);
    read_num(to, "preempt_pct", rc.perturb.preempt_pct);
    read_num(to, "latency_pct", rc.perturb.latency_pct);
    read_num(to, "latency_spike_us", rc.perturb.latency_spike_us);
  }
  if (const auto* s = json_find(o, "seed")) rc.seed = s->number<std::uint64_t>();
  read_num(o, "shards", rc.shards);
  if (rc.shards == 0) throw std::invalid_argument("run_config: shards must be >= 1");
  if (const auto* ob = json_find(o, "object")) rc.object = ob->str();
  if (const auto* op = json_find(o, "object_policy")) {
    rc.object_policy = policy::policy_spec::from_json_value(*op);
  }
  return rc;
}

}  // namespace adx
