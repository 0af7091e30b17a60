#include "sim/machine.hpp"

namespace adx::sim {

machine::machine(machine_config cfg)
    : cfg_(cfg),
      owned_events_(std::make_unique<event_queue>()),
      events_(owned_events_.get()),
      rng_(cfg.seed) {
  init();
}

machine::machine(machine_config cfg, event_queue& queue)
    : cfg_(cfg), events_(&queue), rng_(cfg.seed) {
  init();
}

void machine::init() {
  if (cfg_.nodes == 0) throw std::invalid_argument("machine: nodes must be > 0");
  modules_.reserve(cfg_.nodes);
  for (node_id n = 0; n < cfg_.nodes; ++n) modules_.emplace_back(n);
  if (cfg_.wire_model == interconnect_model::butterfly) {
    network_ = std::make_unique<butterfly_network>(
        cfg_.nodes, cfg_.switch_stage_latency, cfg_.switch_service);
  }
}

// The one pricing path behind access() and access_n(). Forced inline so that
// access(), the simulator's hottest call, gets n == 1 folded in.
[[gnu::always_inline]] inline vtime machine::price(node_id from, node_id home, access_kind kind,
                                                   std::uint64_t n) {
  if (n == 0) return now();
  if (from >= cfg_.nodes || home >= cfg_.nodes) {
    throw std::out_of_range("machine::access: node out of range");
  }
  const bool local = from == home;
  const vdur service = kind == access_kind::rmw ? cfg_.atomic_service : cfg_.mem_service;

  switch (kind) {
    case access_kind::read:
      (local ? counts_.local_reads : counts_.remote_reads) += n;
      break;
    case access_kind::write:
      (local ? counts_.local_writes : counts_.remote_writes) += n;
      break;
    case access_kind::rmw:
      (local ? counts_.local_rmws : counts_.remote_rmws) += n;
      break;
  }

  // Hierarchical model: intra-group remote accesses ride the cheap group
  // wire; only cross-group traffic pays the backbone. Other models price
  // every remote access at remote_wire.
  const bool near = cfg_.wire_model == interconnect_model::hierarchical &&
                    cfg_.group_of(from) == cfg_.group_of(home);
  const vdur wire = local ? cfg_.local_wire : near ? cfg_.group_wire : cfg_.remote_wire;
  memory_module& module = modules_[home];
  const bool staged = !local && network_;
  if (!perturber_ && !staged) {
    // Every request leaves at now() + wire, so the module serves all n back
    // to back: one closed-form pricing, bit-identical to n single accesses.
    return module.service_n(now() + wire, service, n) + wire;
  }

  // Two cases price each access on its own because each really differs:
  // an attached perturber draws an interconnect spike per access (extra
  // latency on the outbound leg, so the access also occupies the module
  // later), and on the staged network each packet queues through the
  // switches out and back.
  vtime done{};
  for (std::uint64_t i = 0; i < n; ++i) {
    const vdur spike = perturber_ ? perturber_->access_delay(from, home) : vdur{};
    if (staged) {
      const vtime arrival = network_->traverse(from, home, now() + spike);
      done = network_->traverse(home, from, module.service(arrival, service));
    } else {
      done = module.service(now() + wire + spike, service) + wire;
    }
  }
  return done;
}

vtime machine::access(node_id from, node_id home, access_kind kind) {
  return price(from, home, kind, 1);
}

vtime machine::access_n(node_id from, node_id home, access_kind kind, std::uint64_t n) {
  return price(from, home, kind, n);
}

vdur machine::total_queue_delay() const {
  vdur d{};
  for (const auto& m : modules_) d += m.total_queue_delay();
  return d;
}

}  // namespace adx::sim
