// Adaptive objects (§3): a reconfigurable object plus a built-in monitor
// module and a user-provided adaptation policy, wired into the feedback loop
//
//      M --v_i--> P --d_c--> Ψ
//
// With closely-coupled monitoring the whole loop executes inline in the
// invoking thread at each instrumentation point; with loose coupling the
// observations queue in the monitor until an external agent pumps them.
#pragma once

#include <memory>
#include <utility>

#include "core/monitor.hpp"
#include "core/policy.hpp"
#include "core/reconfigurable.hpp"

namespace adx::core {

class adaptive_object : public reconfigurable_object {
 public:
  using reconfigurable_object::reconfigurable_object;

  [[nodiscard]] monitor& object_monitor() { return monitor_; }
  [[nodiscard]] const monitor& object_monitor() const { return monitor_; }

  /// Installs the user-provided adaptation policy (may be null: a monitored
  /// but non-adapting object).
  void set_policy(std::shared_ptr<adaptation_policy> p) { policy_ = std::move(p); }
  [[nodiscard]] adaptation_policy* policy() const { return policy_.get(); }

  /// An instrumentation point inside a method body: fires the monitor; with
  /// close coupling, any due observations run the policy immediately.
  /// Returns the number of observations delivered to the policy. Allocates
  /// nothing itself: the monitor hands observations over one by one.
  std::size_t feedback_point() {
    return monitor_.trigger([this](const observation& obs) { deliver(obs); });
  }

  /// Loosely-coupled pump, called by an external agent: delivers up to `max`
  /// queued (possibly stale) observations to the policy.
  std::size_t pump(std::size_t max = ~std::size_t{0}) {
    return monitor_.drain([this](const observation& obs) { deliver(obs); }, max);
  }

 private:
  void deliver(const observation& obs) {
    note_monitor_sample(sensor::sample_cost());
    if (policy_) policy_->observe(obs);
  }

  monitor monitor_;
  std::shared_ptr<adaptation_policy> policy_;
};

}  // namespace adx::core
