// The lock factory's constructors. They build in adx_policy, not adx_locks:
// an adaptive lock installs a registry policy when it is constructed. Lock-kind
// naming (to_string, parse_lock_kind) stays in src/locks/factory.cpp.
#include <stdexcept>

#include "locks/advisory_lock.hpp"
#include "locks/backoff_lock.hpp"
#include "locks/blocking_lock.hpp"
#include "locks/combined_lock.hpp"
#include "locks/factory.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/run_config.hpp"
#include "locks/spin_lock.hpp"
#include "locks/tas_lock.hpp"
#include "locks/ticket_lock.hpp"

namespace adx::locks {

std::unique_ptr<lock_object> make_lock(lock_kind kind, sim::node_id home,
                                       const lock_cost_model& cost,
                                       const lock_params& params) {
  switch (kind) {
    case lock_kind::atomior:
      return std::make_unique<tas_lock>(home, cost);
    case lock_kind::spin:
      return std::make_unique<spin_lock>(home, cost);
    case lock_kind::backoff:
      return std::make_unique<backoff_spin_lock>(home, cost);
    case lock_kind::blocking:
      return std::make_unique<blocking_lock>(home, cost);
    case lock_kind::combined:
      return std::make_unique<combined_lock>(home, cost, params.combined_spin_limit);
    case lock_kind::advisory:
      return std::make_unique<advisory_lock>(home, cost);
    case lock_kind::ticket:
      return std::make_unique<ticket_lock>(home, cost);
    case lock_kind::mcs:
      return std::make_unique<mcs_lock>(home, cost);
    case lock_kind::reconfigurable: {
      auto lk = std::make_unique<reconfigurable_lock>(home, cost, params.initial_policy);
      lk->attributes().at("grant-mode").set(params.grant_mode);
      return lk;
    }
    case lock_kind::adaptive: {
      auto lk = std::make_unique<adaptive_lock>(home, cost, params.adapt,
                                                params.initial_policy, params.policy);
      lk->attributes().at("grant-mode").set(params.grant_mode);
      return lk;
    }
  }
  throw std::invalid_argument("make_lock: bad kind");
}


std::unique_ptr<lock_object> make_lock(const adx::run_config& rc, sim::node_id home,
                                       const lock_cost_model& cost) {
  return make_lock(rc.lock, home, cost, rc.params);
}

}  // namespace adx::locks
