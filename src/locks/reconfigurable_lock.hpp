// Reconfigurable lock (§5.1, [MS93]): the lock whose waiting policy and
// scheduling discipline can be altered at run time behind the plain
// lock()/unlock() interface.
//
// Mutable attributes (the paper's table of waiting-policy attributes):
//
//   spin-time  delay-time  sleep-time  timeout   resulting lock
//      n           0           0          0      pure spin
//      n           n           0          0      spin (back-off)
//      0           0           n          0      pure sleep
//      x           x           x          n      conditional sleep/spin
//      n           n           n          x      mixed sleep/spin
//
// The lock scheduler (registration / acquisition / release components) is a
// pluggable object; swapping it mid-run honours the paper's transition
// protocol — pre-registered threads are served by the old scheduler, the new
// one is adopted when the registration queue drains (flag set/reset, 5W
// total per Table 8).
//
// A fifth mutable attribute, `grant-mode`, selects the release discipline:
//   0 = direct handoff — the release component grants the lock to the
//       selected registrant (lowest release-to-run latency with a processor
//       per thread, the paper's setting);
//   1 = release-and-retry (barging) — the word is freed before the selected
//       registrant is woken, and it re-competes. Under heavy
//       multiprogramming direct handoff convoys: the grantee may sit in its
//       processor's ready queue for milliseconds while the lock is already
//       charged to it; barging lets any runnable thread take the free lock.
#pragma once

#include <array>
#include <memory>
#include <string>

#include "core/adaptive.hpp"
#include "locks/lock.hpp"
#include "locks/scheduler.hpp"

namespace adx::locks {

/// A full waiting-policy setting — the packed CV_i instance for locks.
struct waiting_policy {
  std::int64_t spin_time{0};   ///< TTAS iterations per waiting round
  std::int64_t delay_time{0};  ///< back-off quanta between rounds
  std::int64_t sleep_time{0};  ///< nonzero: the thread may block
  std::int64_t timeout_us{0};  ///< nonzero: timed (conditional) block, in us

  friend bool operator==(const waiting_policy&, const waiting_policy&) = default;

  [[nodiscard]] static constexpr waiting_policy pure_spin(std::int64_t n = 64) {
    return {n, 0, 0, 0};
  }
  [[nodiscard]] static waiting_policy spin_backoff(std::int64_t n = 8, std::int64_t d = 1) {
    return {n, d, 0, 0};
  }
  [[nodiscard]] static waiting_policy pure_sleep() { return {0, 0, 1, 0}; }
  [[nodiscard]] static waiting_policy conditional(std::int64_t timeout_us,
                                                  std::int64_t spin = 8) {
    return {spin, 0, 0, timeout_us};
  }
  [[nodiscard]] static waiting_policy mixed(std::int64_t spin, std::int64_t delay = 0,
                                            std::int64_t sleep = 1) {
    return {spin, delay, sleep, 0};
  }

  [[nodiscard]] bool is_pure_spin() const {
    return spin_time > 0 && sleep_time == 0 && timeout_us == 0;
  }
  [[nodiscard]] bool is_pure_sleep() const { return spin_time == 0 && sleep_time > 0; }
};

/// Human-readable configuration name, used to annotate reconfiguration
/// events (the decision d_c) in traces: "pure-spin(400)", "pure-blocking",
/// "spin-then-block(30)", ...
[[nodiscard]] std::string describe(const waiting_policy& wp);

class reconfigurable_lock : public lock_object, public core::adaptive_object {
 public:
  reconfigurable_lock(sim::node_id home, lock_cost_model cost,
                      waiting_policy initial = waiting_policy::mixed(10),
                      std::unique_ptr<lock_scheduler> sched = nullptr);

  [[nodiscard]] std::string_view kind() const override { return "reconfigurable"; }

  ct::task<void> lock(ct::context& ctx) override;
  ct::task<void> unlock(ct::context& ctx) override;

  // ------- Ψ operations (simulated and charged; Table 8 costs) -------

  /// configure(waiting policy): one read + one write of the packed policy
  /// word, plus the instruction path.
  ct::task<void> configure_waiting_policy(ct::context& ctx, waiting_policy wp);

  /// configure(scheduler): three sub-module writes, a transition-flag write;
  /// the flag-reset write is charged when the new scheduler is adopted.
  ct::task<void> configure_scheduler(ct::context& ctx,
                                     std::unique_ptr<lock_scheduler> next);

  /// Explicit attribute-ownership acquisition by an external agent
  /// (Table 8 "acquisition"; cost comparable to a test-and-set).
  ct::task<bool> acquire_attribute(ct::context& ctx, std::string_view name,
                                   core::agent_id agent);
  ct::task<void> release_attribute(ct::context& ctx, std::string_view name,
                                   core::agent_id agent);

  // ------- native reconfiguration (for in-object adaptation policies;
  //         the caller charges the cost) -------

  /// Applies all four waiting-policy attributes as one packed Ψ (1R + 1W).
  /// Returns false (and changes nothing) if any attribute is immutable or
  /// owned by another agent; true on success or no-op. `at` labels the Ψ
  /// brackets reported to an attached lock-event observer (host-side callers
  /// without a clock may leave it zero).
  bool apply_waiting_policy(const waiting_policy& wp,
                            std::optional<core::agent_id> who = std::nullopt,
                            sim::vtime at = {});

  [[nodiscard]] waiting_policy current_policy() const;

  [[nodiscard]] lock_scheduler& scheduler() { return *sched_; }
  [[nodiscard]] const lock_scheduler& scheduler() const { return *sched_; }
  [[nodiscard]] bool scheduler_transition_pending() const { return pending_sched_ != nullptr; }

 protected:
  /// Runs after the release path completes; the adaptive lock hooks its
  /// monitor/policy feedback here.
  virtual ct::task<void> post_release_hook(ct::context& ctx);

 private:
  std::unique_ptr<lock_scheduler> sched_;
  std::unique_ptr<lock_scheduler> pending_sched_;
  /// attributes() indices of spin-time, delay-time, sleep-time, timeout (the
  /// waiting_policy fields, in order) and grant-mode, looked up once: the
  /// lock and unlock paths read them on every call.
  std::array<std::size_t, 4> policy_attr_{};
  std::size_t grant_mode_attr_{0};
};

}  // namespace adx::locks
