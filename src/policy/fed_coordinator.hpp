// Cross-shard policy coordination over a federation.
//
// The one idle-demotion mechanism: a lock enrolled with `coordinate` whose
// acquisition count stays flat for `kIdleTicks` consecutive daemon ticks is
// demoted to `kIdlePolicy`. Under the sharded DES a hub cannot scan locks on
// other shards — that would read native state across a place boundary — so
// the loop is split into messages:
//
//   member daemon tick (group g's shard)
//     -> snapshot its coordinated locks' acquisition counts
//     -> federation::post(g, 0, report)           [one lookahead later]
//   report lands (group 0's shard)
//     -> update per-lock idle streaks; on `kIdleTicks` flat reports,
//        federation::post(0, g, apply-demotion)   [one lookahead later]
//   demotion lands (group g's shard)
//     -> async_runtime::apply_external_demotion — a plain event on the
//        lock's own shard, so the bind_place discipline holds.
//
// The two message hops carry no virtual-time charge of their own: 2L of
// messaging latency is the price of coordinating across the machine, exactly
// the tradeoff the paper's global-policy discussion predicts. All state
// lives on a fixed shard (members' reports on shard 0, lock state on the
// owning shard), every hop is a domain send with a shard-invariant origin,
// so runs stay bit-identical across shard/worker counts.
#pragma once

#include <cstdint>
#include <vector>

#include "ct/federation.hpp"
#include "locks/reconfigurable_lock.hpp"
#include "policy/runtime.hpp"

namespace adx::policy {

/// The hub. Lives host-side; its mutable state partitions cleanly by shard
/// (see member comments), so parallel windows never race on it.
class fed_coordinator {
 public:
  /// Consecutive flat reports after which a lock is demoted.
  static constexpr std::uint64_t kIdleTicks = 4;
  /// The cheap waiting policy idle locks are demoted to.
  static constexpr locks::waiting_policy kIdlePolicy = locks::waiting_policy::pure_spin(16);

  explicit fed_coordinator(ct::federation& fed) : fed_(&fed) {}

  fed_coordinator(const fed_coordinator&) = delete;
  fed_coordinator& operator=(const fed_coordinator&) = delete;

  /// Enrols group `g`'s policy runtime: installs a tick observer on it and
  /// tracks its coordinated locks. Call before art.start() / before the run.
  void attach(unsigned group, async_runtime& art);

  /// Acquisition reports received at the hub (group-0 shard; read
  /// host-side after the run).
  [[nodiscard]] std::uint64_t reports() const { return reports_; }
  /// Demotions the hub issued (group-0 shard; read host-side after the run).
  [[nodiscard]] std::uint64_t demotions_issued() const { return demotions_; }

 private:
  struct lock_track {
    std::uint64_t last_acquisitions = 0;
    std::uint64_t idle_streak = 0;
    bool demoted = false;
  };
  struct member {
    unsigned group = 0;
    async_runtime* art = nullptr;
    /// Written only by report events on the hub shard (group 0).
    std::vector<lock_track> locks;
  };

  void on_tick(std::size_t member_idx);
  void on_report(std::size_t member_idx, std::vector<std::uint64_t> acquisitions);

  ct::federation* fed_;
  /// Slots are appended host-side before the run; after that, each member's
  /// `locks` vector is mutated only on the hub shard.
  std::vector<member> members_;
  std::uint64_t reports_ = 0;    ///< hub-shard only
  std::uint64_t demotions_ = 0;  ///< hub-shard only
};

}  // namespace adx::policy
