// A federation of thread-package runtimes over an execution domain.
//
// Sharding the DES by NUMA group means one group's events must never touch
// another group's native state directly — but a ct::runtime is exactly a bag
// of native state (TCBs, ready rings, memory-module queues). The federation
// therefore instantiates one runtime *per group*, each built on the domain's
// queue for that place with a machine trimmed to the group's own nodes, and
// routes every cross-group influence through the domain's send():
//
//   * fork(global_node, ...) places the thread on the runtime of
//     group_of(global_node), at the node's group-local processor.
//   * post(from, to, fn) ships `fn` to group `to`'s shard, timestamped at
//     exactly now + lookahead (the canonical cross-group transit time) and
//     tagged with a shard-invariant origin (from << 32 | counter). The
//     callback runs on the target shard and may freely poke that group's
//     runtime (unblock a server, push a mailbox entry, ...).
//
// Because each group's machine is seeded as a pure function of (seed, group)
// and all cross-group traffic merges at window barriers in (at, origin)
// order, a federated workload is bit-identical at any shard/worker count.
//
// The butterfly wire model is rejected: its staged network prices paths by
// *global* node ids, which a trimmed per-group machine cannot reproduce.
// constant_wire and hierarchical price intra-group traffic identically when
// trimmed (cross-group traffic is priced by the post() transit instead).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ct/runtime.hpp"
#include "sim/event_domain.hpp"

namespace adx::ct {

class federation {
 public:
  /// Identifies a thread in the federation: which group runtime owns it plus
  /// its id within that runtime.
  struct fed_thread {
    unsigned group{0};
    thread_id id{invalid_thread};
  };

  /// Builds one runtime per NUMA group of `cfg` on `dom`'s queues. The
  /// domain must have exactly cfg.groups() places and must outlive the
  /// federation. Throws std::invalid_argument for the butterfly wire model
  /// or a place-count mismatch.
  federation(sim::machine_config cfg, sim::event_domain& dom);

  federation(const federation&) = delete;
  federation& operator=(const federation&) = delete;

  [[nodiscard]] const sim::machine_config& config() const { return cfg_; }
  [[nodiscard]] sim::event_domain& domain() { return *dom_; }
  [[nodiscard]] unsigned groups() const { return static_cast<unsigned>(rts_.size()); }
  [[nodiscard]] runtime& group_runtime(unsigned g) { return *rts_.at(g); }
  [[nodiscard]] const runtime& group_runtime(unsigned g) const { return *rts_.at(g); }

  /// The machine-config slice group `g` runs on (nodes = that group's size,
  /// seed folded with the group index). Exposed for workloads that need the
  /// per-group node count.
  [[nodiscard]] static sim::machine_config group_config(const sim::machine_config& cfg,
                                                        unsigned g);
  /// Nodes in group `g` (the last group may be short).
  [[nodiscard]] unsigned group_nodes(unsigned g) const;

  /// Forks a thread on the *global* node id's group runtime, pinned to the
  /// node's group-local processor.
  fed_thread fork(sim::node_id global_node, runtime::thread_fn fn, int priority = 0);

  /// Ships `fn` to group `to`'s shard through the domain, timestamped at
  /// exactly sender-now + lookahead with a shard-invariant origin tag. Legal
  /// from setup code and from events on group `from`'s shard.
  void post(unsigned from, unsigned to, std::function<void()> fn);

  /// Cross-group wakeup: the canonical remote lock-handoff / reply path.
  /// Arrives at the target exactly one lookahead after the sender's clock.
  void post_unblock(unsigned from, fed_thread t);

  struct run_result {
    sim::vtime end_time{};
    std::uint64_t events{0};
    bool completed{false};
    /// Stuck threads across all groups, in group order.
    std::vector<fed_thread> stuck;
  };

  /// Drives the domain's window loop (ex may be null), then aggregates every
  /// group's result in group order. Does not throw; inspect the result.
  run_result run(exec::job_executor* ex = nullptr,
                 std::uint64_t max_events = 500'000'000ULL);

  /// Like run() but fails loudly: rethrows the first thread error (group
  /// order), then simulation_limit_error / deadlock_error as runtime does.
  run_result run_all(exec::job_executor* ex = nullptr,
                     std::uint64_t max_events = 500'000'000ULL);

  /// Cross-group messages shipped via post()/post_unblock(), summed over
  /// sending groups in fixed group order (read host-side, after run()).
  [[nodiscard]] std::uint64_t posts() const;

  /// Scheduling counters summed over groups in fixed group order.
  [[nodiscard]] std::uint64_t total_dispatches() const;
  [[nodiscard]] std::uint64_t total_blocks() const;
  [[nodiscard]] std::uint64_t total_unblocks() const;

 private:
  sim::machine_config cfg_;
  sim::event_domain* dom_;
  std::vector<std::unique_ptr<runtime>> rts_;
  /// Per-group origin and post counters; each slot is written only by its
  /// own shard (or setup code), so parallel windows never race on them.
  std::vector<std::uint64_t> origin_counters_;
  std::vector<std::uint64_t> posts_by_group_;
};

}  // namespace adx::ct
