// Hardware parameters of the simulated NUMA multiprocessor.
//
// The preset `butterfly_gp1000()` is calibrated so the primitive lock-path
// costs measured by the paper on a 32-node BBN Butterfly GP1000 (Tables 4-8)
// come out at comparable magnitudes: local/remote memory deltas of a few
// microseconds, atomic read-modify-write at the owning memory module, and
// memory modules that service one access at a time (the source of hot-spot
// contention under spinning).
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace adx::sim {

/// Index of a machine node; every node pairs one processor with one memory
/// module (the Butterfly arrangement).
using node_id = std::uint32_t;

enum class interconnect_model : std::uint8_t {
  constant_wire,  ///< fixed one-way remote latency (default, calibrated)
  butterfly,      ///< staged 4x4 switch network with per-switch queueing
  hierarchical,   ///< two-level NUMA: cheap intra-group wire, dear cross-group
};

struct machine_config {
  /// Number of nodes (processor + memory module pairs).
  unsigned nodes = 32;

  /// One-way wire latency to the node's own memory module.
  vdur local_wire = microseconds(0.2);

  /// One-way latency across the butterfly switch to a remote module
  /// (constant_wire model).
  vdur remote_wire = microseconds(1.3);

  /// Which interconnect prices remote accesses. The staged model routes
  /// every remote access through log4(nodes) 4x4 switches, each a FIFO
  /// server, so hot-spot traffic saturates the *network* (tree blockage),
  /// not just the target module. Its uncontended one-way latency is
  /// stages x (switch_stage_latency + switch_service) — the defaults make it
  /// equal to remote_wire on 32 nodes, so the models agree when idle.
  interconnect_model wire_model = interconnect_model::constant_wire;
  vdur switch_stage_latency = microseconds(0.3);
  vdur switch_service = microseconds(0.13);

  /// Nodes per NUMA group (hierarchical model). Grouping also defines the
  /// sharding unit for the parallel DES: one shard owns one group's nodes,
  /// and `min_cross_group_latency()` is its conservative lookahead.
  unsigned group_size = 8;

  /// One-way wire latency between two nodes in the same group (hierarchical
  /// model). Cross-group accesses pay `remote_wire`.
  vdur group_wire = microseconds(0.7);

  /// Module occupancy per plain read or write; a module services one access
  /// at a time, so concurrent accesses to one module queue behind each other.
  vdur mem_service = microseconds(0.6);

  /// Module occupancy for an atomic read-modify-write (the GP1000 `atomior`
  /// class of operations, executed at the memory module).
  vdur atomic_service = microseconds(1.2);

  /// Cost of a user-level thread context switch (Cthreads on the GP1000).
  vdur context_switch = microseconds(85);

  /// Latency for an idle processor to notice newly ready work.
  vdur dispatch_latency = microseconds(12);

  /// Seed for all randomness owned by the machine.
  std::uint64_t seed = 0x5eedULL;

  friend bool operator==(const machine_config&, const machine_config&) = default;

  /// NUMA group of a node (node_id / group_size, every model).
  [[nodiscard]] unsigned group_of(node_id n) const { return n / group_size; }

  /// Number of NUMA groups (ceiling division; the last group may be short).
  [[nodiscard]] unsigned groups() const {
    return (nodes + group_size - 1) / group_size;
  }

  /// Lower bound on the virtual time for any influence to cross a group
  /// boundary — the conservative lookahead for the sharded DES. Every
  /// cross-group access pays at least one outbound wire traversal before it
  /// can touch remote state, so the one-way uncontended latency is safe.
  [[nodiscard]] vdur min_cross_group_latency() const;

  /// The paper's platform: 32-node BBN Butterfly GP1000.
  [[nodiscard]] static machine_config butterfly_gp1000();

  /// A small fast machine for unit tests.
  [[nodiscard]] static machine_config test_machine(unsigned nodes = 4);

  /// Two-level NUMA machine past the Butterfly's scale: `groups` groups of
  /// `per_group` nodes (default 32x32 = 1024). Intra-group traffic rides the
  /// cheap group wire; cross-group traffic pays a backbone hop several times
  /// dearer, so lock homes and policy placement matter more than on the flat
  /// GP1000 wire.
  [[nodiscard]] static machine_config hierarchical_numa(unsigned groups = 32,
                                                        unsigned per_group = 32);

  /// Fat-tree-style HPC machine: 4096 nodes in 64-node groups with fast
  /// local silicon and a relatively long backbone — the stress preset for
  /// open-loop serving with real ct threads (bench_serve_ct).
  [[nodiscard]] static machine_config fat_tree_hpc4096();
};

}  // namespace adx::sim
