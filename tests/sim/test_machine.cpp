#include "sim/machine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <initializer_list>

#include "sim/perturb.hpp"

namespace adx::sim {
namespace {

machine_config flat_config() {
  auto c = machine_config::test_machine(4);
  c.local_wire = microseconds(0.1);
  c.remote_wire = microseconds(1.0);
  c.mem_service = microseconds(0.5);
  c.atomic_service = microseconds(1.0);
  return c;
}

TEST(Machine, RejectsZeroNodes) {
  machine_config c;
  c.nodes = 0;
  EXPECT_THROW(machine m(c), std::invalid_argument);
}

TEST(Machine, RejectsOutOfRangeNodes) {
  machine m(flat_config());
  EXPECT_THROW(m.access(0, 99, access_kind::read), std::out_of_range);
  EXPECT_THROW(m.access(99, 0, access_kind::read), std::out_of_range);
}

TEST(Machine, LocalReadLatency) {
  machine m(flat_config());
  const auto done = m.access(0, 0, access_kind::read);
  // wire out + service + wire back = 0.1 + 0.5 + 0.1
  EXPECT_EQ(done.ns, static_cast<std::uint64_t>(microseconds(0.7).ns));
}

TEST(Machine, RemoteReadLatency) {
  machine m(flat_config());
  const auto done = m.access(0, 1, access_kind::read);
  EXPECT_EQ(done.ns, static_cast<std::uint64_t>(microseconds(2.5).ns));
}

TEST(Machine, RemoteCostsMoreThanLocal) {
  machine m(flat_config());
  const auto local = m.access(0, 0, access_kind::read);
  machine m2(flat_config());
  const auto remote = m2.access(0, 1, access_kind::read);
  EXPECT_GT(remote.ns, local.ns);
}

TEST(Machine, AtomicUsesAtomicService) {
  machine m(flat_config());
  const auto done = m.access(0, 0, access_kind::rmw);
  EXPECT_EQ(done.ns, static_cast<std::uint64_t>(microseconds(1.2).ns));
}

TEST(Machine, ModuleQueuesConcurrentAccesses) {
  machine m(flat_config());
  // Two accesses to the same module issued at t=0: the second queues.
  const auto first = m.access(0, 0, access_kind::read);
  const auto second = m.access(1, 0, access_kind::read);
  EXPECT_GT(second.ns, first.ns);
  // Different modules do not interfere.
  machine m2(flat_config());
  const auto a = m2.access(0, 0, access_kind::read);
  const auto b = m2.access(1, 1, access_kind::read);
  EXPECT_EQ(a.ns, b.ns);
}

TEST(Machine, QueueDelayRecorded) {
  machine m(flat_config());
  m.access(0, 0, access_kind::read);
  m.access(1, 0, access_kind::read);
  m.access(2, 0, access_kind::read);
  EXPECT_GT(m.total_queue_delay().ns, 0);
  EXPECT_EQ(m.module_at(0).serviced(), 3u);
}

TEST(Machine, LedgerCountsByKindAndLocality) {
  machine m(flat_config());
  m.access(0, 0, access_kind::read);
  m.access(0, 1, access_kind::read);
  m.access(0, 0, access_kind::write);
  m.access(0, 2, access_kind::write);
  m.access(0, 0, access_kind::rmw);
  m.access(0, 3, access_kind::rmw);
  const auto& c = m.counts();
  EXPECT_EQ(c.local_reads, 1u);
  EXPECT_EQ(c.remote_reads, 1u);
  EXPECT_EQ(c.local_writes, 1u);
  EXPECT_EQ(c.remote_writes, 1u);
  EXPECT_EQ(c.local_rmws, 1u);
  EXPECT_EQ(c.remote_rmws, 1u);
  EXPECT_EQ(c.total(), 6u);
}

TEST(Machine, LedgerSnapshotDiff) {
  machine m(flat_config());
  m.access(0, 0, access_kind::read);
  const auto before = m.counts();
  m.access(0, 0, access_kind::write);
  m.access(0, 1, access_kind::write);
  const auto delta = m.counts() - before;
  EXPECT_EQ(delta.reads(), 0u);
  EXPECT_EQ(delta.writes(), 2u);
}

TEST(Machine, AccessNChainsThroughModule) {
  machine m(flat_config());
  const auto done = m.access_n(0, 0, access_kind::read, 10);
  // 10 accesses serialize on the module: >= 10 * service.
  EXPECT_GE(done.ns, static_cast<std::uint64_t>(microseconds(5.0).ns));
  EXPECT_EQ(m.counts().local_reads, 10u);
}

// Twin machines on one config: `fast` prices every block with one access_n
// call, `ref` with n single access() calls. Every observable (completion
// time, ledger, home module state) must match after each block.
struct twin_machines {
  machine fast;
  machine ref;
  explicit twin_machines(const machine_config& c) : fast(c), ref(c) {}

  void advance(vdur d) {
    for (machine* m : {&fast, &ref}) {
      m->events().schedule_after(d, [] {});
      m->events().run();
    }
  }

  void expect_block(node_id from, node_id home, access_kind kind, std::uint64_t n) {
    const vtime got = fast.access_n(from, home, kind, n);
    vtime want = ref.now();
    for (std::uint64_t i = 0; i < n; ++i) want = ref.access(from, home, kind);
    SCOPED_TRACE(testing::Message() << "from=" << from << " home=" << home
                                    << " kind=" << static_cast<int>(kind) << " n=" << n);
    EXPECT_EQ(got.ns, want.ns);
    EXPECT_EQ(fast.counts(), ref.counts());
    const auto& a = fast.module_at(home);
    const auto& b = ref.module_at(home);
    EXPECT_EQ(a.serviced(), b.serviced());
    EXPECT_EQ(a.busy_until().ns, b.busy_until().ns);
    EXPECT_EQ(a.total_queue_delay().ns, b.total_queue_delay().ns);
  }
};

// Seeded property sweep over local / same-group / cross-group pairs (groups
// of 8 nodes), every access kind, n in {0, 1, 2, random <= 4096}, with
// single accesses and clock advances interleaved so the home module is
// found both busy past and idle before the block's arrival.
void closed_form_sweep(const machine_config& cfg, std::uint64_t seed) {
  ASSERT_EQ(cfg.nodes, 32u);
  twin_machines t(cfg);
  rng gen(seed);
  constexpr node_id kGroup = 8;
  constexpr std::array<access_kind, 3> kKinds = {access_kind::read, access_kind::write,
                                                 access_kind::rmw};
  // A few hot homes so blocks and single accesses queue behind each other.
  constexpr std::array<node_id, 4> kHomes = {0, 9, 18, 27};
  int busy_blocks = 0;
  int idle_blocks = 0;
  for (int step = 0; step < 400; ++step) {
    const node_id home = kHomes[gen.below(kHomes.size())];
    const node_id base = home - home % kGroup;
    node_id from = home;  // local
    switch (gen.below(3)) {
      case 1:  // same group, another node
        from = base + static_cast<node_id>((home - base + 1 + gen.below(kGroup - 1)) % kGroup);
        break;
      case 2:  // another group
        from = static_cast<node_id>((base + kGroup + gen.below(cfg.nodes - kGroup)) % cfg.nodes);
        break;
      default: break;
    }
    const access_kind kind = kKinds[gen.below(kKinds.size())];
    switch (gen.below(3)) {
      case 0: t.advance(nanoseconds(gen.uniform(0, 4096 * cfg.atomic_service.ns))); break;
      case 1:
        for (auto i = gen.below(4); i > 0; --i) {
          const node_id peer = static_cast<node_id>(gen.below(cfg.nodes));
          t.expect_block(peer, home, kKinds[gen.below(kKinds.size())], 1);
        }
        break;
      default: break;
    }
    std::uint64_t n = 0;
    switch (gen.below(4)) {
      case 0: n = 0; break;
      case 1: n = 1; break;
      case 2: n = 2; break;
      default: n = gen.below(4097); break;
    }
    ++(t.fast.module_at(home).busy_until() > t.fast.now() ? busy_blocks : idle_blocks);
    t.expect_block(from, home, kind, n);
  }
  EXPECT_GT(busy_blocks, 0);
  EXPECT_GT(idle_blocks, 0);
}

TEST(Machine, AccessNClosedFormMatchesLoopConstantWire) {
  for (std::uint64_t seed : {1u, 2u, 3u}) closed_form_sweep(machine_config::test_machine(32), seed);
}

TEST(Machine, AccessNClosedFormMatchesLoopHierarchical) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    closed_form_sweep(machine_config::hierarchical_numa(4, 8), seed);
  }
}

TEST(Machine, AccessNButterflyMatchesLoop) {
  auto c = flat_config();
  c.nodes = 16;
  c.wire_model = interconnect_model::butterfly;
  c.switch_stage_latency = microseconds(0.2);
  c.switch_service = microseconds(0.3);
  twin_machines t(c);
  t.expect_block(0, 5, access_kind::read, 7);
  t.expect_block(3, 5, access_kind::rmw, 4);
  t.expect_block(5, 5, access_kind::write, 9);
  t.advance(microseconds(1.0));
  t.expect_block(12, 5, access_kind::write, 33);
  t.expect_block(1, 2, access_kind::read, 1);
}

// Spikes every third access: access_delay must be drawn once per access.
class every_third_spike final : public perturber {
 public:
  [[nodiscard]] vdur access_delay(node_id /*from*/, node_id /*home*/) override {
    return ++calls_ % 3 == 0 ? microseconds(2.0) : vdur{};
  }
  [[nodiscard]] std::uint64_t calls() const { return calls_; }

 private:
  std::uint64_t calls_{0};
};

TEST(Machine, AccessNPerturberMatchesLoop) {
  twin_machines t(flat_config());
  every_third_spike fast_spikes;
  every_third_spike ref_spikes;
  t.fast.set_perturber(&fast_spikes);
  t.ref.set_perturber(&ref_spikes);
  t.expect_block(0, 1, access_kind::read, 10);
  t.expect_block(1, 1, access_kind::rmw, 5);
  t.advance(microseconds(50.0));
  t.expect_block(2, 1, access_kind::write, 8);
  EXPECT_EQ(fast_spikes.calls(), 23u);
  EXPECT_EQ(ref_spikes.calls(), 23u);
}

TEST(MemoryModule, ServiceNTriangularTermDoesNotOverflow) {
  // n(n-1) exceeds int64 for both parities below, while n(n-1)/2 still fits.
  for (std::uint64_t n : {4'000'000'000ull, 4'000'000'001ull}) {
    memory_module m(0);
    EXPECT_EQ(m.service_n(vtime{}, nanoseconds(1), n).ns, n);
    EXPECT_EQ(m.serviced(), n);
    EXPECT_EQ(static_cast<std::uint64_t>(m.total_queue_delay().ns), n * (n - 1) / 2);
  }
}

TEST(Machine, ButterflyPresetShape) {
  const auto c = machine_config::butterfly_gp1000();
  EXPECT_EQ(c.nodes, 32u);
  EXPECT_GT(c.remote_wire, c.local_wire);
  EXPECT_GT(c.atomic_service, c.mem_service);
  EXPECT_GT(c.context_switch, microseconds(100));
}

machine_config hier_config() {
  auto c = flat_config();  // nodes = 4
  c.wire_model = interconnect_model::hierarchical;
  c.group_size = 2;  // groups {0,1} and {2,3}
  c.group_wire = microseconds(0.5);
  return c;
}

TEST(Machine, HierarchicalSameGroupUsesGroupWire) {
  machine m(hier_config());
  // wire out + service + wire back = 0.5 + 0.5 + 0.5
  EXPECT_EQ(m.access(0, 1, access_kind::read).ns,
            static_cast<std::uint64_t>(microseconds(1.5).ns));
}

TEST(Machine, HierarchicalCrossGroupUsesRemoteWire) {
  machine m(hier_config());
  EXPECT_EQ(m.access(0, 2, access_kind::read).ns,
            static_cast<std::uint64_t>(microseconds(2.5).ns));
}

TEST(Machine, HierarchicalLocalAccessUnchanged) {
  machine m(hier_config());
  EXPECT_EQ(m.access(0, 0, access_kind::read).ns,
            static_cast<std::uint64_t>(microseconds(0.7).ns));
}

TEST(Machine, GroupArithmetic) {
  auto c = hier_config();
  c.nodes = 10;
  c.group_size = 4;
  EXPECT_EQ(c.group_of(0), 0u);
  EXPECT_EQ(c.group_of(3), 0u);
  EXPECT_EQ(c.group_of(4), 1u);
  EXPECT_EQ(c.group_of(9), 2u);
  EXPECT_EQ(c.groups(), 3u);  // rounds up
}

TEST(Machine, MinCrossGroupLatencyPerModel) {
  auto c = flat_config();
  EXPECT_EQ(c.min_cross_group_latency(), c.remote_wire);
  c.wire_model = interconnect_model::hierarchical;
  EXPECT_EQ(c.min_cross_group_latency(), c.remote_wire);
  c.wire_model = interconnect_model::butterfly;
  c.nodes = 16;  // two 4-ary stages
  c.switch_stage_latency = microseconds(0.2);
  c.switch_service = microseconds(0.3);
  EXPECT_EQ(c.min_cross_group_latency().ns, microseconds(1.0).ns);
}

TEST(Machine, HierarchicalPresetShapes) {
  const auto n = machine_config::hierarchical_numa();
  EXPECT_EQ(n.nodes, 1024u);
  EXPECT_EQ(n.groups(), 32u);
  EXPECT_EQ(n.wire_model, interconnect_model::hierarchical);
  EXPECT_GT(n.group_wire, n.local_wire);
  EXPECT_GT(n.remote_wire, n.group_wire);

  const auto f = machine_config::fat_tree_hpc4096();
  EXPECT_EQ(f.nodes, 4096u);
  EXPECT_EQ(f.group_size, 64u);
  EXPECT_EQ(f.min_cross_group_latency(), f.remote_wire);
}

TEST(Machine, RandomStreamSeededFromConfig) {
  auto cfg = flat_config();
  cfg.seed = 2024;
  machine a(cfg);
  machine b(cfg);
  EXPECT_EQ(a.random()(), b.random()());
}

}  // namespace
}  // namespace adx::sim
