#include "sim/event_domain.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/job_executor.hpp"
#include "sim/machine_config.hpp"

namespace adx::sim {
namespace {

machine_config four_groups() {
  auto cfg = machine_config::hierarchical_numa(4, 4);
  return cfg;
}

TEST(EventDomain, FactoryClampsShardsToGroups) {
  const auto cfg = four_groups();
  auto dom = make_event_domain(cfg, {.shards = 64});
  EXPECT_EQ(dom->places(), 4u);
  // More shards than places is silently clamped; still runs.
  dom->queue_of(0).schedule_at(vtime{5}, [] {});
  EXPECT_EQ(dom->run(nullptr), 1u);
  // Zero shards is no configuration at all: rejected, never clamped.
  EXPECT_THROW((void)make_event_domain(cfg, {.shards = 0}), std::invalid_argument);
}

TEST(EventDomain, LookaheadComesFromTheInterconnect) {
  const auto cfg = four_groups();
  auto dom = make_event_domain(cfg, {.shards = 1});
  EXPECT_EQ(dom->lookahead(), cfg.min_cross_group_latency());
}

TEST(EventDomain, SequentialDomainRejectsBadPlace) {
  auto dom = make_event_domain(four_groups(), {.shards = 1});
  EXPECT_THROW((void)dom->queue_of(4), std::out_of_range);
  EXPECT_THROW(dom->send(4, 0, vtime{1'000'000'000}, 0, [] {}), std::out_of_range);
  EXPECT_THROW(dom->send(0, 4, vtime{1'000'000'000}, 0, [] {}), std::out_of_range);
}

TEST(EventDomain, SequentialDomainEnforcesTheHorizon) {
  const auto cfg = four_groups();
  auto dom = make_event_domain(cfg, {.shards = 1});
  const auto L = dom->lookahead();
  EXPECT_THROW(dom->send(0, 1, vtime{} + (L - nanoseconds(1)), 0, [] {}),
               std::logic_error);
  bool ran = false;
  dom->send(0, 1, vtime{} + L, 1, [&] { ran = true; });
  dom->run(nullptr);
  EXPECT_TRUE(ran);
  EXPECT_EQ(dom->stats().cross_sends, 1u);
}

TEST(EventDomain, StreamsAreAPureFunctionOfSeedAndPlace) {
  const auto cfg = four_groups();
  auto a = make_event_domain(cfg, {.shards = 1, .seed = 7});
  auto b = make_event_domain(cfg, {.shards = 3, .seed = 7});
  for (unsigned p = 0; p < 4; ++p) {
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(a->stream(p)(), b->stream(p)());
    }
  }
}

/// Ping-pong between places through send(): the workload every discipline-
/// following client reduces to. Returns the full delivery log.
struct pingpong_run {
  /// Delivery log per destination place (one slot is only ever appended by
  /// its own shard, so parallel windows never race on it).
  std::vector<std::vector<std::uint64_t>> log;
  vtime end{};
  domain_stats stats;
};

pingpong_run run_pingpong(unsigned shards, unsigned workers, unsigned rounds) {
  const auto cfg = four_groups();
  auto dom = make_event_domain(cfg, {.shards = shards, .seed = 11});
  pingpong_run out;
  out.log.resize(dom->places());
  const auto L = dom->lookahead();
  std::vector<std::uint64_t> counters(dom->places(), 0);

  // Each place p fires a chain of `rounds` messages to (p+1)%places; every
  // delivery is timestamped exactly at the sender's horizon.
  struct hop_fn {
    event_domain* dom;
    pingpong_run* out;
    std::vector<std::uint64_t>* counters;
    vdur L;
    unsigned places;

    void fire(unsigned from, unsigned left) const {
      if (left == 0) return;
      const unsigned to = (from + 1) % places;
      const std::uint64_t origin =
          (static_cast<std::uint64_t>(from) << 32) | (*counters)[from]++;
      auto* self = this;
      dom->send(from, to, dom->queue_of(from).now() + L, origin,
                [self, to, left, origin] {
                  self->out->log[to].push_back(origin);
                  self->fire(to, left - 1);
                });
    }
  };
  hop_fn hop{dom.get(), &out, &counters, L, dom->places()};
  for (unsigned p = 0; p < dom->places(); ++p) hop.fire(p, rounds);

  exec::job_executor ex(workers);
  dom->run(workers > 1 ? &ex : nullptr);
  out.end = dom->now();
  out.stats = dom->stats();
  return out;
}

TEST(EventDomain, PingPongBitIdenticalAcrossShardAndWorkerCounts) {
  const auto ref = run_pingpong(1, 1, 12);
  ASSERT_FALSE(ref.log[0].empty());
  for (unsigned shards : {1u, 2u, 3u, 4u}) {
    for (unsigned workers : {1u, 4u}) {
      const auto got = run_pingpong(shards, workers, 12);
      EXPECT_EQ(got.log, ref.log) << "shards=" << shards << " workers=" << workers;
      EXPECT_EQ(got.end, ref.end) << "shards=" << shards;
      EXPECT_EQ(got.stats, ref.stats) << "shards=" << shards;
    }
  }
}

TEST(EventDomain, RunRethrowsACallbackErrorFromAPoolWorker) {
  auto dom = make_event_domain(four_groups(), {.shards = 4});
  exec::job_executor ex(4);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> worker_threw{false};
  // One event per shard in the first window, which always forks (it seeds
  // the inline-or-fork cost model). The calling thread takes part as
  // worker 0; it holds its job until a pool worker has thrown, so the error
  // under test really crosses threads.
  for (unsigned p = 0; p < dom->places(); ++p) {
    dom->queue_of(p).schedule_at(vtime{10}, [&] {
      if (std::this_thread::get_id() != caller) {
        worker_threw = true;
        throw std::runtime_error("event callback failed");
      }
      while (!worker_threw) std::this_thread::yield();
    });
  }
  EXPECT_THROW(dom->run(&ex), std::runtime_error);
  EXPECT_TRUE(worker_threw);
}

TEST(EventDomain, SlabStatsAreShardInvariant) {
  // slots_acquired / callback_spills are logical-schedule functions; the sum
  // over shards must not depend on the shard count.
  const auto ref = run_pingpong(1, 1, 12);
  for (unsigned shards : {2u, 3u, 4u}) {
    const auto got = run_pingpong(shards, 1, 12);
    EXPECT_EQ(got.stats.slab_slots, ref.stats.slab_slots) << "shards=" << shards;
    EXPECT_EQ(got.stats.callback_spills, ref.stats.callback_spills);
  }
}

TEST(EventDomain, BudgetStopsAtAShardInvariantBoundary) {
  auto count_processed = [](unsigned shards) {
    const auto cfg = four_groups();
    auto dom = make_event_domain(cfg, {.shards = shards});
    const auto L = dom->lookahead();
    for (unsigned p = 0; p < dom->places(); ++p) {
      for (int i = 1; i <= 20; ++i) {
        dom->queue_of(p).schedule_at(vtime{} + L * i, [] {});
      }
    }
    dom->run(nullptr, 17);
    return dom->processed();
  };
  const auto ref = count_processed(1);
  EXPECT_GE(ref, 17u);
  EXPECT_EQ(count_processed(2), ref);
  EXPECT_EQ(count_processed(4), ref);
}

}  // namespace
}  // namespace adx::sim
