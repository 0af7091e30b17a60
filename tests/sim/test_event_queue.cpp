#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <vector>

namespace adx::sim {
namespace {

TEST(EventQueue, StartsEmptyAtTimeZero) {
  event_queue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.now().ns, 0u);
  EXPECT_FALSE(q.run_one());
}

TEST(EventQueue, RunsInTimeOrder) {
  event_queue q;
  std::vector<int> order;
  q.schedule_at(vtime{300}, [&] { order.push_back(3); });
  q.schedule_at(vtime{100}, [&] { order.push_back(1); });
  q.schedule_at(vtime{200}, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now().ns, 300u);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  event_queue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(vtime{100}, [&order, i] { order.push_back(i); });
  }
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, SchedulingInPastClampsToNow) {
  event_queue q;
  vtime seen{};
  q.schedule_at(vtime{500}, [&] {
    q.schedule_at(vtime{100}, [&] { seen = q.now(); });  // "in the past"
  });
  q.run();
  EXPECT_EQ(seen.ns, 500u);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime) {
  event_queue q;
  vtime seen{};
  q.schedule_at(vtime{100}, [&] {
    q.schedule_after(vdur{50}, [&] { seen = q.now(); });
  });
  q.run();
  EXPECT_EQ(seen.ns, 150u);
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  event_queue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) q.schedule_after(vdur{10}, recurse);
  };
  q.schedule_at(vtime{0}, recurse);
  q.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(q.now().ns, 90u);
}

TEST(EventQueue, RunLimitStopsEarly) {
  event_queue q;
  int count = 0;
  for (int i = 0; i < 10; ++i) q.schedule_at(vtime{static_cast<std::uint64_t>(i)}, [&] { ++count; });
  EXPECT_EQ(q.run(4), 4u);
  EXPECT_EQ(count, 4);
  EXPECT_EQ(q.pending(), 6u);
}

TEST(EventQueue, RunUntilRespectsDeadline) {
  event_queue q;
  int count = 0;
  for (std::uint64_t t : {10u, 20u, 30u, 40u}) q.schedule_at(vtime{t}, [&] { ++count; });
  q.run_until(vtime{25});
  EXPECT_EQ(count, 2);
  EXPECT_EQ(q.pending(), 2u);
}

TEST(EventQueue, RunUntilIncludesNewlyDueEvents) {
  event_queue q;
  int count = 0;
  q.schedule_at(vtime{10}, [&] {
    ++count;
    q.schedule_at(vtime{15}, [&] { ++count; });
  });
  q.run_until(vtime{20});
  EXPECT_EQ(count, 2);
}

TEST(EventQueue, ProcessedCounterAccumulates) {
  event_queue q;
  q.schedule_at(vtime{1}, [] {});
  q.schedule_at(vtime{2}, [] {});
  q.run();
  EXPECT_EQ(q.processed(), 2u);
}

// Cross-checks the 4-ary heap against a trivially correct reference model: a
// flat vector with the same semantics (clamp past times to now, pop the
// minimum by (at, insertion seq)). Both sides consume an identical schedule —
// up-front inserts, nested inserts from running callbacks, dense multi-way
// ties — and must report the same execution order, event for event.
TEST(EventQueue, StressMatchesReferenceModelOrder) {
  struct model_event {
    std::uint64_t at;
    std::uint64_t id;
  };
  struct reference_queue {
    std::vector<model_event> pending;
    std::uint64_t now{0};
    std::uint64_t next_seq{0};  // doubles as the event id
    std::uint64_t insert(std::uint64_t at) {
      if (at < now) at = now;
      pending.push_back({at, next_seq});
      return next_seq++;
    }
    std::uint64_t pop() {  // min by (at, seq); seq is unique
      std::size_t best = 0;
      for (std::size_t i = 1; i < pending.size(); ++i) {
        const auto& a = pending[i];
        const auto& b = pending[best];
        if (a.at < b.at || (a.at == b.at && a.id < b.id)) best = i;
      }
      now = pending[best].at;
      const auto id = pending[best].id;
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(best));
      return id;
    }
  };

  event_queue q;
  reference_queue model;
  std::vector<std::uint64_t> executed;

  // Deterministic LCG: the point is coverage of tie patterns, not randomness.
  std::uint64_t x = 0x2545F4914F6CDD1DULL;
  const auto rnd = [&](std::uint64_t mod) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return (x >> 33) % mod;
  };

  // Inserts the same event into both queues; a third of events spawn 1-2
  // followers when they run, some at the current instant (FIFO among events
  // created while their own timestamp is executing).
  const std::function<void(std::uint64_t)> insert = [&](std::uint64_t at) {
    const auto id = model.insert(at);
    q.schedule_at(vtime{at}, [&, id, at] {
      executed.push_back(id);
      if (id % 3 == 0) {
        const auto n = 1 + rnd(2);
        for (std::uint64_t k = 0; k < n; ++k) insert(at + rnd(5));
      }
    });
  };

  for (int i = 0; i < 500; ++i) {
    insert(rnd(50));  // dense timestamp range -> many multi-way ties
  }
  q.run();

  // Replay the reference: its callbacks are the same closures by id, so the
  // follower inserts were already mirrored during the real run; just drain.
  std::vector<std::uint64_t> expected;
  while (!model.pending.empty()) expected.push_back(model.pop());

  ASSERT_EQ(executed.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(executed[i], expected[i]) << "divergence at event " << i;
  }
  EXPECT_EQ(q.processed(), executed.size());
}

// Equal-timestamp FIFO under load: many bursts at identical instants must
// execute in exact insertion order even as the 4-ary heap grows and shrinks
// around them.
TEST(EventQueue, MassiveTieBurstsKeepFifoOrder) {
  event_queue q;
  std::vector<int> order;
  int id = 0;
  for (std::uint64_t t : {40u, 10u, 30u, 10u, 20u, 40u, 10u}) {
    for (int i = 0; i < 37; ++i) {
      q.schedule_at(vtime{t}, [&order, id] { order.push_back(id); });
      ++id;
    }
  }
  q.run();
  ASSERT_EQ(order.size(), 7u * 37u);
  // Reconstruct expected: stable sort of insertion ids by timestamp.
  std::vector<std::pair<std::uint64_t, int>> model;
  int mid = 0;
  for (std::uint64_t t : {40u, 10u, 30u, 10u, 20u, 40u, 10u}) {
    for (int i = 0; i < 37; ++i) model.emplace_back(t, mid++);
  }
  std::stable_sort(model.begin(), model.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < model.size(); ++i) {
    EXPECT_EQ(order[i], model[i].second) << "position " << i;
  }
}

// A perturbed tie key reorders same-instant events by (key, seq) — and only
// same-instant events; cross-timestamp order is untouched.
TEST(EventQueue, PerturbedTieKeyReordersWithinInstantOnly) {
  struct reverse_ties final : perturber {
    std::uint64_t tie_key(vtime, std::uint64_t seq) override { return ~seq; }
  } rev;
  event_queue q;
  q.set_perturber(&rev);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) q.schedule_at(vtime{100}, [&order, i] { order.push_back(i); });
  for (int i = 4; i < 8; ++i) q.schedule_at(vtime{200}, [&order, i] { order.push_back(i); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 0, 7, 6, 5, 4}));
}

TEST(EventQueue, NowMonotoneNonDecreasing) {
  event_queue q;
  vtime last{};
  bool monotone = true;
  for (std::uint64_t t : {5u, 3u, 9u, 3u, 7u}) {
    q.schedule_at(vtime{t}, [&] {
      monotone = monotone && q.now() >= last;
      last = q.now();
    });
  }
  q.run();
  EXPECT_TRUE(monotone);
}

// A callback chain that continues itself every `step` ns, `left` times: it
// runs ahead when the queue admits it and schedules itself otherwise — the
// pattern runtime::schedule_resume follows. Logs the time of every step.
struct chain {
  event_queue& q;
  vdur step;
  int left;
  std::vector<std::uint64_t>& log;

  void run() {
    for (;;) {
      log.push_back(q.now().ns);
      if (--left == 0) return;
      const vtime next = q.now() + step;
      if (!q.try_run_ahead(next)) {
        q.schedule_at(next, [this] { run(); });
        return;
      }
    }
  }
};

TEST(EventQueueRunAhead, LoneChainRunsAheadEveryStepAndCountsEachEvent) {
  event_queue q;
  std::vector<std::uint64_t> log;
  chain c{q, vdur{10}, 6, log};
  q.schedule_at(vtime{0}, [&] { c.run(); });
  EXPECT_EQ(q.run(), 6u);
  EXPECT_EQ(log, (std::vector<std::uint64_t>{0, 10, 20, 30, 40, 50}));
  EXPECT_EQ(q.run_aheads(), 5u);
  EXPECT_EQ(q.processed(), 6u);
  EXPECT_EQ(q.slots_acquired(), 6u);
  EXPECT_EQ(q.now().ns, 50u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueRunAhead, NeverPastRunUntilsBound) {
  event_queue q;
  std::vector<std::uint64_t> log;
  chain c{q, vdur{10}, 100, log};
  q.schedule_at(vtime{0}, [&] { c.run(); });
  EXPECT_EQ(q.run_until(vtime{55}), 6u);
  EXPECT_EQ(q.now().ns, 50u);
  ASSERT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.next_at().ns, 60u);
  // An inclusive bound admits an event exactly at it.
  EXPECT_EQ(q.run_until(vtime{80}), 3u);
  EXPECT_EQ(q.now().ns, 80u);
  EXPECT_EQ(q.next_at().ns, 90u);
  EXPECT_EQ(log.back(), 80u);
}

TEST(EventQueueRunAhead, RunLimitStopsAtExactlyLimit) {
  for (const std::uint64_t limit : {1u, 2u, 7u}) {
    event_queue q;
    std::vector<std::uint64_t> log;
    chain c{q, vdur{10}, 100, log};
    q.schedule_at(vtime{0}, [&] { c.run(); });
    EXPECT_EQ(q.run(limit), limit);
    EXPECT_EQ(q.processed(), limit);
    EXPECT_EQ(log.size(), limit);
    EXPECT_EQ(q.pending(), 1u);
    // The bounded run_until counts the same way.
    EXPECT_EQ(q.run_until(vtime{1000}, limit), limit);
    EXPECT_EQ(q.processed(), 2 * limit);
  }
}

TEST(EventQueueRunAhead, EqualTimePendingEventRunsFirst) {
  constexpr std::uint64_t kOther = 999;  // logged by the pending event
  event_queue q;
  std::vector<std::uint64_t> log;
  chain c{q, vdur{10}, 3, log};
  q.schedule_at(vtime{10}, [&] { c.run(); });
  // Same time as the chain's second step: scheduled earlier, so it runs first.
  q.schedule_at(vtime{20}, [&] { log.push_back(kOther); });
  q.schedule_at(vtime{31}, [&] { log.push_back(kOther + 1); });
  q.run();
  EXPECT_EQ(log, (std::vector<std::uint64_t>{10, kOther, 20, 30, kOther + 1}));
  // 20 waited behind the pending event; 30 < 31 ran ahead.
  EXPECT_EQ(q.run_aheads(), 1u);
}

TEST(EventQueueRunAhead, NoneUnderRunOneOrAPerturber) {
  {
    event_queue q;
    std::vector<std::uint64_t> log;
    chain c{q, vdur{10}, 5, log};
    q.schedule_at(vtime{0}, [&] { c.run(); });
    while (q.run_one()) {
    }
    EXPECT_EQ(log.size(), 5u);
    EXPECT_EQ(q.run_aheads(), 0u);
    EXPECT_EQ(q.processed(), 5u);
  }
  {
    perturber identity;  // default hooks: tie keys equal seqs
    event_queue q;
    q.set_perturber(&identity);
    std::vector<std::uint64_t> log;
    chain c{q, vdur{10}, 5, log};
    q.schedule_at(vtime{0}, [&] { c.run(); });
    EXPECT_EQ(q.run(), 5u);
    EXPECT_EQ(q.run_aheads(), 0u);
  }
  // Outside any drain (no callback running) nothing is admitted either.
  event_queue q;
  EXPECT_FALSE(q.try_run_ahead(vtime{5}));
  EXPECT_EQ(q.processed(), 0u);
}

TEST(EventQueueRunAhead, DebugDelayIsPaidPerEventRun) {
  struct delay_guard {
    explicit delay_guard(std::uint64_t ns) { event_queue::set_debug_pop_delay_ns(ns); }
    ~delay_guard() { event_queue::set_debug_pop_delay_ns(0); }
  };
  constexpr std::uint64_t kDelayNs = 200'000;
  constexpr int kEvents = 40;
  event_queue q;
  std::vector<std::uint64_t> log;
  chain c{q, vdur{10}, kEvents, log};
  q.schedule_at(vtime{0}, [&] { c.run(); });
  const auto t0 = std::chrono::steady_clock::now();
  {
    const delay_guard delay(kDelayNs);
    EXPECT_EQ(q.run(), static_cast<std::uint64_t>(kEvents));
  }
  const auto wall = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(q.run_aheads(), static_cast<std::uint64_t>(kEvents - 1));
  EXPECT_GE(std::chrono::duration_cast<std::chrono::nanoseconds>(wall).count(),
            static_cast<std::int64_t>(kEvents * kDelayNs));
}

}  // namespace
}  // namespace adx::sim
