// small_ring: the inline-first FIFO behind lock waiter queues and processor
// ready queues. Checks FIFO semantics, head re-queueing, and the inline-to-
// spill transition (growth must preserve order; repeated growth must keep
// working).
#include "sim/small_ring.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>

namespace adx::sim {
namespace {

TEST(SmallRing, StartsEmpty) {
  small_ring<std::uint32_t, 4> r;
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.size(), 0u);
}

TEST(SmallRing, FifoWithinInlineCapacity) {
  small_ring<std::uint32_t, 4> r;
  for (std::uint32_t i = 0; i < 4; ++i) r.push_back(i);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(r.front(), i);
    r.pop_front();
  }
  EXPECT_TRUE(r.empty());
}

TEST(SmallRing, PushFrontJumpsTheQueue) {
  small_ring<std::uint32_t, 4> r;
  r.push_back(1);
  r.push_back(2);
  r.push_front(99);
  EXPECT_EQ(r.front(), 99u);
  r.pop_front();
  EXPECT_EQ(r.front(), 1u);
}

TEST(SmallRing, WrapsAroundInlineBuffer) {
  small_ring<std::uint32_t, 4> r;
  // Interleave pushes and pops so head walks all the way around the ring.
  for (std::uint32_t i = 0; i < 20; ++i) {
    r.push_back(i);
    EXPECT_EQ(r.front(), i);
    r.pop_front();
  }
  EXPECT_TRUE(r.empty());
}

TEST(SmallRing, GrowthPreservesOrder) {
  small_ring<std::uint32_t, 4> r;
  // Rotate head to the middle first so growth has to unwrap a wrapped ring.
  r.push_back(100);
  r.push_back(101);
  r.pop_front();
  r.pop_front();
  for (std::uint32_t i = 0; i < 10; ++i) r.push_back(i);  // spills at 5th push
  EXPECT_EQ(r.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(r.front(), i);
    r.pop_front();
  }
}

TEST(SmallRing, PushFrontCanTriggerGrowth) {
  small_ring<std::uint32_t, 2> r;
  r.push_back(1);
  r.push_back(2);
  r.push_front(0);  // full: must grow, then place at head
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.front(), 0u);
  r.pop_front();
  EXPECT_EQ(r.front(), 1u);
  r.pop_front();
  EXPECT_EQ(r.front(), 2u);
}

// Differential check against std::deque over a long mixed op sequence,
// crossing the spill boundary repeatedly relative to ring occupancy.
TEST(SmallRing, MatchesDequeOverMixedOps) {
  small_ring<std::uint32_t, 4> r;
  std::deque<std::uint32_t> model;
  std::uint64_t x = 88172645463325252ULL;
  for (int step = 0; step < 5000; ++step) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const auto v = static_cast<std::uint32_t>(x);
    switch (x % 4) {
      case 0:
      case 1:
        r.push_back(v);
        model.push_back(v);
        break;
      case 2:
        r.push_front(v);
        model.push_front(v);
        break;
      case 3:
        if (!model.empty()) {
          ASSERT_EQ(r.front(), model.front());
          r.pop_front();
          model.pop_front();
        }
        break;
    }
    ASSERT_EQ(r.size(), model.size());
    if (!model.empty()) {
      ASSERT_EQ(r.front(), model.front());
    }
  }
  while (!model.empty()) {
    ASSERT_EQ(r.front(), model.front());
    r.pop_front();
    model.pop_front();
  }
  EXPECT_TRUE(r.empty());
}

}  // namespace
}  // namespace adx::sim
