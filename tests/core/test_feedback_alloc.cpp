// Heap allocations per feedback point, counted by replacing the global
// operator new and operator new[] for this test binary.
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include <gtest/gtest.h>

#include "core/adaptive.hpp"
#include "locks/adaptive_lock.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};

void* counted_new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

// Both forms: a sanitizer runtime that supplies its own operator new[] would
// not forward it to operator new, leaving array allocations uncounted.
void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace adx::core {
namespace {

/// Observes without ever reconfiguring.
class watching_policy final : public adaptation_policy {
 public:
  void observe(const observation& obs) override { sum += obs.value; }
  std::int64_t sum{0};
};

class one_sensor_object : public adaptive_object {
 public:
  one_sensor_object() : adaptive_object("impl") {
    object_monitor().add_sensor(sensor("load", [this] { return load; }, 1));
  }
  std::int64_t load{3};
};

TEST(FeedbackAlloc, SteadyStateFeedbackPointAllocatesNothing) {
  one_sensor_object obj;
  auto pol = std::make_shared<watching_policy>();
  obj.set_policy(pol);
  obj.feedback_point();  // warm-up: the monitor's scratch buffer grows once
  const auto before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(obj.feedback_point(), 1u);
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(pol->sum, 3 * 1001);
  // Virtual costs stay as charged: one sample read per observation.
  EXPECT_EQ(obj.costs().monitor_samples, 1001u);
}

TEST(FeedbackAlloc, WindowedFoldsAllocateNothingOnceFull) {
  // The max-in-window history is a ring: sliding it past its first fill
  // reuses the slots (a deque would allocate a block every few dozen
  // samples).
  one_sensor_object obj;
  obj.object_monitor().clear_sensors();
  obj.object_monitor().add_sensor(sensor("load", [&obj] { return obj.load++; }, 1),
                                  sensor_aggregation::max_in_window(4));
  obj.object_monitor().add_sensor(sensor("smooth", [&obj] { return obj.load; }, 1),
                                  sensor_aggregation::ewma(0.5));
  for (int i = 0; i < 4; ++i) obj.feedback_point();  // the window fills
  const auto before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(obj.feedback_point(), 2u);
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(obj.object_monitor().aggregated_value(0), obj.load - 1);
}

TEST(FeedbackAlloc, DefaultAdaptiveLockSteadyStateAllocatesNothing) {
  // The registry's simple-adapt on an uncontended lock: the first sample
  // reconfigures to pure spin, every later one confirms it.
  locks::adaptive_lock lk(0, locks::lock_cost_model::fast_test());
  for (int i = 0; i < 4; ++i) lk.feedback_point();
  ASSERT_EQ(lk.policy()->decisions(), 1u);
  const auto before = g_allocations.load();
  std::size_t delivered = 0;
  for (int i = 0; i < 1000; ++i) delivered += lk.feedback_point();
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(delivered, 500u);  // period 2
  EXPECT_EQ(lk.policy()->decisions(), 1u);
}

}  // namespace
}  // namespace adx::core
