// Heap allocations per LMSK expansion, counted by replacing the global
// operator new and operator new[] for this test binary.
#include <array>
#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "tsp/lmsk.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
/// Sizes of the first allocations since g_allocations was last reset.
std::array<std::size_t, 16> g_sizes{};

void* counted_new(std::size_t n) {
  const auto i = g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (i < g_sizes.size()) g_sizes[i] = n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

// Both forms: a sanitizer runtime that supplies its own operator new[]
// would not forward it to operator new.
void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace adx::tsp {
namespace {

// A child is one small step in the search's arena: once the scratch has
// grown, an expansion allocates nothing but, now and then, an arena block.
TEST(LmskAlloc, ExpandAllocatesOnlyArenaBlocks) {
  const auto inst = instance::random_asymmetric(36, 9001);
  step_arena steps;
  lmsk engine(inst, steps);
  std::uint32_t seq = 1;
  node_queue q;
  {
    // The root is the largest node: expanding it grows all the scratch.
    auto er = engine.expand(engine.root(), kInfBound, seq);
    for (auto& c : er.children) q.push(std::move(c));
  }
  const std::size_t bytes_before = steps.bytes();
  std::int64_t best = kInfBound;
  std::size_t checked = 0;
  std::size_t children = 0;
  // The search makes fewer than 2,000 nodes; the cap turns a broken bound
  // into a failure rather than a search without end.
  for (std::size_t pops = 0; !q.empty() && pops < 10000; ++pops) {
    auto sp = q.pop();
    if (sp.bound >= best) continue;
    const int k = sp.k();
    g_allocations.store(0);
    auto er = engine.expand(std::move(sp), best, seq);
    const auto made = g_allocations.load();
    children += er.children.size();
    if (er.completed && er.completed->cost < best) best = er.completed->cost;
    for (auto& c : er.children) q.push(std::move(c));
    // A k == 2 node allocates the order of the tour it completes.
    if (k == 2) continue;
    SCOPED_TRACE(testing::Message() << "expansion " << checked << " k=" << k);
    ASSERT_LE(made, 1u);
    if (made == 1) {
      EXPECT_EQ(g_sizes[0], step_arena::kBlockBytes);
    }
    ++checked;
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(best, 201);  // the whole search ran (LmskPinned pins its result)
  EXPECT_GT(checked, 700u);
  const std::size_t bytes = steps.bytes() - bytes_before;
  EXPECT_LE(bytes, 64 * children) << bytes << " arena bytes for " << children << " children";
}

}  // namespace
}  // namespace adx::tsp
