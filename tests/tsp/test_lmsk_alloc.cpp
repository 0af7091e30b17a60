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

// Both forms: nodes are int16 arrays, and a sanitizer runtime that supplies
// its own operator new[] would not forward it to operator new.
void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace adx::tsp {
namespace {

TEST(LmskAlloc, ExpandAllocatesOneSmallNodePerChild) {
  const auto inst = instance::random_asymmetric(36, 9001);
  lmsk engine(inst);
  std::uint32_t seq = 1;
  node_queue q;
  {
    // The root is the largest node: expanding it grows all the scratch.
    auto er = engine.expand(engine.root(), kInfBound, seq);
    for (auto& c : er.children) q.push(std::move(c));
  }
  int checked = 0;
  std::size_t children = 0;
  while (!q.empty() && checked < 300) {
    auto sp = q.pop();
    const auto k = static_cast<std::size_t>(sp.k());
    // Below this a node's labels and potentials outgrow (k-1)^2 cells.
    if (k < 16) continue;
    g_allocations.store(0);
    auto er = engine.expand(std::move(sp), kInfBound, seq);
    const auto made = g_allocations.load();
    SCOPED_TRACE(testing::Message() << "expansion " << checked << " k=" << k);
    ASSERT_EQ(made, er.children.size());
    for (std::size_t a = 0; a < made; ++a) {
      EXPECT_LT(g_sizes[a], (k - 1) * (k - 1) * sizeof(cell_t));
    }
    ++checked;
    children += er.children.size();
    for (auto& c : er.children) q.push(std::move(c));
  }
  EXPECT_EQ(checked, 300);
  EXPECT_GT(children, 400u);
}

}  // namespace
}  // namespace adx::tsp
