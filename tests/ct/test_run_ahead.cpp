// Run-ahead (sim::event_queue::try_run_ahead via runtime::schedule_resume)
// must be invisible: a drained run and a run_one()-stepped run of the same
// program — the latter never runs ahead — resume every thread at the same
// times in the same order and count the same events.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "ct/context.hpp"
#include "ct/runtime.hpp"
#include "locks/factory.hpp"

namespace adx::ct {
namespace {

struct resume_record {
  std::uint64_t at;
  thread_id tid;
  friend bool operator==(const resume_record&, const resume_record&) = default;
};

struct outcome {
  std::vector<resume_record> trace;
  std::uint64_t processed{0};
  std::uint64_t slots_acquired{0};
  std::uint64_t end_ns{0};
  std::uint64_t run_aheads{0};
};

/// A seeded random program: `threads` threads over `procs` processors, each
/// a sequence of compute, read/write/rmw, touch, lock/unlock, yield and
/// sleep steps; every resume is logged as (time, thread).
outcome run_program(std::uint64_t seed, const sim::machine_config& mc, bool step) {
  constexpr unsigned kThreads = 6;
  constexpr int kSteps = 60;
  const unsigned procs = mc.nodes;
  runtime rt(mc);
  std::vector<std::unique_ptr<svar<std::int64_t>>> vars;
  for (unsigned v = 0; v < 3; ++v) {
    vars.push_back(std::make_unique<svar<std::int64_t>>(v % procs, 0));
  }
  const auto cost = locks::lock_cost_model::fast_test();
  std::vector<std::unique_ptr<locks::lock_object>> lks;
  for (const auto kind : {locks::lock_kind::spin, locks::lock_kind::blocking,
                          locks::lock_kind::adaptive}) {
    lks.push_back(locks::make_lock(kind, static_cast<sim::node_id>(lks.size() % procs), cost));
  }

  outcome out;
  for (unsigned t = 0; t < kThreads; ++t) {
    rt.fork(t % procs, [&, t](context& ctx) -> task<void> {
      std::mt19937_64 rng(seed * 131 + t);
      const auto log = [&] { out.trace.push_back({ctx.now().ns, ctx.self()}); };
      for (int s = 0; s < kSteps; ++s) {
        const auto r = rng();
        auto& var = *vars[(r >> 8) % vars.size()];
        switch (r % 8) {
          case 0:  // includes zero-length computes, which never suspend
            co_await ctx.compute(sim::nanoseconds(static_cast<std::int64_t>((r >> 16) % 4000)));
            break;
          case 1: (void)co_await ctx.read(var); break;
          case 2: co_await ctx.write(var, static_cast<std::int64_t>(s)); break;
          case 3: (void)co_await ctx.fetch_add(var, std::int64_t{1}); break;
          case 4:
            co_await ctx.touch(static_cast<sim::node_id>((r >> 20) % procs),
                               sim::access_kind::read, 1 + (r >> 24) % 16);
            break;
          case 5: {
            auto& lk = *lks[(r >> 28) % lks.size()];
            co_await lk.lock(ctx);
            log();
            co_await ctx.compute(sim::nanoseconds(static_cast<std::int64_t>((r >> 32) % 3000)));
            co_await lk.unlock(ctx);
            break;
          }
          case 6: co_await ctx.yield(); break;
          default:
            co_await ctx.sleep_for(sim::nanoseconds(static_cast<std::int64_t>((r >> 36) % 2000)));
            break;
        }
        log();
      }
    });
  }
  auto& q = rt.mach().events();
  if (step) {
    while (q.run_one()) {
    }
  } else {
    const auto r = rt.run_all();
    EXPECT_EQ(r.events, q.processed());
  }
  out.processed = q.processed();
  out.slots_acquired = q.slots_acquired();
  out.end_ns = rt.now().ns;
  out.run_aheads = q.run_aheads();
  for (unsigned t = 0; t < kThreads; ++t) EXPECT_EQ(rt.state_of(t), thread_state::done);
  return out;
}

TEST(RunAhead, DrainedRunMatchesSteppedRunOnRandomPrograms) {
  std::uint64_t run_aheads = 0;
  for (const auto& mc : {sim::machine_config::test_machine(4),
                         sim::machine_config::test_machine(2),
                         sim::machine_config::butterfly_gp1000()}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE(testing::Message() << "nodes=" << mc.nodes << " seed=" << seed);
      const auto stepped = run_program(seed, mc, true);
      const auto drained = run_program(seed, mc, false);
      EXPECT_EQ(stepped.run_aheads, 0u);
      EXPECT_EQ(drained.trace, stepped.trace);
      EXPECT_EQ(drained.processed, stepped.processed);
      EXPECT_EQ(drained.slots_acquired, stepped.slots_acquired);
      EXPECT_EQ(drained.end_ns, stepped.end_ns);
      run_aheads += drained.run_aheads;
    }
  }
  EXPECT_GT(run_aheads, 0u);  // the property was actually exercised
}

TEST(RunAhead, ResumeRunsAheadOnlyWhenNothingElseIsPending) {
  runtime rt(sim::machine_config::test_machine(2));
  std::vector<std::uint64_t> times;
  rt.fork(0, [&](context& ctx) -> task<void> {
    for (int i = 0; i < 50; ++i) {
      co_await ctx.compute(sim::microseconds(1));
      times.push_back(ctx.now().ns);
    }
  });
  const auto r = rt.run_all();
  ASSERT_EQ(times.size(), 50u);
  for (std::size_t i = 1; i < times.size(); ++i) EXPECT_EQ(times[i] - times[i - 1], 1000u);
  // Nothing else is pending while a lone thread computes, so every resume
  // runs ahead.
  EXPECT_EQ(rt.mach().events().run_aheads(), 50u);
  EXPECT_EQ(r.events, rt.mach().events().processed());
}

TEST(RunAhead, EventBudgetCountsRunAheadResumes) {
  runtime rt(sim::machine_config::test_machine(1));
  rt.fork(0, [](context& ctx) -> task<void> {
    for (int i = 0; i < 1000; ++i) co_await ctx.compute(sim::microseconds(1));
  });
  const auto r = rt.run(10);
  EXPECT_EQ(r.events, 10u);
  EXPECT_EQ(rt.mach().events().processed(), 10u);
  EXPECT_FALSE(r.completed);
}

}  // namespace
}  // namespace adx::ct
