// Unit tests for the parallel sweep executor: the determinism contract
// (results collected by index, identical for any worker count), the
// find_first ordering guarantees, exception propagation, and the
// spin-then-park handoff under stress.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "exec/job_executor.hpp"

namespace adx::exec {
namespace {

TEST(JobExecutor, DefaultJobsIsAtLeastOne) {
  EXPECT_GE(default_jobs(), 1u);
  EXPECT_EQ(resolve_jobs(0), default_jobs());
  EXPECT_EQ(resolve_jobs(3), 3u);
  EXPECT_EQ(resolve_jobs(1u << 20), 512u) << "worker count must be clamped";
}

#ifdef __linux__
TEST(JobExecutor, DefaultJobsIsTheAffinityCpuCount) {
  cpu_set_t all;
  CPU_ZERO(&all);
  ASSERT_EQ(sched_getaffinity(0, sizeof(all), &all), 0);
  EXPECT_EQ(default_jobs(), static_cast<unsigned>(CPU_COUNT(&all)));
  EXPECT_TRUE(job_executor(default_jobs()).spins());

  // Pinned to one CPU (what `taskset -c 0` does to a whole process), the
  // default is one worker and a two-worker executor parks instead of
  // spinning.
  int first = 0;
  while (!CPU_ISSET(first, &all)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const unsigned pinned = default_jobs();
  const bool pinned_spins = job_executor(2).spins();
  ASSERT_EQ(sched_setaffinity(0, sizeof(all), &all), 0);
  EXPECT_EQ(pinned, 1u);
  EXPECT_FALSE(pinned_spins);
}
#endif

TEST(JobExecutor, ReportsItsWorkerCount) {
  job_executor one(1);
  EXPECT_EQ(one.jobs(), 1u);
  job_executor four(4);
  EXPECT_EQ(four.jobs(), 4u);
  job_executor dflt(0);
  EXPECT_EQ(dflt.jobs(), default_jobs());
}

TEST(JobExecutor, MapCollectsByIndexForAnyWorkerCount) {
  const std::size_t n = 103;  // deliberately not a multiple of any chunk
  std::vector<std::size_t> expect(n);
  for (std::size_t i = 0; i < n; ++i) expect[i] = i * i;
  for (const unsigned jobs : {1u, 2u, 5u}) {
    job_executor ex(jobs);
    const auto out = ex.map(n, [](std::size_t i) { return i * i; });
    EXPECT_EQ(out, expect) << "jobs=" << jobs;
  }
}

TEST(JobExecutor, MapHandlesNonTrivialResultTypes) {
  job_executor ex(3);
  const auto out =
      ex.map(20, [](std::size_t i) { return std::string(i, 'x'); });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], std::string(i, 'x'));
  }
}

TEST(JobExecutor, ForEachVisitsEveryIndexExactlyOnce) {
  const std::size_t n = 257;
  for (const unsigned jobs : {1u, 4u}) {
    std::vector<std::atomic<int>> visits(n);
    job_executor ex(jobs);
    ex.for_each(n, [&](std::size_t i) { ++visits[i]; });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "jobs=" << jobs << " i=" << i;
    }
  }
}

TEST(JobExecutor, ChunkSizeNeverChangesResults) {
  const std::size_t n = 37;
  std::vector<std::size_t> expect(n);
  std::iota(expect.begin(), expect.end(), std::size_t{0});
  job_executor ex(4);
  // chunk > count, chunk == count, count % chunk != 0, chunk == 1.
  for (const std::size_t chunk : {std::size_t{100}, n, std::size_t{5}, std::size_t{1}}) {
    const auto out = ex.map(n, [](std::size_t i) { return i; }, chunk);
    EXPECT_EQ(out, expect) << "chunk=" << chunk;
  }
}

TEST(JobExecutor, EmptyAndSingletonBatches) {
  for (const unsigned jobs : {1u, 4u}) {
    job_executor ex(jobs);
    EXPECT_TRUE(ex.map(0, [](std::size_t) { return 1; }).empty());
    EXPECT_EQ(ex.find_first(0, [](std::size_t) { return true; }),
              job_executor::npos);
    const auto one = ex.map(1, [](std::size_t i) { return i + 41; });
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], 41u);
  }
}

TEST(JobExecutor, ExecutorIsReusableAcrossBatches) {
  job_executor ex(3);
  for (int round = 0; round < 5; ++round) {
    const auto out = ex.map(round * 10 + 1,
                            [round](std::size_t i) { return i + static_cast<std::size_t>(round); });
    ASSERT_EQ(out.size(), static_cast<std::size_t>(round * 10 + 1));
    EXPECT_EQ(out.back(), out.size() - 1 + static_cast<std::size_t>(round));
  }
}

TEST(JobExecutor, FindFirstReturnsSmallestHitForAnyWorkerCount) {
  for (const unsigned jobs : {1u, 2u, 6u}) {
    job_executor ex(jobs);
    EXPECT_EQ(ex.find_first(100, [](std::size_t i) { return i >= 37; }), 37u)
        << "jobs=" << jobs;
    EXPECT_EQ(ex.find_first(100, [](std::size_t i) { return i == 99; }), 99u)
        << "jobs=" << jobs;
    EXPECT_EQ(ex.find_first(100, [](std::size_t) { return false; }),
              job_executor::npos)
        << "jobs=" << jobs;
    EXPECT_EQ(ex.find_first(100, [](std::size_t) { return true; }), 0u)
        << "jobs=" << jobs;
  }
}

TEST(JobExecutor, SequentialFindFirstStopsAtTheFirstHit) {
  // With one worker the executor must behave exactly like a plain loop:
  // evaluate 0,1,...,hit and nothing beyond.
  job_executor ex(1);
  std::vector<std::size_t> evaluated;
  const auto hit = ex.find_first(50, [&](std::size_t i) {
    evaluated.push_back(i);
    return i == 7;
  });
  EXPECT_EQ(hit, 7u);
  EXPECT_EQ(evaluated, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(JobExecutor, ExceptionPropagatesWithItsMessage) {
  for (const unsigned jobs : {1u, 4u}) {
    job_executor ex(jobs);
    try {
      ex.for_each(64, [](std::size_t i) {
        if (i >= 5) throw std::runtime_error("boom at " + std::to_string(i));
      });
      FAIL() << "expected a throw (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).substr(0, 8), "boom at ");
    }
    // The executor survives a throwing batch.
    EXPECT_EQ(ex.find_first(10, [](std::size_t i) { return i == 4; }), 4u);
  }
}

TEST(JobExecutor, SequentialExceptionIsTheFirstThrow) {
  // One worker reproduces a plain loop: the lowest-indexed throw wins and
  // nothing after it runs.
  job_executor ex(1);
  std::size_t last = 0;
  try {
    ex.for_each(64, [&](std::size_t i) {
      last = i;
      if (i == 9) throw std::runtime_error("boom at 9");
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 9");
  }
  EXPECT_EQ(last, 9u);
}

// --- Handoff stress: the generation/finished counters and parking. --------

/// Longer than any spin budget, so every pool worker is parked afterwards.
constexpr auto kPastSpinBudget = std::chrono::milliseconds(50);

TEST(JobExecutorHandoff, BackToBackTinyBatchesRunEachIndexOnce) {
  // A lost wakeup hangs; a stale or repeated generation runs an index twice
  // or not at all, which the per-index stamp catches in the next batch.
  constexpr std::uint32_t kBatches = 100'000;
  for (const unsigned jobs : {2u, 4u, 8u}) {
    job_executor ex(jobs);
    const std::size_t n = jobs + 1;
    std::vector<std::atomic<std::uint32_t>> stamp(n);
    std::atomic<std::uint32_t> bad{0};
    for (std::uint32_t b = 1; b <= kBatches; ++b) {
      ex.for_each(n, [&](std::size_t i) {
        if (stamp[i].exchange(b, std::memory_order_relaxed) != b - 1) ++bad;
      });
    }
    EXPECT_EQ(bad.load(), 0u) << "jobs=" << jobs;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(stamp[i].load(), kBatches) << "jobs=" << jobs << " i=" << i;
    }
  }
}

TEST(JobExecutorHandoff, DestroyRightAfterConstruction) {
  for (const unsigned jobs : {2u, 4u, 8u}) {
    for (int round = 0; round < 50; ++round) {
      const job_executor ex(jobs);
    }
  }
}

TEST(JobExecutorHandoff, DestroyWithParkedWorkers) {
  for (const unsigned jobs : {2u, 4u, 8u}) {
    job_executor ex(jobs);
    EXPECT_EQ(ex.map(jobs, [](std::size_t i) { return i; }).size(), jobs);
    std::this_thread::sleep_for(kPastSpinBudget);
  }
}

TEST(JobExecutorHandoff, PoolWorkerExceptionAfterParkedHandoff) {
  for (const unsigned jobs : {2u, 4u, 8u}) {
    job_executor ex(jobs);
    std::this_thread::sleep_for(kPastSpinBudget);
    // The caller holds its first index until a pool worker has thrown, so
    // the exception must come from a parked-then-woken worker.
    const auto caller = std::this_thread::get_id();
    std::atomic<bool> thrown{false};
    try {
      ex.for_each(jobs, [&](std::size_t i) {
        if (std::this_thread::get_id() != caller) {
          thrown = true;
          throw std::runtime_error("pool worker at " + std::to_string(i));
        }
        while (!thrown) std::this_thread::yield();
      }, 1);
      FAIL() << "expected a throw (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).substr(0, 15), "pool worker at ") << "jobs=" << jobs;
    }
    std::this_thread::sleep_for(kPastSpinBudget);
    EXPECT_EQ(ex.find_first(10, [](std::size_t i) { return i == 6; }), 6u) << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace adx::exec
