// Cross-checks the observability subsystem against the ground truth it
// instruments: on a contended torture workload, lock_stats counters, the
// metrics-registry snapshot, and the structured-event trace must all tell
// the same story — and recording must not perturb virtual time.
#include <gtest/gtest.h>

#include <algorithm>

#include "ct/context.hpp"
#include "locks/factory.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "tsp/parallel.hpp"

namespace adx {
namespace {

struct torture_result {
  sim::vtime elapsed{};
  std::uint64_t requests{0};
  std::uint64_t acquisitions{0};
  std::uint64_t releases{0};
  std::uint64_t contended{0};
  std::uint64_t blocks{0};
  std::uint64_t handoffs{0};
  obs::metrics metrics;
  std::uint64_t rt_blocks{0};
  std::uint64_t rt_unblocks{0};
};

/// A contended increment loop on one lock; optionally traced.
torture_result run_torture(locks::lock_kind kind, obs::tracer* tr) {
  constexpr unsigned procs = 4;
  constexpr unsigned threads = 6;
  constexpr int iters = 25;

  ct::runtime rt(sim::machine_config::test_machine(procs));
  auto lk = locks::make_lock(kind, 0, locks::lock_cost_model::fast_test());
  if (tr) {
    rt.attach_tracer(tr);
    lk->stats().attach_tracer(tr, "lk", 0);
  }
  ct::svar<std::uint64_t> counter(0, 0);
  for (unsigned t = 0; t < threads; ++t) {
    rt.fork(t % procs, [&, t](ct::context& ctx) -> ct::task<void> {
      for (int i = 0; i < iters; ++i) {
        co_await lk->lock(ctx);
        const auto v = co_await ctx.read(counter);
        co_await ctx.compute(sim::microseconds(30 + 7 * (t % 3)));
        co_await ctx.write(counter, v + 1);
        co_await lk->unlock(ctx);
        co_await ctx.sleep_for(sim::microseconds(50));
      }
    });
  }
  const auto res = rt.run_all(100'000'000ULL);
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(counter.raw(), std::uint64_t{threads} * iters);

  torture_result out;
  out.elapsed = res.end_time;
  const auto& st = lk->stats();
  out.requests = st.requests();
  out.acquisitions = st.acquisitions();
  out.releases = st.releases();
  out.contended = st.contended();
  out.blocks = st.blocks();
  out.handoffs = st.handoffs();
  st.export_metrics(out.metrics, "lock.lk");
  rt.export_metrics(out.metrics);
  out.rt_blocks = rt.blocks();
  out.rt_unblocks = rt.unblocks();
  return out;
}

TEST(ObsConsistency, LockCountersBalanceOnTortureWorkload) {
  for (const auto kind : {locks::lock_kind::blocking, locks::lock_kind::adaptive}) {
    const auto r = run_torture(kind, nullptr);
    EXPECT_EQ(r.requests, 6u * 25u) << locks::to_string(kind);
    EXPECT_EQ(r.requests, r.acquisitions) << locks::to_string(kind);
    EXPECT_EQ(r.acquisitions, r.releases) << locks::to_string(kind);
    EXPECT_GT(r.contended, 0u) << "workload not contended enough to test anything";
  }
}

TEST(ObsConsistency, ExportedMetricsMirrorLockStats) {
  auto r = run_torture(locks::lock_kind::adaptive, nullptr);
  EXPECT_EQ(r.metrics.get_counter("lock.lk.requests").value(), r.requests);
  EXPECT_EQ(r.metrics.get_counter("lock.lk.acquisitions").value(), r.acquisitions);
  EXPECT_EQ(r.metrics.get_counter("lock.lk.releases").value(), r.releases);
  EXPECT_EQ(r.metrics.get_counter("lock.lk.contended").value(), r.contended);
  EXPECT_EQ(r.metrics.get_counter("lock.lk.blocks").value(), r.blocks);
  EXPECT_EQ(r.metrics.get_histogram("lock.lk.wait_ns").count(), r.acquisitions);
  EXPECT_EQ(r.metrics.get_histogram("lock.lk.held_ns").count(), r.releases);
  // Runtime scheduling counters land in the same registry.
  EXPECT_EQ(r.metrics.get_counter("ct.blocks").value(), r.rt_blocks);
  EXPECT_EQ(r.metrics.get_counter("ct.unblocks").value(), r.rt_unblocks);
  EXPECT_EQ(r.metrics.get_counter("ct.forks").value(), 6u);
  EXPECT_EQ(r.metrics.get_counter("ct.exits").value(), 6u);
}

TEST(ObsConsistency, TraceEventsAgreeWithCounters) {
  obs::tracer tr;
  tr.enable();
  const auto r = run_torture(locks::lock_kind::blocking, &tr);

  const auto count_named = [&](const char* name) {
    return static_cast<std::uint64_t>(
        std::count_if(tr.events().begin(), tr.events().end(),
                      [&](const obs::event& e) { return e.name == name; }));
  };
  EXPECT_EQ(count_named("lk.held"), r.releases);
  EXPECT_EQ(count_named("lk.acquire"), r.acquisitions);
  EXPECT_EQ(count_named("lk.contend"), r.contended);
  EXPECT_EQ(count_named("lk.block"), r.blocks);
  EXPECT_EQ(count_named("lk.handoff"), r.handoffs);
  EXPECT_EQ(count_named("unblock"), r.rt_unblocks);
  EXPECT_EQ(count_named("block"), r.rt_blocks);

  // Every span must lie within the run and have a non-negative duration.
  for (const auto& e : tr.events()) {
    EXPECT_GE(e.dur.ns, 0) << e.name;
    EXPECT_LE(e.ts.ns + static_cast<std::uint64_t>(e.dur.ns), r.elapsed.ns)
        << e.name;
  }
}

TEST(ObsConsistency, TracingDoesNotPerturbVirtualTime) {
  for (const auto kind : {locks::lock_kind::blocking, locks::lock_kind::adaptive}) {
    const auto plain = run_torture(kind, nullptr);
    obs::tracer tr;
    tr.enable();
    const auto traced = run_torture(kind, &tr);
    EXPECT_EQ(plain.elapsed.ns, traced.elapsed.ns) << locks::to_string(kind);
    EXPECT_GT(tr.size(), 0u);
  }
}

TEST(ObsConsistency, TspTracerSeesAllFourLockFamilies) {
  const auto inst = tsp::instance::random_asymmetric(12, 9001);
  obs::tracer tr;
  tr.enable();
  tsp::parallel_config cfg;
  cfg.processors = 4;
  cfg.run.lock = locks::lock_kind::adaptive;
  cfg.tracer = &tr;
  const auto res = tsp::solve_parallel(inst, cfg);
  EXPECT_GT(res.expansions, 0u);

  const auto has_prefix = [&](const char* p) {
    return std::any_of(tr.events().begin(), tr.events().end(),
                       [&](const obs::event& e) { return e.name.rfind(p, 0) == 0; });
  };
  EXPECT_TRUE(has_prefix("qlock"));
  EXPECT_TRUE(has_prefix("glob-act-lock"));
  EXPECT_TRUE(has_prefix("globlock"));
  EXPECT_TRUE(has_prefix("glob-low-lock"));
  EXPECT_TRUE(has_prefix("run"));
}

}  // namespace
}  // namespace adx
