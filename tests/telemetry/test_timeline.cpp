// Timeline merge semantics: order-independence of the merged export,
// hello-first framing, latest-wins metrics, adaptation accounting, and the
// dashboard render.
#include "telemetry/timeline.hpp"

#include <gtest/gtest.h>

#include "telemetry/dashboard.hpp"

namespace adx::telemetry {
namespace {

message hello(const std::string& run, const std::string& producer = "test") {
  return message{hello_msg{kProtocolVersion, run, producer}};
}

message instant(const std::string& name, std::int64_t ts_ns, std::uint32_t tid = 0) {
  trace_event_msg e;
  e.name = name;
  e.cat = "test";
  e.ph = static_cast<std::uint8_t>(obs::phase::instant);
  e.ts_ns = ts_ns;
  e.tid = tid;
  return message{std::move(e)};
}

message adapt(const std::string& object, const std::string& decision,
              std::int64_t ts_ns) {
  return message{adapt_msg{ts_ns, object, "simple-adapt", decision,
                           "no-of-waiting-threads=2", 2}};
}

void apply_ok(timeline& tl, stream_state& st, const message& m) {
  std::string err;
  ASSERT_TRUE(tl.apply(st, m, &err)) << err;
}

TEST(Timeline, RequiresHelloFirst) {
  timeline tl;
  stream_state st;
  std::string err;
  EXPECT_FALSE(tl.apply(st, instant("x", 1), &err));
  EXPECT_NE(err.find("hello"), std::string::npos);
  apply_ok(tl, st, hello("r"));
  EXPECT_TRUE(tl.apply(st, instant("x", 1), &err));
  EXPECT_FALSE(tl.apply(st, hello("r2"), &err));  // double hello
}

TEST(Timeline, RejectsUnknownVersion) {
  timeline tl;
  stream_state st;
  std::string err;
  EXPECT_FALSE(tl.apply(st, message{hello_msg{99, "r", "p"}}, &err));
  EXPECT_NE(err.find("version"), std::string::npos);
}

TEST(Timeline, MergedExportIndependentOfStreamInterleaving) {
  // Two producers' frames applied in two different interleavings must export
  // the same bytes — the invariant that makes "server live merge" equal
  // "post-hoc dump merge".
  const std::vector<message> a = {hello("run-a"), instant("a1", 100),
                                  adapt("qlock", "pure-spin(400)", 150),
                                  instant("a2", 300), message{bye_msg{0}}};
  const std::vector<message> b = {hello("run-b"), instant("b1", 100),
                                  instant("b2", 200), message{bye_msg{0}}};

  timeline sequential;
  {
    stream_state sa, sb;
    for (const auto& m : a) apply_ok(sequential, sa, m);
    for (const auto& m : b) apply_ok(sequential, sb, m);
  }
  timeline interleaved;
  {
    stream_state sa, sb;
    // b first, then alternating — arrival order across streams scrambled.
    apply_ok(interleaved, sb, b[0]);
    apply_ok(interleaved, sa, a[0]);
    apply_ok(interleaved, sb, b[1]);
    apply_ok(interleaved, sa, a[1]);
    apply_ok(interleaved, sa, a[2]);
    apply_ok(interleaved, sb, b[2]);
    apply_ok(interleaved, sb, b[3]);
    for (std::size_t i = 3; i < a.size(); ++i) apply_ok(interleaved, sa, a[i]);
  }
  EXPECT_EQ(sequential.chrome_json(), interleaved.chrome_json());
}

TEST(Timeline, WithinRunOrderIsArrivalOrderAtEqualTimestamps) {
  timeline tl;
  stream_state st;
  apply_ok(tl, st, hello("r"));
  apply_ok(tl, st, instant("first", 500));
  apply_ok(tl, st, instant("second", 500));  // same virtual time
  const auto json = tl.chrome_json();
  EXPECT_LT(json.find("\"first\""), json.find("\"second\""));
}

TEST(Timeline, AdaptEventsBecomeInstantsWithPolicyArgs) {
  timeline tl;
  stream_state st;
  apply_ok(tl, st, hello("r"));
  apply_ok(tl, st, adapt("qlock", "spin-then-block(30)", 250));
  const auto json = tl.chrome_json();
  EXPECT_NE(json.find("\"qlock.adapt\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"d_c\":\"spin-then-block(30)\""), std::string::npos);
  EXPECT_NE(json.find("\"run\":\"r\""), std::string::npos);
  EXPECT_NE(json.find("\"v_i\":2"), std::string::npos);
}

TEST(Timeline, MetricsLatestSnapshotWinsAndHistogramsMerge) {
  timeline tl;
  stream_state s1, s2;
  apply_ok(tl, s1, hello("r1"));
  apply_ok(tl, s2, hello("r2"));

  const auto metrics_with = [](std::uint64_t value, std::uint64_t count) {
    obs::metrics m;
    m.get_histogram("wait_ns").add(value, count);
    return m;
  };
  // r1 publishes twice: the older snapshot must be superseded, not merged.
  apply_ok(tl, s1, message{snapshot_metrics(metrics_with(10'000, 100), 1)});
  apply_ok(tl, s1, message{snapshot_metrics(metrics_with(10'000, 3), 2)});
  apply_ok(tl, s2, message{snapshot_metrics(metrics_with(1'000'000, 3), 2)});

  const auto snap = tl.snapshot();
  ASSERT_EQ(snap.merged_histograms.count("wait_ns"), 1u);
  const auto& merged = snap.merged_histograms.at("wait_ns");
  EXPECT_EQ(merged.count(), 6u);  // 3 from each run's LATEST snapshot
  // Half the samples at 10us, half at 1000us: p25 low, p99 high.
  EXPECT_LT(merged.quantile(0.25), 20'000u);
  EXPECT_GT(merged.quantile(0.99), 500'000u);
}

TEST(Timeline, RunAccountingAndStreamClose) {
  timeline tl;
  stream_state s1, s2;
  apply_ok(tl, s1, hello("r1"));
  apply_ok(tl, s2, hello("r2"));
  EXPECT_EQ(tl.runs_seen(), 2u);
  EXPECT_EQ(tl.runs_done(), 0u);

  apply_ok(tl, s1, message{bye_msg{4}});
  EXPECT_EQ(tl.runs_done(), 1u);

  tl.stream_closed(s2);  // died without bye: still terminates
  EXPECT_EQ(tl.runs_done(), 2u);

  const auto snap = tl.snapshot();
  ASSERT_EQ(snap.runs.size(), 2u);
  EXPECT_EQ(snap.runs[0].run_id, "r1");
  EXPECT_EQ(snap.runs[0].dropped, 4u);
  EXPECT_TRUE(snap.runs[1].done);
}

TEST(Timeline, SnapshotCountsAdaptDecisions) {
  timeline tl;
  stream_state st;
  apply_ok(tl, st, hello("r"));
  apply_ok(tl, st, adapt("lk0", "pure-spin(400)", 10));
  apply_ok(tl, st, adapt("lk0", "blocking", 20));
  apply_ok(tl, st, adapt("lk1", "blocking", 30));
  apply_ok(tl, st, message{progress_msg{2, 8, "cell"}});
  apply_ok(tl, st, message{result_msg{"cell", 1, "mutual-exclusion"}});

  const auto snap = tl.snapshot();
  ASSERT_EQ(snap.runs.size(), 1u);
  const auto& r = snap.runs[0];
  EXPECT_EQ(r.adapt_total, 3u);
  EXPECT_EQ(r.decision_counts.at("blocking"), 2u);
  EXPECT_EQ(r.decision_counts.at("pure-spin(400)"), 1u);
  EXPECT_EQ(r.object_state.at("lk0"), "blocking");  // last decision wins
  EXPECT_EQ(r.object_state.at("lk1"), "blocking");
  EXPECT_EQ(r.last_adapt, "lk1: blocking");
  EXPECT_EQ(r.progress.done, 2u);
  EXPECT_EQ(r.results, 1u);
  EXPECT_EQ(r.failures, 1u);
}

TEST(Timeline, DroppedFramesSurfaceInExport) {
  timeline tl;
  stream_state st;
  apply_ok(tl, st, hello("r"));
  apply_ok(tl, st, message{bye_msg{17}});
  EXPECT_NE(tl.chrome_json().find("\"droppedEvents\":17"), std::string::npos);
}

TEST(Dashboard, RendersRunsOccupancyAndPercentiles) {
  timeline tl;
  stream_state st;
  apply_ok(tl, st, hello("burst-1", "bench_serve_ct"));
  apply_ok(tl, st, adapt("g0.lock", "pure-spin(400)", 100));
  apply_ok(tl, st, adapt("g1.lock", "blocking", 200));
  apply_ok(tl, st, message{progress_msg{1, 3, "adaptive"}});
  obs::metrics m;
  auto& h = m.get_histogram("serve.adaptive.latency_ns");
  for (const std::uint64_t v : {10'000, 20'000, 30'000, 4'000'000}) h.add(v);
  apply_ok(tl, st, message{snapshot_metrics(m, 300)});

  const auto text = render_dashboard(tl.snapshot());
  EXPECT_NE(text.find("burst-1"), std::string::npos);
  EXPECT_NE(text.find("bench_serve_ct"), std::string::npos);
  EXPECT_NE(text.find("adaptations: 2"), std::string::npos);
  EXPECT_NE(text.find("blocking=1"), std::string::npos);
  EXPECT_NE(text.find("pure-spin(400)=1"), std::string::npos);
  EXPECT_NE(text.find("1/3"), std::string::npos);
  EXPECT_NE(text.find("serve.adaptive.latency_ns"), std::string::npos);
  EXPECT_NE(text.find("p99"), std::string::npos);
  // p50 reads back 20'000 ns as its bucket's upper bound, 20'479 ns.
  EXPECT_NE(text.find("20.5us"), std::string::npos);
  EXPECT_NE(text.find("4.00ms"), std::string::npos);  // p99 and max
  // No ANSI escapes unless color is requested.
  EXPECT_EQ(text.find('\x1b'), std::string::npos);
}

}  // namespace
}  // namespace adx::telemetry
