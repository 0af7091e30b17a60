// BENCH.json round-trip and the regression-gate comparison semantics:
// virtual metrics exact, wall metrics banded, tolerance refused on
// deterministic metrics, direction-aware rate gating.
#include "perf/bench_report.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace adx::perf {
namespace {

bench_report sample_report() {
  bench_report r;
  r.reps = 5;
  r.warmup = 1;
  r.note = "unit test \"quoted\" note";
  scenario_summary s;
  s.name = "scn";
  s.metrics.push_back({"virt_us", "us", metric_clock::virtual_time,
                       {123.456789012345678, 0.0, 123.456789012345678}, 5, false});
  s.metrics.push_back({"wall_ns", "ns", metric_clock::wall, {1000.0, 50.0, 930.0}, 5, false});
  s.metrics.push_back(
      {"rate", "events/s", metric_clock::wall, {5000.0, 100.0, 4800.0}, 5, true});
  r.scenarios.push_back(std::move(s));
  return r;
}

TEST(BenchReport, JsonRoundTripsExactly) {
  const auto r = sample_report();
  const auto back = bench_report::from_json(r.to_json());
  EXPECT_EQ(back.version, r.version);
  EXPECT_EQ(back.reps, r.reps);
  EXPECT_EQ(back.warmup, r.warmup);
  EXPECT_EQ(back.note, r.note);
  ASSERT_EQ(back.scenarios.size(), 1u);
  const auto& m = back.scenarios[0].metrics;
  ASSERT_EQ(m.size(), 3u);
  // Bit-exact: the gate demands exact equality on virtual metrics, so the
  // formatter must not round.
  EXPECT_EQ(m[0].stats.median, 123.456789012345678);
  EXPECT_EQ(m[0].clock, metric_clock::virtual_time);
  EXPECT_FALSE(m[0].higher_better);
  EXPECT_TRUE(m[2].higher_better);
  EXPECT_EQ(m[2].unit, "events/s");
}

TEST(BenchReport, EmissionIsDeterministic) {
  EXPECT_EQ(sample_report().to_json(), sample_report().to_json());
}

TEST(BenchReport, RejectsNewerVersion) {
  EXPECT_THROW((void)bench_report::from_json(R"({"bench_version": 99})"),
               std::invalid_argument);
}

TEST(BenchReport, RejectsMalformedJsonAndBadEnums) {
  EXPECT_THROW((void)bench_report::from_json("{"), std::invalid_argument);
  EXPECT_THROW((void)bench_report::from_json(
                   R"({"scenarios": [{"name": "s", "metrics": [{"name": "m", "clock": "cpu"}]}]})"),
               std::invalid_argument);
  EXPECT_THROW((void)bench_report::from_json(
                   R"({"scenarios": [{"name": "s", "metrics": [{"name": "m", "dir": "left"}]}]})"),
               std::invalid_argument);
  EXPECT_THROW((void)bench_report::from_json(R"({"scenarios": [{"metrics": []}]})"),
               std::invalid_argument);
}

TEST(ToleranceSpec, ParsesGlobalAndPerMetric) {
  const auto t = tolerance_spec::parse("0.3,wall_ns=0.5,rate=0.1");
  EXPECT_DOUBLE_EQ(t.wall_default, 0.3);
  EXPECT_DOUBLE_EQ(t.for_metric("wall_ns"), 0.5);
  EXPECT_DOUBLE_EQ(t.for_metric("rate"), 0.1);
  EXPECT_DOUBLE_EQ(t.for_metric("other"), 0.3);
}

TEST(ToleranceSpec, EmptyTextKeepsDefault) {
  EXPECT_DOUBLE_EQ(tolerance_spec::parse("").wall_default, 0.25);
}

TEST(ToleranceSpec, RejectsMalformedInput) {
  EXPECT_THROW((void)tolerance_spec::parse("abc"), std::invalid_argument);
  EXPECT_THROW((void)tolerance_spec::parse("0.2,0.3"), std::invalid_argument);  // 2nd global
  EXPECT_THROW((void)tolerance_spec::parse("=0.3"), std::invalid_argument);
  EXPECT_THROW((void)tolerance_spec::parse("wall_ns=-1"), std::invalid_argument);
  EXPECT_THROW((void)tolerance_spec::parse("wall_ns=1e9"), std::invalid_argument);
}

TEST(ValidateTolerance, RefusesDeterministicMetricsAndUnknownNames) {
  const auto base = sample_report();
  tolerance_spec t;
  t.per_metric["virt_us"] = 0.1;  // virtual-clock metric: refused
  t.per_metric["nonexistent"] = 0.1;
  const auto errors = validate_tolerance(t, base);
  ASSERT_EQ(errors.size(), 2u);
  const std::string joined = errors[0] + "\n" + errors[1];
  EXPECT_NE(joined.find("virt_us"), std::string::npos);
  EXPECT_NE(joined.find("exact match"), std::string::npos);
  EXPECT_NE(joined.find("nonexistent"), std::string::npos);

  tolerance_spec ok;
  ok.per_metric["wall_ns"] = 0.4;
  EXPECT_TRUE(validate_tolerance(ok, base).empty());
}

TEST(Compare, IdenticalReportsProduceNoFindings) {
  const auto r = sample_report();
  const auto cmp = compare_reports(r, r, {});
  EXPECT_FALSE(cmp.failed());
  EXPECT_TRUE(cmp.findings.empty());
}

TEST(Compare, VirtualDivergenceIsFatalInBothDirections) {
  const auto base = sample_report();
  for (const double factor : {1.001, 0.999}) {
    auto cur = sample_report();
    cur.scenarios[0].metrics[0].stats.median *= factor;
    const auto cmp = compare_reports(cur, base, {});
    ASSERT_TRUE(cmp.failed());
    EXPECT_EQ(cmp.findings[0].kind, finding_kind::virtual_divergence);
    EXPECT_EQ(cmp.regressed_scenarios(), std::vector<std::string>{"scn"});
  }
}

TEST(Compare, WallWithinBandPasses) {
  const auto base = sample_report();
  auto cur = sample_report();
  cur.scenarios[0].metrics[1].stats.median = 1200.0;  // +20% < 25% default
  EXPECT_FALSE(compare_reports(cur, base, {}).failed());
}

TEST(Compare, WallBeyondToleranceAndBandFails) {
  const auto base = sample_report();
  auto cur = sample_report();
  // limit = 1000*1.25 + 1.5*max(50,50) = 1325
  cur.scenarios[0].metrics[1].stats.median = 1400.0;
  const auto cmp = compare_reports(cur, base, {});
  ASSERT_TRUE(cmp.failed());
  EXPECT_EQ(cmp.findings[0].kind, finding_kind::wall_regression);
  EXPECT_EQ(cmp.findings[0].metric, "wall_ns");
}

TEST(Compare, NoisyCurrentRunWidensItsOwnBand) {
  const auto base = sample_report();
  auto cur = sample_report();
  cur.scenarios[0].metrics[1].stats.median = 1400.0;
  cur.scenarios[0].metrics[1].stats.iqr = 200.0;  // limit: 1250 + 300 = 1550
  EXPECT_FALSE(compare_reports(cur, base, {}).failed());
}

TEST(Compare, RateDropIsARegressionRateGainIsNot) {
  const auto base = sample_report();
  auto slower = sample_report();
  // rate: higher_better. lower bound = 5000*0.75 - 150 = 3600.
  slower.scenarios[0].metrics[2].stats.median = 3000.0;
  const auto cmp = compare_reports(slower, base, {});
  ASSERT_TRUE(cmp.failed());
  EXPECT_EQ(cmp.findings[0].kind, finding_kind::wall_regression);
  EXPECT_EQ(cmp.findings[0].metric, "rate");

  auto faster = sample_report();
  faster.scenarios[0].metrics[2].stats.median = 9000.0;
  const auto cmp2 = compare_reports(faster, base, {});
  EXPECT_FALSE(cmp2.failed());
  ASSERT_EQ(cmp2.findings.size(), 1u);
  EXPECT_EQ(cmp2.findings[0].kind, finding_kind::wall_improvement);
}

// NaN compares false against every bound, so without an explicit check a
// non-finite median (or IQR) would slip through with no finding at all.
TEST(Compare, NonFiniteValuesAreFatal) {
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity()};
  for (const double v : bad) {
    for (const bool in_baseline : {false, true}) {
      for (const std::size_t metric : {0u, 1u, 2u}) {
        auto cur = sample_report();
        auto base = sample_report();
        (in_baseline ? base : cur).scenarios[0].metrics[metric].stats.median = v;
        const auto cmp = compare_reports(cur, base, {});
        ASSERT_TRUE(cmp.failed()) << "metric " << metric << " value " << v;
        ASSERT_EQ(cmp.findings.size(), 1u);
        EXPECT_EQ(cmp.findings[0].kind, metric == 0 ? finding_kind::virtual_divergence
                                                    : finding_kind::wall_regression);
      }
    }
    auto noisy = sample_report();
    noisy.scenarios[0].metrics[1].stats.iqr = v;
    const auto cmp = compare_reports(noisy, sample_report(), {});
    ASSERT_TRUE(cmp.failed());
    EXPECT_EQ(cmp.findings[0].kind, finding_kind::wall_regression);
  }
}

TEST(Compare, MissingScenarioAndMetricAreFatal) {
  const auto base = sample_report();
  bench_report empty;
  const auto cmp = compare_reports(empty, base, {});
  ASSERT_TRUE(cmp.failed());
  EXPECT_EQ(cmp.findings[0].kind, finding_kind::missing_scenario);

  auto gappy = sample_report();
  gappy.scenarios[0].metrics.erase(gappy.scenarios[0].metrics.begin());
  const auto cmp2 = compare_reports(gappy, base, {});
  ASSERT_TRUE(cmp2.failed());
  EXPECT_EQ(cmp2.findings[0].kind, finding_kind::missing_metric);
}

TEST(Compare, CurrentOnlyEntriesAreInformational) {
  const auto base = sample_report();
  auto cur = sample_report();
  cur.scenarios[0].metrics.push_back(
      {"extra", "us", metric_clock::wall, {1.0, 0.0, 1.0}, 5, false});
  scenario_summary s2;
  s2.name = "brand_new";
  cur.scenarios.push_back(s2);
  const auto cmp = compare_reports(cur, base, {});
  EXPECT_FALSE(cmp.failed());
  ASSERT_EQ(cmp.findings.size(), 2u);
  EXPECT_EQ(cmp.findings[0].kind, finding_kind::new_entry);
  EXPECT_EQ(cmp.findings[1].kind, finding_kind::new_entry);
}

TEST(Compare, DescribeNamesTheProblem) {
  const auto base = sample_report();
  auto cur = sample_report();
  cur.scenarios[0].metrics[1].stats.median = 2000.0;
  const auto cmp = compare_reports(cur, base, {});
  ASSERT_TRUE(cmp.failed());
  const auto text = cmp.findings[0].describe();
  EXPECT_NE(text.find("wall-regression"), std::string::npos);
  EXPECT_NE(text.find("scn"), std::string::npos);
  EXPECT_NE(text.find("wall_ns"), std::string::npos);
  EXPECT_NE(text.find("+100.0%"), std::string::npos);
}

}  // namespace
}  // namespace adx::perf
