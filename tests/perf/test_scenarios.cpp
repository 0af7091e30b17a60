// The scenario registry: completeness, determinism of the virtual-clock
// metrics, and their exact match with the committed baseline.
#include "perf/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "perf/bench_report.hpp"

namespace adx::perf {
namespace {

TEST(Scenarios, NamesAreUniqueAndDescribed) {
  std::set<std::string> seen;
  for (const auto& s : all_scenarios()) {
    EXPECT_TRUE(seen.insert(s.name).second) << "duplicate scenario " << s.name;
    EXPECT_FALSE(s.description.empty()) << s.name;
    EXPECT_TRUE(s.body != nullptr) << s.name;
  }
  EXPECT_GE(seen.size(), 15u);
}

TEST(Scenarios, RequiredGateScenariosExist) {
  // The committed baselines and CI perf gate are keyed on these names.
  for (const char* name :
       {"bench_table7_cycle_adaptive", "bench_fig1_cs_sweep", "sim_event_queue_churn",
        "bench_table1_tsp_central", "bench_table4_lock_cost"}) {
    EXPECT_NE(find_scenario(name), nullptr) << name;
  }
}

TEST(Scenarios, PolicyAblationScenarioIsRegistered) {
  const auto* sc = find_scenario("bench_abl_policy");
  ASSERT_NE(sc, nullptr);
  EXPECT_FALSE(sc->description.empty());
}

// The async execution-mode ablation: the scenario must exist for the perf
// gate, and one run must show the daemon actually engaged — wakeups
// happened and the queued observations reached the policy (the async rows
// are meaningless if the runtime silently stayed sync).
TEST(Scenarios, AsyncPolicyScenarioRunsTheDaemon) {
  const auto* sc = find_scenario("bench_abl_async_policy");
  ASSERT_NE(sc, nullptr);
  const auto sum = run_scenario(*sc, 1, 0);
  const auto value = [&](const std::string& name) -> double {
    for (const auto& m : sum.metrics) {
      if (m.name == name) return m.stats.median;
    }
    ADD_FAILURE() << "metric not found: " << name;
    return 0.0;
  };
  EXPECT_GT(value("sync_total_virtual_ms"), 0.0);
  EXPECT_GT(value("async_total_virtual_ms"), 0.0);
  EXPECT_GT(value("async_daemon_ticks"), 0.0);
  EXPECT_GT(value("async_pumped"), 0.0);
}

TEST(Scenarios, FindRejectsUnknownNames) {
  EXPECT_EQ(find_scenario("bench_nonexistent"), nullptr);
  EXPECT_EQ(find_scenario(""), nullptr);
}

// Every scenario's virtual-clock metrics must be identical across
// repetitions — the property the whole exact-match gate rests on. The
// runner enforces it by throwing; two reps of the cheapest scenarios prove
// the wiring end to end.
TEST(Scenarios, MicrobenchVirtualMetricsAreDeterministic) {
  for (const char* name : {"sim_event_queue_churn", "bench_table4_lock_cost"}) {
    const auto* sc = find_scenario(name);
    ASSERT_NE(sc, nullptr);
    const auto sum = run_scenario(*sc, 2, 0);
    bool any_virtual = false;
    for (const auto& m : sum.metrics) {
      if (m.clock != metric_clock::virtual_time) continue;
      any_virtual = true;
      EXPECT_EQ(m.stats.iqr, 0.0) << name << ":" << m.name;
    }
    EXPECT_TRUE(any_virtual) << name;
  }
}

// The headline property of the src/objects benches (mirrors the paper's
// claim for adaptive locks): the adaptive column must track the better
// fixed configuration on every workload shape, never losing to both. The
// metrics are virtual-clock and therefore exact, so this is a hard
// relation, not a tolerance band.
TEST(Scenarios, AdaptiveHashMapTracksTheBetterFixedStriping) {
  const auto* sc = find_scenario("bench_hashmap_mixed");
  ASSERT_NE(sc, nullptr);
  const auto sum = run_scenario(*sc, 1, 0);
  const auto value = [&](const std::string& name) -> double {
    for (const auto& m : sum.metrics) {
      if (m.name == name) return m.stats.median;
    }
    ADD_FAILURE() << "metric not found: " << name;
    return 0.0;
  };
  for (const char* shape : {"low", "high"}) {
    const std::string s(shape);
    const double fixed4 = value(s + "_fixed4_virtual_ms");
    const double fixed64 = value(s + "_fixed64_virtual_ms");
    const double adaptive = value(s + "_adaptive_virtual_ms");
    EXPECT_LT(adaptive, std::max(fixed4, fixed64))
        << s << ": adaptive " << adaptive << " lost to both fixed configs ("
        << fixed4 << ", " << fixed64 << ")";
  }
}

TEST(Scenarios, AdaptiveMonitorTracksTheBetterFixedMode) {
  const auto* sc = find_scenario("bench_monitor_delegation");
  ASSERT_NE(sc, nullptr);
  const auto sum = run_scenario(*sc, 1, 0);
  const auto value = [&](const std::string& name) -> double {
    for (const auto& m : sum.metrics) {
      if (m.name == name) return m.stats.median;
    }
    ADD_FAILURE() << "metric not found: " << name;
    return 0.0;
  };
  for (const char* shape : {"short", "long"}) {
    const std::string s(shape);
    const double classic = value(s + "_classic_virtual_ms");
    const double delegated = value(s + "_delegated_virtual_ms");
    const double adaptive = value(s + "_adaptive_virtual_ms");
    EXPECT_LT(adaptive, std::max(classic, delegated))
        << s << ": adaptive " << adaptive << " lost to both fixed modes ("
        << classic << ", " << delegated << ")";
  }
}

// The exact gate, in tier-1: every registered scenario runs once and reports
// at least one virtual metric (a scenario with only wall metrics would
// silently weaken the gate), every virtual metric equals the committed
// baseline bit for bit in both directions, and every baseline scenario is
// still registered. CI's perf job adds repetitions and the wall gate.
TEST(Scenarios, EveryScenarioReportsAtLeastOneVirtualMetric) {
  std::ifstream in(ADX_BENCH_BASELINE);
  ASSERT_TRUE(in) << "cannot read " << ADX_BENCH_BASELINE;
  std::ostringstream text;
  text << in.rdbuf();
  const auto baseline = bench_report::from_json(text.str());
  for (const auto& b : baseline.scenarios) {
    EXPECT_NE(find_scenario(b.name), nullptr) << "baseline scenario not registered: " << b.name;
  }

  const auto virtual_metrics = [](const scenario_summary& s) {
    std::map<std::string, double> out;
    for (const auto& m : s.metrics) {
      if (m.clock == metric_clock::virtual_time) out[m.name] = m.stats.median;
    }
    return out;
  };
  for (const auto& sc : all_scenarios()) {
    const auto got = virtual_metrics(run_scenario(sc, 1, 0));
    EXPECT_FALSE(got.empty()) << sc.name << " reports no virtual metric";
    const auto* b = baseline.find(sc.name);
    if (b == nullptr) {
      ADD_FAILURE() << sc.name << " is missing from the baseline";
      continue;
    }
    const auto want = virtual_metrics(*b);
    for (const auto& [name, value] : got) {
      const auto it = want.find(name);
      if (it == want.end()) {
        ADD_FAILURE() << sc.name << ":" << name << " is missing from the baseline";
      } else {
        EXPECT_EQ(value, it->second) << sc.name << ":" << name;
      }
    }
    for (const auto& [name, value] : want) {
      EXPECT_TRUE(got.count(name)) << sc.name << ":" << name << " is no longer reported";
    }
  }
}

}  // namespace
}  // namespace adx::perf
