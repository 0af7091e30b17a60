#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include "sim/memory.hpp"

namespace adx::obs {
namespace {

TEST(Metrics, CountersAndGaugesCreateOnFirstUse) {
  metrics m;
  m.get_counter("a.b").inc();
  m.get_counter("a.b").inc(4);
  m.get_gauge("g").set(2.5);
  EXPECT_EQ(m.get_counter("a.b").value(), 5u);
  EXPECT_DOUBLE_EQ(m.get_gauge("g").value(), 2.5);
  EXPECT_EQ(m.counters().size(), 1u);
}

TEST(Metrics, JsonSnapshotIsDeterministicAndSorted) {
  metrics m;
  m.get_counter("z.last").set(2);
  m.get_counter("a.first").set(1);
  m.get_gauge("mid").set(0.5);
  const auto json = m.to_json();
  EXPECT_LT(json.find("a.first"), json.find("z.last"));
  EXPECT_NE(json.find("\"a.first\":1"), std::string::npos);
  EXPECT_NE(json.find("\"mid\":0.5"), std::string::npos);
  EXPECT_EQ(json, m.to_json());
}

TEST(Metrics, HistogramSnapshotCarriesPercentiles) {
  metrics m;
  log_histogram h;
  h.add(8, 10);
  m.set_histogram("wait_ns", h);
  const auto json = m.to_json();
  EXPECT_NE(json.find("\"wait_ns\":{\"count\":10"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":8"), std::string::npos);
}

TEST(Metrics, ExportAccessCountsMirrorsLedger) {
  sim::access_counts c;
  c.local_reads = 3;
  c.remote_reads = 2;
  c.local_writes = 5;
  c.remote_rmws = 1;
  metrics m;
  export_access_counts(c, m, "sim");
  EXPECT_EQ(m.get_counter("sim.local_reads").value(), 3u);
  EXPECT_EQ(m.get_counter("sim.reads").value(), 5u);
  EXPECT_EQ(m.get_counter("sim.writes").value(), 5u);
  EXPECT_EQ(m.get_counter("sim.rmws").value(), 1u);
  EXPECT_EQ(m.get_counter("sim.total").value(), 11u);
}

}  // namespace
}  // namespace adx::obs
