#include <gtest/gtest.h>

#include <vector>

#include "core/monitor.hpp"
#include "core/sensor.hpp"

namespace adx::core {
namespace {

/// The observations one trigger() hands to its callback, in order.
std::vector<observation> trigger(monitor& m) {
  std::vector<observation> due;
  const auto n = m.trigger([&](const observation& o) { due.push_back(o); });
  EXPECT_EQ(n, due.size());
  return due;
}

/// The observations one drain() hands to its callback, in order.
std::vector<observation> drain(monitor& m, std::size_t max = ~std::size_t{0}) {
  std::vector<observation> out;
  const auto n = m.drain([&](const observation& o) { out.push_back(o); }, max);
  EXPECT_EQ(n, out.size());
  return out;
}

TEST(Sensor, SamplesEveryTriggerAtPeriodOne) {
  int value = 5;
  sensor s("v", [&] { return value; }, 1);
  const auto obs = s.trigger();
  ASSERT_TRUE(obs.has_value());
  EXPECT_EQ(obs->sensor, "v");
  EXPECT_EQ(obs->value, 5);
}

TEST(Sensor, PeriodTwoSamplesEveryOtherTrigger) {
  // The paper's lock monitor samples once during every other unlock.
  sensor s("v", [] { return 1; }, 2);
  EXPECT_FALSE(s.trigger().has_value());
  EXPECT_TRUE(s.trigger().has_value());
  EXPECT_FALSE(s.trigger().has_value());
  EXPECT_TRUE(s.trigger().has_value());
  EXPECT_EQ(s.triggers_seen(), 4u);
  EXPECT_EQ(s.samples_taken(), 2u);
}

TEST(Sensor, ZeroPeriodClampsToOne) {
  sensor s("v", [] { return 1; }, 0);
  EXPECT_EQ(s.period(), 1u);
  EXPECT_TRUE(s.trigger().has_value());
}

TEST(Sensor, SetPeriodChangesSamplingRate) {
  sensor s("v", [] { return 1; }, 1);
  s.set_period(3);
  EXPECT_FALSE(s.trigger().has_value());
  EXPECT_FALSE(s.trigger().has_value());
  EXPECT_TRUE(s.trigger().has_value());
}

TEST(Sensor, ObservesCurrentValueAtSampleTime) {
  int value = 0;
  sensor s("v", [&] { return value; }, 1);
  value = 3;
  EXPECT_EQ(s.trigger()->value, 3);
  value = 9;
  EXPECT_EQ(s.trigger()->value, 9);
}

TEST(Sensor, SampleCostIsOneRead) {
  EXPECT_EQ(sensor::sample_cost(), (op_cost{1, 0}));
}

TEST(Monitor, CloselyCoupledDeliversInline) {
  monitor m(coupling::closely_coupled);
  int v = 4;
  m.add_sensor(sensor("a", [&] { return v; }, 1));
  const auto due = trigger(m);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].value, 4);
  EXPECT_EQ(m.backlog(), 0u);
}

TEST(Monitor, LooselyCoupledQueuesObservations) {
  monitor m(coupling::loosely_coupled);
  m.add_sensor(sensor("a", [] { return 1; }, 1));
  EXPECT_TRUE(trigger(m).empty());
  EXPECT_TRUE(trigger(m).empty());
  EXPECT_EQ(m.backlog(), 2u);
}

TEST(Monitor, DrainDeliversOldestFirstUpToMax) {
  monitor m(coupling::loosely_coupled);
  int v = 0;
  m.add_sensor(sensor("a", [&] { return v; }, 1));
  for (v = 1; v <= 3; ++v) trigger(m);
  const auto first = drain(m, 2);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].value, 1);  // stale state delivered late
  EXPECT_EQ(first[1].value, 2);
  EXPECT_EQ(drain(m).size(), 1u);
}

TEST(Monitor, OverflowDropsOldest) {
  monitor m(coupling::loosely_coupled, /*queue_cap=*/2);
  int v = 0;
  m.add_sensor(sensor("a", [&] { return v; }, 1));
  for (v = 1; v <= 4; ++v) trigger(m);
  EXPECT_EQ(m.dropped(), 2u);
  const auto obs = drain(m);
  ASSERT_EQ(obs.size(), 2u);
  EXPECT_EQ(obs[0].value, 3);  // 1 and 2 were dropped ("information overload")
}

TEST(Monitor, DiversityCountsSensors) {
  monitor m;
  m.add_sensor(sensor("a", [] { return 0; }, 1));
  m.add_sensor(sensor("b", [] { return 0; }, 1));
  EXPECT_EQ(m.diversity(), 2u);
}

TEST(Monitor, MultipleSensorsWithDifferentPeriods) {
  monitor m(coupling::closely_coupled);
  m.add_sensor(sensor("fast", [] { return 1; }, 1));
  m.add_sensor(sensor("slow", [] { return 2; }, 3));
  EXPECT_EQ(trigger(m).size(), 1u);  // fast only
  EXPECT_EQ(trigger(m).size(), 1u);
  EXPECT_EQ(trigger(m).size(), 2u);  // both due
  EXPECT_EQ(m.total_samples(), 4u);
}

TEST(Monitor, ModeSwitchable) {
  monitor m(coupling::closely_coupled);
  m.add_sensor(sensor("a", [] { return 1; }, 1));
  m.set_mode(coupling::loosely_coupled);
  EXPECT_TRUE(trigger(m).empty());
  EXPECT_EQ(m.backlog(), 1u);
}

TEST(Monitor, AggregationFoldsPerSensor) {
  monitor m(coupling::closely_coupled);
  int v = 0;
  m.add_sensor(sensor("raw", [&] { return v; }, 1));
  m.add_sensor(sensor("smooth", [&] { return v; }, 1), sensor_aggregation::ewma(0.5));
  m.add_sensor(sensor("peak", [&] { return v; }, 1), sensor_aggregation::max_in_window(2));
  v = 8;
  auto due = trigger(m);
  ASSERT_EQ(due.size(), 3u);
  EXPECT_EQ(due[0].value, 8);  // last value
  EXPECT_EQ(due[1].value, 8);  // ewma primes on the first sample
  EXPECT_EQ(due[2].value, 8);
  v = 0;
  due = trigger(m);
  EXPECT_EQ(due[0].value, 0);
  EXPECT_EQ(due[1].value, 4);  // 0.5*0 + 0.5*8
  EXPECT_EQ(due[2].value, 8);  // window of 2 still holds the peak
  due = trigger(m);
  EXPECT_EQ(due[1].value, 2);
  EXPECT_EQ(due[2].value, 0);  // peak aged out of the window
}

TEST(Monitor, MaxInWindowZeroWindowActsAsLastValue) {
  monitor m(coupling::closely_coupled);
  int v = 9;
  m.add_sensor(sensor("w", [&] { return v; }, 1), sensor_aggregation::max_in_window(0));
  EXPECT_EQ(trigger(m)[0].value, 9);
  v = 3;
  EXPECT_EQ(trigger(m)[0].value, 3);
}

TEST(Monitor, ClearSensorsResetsAggregationState) {
  // Regression: clear_sensors used to keep the per-sensor fold state (and
  // queued loosely-coupled observations), so a re-installed sensor set
  // started from aggregates a previous policy had primed.
  monitor m(coupling::closely_coupled);
  int v = 100;
  m.add_sensor(sensor("s", [&] { return v; }, 1), sensor_aggregation::ewma(0.25));
  m.add_sensor(sensor("p", [&] { return v; }, 1), sensor_aggregation::max_in_window(8));
  (void)trigger(m);
  EXPECT_EQ(m.aggregated_value(0), 100);
  EXPECT_EQ(m.aggregated_value(1), 100);

  m.clear_sensors();
  EXPECT_EQ(m.sensor_count(), 0u);
  v = 0;
  m.add_sensor(sensor("s", [&] { return v; }, 1), sensor_aggregation::ewma(0.25));
  m.add_sensor(sensor("p", [&] { return v; }, 1), sensor_aggregation::max_in_window(8));
  const auto due = trigger(m);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].value, 0) << "EWMA accumulator survived clear_sensors";
  EXPECT_EQ(due[1].value, 0) << "max-in-window history survived clear_sensors";
}

TEST(Monitor, ClearSensorsDropsQueuedObservations) {
  monitor m(coupling::loosely_coupled);
  m.add_sensor(sensor("a", [] { return 1; }, 1));
  (void)trigger(m);
  EXPECT_EQ(m.backlog(), 1u);
  m.clear_sensors();
  EXPECT_EQ(m.backlog(), 0u) << "stale observations outlived their sensors";
}

// One monitor sensor per aggregation, fed sample by sample: the fold every
// adaptive object's policy decides on.
std::int64_t fold_next(monitor& m, int& v, int sample) {
  v = sample;
  const auto due = trigger(m);
  EXPECT_EQ(due.size(), 1u);
  return due.empty() ? -1 : due[0].value;
}

TEST(Aggregator, LastValuePassesThrough) {
  monitor m;
  int v = 0;
  m.add_sensor(sensor("s", [&] { return v; }, 1), sensor_aggregation::last_value());
  EXPECT_EQ(fold_next(m, v, 3), 3);
  EXPECT_EQ(fold_next(m, v, 7), 7);
  EXPECT_EQ(fold_next(m, v, 0), 0);
  EXPECT_EQ(m.aggregated_value(0), 0);
}

TEST(Aggregator, EwmaPrimesOnFirstSampleThenSmooths) {
  monitor m;
  int v = 0;
  m.add_sensor(sensor("s", [&] { return v; }, 1), sensor_aggregation::ewma(0.5));
  EXPECT_EQ(fold_next(m, v, 100), 100);  // primed, not pulled toward zero
  EXPECT_EQ(fold_next(m, v, 0), 50);     // 0.5*0 + 0.5*100
  EXPECT_EQ(fold_next(m, v, 0), 25);
  EXPECT_EQ(m.aggregated_value(0), 25);
}

TEST(Aggregator, MaxInWindowTracksAndExpiresSpikes) {
  monitor m;
  int v = 0;
  m.add_sensor(sensor("s", [&] { return v; }, 1), sensor_aggregation::max_in_window(2));
  EXPECT_EQ(fold_next(m, v, 9), 9);
  EXPECT_EQ(fold_next(m, v, 1), 9);  // spike still inside the 2-sample window
  EXPECT_EQ(fold_next(m, v, 1), 1);  // spike aged out
  // The window keeps sliding once full: a new spike ages out after two more.
  EXPECT_EQ(fold_next(m, v, 5), 5);
  EXPECT_EQ(fold_next(m, v, 2), 5);
  EXPECT_EQ(fold_next(m, v, 3), 3);
}

TEST(Monitor, LooselyCoupledFoldsAtSampleTime) {
  // The fold runs when a sample is taken, not when it is drained: queued
  // observations carry the aggregate as of their own sample.
  monitor m(coupling::loosely_coupled);
  int v = 0;
  m.add_sensor(sensor("s", [&] { return v; }, 1), sensor_aggregation::max_in_window(2));
  for (const int x : {8, 1, 1}) {
    v = x;
    EXPECT_EQ(trigger(m).size(), 0u);
  }
  const auto obs = drain(m);
  ASSERT_EQ(obs.size(), 3u);
  EXPECT_EQ(obs[0].value, 8);
  EXPECT_EQ(obs[1].value, 8);
  EXPECT_EQ(obs[2].value, 1);
}

TEST(Monitor, TriggerSamplesEverySensorBeforeDelivering) {
  monitor m(coupling::closely_coupled);
  int v = 1;
  m.add_sensor(sensor("a", [&] { return v; }, 1));
  m.add_sensor(sensor("b", [&] { return v; }, 1));
  std::vector<std::int64_t> seen;
  m.trigger([&](const observation& o) {
    seen.push_back(o.value);
    v = 99;  // a policy reacting to "a" must not change what "b" read
  });
  EXPECT_EQ(seen, (std::vector<std::int64_t>{1, 1}));
}

}  // namespace
}  // namespace adx::core
