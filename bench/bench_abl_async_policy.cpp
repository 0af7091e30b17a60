// Ablation: synchronous vs asynchronous policy execution (src/policy/runtime).
// Sync mode runs the monitor sample + policy inline in the unlocking thread —
// the closely-coupled loop of §4 — so every delivered observation charges
// monitor_sample_overhead + policy_execution on the lock's critical path.
// Async mode queues observations at the feedback point (zero inline cost,
// exact in virtual time) and a low-priority daemon on a spare processor
// drains them on a fixed period, paying the same policy cost out-of-band.
//
// The tradeoff the first table exposes: async removes the policy tax from
// the acquire/release path but reconfigures on a slightly stale state (one
// period of lag, bounded — unlike the unbounded-lag monitor-thread design
// bench_abl_coupling rejects). The second table is the oversubscribed Fig. 1
// grid the adx-bench scenario of the same name gates, where the unlocking
// thread's processor is always wanted by a runnable peer.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace adx;
  using bench::table;

  perf::async_modes_shape shape;
  auto opt = bench::bench_sweep_options(argv, "ablation: sync vs async policy execution")
                 .u64("iterations", shape.iterations, "lock cycles per thread")
                 .u64("threads", shape.threads, "contending threads (one per processor)")
                 .str("policy", shape.policy, "policy core to run in both modes");
  opt.parse(argc, argv);
  shape.iterations = opt.get_u64("iterations");
  shape.threads = static_cast<unsigned>(opt.get_u64("threads"));
  shape.policy = opt.get_str("policy");
  shape.jobs = bench::jobs_from(opt);
  const auto cost = locks::lock_cost_model::butterfly_cthreads();

  const auto rows = perf::async_policy_modes(shape);
  std::printf("Ablation: policy execution mode (%s core, %u contenders, %llu cycles each)\n"
              "(inline cost is virtual-exact: observations delivered on the unlock path x\n"
              " monitor_sample_overhead+policy_execution; async charges a daemon instead)\n\n",
              shape.policy.c_str(), shape.threads,
              static_cast<unsigned long long>(shape.iterations));
  table t({"execution mode", "elapsed (ms)", "mean wait (us)", "decisions",
           "delivered", "inline policy cost (us)", "daemon ticks"});
  // In async_policy_modes row order.
  const char* labels[] = {"sync (inline at unlock)", "async, default period",
                          "async, 4x period"};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    t.row({labels[i], table::num(r.elapsed_ms, 2), table::num(r.mean_wait_us, 0),
           std::to_string(r.decisions), std::to_string(r.delivered),
           table::num(r.inline_cost_us, 0),
           r.async ? std::to_string(r.ticks) : std::string("-")});
  }
  t.print();
  std::printf("\nexpected shape: async rows charge 0 inline policy cost (sync pays "
              "~%.0f us per delivered observation on the lock's own path); at the "
              "default period the daemon delivers the identical observation stream "
              "one period late, so delivered and decisions match the sync row\n",
              (cost.monitor_sample_overhead + cost.policy_execution).us());

  const auto& fig1 = perf::kCsSweepCi;
  std::printf("\nOversubscribed Fig. 1 grid: elapsed by CS length (ms)\n"
              "(%s core on the adaptive lock, %u threads on %u processors, %llu cycles "
              "each; the adx-bench scenario bench_abl_async_policy)\n\n",
              shape.policy.c_str(), fig1.threads, fig1.processors,
              static_cast<unsigned long long>(fig1.iterations));
  std::vector<std::string> header{"execution mode"};
  for (const double cs : fig1.cs_lengths_us) header.push_back(table::num(cs, 0) + " us");
  header.insert(header.end(), {"total (ms)", "daemon ticks", "pumped"});
  table g(header);
  for (const auto& r : perf::async_policy_grid({shape.policy, shape.jobs})) {
    std::vector<std::string> row{r.async ? "async" : "sync"};
    for (const double ms : r.cs_ms) row.push_back(table::num(ms, 1));
    row.push_back(table::num(r.total_ms, 1));
    row.push_back(r.async ? std::to_string(r.ticks) : std::string("-"));
    row.push_back(r.async ? std::to_string(r.pumped) : std::string("-"));
    g.row(std::move(row));
  }
  g.print();
  std::printf("\nexpected shape: with 2 threads per processor the inline policy work "
              "delays a runnable peer, so async wins the total\n");
  return 0;
}
