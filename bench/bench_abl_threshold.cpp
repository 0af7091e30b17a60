// Ablation A2 (§4): sensitivity of the simple-adapt policy to
// Waiting-Threshold and n on the centralized TSP run. The paper: "The
// constants Waiting-Threshold and n need to be varied to get the optimized
// adaptation policy for a specific lock."
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace adx;
  using bench::table;

  perf::threshold_shape shape;
  auto opt = bench::bench_sweep_options(argv, "ablation: simple-adapt constants sweep")
                 .u64("cities", shape.cities, "TSP problem size")
                 .u64("seed", shape.seed, "instance seed");
  opt.parse(argc, argv);
  shape.cities = static_cast<unsigned>(opt.get_u64("cities"));
  shape.seed = opt.get_u64("seed");
  shape.jobs = bench::jobs_from(opt);

  std::printf("Ablation: simple-adapt Waiting-Threshold x n on centralized TSP\n"
              "(%u cities, seed %llu, 10 processors, adaptive locks)\n\n",
              shape.cities, static_cast<unsigned long long>(shape.seed));

  const auto rows = perf::threshold_ablation(shape);
  std::printf("blocking-lock baseline: %.0f ms\n\n", rows.front().elapsed_ms);

  table t({"Waiting-Threshold", "n", "elapsed (ms)", "qlock mean wait (us)"});
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const auto& r = rows[i];
    t.row({std::to_string(r.threshold), std::to_string(r.n), table::num(r.elapsed_ms, 0),
           table::num(r.qlock_mean_wait_us, 0)});
  }
  t.print();
  std::printf("\nexpected shape: tiny thresholds push the hot qlock to pure blocking "
              "(slow); generous thresholds keep waiters spinning (fast here: one "
              "thread per processor)\n");
  return 0;
}
