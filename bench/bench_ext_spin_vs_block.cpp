// Extension (§2-a, from [MS93]): spin locks consistently outperform blocking
// locks when processors >= threads; with multiple runnable threads per
// processor, blocking wins even for fairly small critical sections.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace adx;
  using bench::table;

  perf::spin_vs_block_shape shape;
  auto opt = bench::bench_sweep_options(argv, "extension: spin vs. blocking")
                 .u64("iterations", shape.iterations, "lock cycles per thread");
  opt.parse(argc, argv);
  shape.iterations = opt.get_u64("iterations");
  shape.jobs = bench::jobs_from(opt);

  std::printf("Extension: spin vs. blocking by threads-per-processor (ms)\n"
              "(one shared lock, CS 100 us; pure spin livelocks when spinners "
              "and the owner share a processor, so spin only runs at 1 "
              "thread/processor; combined(25) stands in above that)\n\n");

  table t({"threads / processors", "spin", "combined(25)", "blocking", "winner"});
  for (const auto& r : perf::spin_vs_block(shape)) {
    const bool spin_wins = r.spin_ms && *r.spin_ms < r.combined_ms && *r.spin_ms < r.blocking_ms;
    const char* winner = spin_wins                       ? "spin"
                         : r.combined_ms < r.blocking_ms ? "combined"
                                                         : "blocking";
    t.row({std::to_string(r.threads) + " / " + std::to_string(r.processors),
           r.spin_ms ? table::num(*r.spin_ms, 1) : std::string("(livelock)"),
           table::num(r.combined_ms, 1), table::num(r.blocking_ms, 1), winner});
  }
  t.print();
  std::printf("\nexpected shape: spin wins at 1 thread/processor; blocking-capable "
              "locks win under multiprogramming\n");
  return 0;
}
