// Ablation A4: interconnect model. The constant-wire model charges a fixed
// remote latency; the staged butterfly model routes remote accesses through
// log4(N) 4x4 switches with per-switch queueing, so hot-spot traffic
// saturates the network itself (tree blockage). The same spin-lock hot-spot
// workload under both models shows how much of the spin-lock pathology the
// simple model underestimates — and that the adaptive lock's advantage
// survives either way.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace adx;
  using bench::table;

  perf::interconnect_shape shape;
  auto opt = bench::bench_sweep_options(argv, "ablation: interconnect model")
                 .u64("iterations", shape.iterations, "lock cycles per thread");
  opt.parse(argc, argv);
  shape.iterations = opt.get_u64("iterations");
  shape.jobs = bench::jobs_from(opt);

  std::printf("Ablation: constant-wire vs. staged butterfly interconnect\n"
              "(10 threads on 10 processors, one lock on node 0, CS 60 us — a "
              "hot-spot workload)\n\n");

  table t({"interconnect", "lock", "elapsed (ms)", "mean wait (us)",
           "module queue delay (ms)", "switch delay (ms)"});
  for (const auto& r : perf::interconnect_ablation(shape)) {
    t.row({r.staged ? "butterfly (staged)" : "constant wire", locks::to_string(r.kind),
           table::num(r.elapsed_ms, 2), table::num(r.mean_wait_us, 0),
           table::num(r.queue_delay_ms, 2),
           r.switch_delay_ms ? table::num(*r.switch_delay_ms, 2) : std::string("-")});
  }
  t.print();
  std::printf("\nexpected shape: the staged network adds switch queueing on top of "
              "module serialization for the spinning locks; blocking and adaptive "
              "locks generate less hot-spot traffic and are less affected\n");
  return 0;
}
