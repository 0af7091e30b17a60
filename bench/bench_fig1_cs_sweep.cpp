// Figure 1: Length of critical section vs. application execution time, for
// combined spin-then-block locks (spin 1 / spin 10 / spin 50) against pure
// spin and pure blocking locks, under multiprogramming (threads >
// processors, where the spin/block trade-off is live).
//
// The paper's result: spin-10 beats spin-1 for certain CS lengths, yet
// spin-50 is worse than spin-10 at the same lengths — the optimal spin count
// depends on the application, which motivates adaptation.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace adx;
  using bench::table;

  perf::cs_sweep_shape shape;
  auto opt = bench::bench_sweep_options(argv, "Figure 1: CS length sweep")
                 .u64("processors", shape.processors, "simulated processors")
                 .u64("threads", shape.threads,
                      "threads (multiprogrammed when > processors)")
                 .u64("iterations", shape.iterations, "lock cycles per thread");
  opt.parse(argc, argv);
  shape.processors = static_cast<unsigned>(opt.get_u64("processors"));
  shape.threads = static_cast<unsigned>(opt.get_u64("threads"));
  shape.iterations = opt.get_u64("iterations");
  shape.jobs = bench::jobs_from(opt);

  std::printf("Figure 1: CS length vs. application execution time (ms)\n"
              "(%u threads on %u processors, %llu lock cycles per thread; "
              "combined(k) = spin k times then block)\n\n",
              shape.threads, shape.processors,
              static_cast<unsigned long long>(shape.iterations));

  std::vector<std::string> cols{"blocking"};
  for (const auto k : shape.combined_spins) {
    cols.push_back("combined(" + std::to_string(k) + ")");
  }
  cols.push_back("adaptive");
  const auto sweep = perf::cs_sweep(shape);

  std::vector<std::string> header{"CS length (us)"};
  header.insert(header.end(), cols.begin(), cols.end());
  table t(header);
  std::vector<std::size_t> winners;
  for (std::size_t r = 0; r < shape.cs_lengths_us.size(); ++r) {
    std::vector<std::string> row{table::num(shape.cs_lengths_us[r], 0)};
    std::size_t best = 0;
    for (std::size_t c = 0; c < cols.size(); ++c) {
      const double ms = sweep[r * cols.size() + c].elapsed.ms();
      row.push_back(table::num(ms, 1));
      if (ms < sweep[r * cols.size() + best].elapsed.ms()) best = c;
    }
    winners.push_back(best);
    t.row(std::move(row));
  }
  t.print();

  std::printf("\n(note: the paper's Figure 1 plots the static locks only; the "
              "adaptive column is this library's addition)\n");
  std::printf("winner per CS length:");
  for (std::size_t r = 0; r < winners.size(); ++r) {
    std::printf(" %.0fus->%s", shape.cs_lengths_us[r], cols[winners[r]].c_str());
  }
  std::printf("\n(the paper's point: no single static spin count wins everywhere; "
              "the adaptive lock tracks the best column)\n");
  return 0;
}
