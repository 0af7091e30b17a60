// Table 5: Cost of the Unlock operation for different locks, local vs.
// remote (paper: spin 4.99/7.23, backoff 5.01/7.25, blocking 62.32/73.45,
// adaptive 50.07/61.69 microseconds).
//
// The adaptive unlock's paper figure amortizes the every-other-unlock
// monitor sample; the bench therefore reports the mean over a sample window.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace adx;
  const auto fmt = bench::parse_format_only(argc, argv, "Table 5: unlock-op cost");
  const auto unlock = perf::lock_op_costs({}).unlock;
  bench::emit_cost_table(fmt, "Table 5: Cost of the Unlock operation for different locks (us)",
                         "lock type",
                         "(uncontended; adaptive amortizes its every-2nd-unlock monitor "
                         "sample)",
                         {{"spin-lock", 4.99, 7.23},
                          {"spin-with-backoff", 5.01, 7.25},
                          {"blocking-lock", 62.32, 73.45},
                          {"adaptive lock", 50.07, 61.69}},
                         {unlock.begin() + 1, unlock.end()});  // the paper has no atomior row
  return 0;
}
