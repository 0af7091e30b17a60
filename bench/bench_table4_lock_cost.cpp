// Table 4: Cost of the Lock operation for different locks, local vs. remote
// (paper: atomior 30.73/33.86, spin 40.79/41.10, backoff 40.79/41.15,
// blocking 88.59/91.73, adaptive 40.79/41.17 microseconds).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace adx;
  const auto fmt = bench::parse_format_only(argc, argv, "Table 4: lock-op cost");
  bench::emit_cost_table(fmt, "Table 4: Cost of the Lock operation for different locks (us)",
                         "lock type", "(uncontended acquisition; lock word local vs. remote)",
                         {{"atomior", 30.73, 33.86},
                          {"spin-lock", 40.79, 41.10},
                          {"spin-with-backoff", 40.79, 41.15},
                          {"blocking-lock", 88.59, 91.73},
                          {"adaptive lock", 40.79, 41.17}},
                         perf::lock_op_costs({}).lock);
  return 0;
}
