// Table 6: Cost of successive Unlock and Lock operation on an already
// "locked" lock — the locking cycle, release-to-acquire with a waiter
// present (paper: spin 45.13/47.89, backoff 320.36/356.95, blocking
// 510.55/563.79 microseconds).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace adx;
  const auto fmt = bench::parse_format_only(argc, argv, "Table 6: static locking cycle");
  bench::emit_cost_table(fmt,
                         "Table 6: Locking cycle (unlock then lock on a busy lock), static "
                         "locks (us)",
                         "lock type", nullptr,
                         {{"spin", 45.13, 47.89},
                          {"spin-with-backoff", 320.36, 356.95},
                          {"blocking-lock", 510.55, 563.79}},
                         perf::cycle_static());
  return 0;
}
