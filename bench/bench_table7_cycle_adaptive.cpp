// Table 7: Locking cycle of the adaptive lock pinned to a configuration
// (paper: configured as spin 90.21/101.38, configured as blocking
// 565.16/625.63 microseconds). The adaptive lock's cycle spans the static
// extremes depending on its current configuration.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace adx;
  const auto fmt = bench::parse_format_only(argc, argv, "Table 7: adaptive locking cycle");
  bench::emit_cost_table(fmt, "Table 7: Locking cycle of the adaptive lock by configuration (us)",
                         "configured as",
                         "(adaptation disabled for the measurement: the policy is pinned)",
                         {{"configured as spin", 90.21, 101.38},
                          {"configured as blocking", 565.16, 625.63}},
                         perf::cycle_adaptive());
  return 0;
}
