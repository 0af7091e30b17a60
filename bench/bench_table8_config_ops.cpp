// Table 8: Cost of Lock Configuration Operations (paper: acquisition
// 30.75/33.92, configure(waiting policy) 9.87/14.45, configure(scheduler)
// 12.51/20.83, monitor(one state variable) 66.03/- microseconds).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace adx;
  const auto fmt = bench::parse_format_only(argc, argv, "Table 8: configuration-op cost");
  bench::emit_cost_table(fmt, "Table 8: Cost of lock configuration operations (us)",
                         "operation", nullptr,
                         {{"acquisition", 30.75, 33.92},
                          {"configure(waiting policy)", 9.87, 14.45},
                          {"configure(scheduler)", 12.51, 20.83},
                          {"monitor (one state variable)", 66.03, -1}},
                         perf::config_op_costs());
  return 0;
}
