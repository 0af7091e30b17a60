// Open-loop serving bench: tail latency per lock kind under Poisson and
// bursty arrivals, on the hierarchical NUMA preset, executed on the sharded
// conservative-lookahead DES.
//
// The closed-loop benches (fig1, the TSP tables) measure makespan, where a
// slow lock throttles its own offered load. Here arrivals are open-loop, so
// a slow lock faces a growing backlog and the p99/p999 columns expose what
// the paper's adaptation argument is really about: under bursts a spin
// lock's hot-spot traffic compounds with queue depth, a blocking lock pays a
// flat context-switch handoff, and the adaptive lock crosses between them on
// observed queue depth.
//
// Virtual-time results are bit-identical for every --shards and --jobs
// value; those knobs only change wall-clock cost.
#include "bench_common.hpp"
#include "workload/open_loop.hpp"

int main(int argc, char** argv) {
  using namespace adx;
  using bench::table;

  auto opt = bench::bench_sweep_options(argv, "Open-loop serving tail latency")
                 .u64("groups", 8, "NUMA groups (one arrival process each)")
                 .u64("group_nodes", 8, "nodes per NUMA group")
                 .u64("shards", 4, "DES shards (virtual results identical for any value)")
                 .u64("requests", 1500, "requests per group")
                 .u64("interarrival_us", 600, "mean interarrival time per group (us)")
                 .u64("service_us", 40, "mean critical-section length (us)")
                 .u64("threshold", 16, "adaptive spin->block queue-depth threshold");
  opt.parse(argc, argv);

  workload::open_loop_config base;
  base.machine = sim::machine_config::hierarchical_numa(
      static_cast<unsigned>(opt.get_u64("groups")),
      static_cast<unsigned>(opt.get_u64("group_nodes")));
  base.shards = bench::shards_from(opt);
  base.locks_per_group = 1;
  base.requests_per_group = opt.get_u64("requests");
  base.mean_interarrival_us = static_cast<double>(opt.get_u64("interarrival_us"));
  base.mean_service_us = static_cast<double>(opt.get_u64("service_us"));
  base.params.adapt.waiting_threshold =
      static_cast<std::int64_t>(opt.get_u64("threshold"));

  struct load_row {
    const char* name;
    bool bursty;
  };
  const load_row loads[] = {{"poisson", false}, {"bursty(8x)", true}};
  const locks::lock_kind kinds[] = {
      locks::lock_kind::spin,   locks::lock_kind::blocking,
      locks::lock_kind::mcs,    locks::lock_kind::ticket,
      locks::lock_kind::adaptive,
  };

  // Row-major (load x kind) grid; every point is an independent simulation.
  std::vector<workload::open_loop_config> grid;
  for (const auto& load : loads) {
    for (const auto kind : kinds) {
      auto cfg = base;
      cfg.kind = kind;
      cfg.bursty = load.bursty;
      cfg.burst_mult = 8.0;
      cfg.burst_period_us = 30'000.0;
      grid.push_back(cfg);
    }
  }
  exec::job_executor ex(bench::jobs_from(opt));
  const auto sweep = run_open_loop_sweep(grid, ex);

  // The shard count goes to stderr: stdout carries only virtual-time
  // results, so CI can byte-diff reports taken at different --shards/--jobs.
  std::fprintf(stderr, "(%u DES shards, windowed conservative lookahead)\n",
               base.shards);
  std::printf("Open-loop serving: request latency by lock kind (ms)\n"
              "(%u groups x %u nodes hierarchical NUMA, %llu requests/group, "
              "mean interarrival %.0fus, mean CS %.0fus)\n\n",
              base.machine.groups(), base.machine.group_size,
              static_cast<unsigned long long>(base.requests_per_group),
              base.mean_interarrival_us, base.mean_service_us);

  table t({"load", "lock", "p50", "p99", "p999", "max", "spin-grants", "block-grants"});
  for (std::size_t l = 0; l < std::size(loads); ++l) {
    for (std::size_t k = 0; k < std::size(kinds); ++k) {
      const auto& r = sweep[l * std::size(kinds) + k];
      t.row({loads[l].name, locks::to_string(kinds[k]),
             table::num(static_cast<double>(r.p50_ns) / 1e6, 3),
             table::num(static_cast<double>(r.p99_ns) / 1e6, 3),
             table::num(static_cast<double>(r.p999_ns) / 1e6, 3),
             table::num(static_cast<double>(r.max_ns) / 1e6, 3),
             table::num(static_cast<double>(r.grants_spin), 0),
             table::num(static_cast<double>(r.grants_block), 0)});
    }
  }
  t.print();

  std::printf("\n(open loop: arrivals do not slow down when the lock does, so "
              "the tail columns show the backlog a slow handoff accumulates; "
              "the adaptive row tracks spin under the poisson load and "
              "blocking under bursts)\n");
  return 0;
}
