// Federated critical-section sweep: the fig1-style closed-loop community
// with REAL ct threads, one runtime per NUMA group, executed on the shared
// execution domain (sim::event_domain).
//
// Every `remote_every`-th iteration a client posts an echo to the next
// group's server and blocks for the reply; the server takes its own group's
// place-bound lock, performs the service and posts back. Lock handoffs,
// wakeups and (with --coordinate) policy pumps therefore all cross shard
// boundaries through federation::post() — the workload the conservative-
// lookahead protocol exists for.
//
// Virtual-time results are bit-identical for every --shards / --jobs value
// and for --adaptive-lookahead (horizon-only traffic); those knobs only
// change wall-clock cost, so CI byte-diffs this report across all of them.
#include "bench_common.hpp"
#include "workload/sharded_cs.hpp"

int main(int argc, char** argv) {
  using namespace adx;
  using bench::table;

  auto opt =
      bench::bench_sweep_options(argv, "Federated ct critical-section sweep")
          .u64("groups", 4, "NUMA groups (one ct runtime each)")
          .u64("group_nodes", 8, "nodes per NUMA group")
          .u64("threads", 6, "client threads per group")
          .u64("iterations", 40, "closed-loop iterations per client")
          .u64("cs_us", 100, "critical-section length (us)")
          .u64("think_us", 300, "mean think time between iterations (us)")
          .u64("remote_every", 4, "post an echo to the next group every Nth iteration")
          .u64("shards", 1, "DES shards (virtual results identical for any value)")
          .u64("seed", 42, "run seed (think-time jitter + domain streams)")
          .flag("adaptive-lookahead",
                "widen sync windows over quiet rounds (virtual results identical)");
  opt.parse(argc, argv);

  workload::sharded_cs_config base;
  base.machine = sim::machine_config::hierarchical_numa(
      static_cast<unsigned>(opt.get_u64("groups")),
      static_cast<unsigned>(opt.get_u64("group_nodes")));
  base.threads_per_group = static_cast<unsigned>(opt.get_u64("threads"));
  base.iterations = opt.get_u64("iterations");
  base.cs_length = sim::microseconds(static_cast<double>(opt.get_u64("cs_us")));
  base.think_time = sim::microseconds(static_cast<double>(opt.get_u64("think_us")));
  base.remote_every = opt.get_u64("remote_every");
  base.seed = opt.get_u64("seed");
  base.shards = bench::shards_from(opt);
  base.adaptive_lookahead = opt.get_flag("adaptive-lookahead");

  const locks::lock_kind kinds[] = {
      locks::lock_kind::spin,     locks::lock_kind::blocking,
      locks::lock_kind::combined, locks::lock_kind::adaptive,
  };

  // The shard/worker/lookahead knobs go to stderr: stdout carries only
  // virtual-time results, so CI can byte-diff reports across all of them.
  exec::job_executor ex(bench::jobs_from(opt));
  std::fprintf(stderr,
               "(%u DES shards, %u workers%s, windowed conservative lookahead)\n",
               base.shards, ex.jobs(),
               base.adaptive_lookahead ? ", adaptive lookahead" : "");

  table t({"lock", "elapsed-ms", "acquisitions", "blocks", "echoes",
           "echo-p99-us", "posts"});
  for (const auto kind : kinds) {
    auto cfg = base;
    cfg.kind = kind;
    workload::sharded_cs_result r;
    try {
      r = run_sharded_cs(cfg, &ex);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    if (!r.completed) {
      std::fprintf(stderr, "lock %s: run hit the event budget\n",
                   locks::to_string(kind));
      return 1;
    }
    t.row({locks::to_string(kind), table::num(r.elapsed.ms(), 3),
           table::num(static_cast<double>(r.acquisitions), 0),
           table::num(static_cast<double>(r.blocks), 0),
           table::num(static_cast<double>(r.echoes), 0),
           table::num(r.echo_rtt_p99_us, 2),
           table::num(static_cast<double>(r.posts), 0)});
  }
  std::printf("Federated ct critical-section sweep (virtual time)\n"
              "(%u groups x %u nodes, %u client threads/group, %llu iterations, "
              "CS %.0fus, echo every %llu)\n\n",
              base.machine.groups(), base.machine.group_size,
              base.threads_per_group,
              static_cast<unsigned long long>(base.iterations),
              base.cs_length.us(),
              static_cast<unsigned long long>(base.remote_every));
  t.print();

  std::printf("\n(every cross-group influence — echo requests, replies, lock "
              "wakeups — is a tagged send at the lookahead horizon, so this "
              "whole table is byte-identical at any --shards/--jobs value)\n");
  return 0;
}
