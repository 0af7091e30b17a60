// Federated critical-section sweep: the fig1-style closed-loop community
// with REAL ct threads, one runtime per NUMA group, executed on the shared
// execution domain (sim::event_domain).
//
// Every `remote_every`-th iteration a client posts an echo to the next
// group's server and blocks for the reply; the server takes its own group's
// place-bound lock, performs the service and posts back. Echo requests,
// replies and the wakeups they trigger therefore all cross shard boundaries
// through federation::post() — the workload the conservative-lookahead
// protocol exists for.
//
// Virtual-time results are bit-identical for every --shards / --jobs value;
// those knobs only change wall-clock cost, so CI byte-diffs this report
// across all of them.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace adx;
  using bench::table;

  perf::sharded_cs_shape shape;
  auto opt =
      bench::bench_sweep_options(argv, "Federated ct critical-section sweep")
          .u64("groups", shape.groups, "NUMA groups (one ct runtime each)")
          .u64("group_nodes", shape.group_nodes, "nodes per NUMA group")
          .u64("threads", shape.threads, "client threads per group")
          .u64("iterations", shape.iterations, "closed-loop iterations per client")
          .u64("cs_us", shape.cs_us, "critical-section length (us)")
          .u64("think_us", shape.think_us, "mean think time between iterations (us)")
          .u64("remote_every", shape.remote_every,
               "post an echo to the next group every Nth iteration")
          .u64("shards", shape.shards, "DES shards (virtual results identical for any value)")
          .u64("seed", shape.seed, "run seed (think-time jitter + domain streams)");
  opt.parse(argc, argv);
  shape.groups = static_cast<unsigned>(opt.get_u64("groups"));
  shape.group_nodes = static_cast<unsigned>(opt.get_u64("group_nodes"));
  shape.threads = static_cast<unsigned>(opt.get_u64("threads"));
  shape.iterations = opt.get_u64("iterations");
  shape.cs_us = opt.get_u64("cs_us");
  shape.think_us = opt.get_u64("think_us");
  shape.remote_every = opt.get_u64("remote_every");
  shape.seed = opt.get_u64("seed");
  shape.shards = bench::shards_from(opt);
  shape.jobs = bench::jobs_from(opt);

  // The shard/worker knobs go to stderr: stdout carries only virtual-time
  // results, so CI can byte-diff reports across all of them.
  std::fprintf(stderr, "(%u DES shards, %u workers, windowed conservative lookahead)\n",
               shape.shards, shape.jobs);

  std::vector<workload::sharded_cs_result> rows;
  try {
    rows = perf::sharded_cs_sweep(shape);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  table t({"lock", "elapsed-ms", "acquisitions", "blocks", "echoes",
           "echo-p99-us", "posts"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    const char* kind = locks::to_string(shape.kinds[i]);
    if (!r.completed) {
      std::fprintf(stderr, "lock %s: run hit the event budget\n", kind);
      return 1;
    }
    t.row({kind, table::num(r.elapsed.ms(), 3),
           table::num(static_cast<double>(r.acquisitions), 0),
           table::num(static_cast<double>(r.blocks), 0),
           table::num(static_cast<double>(r.echoes), 0),
           table::num(r.echo_rtt_p99_us, 2),
           table::num(static_cast<double>(r.posts), 0)});
  }
  std::printf("Federated ct critical-section sweep (virtual time)\n"
              "(%u groups x %u nodes, %u client threads/group, %llu iterations, "
              "CS %lluus, echo every %llu)\n\n",
              shape.groups, shape.group_nodes, shape.threads,
              static_cast<unsigned long long>(shape.iterations),
              static_cast<unsigned long long>(shape.cs_us),
              static_cast<unsigned long long>(shape.remote_every));
  t.print();

  std::printf("\n(every cross-group influence — echo requests, replies, lock "
              "wakeups — is a tagged send at the lookahead horizon, so this "
              "whole table is byte-identical at any --shards/--jobs value)\n");
  return 0;
}
