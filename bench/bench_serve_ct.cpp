// Open-loop serving with real ct server threads on a sharded execution
// domain: by default the fat_tree_hpc4096 preset (64 NUMA groups x 64
// nodes), or a hierarchical NUMA machine with --groups/--group_nodes.
//
// Every request is served by an actual coroutine thread that acquires its
// group's place-bound lock, pays the full dispatch/context-switch physics,
// and parks in a FIFO when its mailbox is empty. Remote arrivals ship
// through federation::post() and arrive one lookahead later, the canonical
// cross-group transit. --burst_mult turns the Poisson arrivals into a square
// wave (that many times the rate in every other 30 ms period), the bursty
// load of the EXPERIMENTS.md tail-latency tables.
//
// Virtual-time results are bit-identical for every --shards and --jobs
// value; those knobs only change wall-clock cost.
#include <memory>

#include "bench_common.hpp"
#include "telemetry/client.hpp"
#include "workload/ct_serve.hpp"

int main(int argc, char** argv) {
  using namespace adx;
  using bench::table;

  auto opt =
      bench::bench_sweep_options(argv, "Open-loop ct serving on fat_tree_hpc4096")
          .u64("groups", 0,
               "NUMA groups; 0 = the 4096-node fat-tree preset (64x64)")
          .u64("group_nodes", 8, "nodes per group (with --groups > 0)")
          .u64("servers", 2, "server threads per group")
          .u64("requests", 50, "requests per group")
          .u64("interarrival_us", 80, "mean interarrival time per group (us)")
          .u64("remote_pct", 25, "percent of arrivals that target another group")
          .u64("service_us", 25, "lock-guarded service demand (us)")
          .u64("burst_mult", 1,
               "arrival-rate multiplier in every other 30 ms period (1 = no bursts)")
          .u64("shards", 8, "DES shards (virtual results identical for any value)")
          .u64("seed", 42, "run seed (arrival processes + domain streams)")
          .flag("adaptive-lookahead",
                "widen sync windows over quiet rounds (virtual results identical)")
          .str("telemetry", "",
               "stream per-kind latency histograms and live adaptation events "
               "to this endpoint (unix:PATH or tcp:HOST:PORT)")
          .str("telemetry-run", "bench_serve_ct", "run id tagging this stream")
          .str("telemetry-dump", "", "also write the telemetry frames to this file");
  opt.parse(argc, argv);

  // When attached, every adaptation decision inside the adaptive cells
  // (lock_stats::on_reconfigure) streams live — this bench is the
  // EXPERIMENTS.md "watch a ct_serve burst trigger adaptation" walkthrough.
  std::unique_ptr<telemetry::client> tele;
  if (!opt.get_str("telemetry").empty() || !opt.get_str("telemetry-dump").empty()) {
    telemetry::client_options copt;
    copt.endpoint = opt.get_str("telemetry");
    copt.dump_path = opt.get_str("telemetry-dump");
    copt.run_id = opt.get_str("telemetry-run");
    copt.producer = "bench_serve_ct";
    std::string terr;
    tele = telemetry::client::open(copt, &terr);
    if (!tele) std::fprintf(stderr, "telemetry disabled: %s\n", terr.c_str());
  }

  workload::ct_serve_config base;
  const auto groups = static_cast<unsigned>(opt.get_u64("groups"));
  base.machine = groups == 0
                     ? sim::machine_config::fat_tree_hpc4096()
                     : sim::machine_config::hierarchical_numa(
                           groups, static_cast<unsigned>(opt.get_u64("group_nodes")));
  base.servers_per_group = static_cast<unsigned>(opt.get_u64("servers"));
  base.requests_per_group = opt.get_u64("requests");
  base.mean_interarrival_us = static_cast<double>(opt.get_u64("interarrival_us"));
  base.remote_fraction = static_cast<double>(opt.get_u64("remote_pct")) / 100.0;
  base.service = sim::microseconds(static_cast<double>(opt.get_u64("service_us")));
  base.burst_mult = static_cast<double>(opt.get_u64("burst_mult"));
  base.seed = opt.get_u64("seed");
  base.shards = bench::shards_from(opt);
  base.adaptive_lookahead = opt.get_flag("adaptive-lookahead");

  const locks::lock_kind kinds[] = {
      locks::lock_kind::spin,
      locks::lock_kind::blocking,
      locks::lock_kind::adaptive,
  };

  exec::job_executor ex(bench::jobs_from(opt));
  std::fprintf(stderr,
               "(%u DES shards, %u workers%s, windowed conservative lookahead)\n",
               base.shards, ex.jobs(),
               base.adaptive_lookahead ? ", adaptive lookahead" : "");

  table t({"lock", "p50", "p99", "max", "served", "remote", "acquisitions",
           "blocks", "posts", "elapsed-ms"});
  std::uint64_t kinds_done = 0;
  obs::metrics m;  // cumulative across kinds: snapshots are latest-wins
  for (const auto kind : kinds) {
    auto cfg = base;
    cfg.kind = kind;
    workload::ct_serve_result r;
    try {
      r = run_ct_serve(cfg, &ex);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    if (tele) {
      const std::string prefix = std::string("serve.") + locks::to_string(kind);
      m.get_counter(prefix + ".served").set(r.served);
      m.get_counter(prefix + ".remote").set(r.remote_requests);
      m.get_counter(prefix + ".acquisitions").set(r.acquisitions);
      m.get_counter(prefix + ".posts").set(r.posts);
      m.set_histogram(prefix + ".latency_ns", r.latency);
      tele->publish_metrics(m, r.elapsed.ns);
      tele->publish_result(locks::to_string(kind),
                           !r.completed || r.served != r.generated, "");
      tele->publish_progress(++kinds_done, std::size(kinds),
                             locks::to_string(kind));
    }
    if (!r.completed || r.served != r.generated) {
      std::fprintf(stderr, "lock %s: served %llu of %llu requests\n",
                   locks::to_string(kind),
                   static_cast<unsigned long long>(r.served),
                   static_cast<unsigned long long>(r.generated));
      return 1;
    }
    t.row({locks::to_string(kind), table::num(r.latency_p50_us, 2),
           table::num(r.latency_p99_us, 2), table::num(r.latency_max_us, 2),
           table::num(static_cast<double>(r.served), 0),
           table::num(static_cast<double>(r.remote_requests), 0),
           table::num(static_cast<double>(r.acquisitions), 0),
           table::num(static_cast<double>(r.blocks), 0),
           table::num(static_cast<double>(r.posts), 0),
           table::num(r.elapsed.ms(), 3)});
  }
  std::printf("Open-loop ct serving: request latency by lock kind (us)\n"
              "(%u groups x %u nodes, %u server threads/group, %llu requests/"
              "group, mean interarrival %.0fus%s, service %.0fus, %.0f%% remote)\n\n",
              base.machine.groups(), base.machine.group_size,
              base.servers_per_group,
              static_cast<unsigned long long>(base.requests_per_group),
              base.mean_interarrival_us,
              base.burst_mult == 1.0
                  ? ""
                  : bench::strf(" (/%.0f in every other 30ms)", base.burst_mult).c_str(),
              base.service.us(), 100.0 * base.remote_fraction);
  t.print();

  std::printf("\n(open loop with real server threads: remote arrivals pay one "
              "lookahead of backbone transit, and the whole table is "
              "byte-identical at any --shards/--jobs value)\n");
  return 0;
}
