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

int main(int argc, char** argv) {
  using namespace adx;
  using bench::table;

  perf::serve_ct_shape shape;
  auto opt =
      bench::bench_sweep_options(argv, "Open-loop ct serving on fat_tree_hpc4096")
          .u64("groups", shape.groups,
               "NUMA groups; 0 = the 4096-node fat-tree preset (64x64)")
          .u64("group_nodes", shape.group_nodes, "nodes per group (with --groups > 0)")
          .u64("servers", shape.servers, "server threads per group")
          .u64("requests", shape.requests, "requests per group")
          .u64("interarrival_us", shape.interarrival_us,
               "mean interarrival time per group (us)")
          .u64("remote_pct", shape.remote_pct,
               "percent of arrivals that target another group")
          .u64("service_us", shape.service_us, "lock-guarded service demand (us)")
          .u64("burst_mult", shape.burst_mult,
               "arrival-rate multiplier in every other 30 ms period (1 = no bursts)")
          .u64("shards", shape.shards, "DES shards (virtual results identical for any value)")
          .u64("seed", shape.seed, "run seed (arrival processes + domain streams)")
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

  shape.groups = static_cast<unsigned>(opt.get_u64("groups"));
  shape.group_nodes = static_cast<unsigned>(opt.get_u64("group_nodes"));
  shape.servers = static_cast<unsigned>(opt.get_u64("servers"));
  shape.requests = opt.get_u64("requests");
  shape.interarrival_us = opt.get_u64("interarrival_us");
  shape.remote_pct = opt.get_u64("remote_pct");
  shape.service_us = opt.get_u64("service_us");
  shape.burst_mult = opt.get_u64("burst_mult");
  shape.seed = opt.get_u64("seed");
  shape.shards = bench::shards_from(opt);
  shape.jobs = bench::jobs_from(opt);

  std::fprintf(stderr, "(%u DES shards, %u workers, windowed conservative lookahead)\n",
               shape.shards, shape.jobs);

  std::uint64_t kinds_done = 0;
  obs::metrics m;  // cumulative across kinds: snapshots are latest-wins
  const auto publish = [&](locks::lock_kind kind, const workload::ct_serve_result& r) {
    if (!tele) return;
    const std::string prefix = std::string("serve.") + locks::to_string(kind);
    m.get_counter(prefix + ".served").set(r.served);
    m.get_counter(prefix + ".remote").set(r.remote_requests);
    m.get_counter(prefix + ".acquisitions").set(r.acquisitions);
    m.get_counter(prefix + ".posts").set(r.posts);
    m.set_histogram(prefix + ".latency_ns", r.latency);
    tele->publish_metrics(m, r.elapsed.ns);
    tele->publish_result(locks::to_string(kind), !r.completed || r.served != r.generated, "");
    tele->publish_progress(++kinds_done, std::size(perf::kServeCtKinds), locks::to_string(kind));
  };
  std::vector<workload::ct_serve_result> rows;
  try {
    rows = perf::serve_ct(shape, publish);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  table t({"lock", "p50", "p99", "max", "served", "remote", "acquisitions",
           "blocks", "posts", "elapsed-ms"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    const char* kind = locks::to_string(perf::kServeCtKinds[i]);
    if (!r.completed || r.served != r.generated) {
      std::fprintf(stderr, "lock %s: served %llu of %llu requests\n", kind,
                   static_cast<unsigned long long>(r.served),
                   static_cast<unsigned long long>(r.generated));
      return 1;
    }
    t.row({kind, table::num(r.latency_p50_us, 2),
           table::num(r.latency_p99_us, 2), table::num(r.latency_max_us, 2),
           table::num(static_cast<double>(r.served), 0),
           table::num(static_cast<double>(r.remote_requests), 0),
           table::num(static_cast<double>(r.acquisitions), 0),
           table::num(static_cast<double>(r.blocks), 0),
           table::num(static_cast<double>(r.posts), 0),
           table::num(r.elapsed.ms(), 3)});
  }
  const auto base = perf::serve_ct_config_of(shape);
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
