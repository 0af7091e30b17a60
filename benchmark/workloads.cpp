// The four benchmark workloads. Each runs its public entry points once per
// rep, checks every result, and reports the counts the per-layer report
// divides by. Failures are counted per item:
//
//   * a request or acquisition that did not happen, or a run that did not
//     complete;
//   * a TSP solve whose optimum differs from tsp::solve_sequential's;
//   * a serve_par call whose virtual results differ from the same inputs
//     run on one shard (the determinism contract).
//
// A rep whose virtual results differ from the first rep's is caught by
// perf::run_scenario through rep_outcome::virtual_results.
#include <algorithm>
#include <array>
#include <chrono>
#include <stdexcept>

#include "bench.hpp"
#include "exec/job_executor.hpp"
#include "perf/probes.hpp"
#include "policy/registry.hpp"
#include "tsp/instance.hpp"
#include "tsp/parallel.hpp"
#include "workload/ct_serve.hpp"
#include "workload/sharded_cs.hpp"

namespace adx::benchmark {

namespace {

const auto kProcessStart = std::chrono::steady_clock::now();

constexpr std::array<std::string_view, 8> kLayers = {"sim",    "exec", "ct",       "locks",
                                                     "policy", "tsp",  "workload", "obs"};

constexpr std::array<locks::lock_kind, 3> kServeKinds = {
    locks::lock_kind::spin, locks::lock_kind::blocking, locks::lock_kind::adaptive};

void add_virtual(rep_outcome& o, const std::string& call, const char* field, const char* unit,
                 double v) {
  o.virtual_results.push_back({call + "." + field, unit, perf::metric_clock::virtual_time, v});
}

/// Closes one call: records its span and adds it to the rep.
void finish_call(rep_outcome& o, call_record c, obs::tracer* tr, std::uint32_t pid) {
  record_span(tr, pid, c);
  o.host_s += c.host_s;
  o.counts.items += c.items;
  o.counts.events += c.events;
  o.calls.push_back(std::move(c));
}

// ---------------------------------------------------------------------------
// serve_par / serve_seq: open-loop serving with real ct server threads on the
// fat_tree_hpc4096 preset (64 groups x 64 nodes). serve_par runs 8 shards on
// a 2-worker executor, so the window barrier does most of the work;
// serve_seq runs the same per-request work on one queue.
// ---------------------------------------------------------------------------

class serve final : public workload {
 public:
  serve(std::string_view name, bool parallel, std::uint64_t seed, size s, plant p)
      : name_(name), parallel_(parallel), seed_(seed), plant_(p) {
    if (s == size::tiny) {
      requests_per_group_ = 20;
    } else {
      requests_per_group_ = parallel ? 1200 : 6000;
    }
  }

  [[nodiscard]] std::string_view name() const override { return name_; }

  void setup() override {
    if (!parallel_) return;
    ex_ = std::make_unique<exec::job_executor>(kWorkers);
    reference_.clear();
    for (const auto k : kServeKinds) {
      reference_.push_back(adx::workload::run_ct_serve(config(k, 1), nullptr));
    }
    if (plant_ == plant::perturbed_reference) reference_.front().latency_p99_us += 1.0;
  }

  [[nodiscard]] rep_outcome rep(obs::tracer* tr, std::uint32_t pid) override {
    rep_outcome o;
    for (std::size_t i = 0; i < kServeKinds.size(); ++i) {
      const auto k = kServeKinds[i];
      call_record c{std::string("run_ct_serve.") + locks::to_string(k), "workload",
                    locks::to_string(k)};
      auto r = timed(c, [&] { return adx::workload::run_ct_serve(config(k, shards()), ex_.get()); });
      if (plant_ == plant::dropped_request && i == 0) --r.served;

      const std::uint64_t expected = requests_per_group_ * groups();
      std::uint64_t failed = r.completed ? expected - std::min(expected, r.served) : expected;
      if (parallel_ && !same_virtual_results(r, reference_.at(i))) failed = expected;
      o.attempted += expected;
      o.failed += failed;

      c.items = r.served;
      c.events = r.domain.slab_slots;
      o.counts.windows += r.domain.windows;
      o.counts.cross_sends += r.domain.cross_sends;
      o.counts.callback_spills += r.domain.callback_spills;
      o.counts.blocks += r.blocks;
      o.counts.posts += r.posts;
      add_virtual(o, c.name, "served", "count", static_cast<double>(r.served));
      add_virtual(o, c.name, "elapsed", "ns", static_cast<double>(r.elapsed.ns));
      add_virtual(o, c.name, "p99", "us", r.latency_p99_us);
      add_virtual(o, c.name, "events", "count", static_cast<double>(r.domain.slab_slots));
      add_virtual(o, c.name, "windows", "count", static_cast<double>(r.domain.windows));
      finish_call(o, std::move(c), tr, pid);
    }
    return o;
  }

  [[nodiscard]] std::vector<call_record> reference_calls(obs::tracer* tr,
                                                         std::uint32_t pid) override {
    std::vector<call_record> out;
    if (!parallel_) return out;
    for (const auto k : kServeKinds) {
      call_record c{std::string("run_ct_serve.shards1.") + locks::to_string(k), "workload",
                    std::string("shards1.") + locks::to_string(k)};
      const auto r = timed(c, [&] { return adx::workload::run_ct_serve(config(k, 1), nullptr); });
      c.items = r.served;
      c.events = r.domain.slab_slots;
      record_span(tr, pid, c);
      out.push_back(std::move(c));
    }
    return out;
  }

  [[nodiscard]] probe_spec probes() const override {
    probe_spec p;
    p.machine = sim::machine_config::fat_tree_hpc4096();
    p.shards = shards();
    p.workers = parallel_ ? kWorkers : 1;
    p.uses_domain = true;
    // Per queue: each group's servers plus its arrival process.
    p.pending = static_cast<std::size_t>(p.machine.groups()) * (kServersPerGroup + 1) / p.shards;
    p.kinds.assign(kServeKinds.begin(), kServeKinds.end());
    return p;
  }

 private:
  static constexpr unsigned kWorkers = 2;
  static constexpr unsigned kShards = 8;
  static constexpr unsigned kServersPerGroup = 2;

  [[nodiscard]] unsigned shards() const { return parallel_ ? kShards : 1; }
  [[nodiscard]] std::uint64_t groups() const {
    return sim::machine_config::fat_tree_hpc4096().groups();
  }

  [[nodiscard]] adx::workload::ct_serve_config config(locks::lock_kind k, unsigned shards) const {
    adx::workload::ct_serve_config cfg;
    cfg.machine = sim::machine_config::fat_tree_hpc4096();
    cfg.servers_per_group = kServersPerGroup;
    cfg.requests_per_group = requests_per_group_;
    cfg.mean_interarrival_us = 80;
    cfg.remote_fraction = 0.25;
    cfg.service = sim::microseconds(25);
    cfg.kind = k;
    cfg.seed = seed_;
    cfg.shards = shards;
    return cfg;
  }

  static bool same_virtual_results(const adx::workload::ct_serve_result& a,
                                   const adx::workload::ct_serve_result& b) {
    return a.elapsed == b.elapsed && a.completed == b.completed && a.generated == b.generated &&
           a.served == b.served && a.remote_requests == b.remote_requests &&
           a.latency_mean_us == b.latency_mean_us && a.latency_p50_us == b.latency_p50_us &&
           a.latency_p99_us == b.latency_p99_us && a.latency_max_us == b.latency_max_us &&
           a.acquisitions == b.acquisitions && a.blocks == b.blocks && a.posts == b.posts &&
           a.domain == b.domain;
  }

  std::string_view name_;
  bool parallel_;
  std::uint64_t seed_;
  plant plant_;
  std::uint64_t requests_per_group_;
  std::unique_ptr<exec::job_executor> ex_;
  std::vector<adx::workload::ct_serve_result> reference_;
};

// ---------------------------------------------------------------------------
// tsp_paper: the paper's application (Tables 1-3) on the Butterfly preset —
// three variants x blocking/adaptive locks over a fixed set of 36-city
// instances. The instances do not follow --seed: a B&B search tree is
// chaotic in its input, so any other instance set (even a relabeling of the
// same cities) moves peak RSS and node rate by far more than the bounds.
// ---------------------------------------------------------------------------

class tsp_paper final : public workload {
 public:
  tsp_paper(size s, plant p) : plant_(p), cities_(s == size::tiny ? 14 : 36) {}

  [[nodiscard]] std::string_view name() const override { return "tsp_paper"; }

  void setup() override {
    instances_.clear();
    optimum_.clear();
    seq_expansions_.clear();
    const auto seeds = perf::default_seeds();
    for (std::size_t i = 0; i < kInstances; ++i) {
      instances_.push_back(tsp::instance::random_asymmetric(static_cast<int>(cities_), seeds[i]));
      const auto ref = tsp::solve_sequential(instances_.back());
      optimum_.push_back(ref.best.cost);
      seq_expansions_.push_back(ref.expansions);
    }
  }

  [[nodiscard]] rep_outcome rep(obs::tracer* tr, std::uint32_t pid) override {
    rep_outcome o;
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      for (const auto v : kVariants) {
        for (const auto k : kKinds) {
          const std::string tag = std::string(tsp::to_string(v)) + '.' + locks::to_string(k);
          call_record c{"solve_parallel." + tag + '#' + std::to_string(i), "tsp", tag};
          auto r = timed(c, [&] {
            return tsp::solve_parallel(instances_[i], perf::tsp_cfg(v, k, kProcessors));
          });
          if (plant_ == plant::wrong_optimum && o.calls.empty()) ++r.best.cost;
          o.attempted += r.expansions;
          if (r.best.cost != optimum_[i]) o.failed += r.expansions;

          c.items = r.expansions;
          c.events = r.events;
          o.counts.tsp_ops += r.ops;
          add_virtual(o, c.name, "cost", "count", static_cast<double>(r.best.cost));
          add_virtual(o, c.name, "elapsed", "ns", static_cast<double>(r.elapsed.ns));
          add_virtual(o, c.name, "expansions", "count", static_cast<double>(r.expansions));
          add_virtual(o, c.name, "events", "count", static_cast<double>(r.events));
          finish_call(o, std::move(c), tr, pid);
        }
      }
    }
    return o;
  }

  [[nodiscard]] std::vector<call_record> reference_calls(obs::tracer* tr,
                                                         std::uint32_t pid) override {
    std::vector<call_record> out;
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      call_record c{"solve_sequential#" + std::to_string(i), "tsp", "sequential"};
      const auto r = timed(c, [&] { return tsp::solve_sequential(instances_[i]); });
      c.items = r.expansions;
      record_span(tr, pid, c);
      out.push_back(std::move(c));
    }
    return out;
  }

  [[nodiscard]] probe_spec probes() const override {
    probe_spec p;
    p.machine = sim::machine_config::butterfly_gp1000();
    // One searcher thread per processor.
    p.pending = kProcessors;
    p.kinds.assign(kKinds.begin(), kKinds.end());
    p.params = perf::tsp_cfg(kVariants[0], kKinds[0], kProcessors).run.params;
    return p;
  }

  [[nodiscard]] std::optional<double> tracer_overhead_share() override {
    // The easiest instance keeps the recorded event vector small.
    const auto easiest = static_cast<std::size_t>(
        std::min_element(seq_expansions_.begin(), seq_expansions_.end()) -
        seq_expansions_.begin());
    auto cfg = perf::tsp_cfg(tsp::variant::centralized, locks::lock_kind::adaptive, kProcessors);
    const auto solve_s = [&] {
      const auto t0 = host_ns();
      (void)tsp::solve_parallel(instances_[easiest], cfg);
      return static_cast<double>(host_ns() - t0);
    };
    const double plain = std::min(solve_s(), solve_s());
    obs::tracer tracer;
    tracer.enable();
    cfg.tracer = &tracer;
    const double traced = solve_s();
    return (traced - plain) / plain;
  }

 private:
  static constexpr std::size_t kInstances = 4;
  static constexpr unsigned kProcessors = 10;
  static constexpr std::array<tsp::variant, 3> kVariants = {
      tsp::variant::centralized, tsp::variant::distributed, tsp::variant::distributed_lb};
  static constexpr std::array<locks::lock_kind, 2> kKinds = {locks::lock_kind::blocking,
                                                             locks::lock_kind::adaptive};

  plant plant_;
  unsigned cities_;
  std::vector<tsp::instance> instances_;
  std::vector<std::int64_t> optimum_;
  std::vector<std::uint64_t> seq_expansions_;
};

// ---------------------------------------------------------------------------
// ring_cs_async: closed-loop request-reply on a ring of 16 NUMA groups. The
// adaptive run uses the break-even policy in async mode with the cross-group
// coordinator, so it is the workload that runs policy daemons.
// ---------------------------------------------------------------------------

class ring_cs_async final : public workload {
 public:
  ring_cs_async(std::uint64_t seed, size s, plant p)
      : seed_(seed), plant_(p), iterations_(s == size::tiny ? 30 : 3000) {}

  [[nodiscard]] std::string_view name() const override { return "ring_cs_async"; }

  void setup() override {}

  [[nodiscard]] rep_outcome rep(obs::tracer* tr, std::uint32_t pid) override {
    rep_outcome o;
    for (std::size_t i = 0; i < kServeKinds.size(); ++i) {
      const auto cfg = config(kServeKinds[i]);
      call_record c{std::string("run_sharded_cs.") + locks::to_string(cfg.kind), "workload",
                    locks::to_string(cfg.kind)};
      auto r = timed(c, [&] { return adx::workload::run_sharded_cs(cfg); });
      if (plant_ == plant::dropped_request && i == 0) --r.acquisitions;

      // Every client iteration acquires once; so does every echo served.
      const std::uint64_t groups = cfg.machine.groups();
      const std::uint64_t expected =
          groups * cfg.threads_per_group * (cfg.iterations + cfg.iterations / cfg.remote_every);
      o.attempted += expected;
      o.failed += r.completed ? expected - std::min(expected, r.acquisitions) : expected;

      c.items = r.acquisitions;
      c.events = r.domain.slab_slots;
      o.counts.windows += r.domain.windows;
      o.counts.cross_sends += r.domain.cross_sends;
      o.counts.callback_spills += r.domain.callback_spills;
      o.counts.blocks += r.blocks;
      o.counts.posts += r.posts;
      o.counts.policy_ticks += r.policy_ticks;
      add_virtual(o, c.name, "acquisitions", "count", static_cast<double>(r.acquisitions));
      add_virtual(o, c.name, "elapsed", "ns", static_cast<double>(r.elapsed.ns));
      add_virtual(o, c.name, "echo_p99", "us", r.echo_rtt_p99_us);
      add_virtual(o, c.name, "events", "count", static_cast<double>(r.domain.slab_slots));
      add_virtual(o, c.name, "policy_ticks", "count", static_cast<double>(r.policy_ticks));
      finish_call(o, std::move(c), tr, pid);
    }
    return o;
  }

  [[nodiscard]] std::vector<call_record> reference_calls(obs::tracer*, std::uint32_t) override {
    return {};
  }

  [[nodiscard]] probe_spec probes() const override {
    probe_spec p;
    const auto cfg = config(locks::lock_kind::adaptive);
    p.machine = cfg.machine;
    p.uses_domain = true;
    // Per group: the clients, the echo server and the policy daemon.
    p.pending = static_cast<std::size_t>(cfg.machine.groups()) * (cfg.threads_per_group + 2);
    p.kinds.assign(kServeKinds.begin(), kServeKinds.end());
    p.params = cfg.params;
    return p;
  }

 private:
  [[nodiscard]] adx::workload::sharded_cs_config config(locks::lock_kind k) const {
    adx::workload::sharded_cs_config cfg;
    cfg.machine = sim::machine_config::hierarchical_numa(16, 8);
    cfg.threads_per_group = 6;
    cfg.iterations = iterations_;
    cfg.remote_every = 4;
    cfg.cs_length = sim::microseconds(100);
    cfg.think_time = sim::microseconds(300);
    cfg.kind = k;
    cfg.seed = seed_;
    cfg.shards = 1;
    if (k == locks::lock_kind::adaptive) {
      cfg.params.policy = policy::default_spec("break-even");
      cfg.params.policy.with_async().with_coordinate();
      cfg.coordinate = true;
    }
    return cfg;
  }

  std::uint64_t seed_;
  plant plant_;
  std::uint64_t iterations_;
};

constexpr std::array<std::string_view, 4> kWorkloads = {"serve_par", "serve_seq", "tsp_paper",
                                                        "ring_cs_async"};

}  // namespace

std::uint64_t host_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - kProcessStart)
                                        .count());
}

std::uint32_t layer_tid(std::string_view layer) {
  for (std::size_t i = 0; i < kLayers.size(); ++i) {
    if (kLayers[i] == layer) return static_cast<std::uint32_t>(i);
  }
  throw std::logic_error("unknown layer " + std::string(layer));
}

void record_span(obs::tracer* tr, std::uint32_t pid, const call_record& c) {
  if (tr == nullptr) return;
  tr->complete(c.name, c.layer, sim::vtime{c.start_ns},
               sim::vdur{static_cast<std::int64_t>(c.host_s * 1e9)}, pid, layer_tid(c.layer),
               {"items", static_cast<std::int64_t>(c.items)},
               {"events", static_cast<std::int64_t>(c.events)});
}

std::span<const std::string_view> workload_names() { return kWorkloads; }

std::unique_ptr<workload> make_workload(std::string_view name, std::uint64_t seed, size s,
                                        plant p) {
  if (name == kWorkloads[0]) return std::make_unique<serve>(kWorkloads[0], true, seed, s, p);
  if (name == kWorkloads[1]) return std::make_unique<serve>(kWorkloads[1], false, seed, s, p);
  if (name == kWorkloads[2]) return std::make_unique<tsp_paper>(s, p);
  if (name == kWorkloads[3]) return std::make_unique<ring_cs_async>(seed, s, p);
  return nullptr;
}

}  // namespace adx::benchmark
