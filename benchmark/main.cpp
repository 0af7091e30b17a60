// adx-benchmark — the repo benchmark.
//
//   adx-benchmark --workload=W [--seed=N] [--reps=R] [--warmup=K] [--out=FILE]
//                 [--trace=DIR]
//   adx-benchmark --compare=A,B [--bounds=BENCHMARK.json]
//   adx-benchmark --self-test
//
// A run sets the workload up several times (setup_s is their median), then
// hands its reps to perf::run_scenario: K warm-up reps, R timed reps, and the
// check that every rep's virtual results equal the first's. The end-to-end
// report is a perf::bench_report. --trace adds one traced rep, the reference
// runs and the layer probes, and writes DIR/W.layers.json (per-layer metrics,
// counts tagged virtual) and DIR/W.trace.json (Chrome trace: pid is the
// workload, tid the layer, host time as timestamps).
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "cli/options.hpp"
#include "obs/json_reader.hpp"
#include "perf/bench_report.hpp"
#include "perf/scenario.hpp"

namespace adx::benchmark {

namespace {

namespace fs = std::filesystem;

constexpr perf::metric_clock kWall = perf::metric_clock::wall;
constexpr perf::metric_clock kVirtual = perf::metric_clock::virtual_time;

constexpr unsigned kSetupPasses = 5;
/// setup_s may also grow by this many seconds, whatever its relative bound.
constexpr double kSetupFloorS = 0.05;
/// The end-to-end metrics --compare gates, in report order.
constexpr std::array<std::string_view, 4> kEndToEnd = {"items_per_s", "setup_s", "peak_rss_mb",
                                                       "ops_failed_frac"};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

/// The host and build every number came from.
std::string provenance(std::uint64_t seed) {
  std::ostringstream os;
  os << "nproc=" << std::thread::hardware_concurrency() << "; cpu=" << cpu_model()
     << "; compiler=" << ADX_COMPILER << "; build=" << ADX_BUILD_TYPE << "; git=" << ADX_GIT_SHA
     << "; seed=" << seed;
  return os.str();
}

struct cpu_seconds {
  double user{0};
  double sys{0};
};

cpu_seconds cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return {s(ru.ru_utime), s(ru.ru_stime)};
}

/// Peak resident set of this process image, in MB. Read from VmHWM, not
/// ru_maxrss: Linux carries ru_maxrss across execve, so a benchmark started
/// from a larger parent would report the parent's peak.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

perf::metric_summary one_value(std::string name, std::string unit, perf::metric_clock clock,
                               double v) {
  return {std::move(name), std::move(unit), clock, {v, 0, v}, 1, false};
}

perf::metric_summary summary_of(std::string name, std::string unit,
                                const std::vector<double>& values) {
  return {std::move(name), std::move(unit), kWall, perf::summarize(values),
          static_cast<unsigned>(values.size()), false};
}

const perf::metric_summary& metric(const perf::scenario_summary& s, std::string_view name) {
  for (const auto& m : s.metrics) {
    if (m.name == name) return m;
  }
  throw std::logic_error(s.name + ": no metric " + std::string(name));
}

// ---------------------------------------------------------------------------
// One untraced run: setup passes, then warm-up and timed reps.
// ---------------------------------------------------------------------------

struct measured {
  std::unique_ptr<workload> w;
  perf::scenario_summary e2e;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  cpu_seconds cpu;  ///< over the warm-up and timed reps
  double wall_s{0};
};

measured measure(std::string_view name, std::uint64_t seed, size s, unsigned reps,
                 unsigned warmup) {
  measured m;
  std::vector<double> setup_s;
  for (unsigned i = 0; i < kSetupPasses; ++i) {
    // The first pass counts from process start. Each pass ends with a checked
    // smoke rep at ~1% size: it fails fast on a broken build, and since a
    // small run is mostly the per-call construction of machines, runtimes
    // and locks, setup_s shows work moved into that construction.
    const std::uint64_t t0 = i == 0 ? 0 : host_ns();
    auto smoke = make_workload(name, seed, size::tiny);
    smoke->setup();
    const auto r = smoke->rep(nullptr, 0);
    m.attempted += r.attempted;
    m.failed += r.failed;
    m.w = make_workload(name, seed, s);
    m.w->setup();
    setup_s.push_back(static_cast<double>(host_ns() - t0) / 1e9);
  }

  const perf::scenario sc{std::string(name), "", [&m] {
                            const auto r = m.w->rep(nullptr, 0);
                            m.attempted += r.attempted;
                            m.failed += r.failed;
                            perf::scenario_result out;
                            out.metrics.push_back({"items_per_s", "items/s", kWall,
                                                   static_cast<double>(r.counts.items) / r.host_s,
                                                   /*higher_better=*/true});
                            out.metrics.insert(out.metrics.end(), r.virtual_results.begin(),
                                               r.virtual_results.end());
                            return out;
                          }};
  const auto cpu0 = cpu_now();
  const auto t0 = host_ns();
  const auto summary = perf::run_scenario(sc, reps, warmup);
  m.wall_s = static_cast<double>(host_ns() - t0) / 1e9;
  const auto cpu1 = cpu_now();
  m.cpu = {cpu1.user - cpu0.user, cpu1.sys - cpu0.sys};

  m.e2e.name = std::string(name);
  m.e2e.metrics.push_back(metric(summary, "items_per_s"));
  m.e2e.metrics.push_back(summary_of("setup_s", "s", setup_s));
  m.e2e.metrics.push_back(one_value("peak_rss_mb", "MB", kWall, peak_rss_mb()));
  // Gated with a zero tolerance, so any increase fails --compare.
  m.e2e.metrics.push_back(one_value(
      "ops_failed_frac", "fraction", kWall,
      static_cast<double>(m.failed) / static_cast<double>(std::max<std::uint64_t>(m.attempted, 1))));
  m.e2e.metrics.push_back(one_value("items_attempted", "count", kVirtual,
                                    static_cast<double>(m.attempted)));
  m.e2e.metrics.push_back(one_value("items_failed", "count", kVirtual,
                                    static_cast<double>(m.failed)));
  m.e2e.metrics.push_back(metric(summary, "wall_ns"));
  return m;
}

// ---------------------------------------------------------------------------
// The traced phase: per-layer metrics and the Chrome trace.
// ---------------------------------------------------------------------------

struct layer_report {
  perf::scenario_summary layers;
  obs::tracer trace;
};

std::uint32_t workload_pid(std::string_view name) {
  const auto names = workload_names();
  return static_cast<std::uint32_t>(std::find(names.begin(), names.end(), name) - names.begin());
}

void trace_layers(measured& m, size s, std::uint64_t seed, layer_report& out) {
  const auto name = m.w->name();
  const auto pid = workload_pid(name);
  auto& tr = out.trace;
  tr.enable();
  tr.instant("provenance", "obs", sim::vtime{host_ns()}, pid, layer_tid("obs"), {}, {}, "host",
             provenance(seed));

  const auto t0 = host_ns();
  const auto rep = m.w->rep(&tr, pid);
  const double rep_wall_s = static_cast<double>(host_ns() - t0) / 1e9;
  const auto refs = m.w->reference_calls(&tr, pid);
  const auto spec = m.w->probes();
  const auto probes = run_probes(spec, s, &tr, pid);

  auto& L = out.layers;
  L.name = std::string(name);
  const auto add_count = [&](std::string metric_name, std::string unit, double v) {
    L.metrics.push_back(one_value(std::move(metric_name), std::move(unit), kVirtual, v));
  };
  const auto add_wall = [&](std::string metric_name, std::string unit, double v) {
    L.metrics.push_back(one_value(std::move(metric_name), std::move(unit), kWall, v));
  };
  const auto& n = rep.counts;
  const double items = static_cast<double>(n.items);
  const bool tsp_layer = !rep.calls.empty() && std::string_view(rep.calls.front().layer) == "tsp";

  add_count("sim.events_per_item", "count/item", static_cast<double>(n.events) / items);
  if (spec.uses_domain) {
    add_count("sim.windows_per_item", "count/item", static_cast<double>(n.windows) / items);
    add_count("sim.cross_sends_per_item", "count/item", static_cast<double>(n.cross_sends) / items);
    add_count("sim.callback_spills", "count", static_cast<double>(n.callback_spills));
    add_count("ct.blocks_per_item", "count/item", static_cast<double>(n.blocks) / items);
    add_count("ct.posts_per_item", "count/item", static_cast<double>(n.posts) / items);
  }
  if (spec.params.policy.mode == policy::exec_mode::async) {
    add_count("policy.ticks_per_item", "count/item", static_cast<double>(n.policy_ticks) / items);
  }
  if (tsp_layer) {
    add_count("tsp.ops_per_expansion", "count/item", static_cast<double>(n.tsp_ops) / items);
  }

  std::map<std::string, double> run_s;
  for (const auto& c : rep.calls) run_s[c.tag] += c.host_s;
  for (const auto& [tag, secs] : run_s) add_wall("workload.run_s." + tag, "s", secs);
  add_wall("host.ns_per_event", "ns", rep.host_s * 1e9 / static_cast<double>(n.events));
  const double cpu = m.cpu.user + m.cpu.sys;
  add_wall("host.sys_share", "fraction", m.cpu.sys / cpu);
  add_wall("host.cpu_per_wall", "ratio", cpu / m.wall_s);

  double refs_s = 0;
  std::uint64_t ref_items = 0;
  for (const auto& c : refs) {
    refs_s += c.host_s;
    ref_items += c.items;
  }
  if (spec.workers > 1 && !refs.empty()) {
    // The references run the same inputs on one shard: identical virtual work.
    add_wall("exec.parallel_overhead_share", "fraction", (rep.host_s - refs_s) / rep.host_s);
  }
  double seq_ns_per_expansion = 0;
  if (tsp_layer && ref_items > 0) {
    seq_ns_per_expansion = refs_s * 1e9 / static_cast<double>(ref_items);
    add_wall("tsp.seq_ns_per_expansion", "ns", seq_ns_per_expansion);
  }

  std::map<std::string, double, std::less<>> probe_median;
  for (const auto& p : probes) {
    L.metrics.push_back(summary_of(p.name, p.unit, p.values));
    probe_median[p.name] = L.metrics.back().stats.median;
  }
  if (const auto share = m.w->tracer_overhead_share()) {
    add_wall("obs.tracer_overhead_share", "fraction", *share);
  }

  // Attribution: count x isolated probe cost, as a share of the rep.
  double attributed = 0;
  const auto attr = [&](const char* metric_name, double seconds) {
    add_wall(metric_name, "fraction", seconds / rep.host_s);
    attributed += seconds / rep.host_s;
  };
  attr("attr.queue_share",
       static_cast<double>(n.events) * probe_median.at("sim.queue_ns_per_event") / 1e9);
  if (spec.uses_domain) {
    const double window_us = probe_median.at(spec.shards > 1 ? "sim.window_us" : "sim.window_us_seq");
    attr("attr.window_share", static_cast<double>(n.windows) * window_us / 1e6);
  }
  if (tsp_layer) attr("attr.tsp_compute_share", items * seq_ns_per_expansion / 1e9);
  add_wall("attr.rest_share", "fraction", 1.0 - attributed);

  const double untraced_s = metric(m.e2e, "wall_ns").stats.median / 1e9;
  add_wall("trace.overhead_share", "fraction", (rep_wall_s - untraced_s) / untraced_s);
}

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

perf::bench_report report_of(perf::scenario_summary s, unsigned reps, unsigned warmup,
                             std::uint64_t seed) {
  perf::bench_report r;
  r.reps = reps;
  r.warmup = warmup;
  r.note = provenance(seed);
  r.scenarios.push_back(std::move(s));
  return r;
}

// ---------------------------------------------------------------------------
// --compare=A,B: two passes' end-to-end metrics against the bounds.
// ---------------------------------------------------------------------------

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// A report file, or every end-to-end report (W.json) in a directory.
perf::bench_report load_reports(const fs::path& path) {
  if (!fs::is_directory(path)) return perf::bench_report::from_json(read_file(path));
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(path)) {
    const auto f = e.path().filename().string();
    if (e.path().extension() == ".json" && f.find(".layers.") == std::string::npos &&
        f.find(".trace.") == std::string::npos) {
      files.push_back(e.path());
    }
  }
  std::sort(files.begin(), files.end());
  perf::bench_report all;
  for (const auto& f : files) {
    auto r = perf::bench_report::from_json(read_file(f));
    for (auto& s : r.scenarios) all.scenarios.push_back(std::move(s));
  }
  return all;
}

/// name -> bound from BENCHMARK.json's end_to_end list.
std::map<std::string, double, std::less<>> load_bounds(const fs::path& path) {
  const auto root = obs::json_reader(read_file(path), "BENCHMARK.json").parse();
  std::map<std::string, double, std::less<>> out;
  const auto* e2e = obs::json_find(root.object(), "end_to_end");
  if (e2e == nullptr) throw std::invalid_argument("BENCHMARK.json: no end_to_end list");
  for (const auto& m : e2e->array()) {
    const auto& o = m.object();
    const auto* name = obs::json_find(o, "name");
    const auto* bound = obs::json_find(o, "bound");
    if (name == nullptr || bound == nullptr) {
      throw std::invalid_argument("BENCHMARK.json: end_to_end entry without name or bound");
    }
    out[name->str()] = bound->number<double>();
  }
  return out;
}

int compare(std::string_view spec, const fs::path& bounds_path) {
  const auto comma = spec.find(',');
  if (comma == std::string_view::npos) {
    std::cerr << "adx-benchmark: --compare needs A,B\n";
    return 2;
  }
  const auto a = load_reports(fs::path(spec.substr(0, comma)));
  const auto b = load_reports(fs::path(spec.substr(comma + 1)));
  auto bounds = load_bounds(bounds_path);
  bounds["ops_failed_frac"] = 0;

  std::printf("%-14s %-16s %14s %12s %14s %12s %8s %7s  %s\n", "workload", "metric", "A median",
              "A iqr", "B median", "B iqr", "change", "bound", "verdict");
  bool failed = false;
  for (const auto& sa : a.scenarios) {
    const auto* sb = b.find(sa.name);
    // The gated copies carry no IQR: a bound is a share of A's median, which
    // compare_reports would otherwise widen by 1.5 x IQR.
    const auto gated = [](perf::metric_summary m) {
      m.stats.iqr = 0;
      return m;
    };
    perf::bench_report ga;
    perf::bench_report gb;
    ga.scenarios.push_back({sa.name, {}});
    if (sb != nullptr) gb.scenarios.push_back({sa.name, {}});
    perf::tolerance_spec tol;
    std::vector<std::pair<const perf::metric_summary*, const perf::metric_summary*>> rows;
    for (const auto name : kEndToEnd) {
      const auto bound = bounds.find(name);
      if (bound == bounds.end()) continue;
      const auto& ma = metric(sa, name);
      const perf::metric_summary* mb = nullptr;
      if (sb != nullptr) {
        for (const auto& m : sb->metrics) {
          if (m.name == name) mb = &m;
        }
      }
      rows.emplace_back(&ma, mb);
      ga.scenarios[0].metrics.push_back(gated(ma));
      if (mb != nullptr) gb.scenarios[0].metrics.push_back(gated(*mb));
      double frac = bound->second;
      if (name == "setup_s") frac = std::max(frac, kSetupFloorS / std::max(ma.stats.median, 1e-12));
      tol.per_metric[std::string(name)] = frac;
    }
    const auto result = perf::compare_reports(gb, ga, tol);
    for (const auto& [ma, mb] : rows) {
      std::string verdict = "ok";
      for (const auto& f : result.findings) {
        if (!f.metric.empty() && f.metric != ma->name) continue;
        if (f.fatal()) {
          verdict = "FAIL (" + std::string(perf::to_string(f.kind)) + ")";
        } else if (f.kind == perf::finding_kind::wall_improvement && verdict == "ok") {
          verdict = "better";
        }
      }
      failed = failed || verdict.rfind("FAIL", 0) == 0;
      const double change = mb != nullptr && ma->stats.median != 0
                                ? 100.0 * (mb->stats.median - ma->stats.median) / ma->stats.median
                                : 0.0;
      std::printf("%-14s %-16s %14.6g %12.4g %14.6g %12.4g %+7.2f%% %7.3f  %s\n",
                  sa.name.c_str(), ma->name.c_str(), ma->stats.median, ma->stats.iqr,
                  mb ? mb->stats.median : NAN, mb ? mb->stats.iqr : NAN, change,
                  tol.for_metric(ma->name), verdict.c_str());
    }
  }
  return failed ? 1 : 0;
}

// ---------------------------------------------------------------------------
// --self-test: every workload at ~1% size, clean, then with planted failures.
// ---------------------------------------------------------------------------

int self_test() {
  int failures = 0;
  const auto expect = [&failures](bool ok, const std::string& what) {
    std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  for (const auto name : workload_names()) {
    const std::string w(name);
    auto m = measure(name, 7, size::tiny, 2, 1);
    expect(m.attempted > 0 && m.failed == 0, w + ": a clean run counts no failure");
    layer_report lr;
    trace_layers(m, size::tiny, 7, lr);
    double attr_sum = 0;
    for (const auto& x : lr.layers.metrics) {
      if (x.name.rfind("attr.", 0) == 0) attr_sum += x.stats.median;
    }
    expect(std::abs(attr_sum - 1.0) < 1e-9, w + ": attr.*_share sums to 1");
    bool parses = true;
    try {
      (void)obs::json_reader(lr.trace.chrome_json(), "trace").parse();
    } catch (const std::exception&) {
      parses = false;
    }
    expect(parses && !lr.trace.empty(), w + ": the Chrome trace is valid JSON");
  }

  const auto planted = [](std::string_view name, plant p) {
    auto w = make_workload(name, 7, size::tiny, p);
    w->setup();
    return w->rep(nullptr, 0);
  };
  const auto wrong = planted("tsp_paper", plant::wrong_optimum);
  expect(wrong.failed == wrong.calls.front().items,
         "tsp_paper: a wrong optimum fails that solve's expansions");
  const auto dropped = planted("serve_seq", plant::dropped_request);
  expect(dropped.failed == 1, "serve_seq: a dropped request counts one failure");
  const auto ring = planted("ring_cs_async", plant::dropped_request);
  expect(ring.failed == 1, "ring_cs_async: a lost acquisition counts one failure");
  const auto perturbed = planted("serve_par", plant::perturbed_reference);
  expect(perturbed.failed == perturbed.attempted / 3,
         "serve_par: a reference mismatch fails every request of that lock kind");

  std::printf("%s\n", failures == 0 ? "self-test passed" : "self-test FAILED");
  return failures == 0 ? 0 : 1;
}

int run(int argc, char** argv) {
  auto opt = cli::options("adx-benchmark", "the Adaptix repo benchmark")
                 .str("workload", "", "serve_par | serve_seq | tsp_paper | ring_cs_async")
                 .u64("seed", 42, "input seed (serve and ring arrivals/jitter)")
                 .u64("reps", 5, "timed reps")
                 .u64("warmup", 1, "discarded warm-up reps")
                 .str("out", "", "end-to-end report file (default: stdout)")
                 .str("trace", "", "directory for W.layers.json and W.trace.json")
                 .str("compare", "", "A,B: compare two reports (files or directories)")
                 .str("bounds", "BENCHMARK.json", "end-to-end bounds for --compare")
                 .flag("self-test", "run every workload at ~1% size with planted failures")
                 .note("Throughput and times are host wall clock; counts are virtual.");
  opt.parse(argc, argv);

  if (opt.get_flag("self-test")) return self_test();
  if (opt.was_set("compare")) return compare(opt.get_str("compare"), opt.get_str("bounds"));

  const auto& name = opt.get_str("workload");
  const auto names = workload_names();
  if (std::find(names.begin(), names.end(), name) == names.end()) {
    std::cerr << "adx-benchmark: --workload must be one of serve_par serve_seq tsp_paper "
                 "ring_cs_async\n";
    return 2;
  }
  const auto reps = static_cast<unsigned>(opt.get_u64("reps"));
  const auto warmup = static_cast<unsigned>(opt.get_u64("warmup"));
  const auto seed = opt.get_u64("seed");
  if (reps == 0) {
    std::cerr << "adx-benchmark: --reps must be at least 1\n";
    return 2;
  }

  auto m = measure(name, seed, size::full, reps, warmup);
  const auto json = report_of(m.e2e, reps, warmup, seed).to_json();
  if (opt.get_str("out").empty()) {
    std::cout << json;
  } else {
    write_file(opt.get_str("out"), json);
  }

  if (!opt.get_str("trace").empty()) {
    const fs::path dir = opt.get_str("trace");
    fs::create_directories(dir);
    layer_report lr;
    trace_layers(m, size::full, seed, lr);
    write_file(dir / (name + ".layers.json"), report_of(lr.layers, reps, warmup, seed).to_json());
    write_file(dir / (name + ".trace.json"), lr.trace.chrome_json());
  }
  return m.failed == 0 ? 0 : 1;
}

}  // namespace

}  // namespace adx::benchmark

int main(int argc, char** argv) {
  try {
    return adx::benchmark::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "adx-benchmark: " << e.what() << '\n';
    return 1;
  }
}
