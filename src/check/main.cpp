// adx-check: schedule-exploration and fault-injection checker.
//
// Sweeps seeds x lock kinds x perturbation profiles over fixture workloads,
// checking the mutual-exclusion / deadlock / lost-wakeup / starvation /
// reconfiguration-atomicity oracles on every run. On a violation it prints
// the full run configuration as JSON (replayable via --config), greedily
// shrinks the perturbation journal to a minimal reproducer, and exits 1.
//
// Every run in the sweep is an independent simulation, so the whole grid
// fans out across host cores (--jobs); results are aggregated by job index,
// making stdout byte-identical for any worker count.
#include <atomic>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/objects.hpp"
#include "check/runner.hpp"
#include "objects/adaptive_hash_map.hpp"
#include "objects/adaptive_monitor.hpp"
#include "cli/options.hpp"
#include "exec/job_executor.hpp"
#include "objects/objects.hpp"
#include "obs/report_sink.hpp"
#include "policy/registry.hpp"
#include "telemetry/client.hpp"

namespace {

using namespace adx;

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// One (fixture, lock, policy, profile) cell of the sweep table. `policy` is
/// empty for non-adaptive locks and for the default spec.
struct sweep_cell {
  check::fixture fix;
  locks::lock_kind kind;
  std::string policy;
  std::string pname;
  sim::perturb_profile profile;
};

/// One (object, profile) cell of the adaptive-object sweep.
struct object_cell {
  objects::object_kind kind;
  std::string pname;
  sim::perturb_profile profile;
};

struct failure {
  bool object{false};  ///< object-check failure (oparams) vs lock fixture (params)
  check::check_params params;
  check::object_check_params oparams;
  check::check_result result;
  check::shrink_result shrunk;
  bool shrink_skipped{false};  ///< duplicate cell failure, shrink deduplicated
};

/// The stripe/entry locks of an object check come from the object's own
/// config defaults (adaptive stripes for the map, blocking entry for the
/// monitor); the sweep reports that kind in the lock column.
locks::lock_kind object_lock_kind(objects::object_kind k) {
  return k == objects::object_kind::hashmap ? objects::map_config{}.lock
                                            : objects::monitor_config{}.lock;
}

}  // namespace

int main(int argc, char** argv) {
  auto opt =
      cli::options("adx-check",
                   "schedule-exploration & fault-injection checker for the "
                   "thread package's locks")
          .str("fixtures", "mutex,oversub,reconfig",
               "comma list of fixtures (mutex oversub reconfig broken_lock serve)")
          .str("locks", "all", "comma list of lock kinds, or 'all'")
          .str("policies", "default",
               "adaptation policies for adaptive locks: 'default' (the default "
               "spec, simple-adapt), 'all' (every registered policy), or a comma "
               "list of policy names")
          .str("objects", "",
               "adaptive-object check sweeps: empty (none), 'all', or a comma "
               "list of object kinds (hashmap monitor)")
          .str("mode", "sync",
               "policy execution mode for adaptive cells: sync (inline at "
               "instrumentation points) or async (periodic policy runtime)")
          .str("profiles", "preempt,delay",
               "comma list of perturbation profiles (none ties delay preempt "
               "latency chaos)")
          .u64("seeds", 16, "number of seeds per (fixture, lock, profile) cell")
          .u64("seed-base", 1, "first seed of the sweep")
          .u64("processors", 4, "simulated processors (test machine shape)")
          .u64("iterations", 12, "critical sections per thread")
          .u64("jobs", 0,
               "parallel run workers (0 = one per available CPU); output is "
               "byte-identical for any value")
          .str("config", "", "replay one run from a run_config JSON file ('-' = stdin)")
          .str("fixture", "", "fixture for --config replay (default mutex)")
          .str("format", "table", "report format: table|csv|json")
          .str("telemetry", "",
               "stream live telemetry to this endpoint (unix:PATH or "
               "tcp:HOST:PORT); results are unaffected")
          .str("telemetry-run", "adx-check", "run id tagging this sweep's stream")
          .str("telemetry-dump", "",
               "also write the telemetry frame stream to this file (byte-equal "
               "to what the server receives)")
          .flag("no-shrink", "skip minimizing failing perturbation journals")
          .flag("shrink-all",
                "shrink every failing run (default: only the first failure per "
                "(fixture, lock, profile) cell)")
          .flag("verbose", "print every failing run's configuration JSON");
  opt.parse(argc, argv);

  const auto fmt = obs::parse_report_format(opt.get_str("format"));
  if (!fmt) {
    std::cerr << "adx-check: unknown format: " << opt.get_str("format")
              << " (valid: table csv json)\n";
    return 2;
  }

  try {
    // Telemetry is opt-in and strictly observational: with neither flag set
    // no socket is opened, no thread started, nothing allocated — and every
    // simulated result below is bit-identical either way.
    std::unique_ptr<telemetry::client> tele;
    if (!opt.get_str("telemetry").empty() || !opt.get_str("telemetry-dump").empty()) {
      telemetry::client_options copt;
      copt.endpoint = opt.get_str("telemetry");
      copt.dump_path = opt.get_str("telemetry-dump");
      copt.run_id = opt.get_str("telemetry-run");
      copt.producer = "adx-check";
      std::string terr;
      tele = telemetry::client::open(copt, &terr);
      if (!tele) {
        std::cerr << "adx-check: telemetry disabled: " << terr << '\n';
      } else if (!terr.empty()) {
        std::cerr << "adx-check: telemetry degraded: " << terr << '\n';
      }
    }

    // ------- single-run replay mode -------
    if (!opt.get_str("config").empty()) {
      std::string text;
      if (opt.get_str("config") == "-") {
        std::ostringstream buf;
        buf << std::cin.rdbuf();
        text = buf.str();
      } else {
        std::ifstream in(opt.get_str("config"));
        if (!in) {
          std::cerr << "adx-check: cannot open " << opt.get_str("config") << '\n';
          return 2;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        text = buf.str();
      }
      const auto config = run_config::from_json(text);
      // A config with the object axis set replays as an object check.
      if (!config.object.empty()) {
        check::object_check_params p;
        p.config = config;
        p.iterations = static_cast<unsigned>(opt.get_u64("iterations"));
        const auto r = check::run_object_check(p);
        for (const auto& v : r.violations) {
          std::cout << "violation: " << check::to_string(v) << '\n';
        }
        std::cout << (r.failed() ? "FAIL" : "OK") << " object=" << p.config.object
                  << " seed=" << p.config.seed << '\n';
        if (tele) {
          tele->publish_result("replay object=" + p.config.object + " seed=" +
                                   std::to_string(p.config.seed),
                               r.failed(), "");
        }
        return r.failed() ? 1 : 0;
      }
      check::check_params p;
      p.config = config;
      p.fix = opt.get_str("fixture").empty()
                  ? check::fixture::mutex
                  : check::parse_fixture(opt.get_str("fixture"));
      p.iterations = static_cast<unsigned>(opt.get_u64("iterations"));
      const auto r = check::run_check(p);
      for (const auto& v : r.violations) {
        std::cout << "violation: " << check::to_string(v) << '\n';
      }
      std::cout << (r.failed() ? "FAIL" : "OK") << " fixture=" << to_string(p.fix)
                << " lock=" << locks::to_string(p.config.lock)
                << " seed=" << p.config.seed << '\n';
      if (tele) {
        tele->publish_result("replay fixture=" + std::string(to_string(p.fix)) +
                                 " seed=" + std::to_string(p.config.seed),
                             r.failed(), "");
      }
      return r.failed() ? 1 : 0;
    }

    // ------- sweep mode -------
    const auto mode = policy::parse_exec_mode(opt.get_str("mode"));
    std::vector<check::fixture> fixtures;
    for (const auto& f : split_list(opt.get_str("fixtures"))) {
      fixtures.push_back(check::parse_fixture(f));
    }
    std::vector<locks::lock_kind> kinds;
    if (opt.get_str("locks") == "all") {
      for (auto k : locks::all_lock_kinds()) kinds.push_back(k);
    } else {
      for (const auto& k : split_list(opt.get_str("locks"))) {
        kinds.push_back(locks::parse_lock_kind(k));
      }
    }
    std::vector<std::pair<std::string, sim::perturb_profile>> profiles;
    for (const auto& name : split_list(opt.get_str("profiles"))) {
      profiles.emplace_back(name, sim::parse_perturb_profile(name));
    }
    // Policy axis: applies to adaptive-kind cells only. "" = the default
    // spec; named entries are validated against the registry up front so a
    // typo fails fast with the full list (exit 2), not mid-sweep.
    std::vector<std::string> policies;
    if (opt.get_str("policies") == "default") {
      policies.emplace_back();
    } else if (opt.get_str("policies") == "all") {
      for (auto name : policy::all_policy_names()) policies.emplace_back(name);
    } else {
      for (const auto& name : split_list(opt.get_str("policies"))) {
        policies.emplace_back(policy::parse_policy_name(name));
      }
    }
    // Object axis, mirroring --policies' UX: validated up front so a typo
    // fails fast with the full kind list (exit 2), not mid-sweep.
    std::vector<objects::object_kind> object_kinds;
    if (opt.get_str("objects") == "all") {
      for (auto k : objects::all_object_kinds()) object_kinds.push_back(k);
    } else {
      for (const auto& name : split_list(opt.get_str("objects"))) {
        object_kinds.push_back(objects::parse_object_kind(name));
      }
    }
    const auto seeds = opt.get_u64("seeds");
    const auto seed_base = opt.get_u64("seed-base");
    const auto nodes = static_cast<unsigned>(opt.get_u64("processors"));
    const auto iterations = static_cast<unsigned>(opt.get_u64("iterations"));

    // Flatten the fixture x lock x policy x profile x seed loop into a job
    // list (cell-major, seed-minor — the historical iteration order; the
    // policy axis collapses to one empty entry for non-adaptive kinds).
    std::vector<sweep_cell> cells;
    for (const auto fix : fixtures) {
      for (const auto kind : kinds) {
        const bool adaptive = kind == locks::lock_kind::adaptive;
        const std::size_t npol = adaptive ? policies.size() : 1;
        for (std::size_t pi = 0; pi < npol; ++pi) {
          for (const auto& [pname, profile] : profiles) {
            cells.push_back({fix, kind, adaptive ? policies[pi] : std::string{},
                             pname, profile});
          }
        }
      }
    }
    const auto params_for = [&](std::size_t cell, std::uint64_t seed_index) {
      check::check_params p;
      p.config = run_config{}
                     .with_machine(sim::machine_config::test_machine(nodes))
                     .with_lock(cells[cell].kind)
                     .with_perturb(cells[cell].profile)
                     .with_seed(seed_base + seed_index);
      if (!cells[cell].policy.empty()) {
        p.config.params.policy = policy::default_spec(cells[cell].policy);
      }
      // --mode=async routes every adaptive cell's policy (including the
      // default spec) through the periodic runtime.
      if (mode == policy::exec_mode::async &&
          cells[cell].kind == locks::lock_kind::adaptive) {
        p.config.params.policy.with_async();
      }
      p.fix = cells[cell].fix;
      p.iterations = iterations;
      return p;
    };

    // Object cells ride the same executor fan-out, appended after the lock
    // cells (cell-major, seed-minor again) so output stays byte-identical
    // for any --jobs value.
    std::vector<object_cell> ocells;
    for (const auto kind : object_kinds) {
      for (const auto& [pname, profile] : profiles) {
        ocells.push_back({kind, pname, profile});
      }
    }
    const auto oparams_for = [&](std::size_t cell, std::uint64_t seed_index) {
      check::object_check_params p;
      p.config = run_config{}
                     .with_machine(sim::machine_config::test_machine(nodes))
                     .with_lock(object_lock_kind(ocells[cell].kind))
                     .with_perturb(ocells[cell].profile)
                     .with_seed(seed_base + seed_index)
                     .with_object(objects::to_string(ocells[cell].kind));
      if (mode == policy::exec_mode::async) {
        auto spec = ocells[cell].kind == objects::object_kind::hashmap
                        ? objects::default_map_spec()
                        : objects::default_monitor_spec();
        p.config.with_object_policy(spec.with_async());
      }
      p.iterations = iterations;
      return p;
    };

    exec::job_executor ex(exec::resolve_jobs(opt.get_u64("jobs")));
    const std::uint64_t lock_runs = cells.size() * seeds;
    const std::uint64_t total_runs = lock_runs + ocells.size() * seeds;

    // Human-readable cell label for a job's telemetry events.
    const auto label_for = [&](std::size_t i) {
      if (i < lock_runs) {
        const auto& c = cells[i / seeds];
        std::string l = std::string(to_string(c.fix)) + "/" +
                        locks::to_string(c.kind);
        if (!c.policy.empty()) l += "/" + c.policy;
        l += "/" + c.pname + "/seed" + std::to_string(seed_base + i % seeds);
        return l;
      }
      const auto j = i - lock_runs;
      const auto& c = ocells[j / seeds];
      return std::string("object:") + objects::to_string(c.kind) + "/" + c.pname +
             "/seed" + std::to_string(seed_base + j % seeds);
    };
    // Live per-job reporting: an instant on the merged timeline (at the
    // job's virtual end time) plus a progress frame in completion order.
    // Publishing happens on the worker threads — lock-free SPSC pushes —
    // and touches nothing the simulation reads, so results stay identical.
    std::atomic<std::uint64_t> jobs_done{0};
    const auto publish_job = [&](std::size_t i, const check::check_result& r) {
      if (!tele) return;
      telemetry::trace_event_msg ev;
      ev.name = label_for(i);
      ev.cat = "check";
      ev.ph = static_cast<std::uint8_t>(obs::phase::instant);
      ev.ts_ns = r.end_time.ns;
      ev.tid = static_cast<std::uint32_t>(i);
      ev.a1_key = "violations";
      ev.a1_value = static_cast<std::int64_t>(r.violations.size());
      ev.a2_key = "events";
      ev.a2_value = static_cast<std::int64_t>(r.events);
      tele->publish(telemetry::message{std::move(ev)});
      const auto done = jobs_done.fetch_add(1, std::memory_order_relaxed) + 1;
      tele->publish_progress(done, total_runs, label_for(i));
    };

    const auto results = ex.map(total_runs, [&](std::size_t i) {
      if (i < lock_runs) {
        auto r = check::run_check(params_for(i / seeds, i % seeds));
        publish_job(i, r);
        return r;
      }
      const auto j = i - lock_runs;
      auto r = check::run_object_check(oparams_for(j / seeds, j % seeds));
      publish_job(i, r);
      return r;
    });

    // Deterministic aggregation, in job-index order.
    obs::report_builder table(
        {"fixture", "lock", "policy", "profile", "runs", "violations", "worst oracle"});
    table.title("adx-check sweep: " + std::to_string(seeds) + " seed(s) per cell");
    std::vector<failure> failures;

    for (std::size_t cell = 0; cell < cells.size(); ++cell) {
      std::uint64_t cell_violations = 0;
      std::string worst;  // the most severe oracle violated anywhere in the cell
      bool first_in_cell = true;
      for (std::uint64_t s = 0; s < seeds; ++s) {
        const auto& r = results[cell * seeds + s];
        if (!r.failed()) continue;
        cell_violations += r.violations.size();
        for (const auto& v : r.violations) {
          worst = std::string(check::worse_oracle(worst, v.oracle));
        }
        failure f;
        f.params = params_for(cell, s);
        f.result = r;
        // Identical (fixture, lock, profile) failures almost always shrink to
        // the same reproducer; pay the ddmin replays only once per cell
        // unless --shrink-all asks for every journal.
        f.shrink_skipped = !first_in_cell && !opt.get_flag("shrink-all");
        first_in_cell = false;
        failures.push_back(std::move(f));
      }
      table.row({to_string(cells[cell].fix), locks::to_string(cells[cell].kind),
                 cells[cell].policy.empty() ? "-" : cells[cell].policy,
                 cells[cell].pname, std::to_string(seeds),
                 std::to_string(cell_violations), worst.empty() ? "-" : worst});
    }
    for (std::size_t cell = 0; cell < ocells.size(); ++cell) {
      std::uint64_t cell_violations = 0;
      std::string worst;
      bool first_in_cell = true;
      for (std::uint64_t s = 0; s < seeds; ++s) {
        const auto& r = results[lock_runs + cell * seeds + s];
        if (!r.failed()) continue;
        cell_violations += r.violations.size();
        for (const auto& v : r.violations) {
          worst = std::string(check::worse_oracle(worst, v.oracle));
        }
        failure f;
        f.object = true;
        f.oparams = oparams_for(cell, s);
        f.result = r;
        f.shrink_skipped = !first_in_cell && !opt.get_flag("shrink-all");
        first_in_cell = false;
        failures.push_back(std::move(f));
      }
      table.row({std::string("object:") + objects::to_string(ocells[cell].kind),
                 locks::to_string(object_lock_kind(ocells[cell].kind)), "-",
                 ocells[cell].pname, std::to_string(seeds),
                 std::to_string(cell_violations), worst.empty() ? "-" : worst});
    }

    // Shrink phase: each journal's replay probes fan out on the executor.
    for (auto& f : failures) {
      if (opt.get_flag("no-shrink") || f.shrink_skipped) {
        f.shrunk.minimal = f.result.trace;
        f.shrunk.still_fails = true;
      } else if (f.object) {
        f.shrunk = check::shrink_journal(
            [&f](const std::vector<check::perturb_action>& candidate) {
              return check::replay_object_check(f.oparams, candidate).failed();
            },
            f.result.trace, ex);
      } else {
        f.shrunk = check::shrink_trace(f.params, f.result.trace, ex);
      }
    }

    table.note(std::to_string(total_runs) + " runs, " +
               std::to_string(failures.size()) + " failing");
    table.emit(*fmt);

    if (tele) {
      for (const auto& f : failures) {
        const auto& fcfg = f.object ? f.oparams.config : f.params.config;
        std::string what;
        for (const auto& v : f.result.violations) {
          if (!what.empty()) what += "; ";
          what += check::to_string(v);
        }
        tele->publish_result(
            (f.object ? "object=" + fcfg.object
                      : "fixture=" + std::string(to_string(f.params.fix))) +
                " lock=" + locks::to_string(fcfg.lock) +
                " seed=" + std::to_string(fcfg.seed),
            true, what);
      }
      obs::metrics summary;
      summary.get_counter("check.runs").set(total_runs);
      summary.get_counter("check.failures").set(failures.size());
      sim::vtime last{};
      for (const auto& r : results) {
        if (r.end_time.ns > last.ns) last = r.end_time;
      }
      tele->publish_metrics(summary, last.ns);
      tele->publish_result("sweep", !failures.empty(),
                           std::to_string(total_runs) + " runs, " +
                               std::to_string(failures.size()) + " failing");
      tele->flush();
    }

    for (const auto& f : failures) {
      const auto& fcfg = f.object ? f.oparams.config : f.params.config;
      if (f.object) {
        std::cout << "\nFAIL object=" << fcfg.object
                  << " lock=" << locks::to_string(fcfg.lock);
      } else {
        std::cout << "\nFAIL fixture=" << to_string(f.params.fix)
                  << " lock=" << locks::to_string(fcfg.lock);
      }
      if (!fcfg.params.policy.is_default()) {
        std::cout << " policy=" << fcfg.params.policy.name;
      }
      std::cout << " profile=" << sim::to_string(fcfg.perturb)
                << " seed=" << fcfg.seed << '\n';
      for (const auto& v : f.result.violations) {
        std::cout << "  violation: " << check::to_string(v) << '\n';
      }
      if (f.shrink_skipped) {
        std::cout << "  journal: " << f.result.trace.size()
                  << " action(s), shrink skipped (duplicate cell failure; rerun "
                     "with --shrink-all to minimize every journal)\n";
      } else {
        std::cout << "  journal: " << f.result.trace.size()
                  << " action(s), shrunk to " << f.shrunk.minimal.size() << " in "
                  << f.shrunk.replays << " replay(s)"
                  << (f.shrunk.still_fails ? "" : " [NOT stable]") << '\n';
        for (const auto& a : f.shrunk.minimal) {
          std::cout << "    " << to_string(a) << '\n';
        }
      }
      if (opt.get_flag("verbose")) {
        std::cout << "  config: " << fcfg.to_json() << '\n';
      } else if (f.object) {
        // The "object" key in the config selects the object replay path.
        std::cout << "  reproduce: adx-check --config=<file with the JSON below>\n"
                  << "  " << fcfg.to_json() << '\n';
      } else {
        std::cout << "  reproduce: adx-check --config=<file with the JSON below>"
                     " --fixture=" << to_string(f.params.fix) << '\n'
                  << "  " << fcfg.to_json() << '\n';
      }
    }

    return failures.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "adx-check: " << e.what() << '\n';
    return 2;
  }
}
