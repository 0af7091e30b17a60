// adx-bench — the unified benchmark driver and perf regression gate.
//
//   adx-bench --list                         what can be measured
//   adx-bench --out=BENCH.json               measure everything, write report
//   adx-bench --compare=baseline.json        measure + diff against a baseline
//             --tolerance=0.25               (wall metrics only; virtual
//                                            metrics always require an exact
//                                            match and refuse a tolerance)
//
// Exit codes: 0 success, 1 regression (or virtual divergence) against the
// baseline, 2 usage error.
#include <atomic>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "cli/options.hpp"
#include "exec/job_executor.hpp"
#include "perf/bench_report.hpp"
#include "perf/scenario.hpp"
#include "sim/event_queue.hpp"
#include "telemetry/client.hpp"

namespace {

using namespace adx;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "adx-bench: cannot read '" << path << "'\n";
    std::exit(2);
  }
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out || !(out << text) || !out.flush()) {
    std::cerr << "adx-bench: cannot write '" << path << "'\n";
    std::exit(2);
  }
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto comma = text.find(',', pos);
    const auto end = comma == std::string::npos ? text.size() : comma;
    if (end > pos) out.push_back(text.substr(pos, end - pos));
    pos = end + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  auto opt =
      cli::options("adx-bench",
                   "unified benchmark driver: runs the paper's table/figure/ablation "
                   "scenarios and gates wall-time regressions against a committed baseline")
          .flag("list", "list scenarios and exit")
          .str("scenarios", "", "comma-separated subset to run (default: all)")
          .u64("reps", 5, "measured repetitions per scenario")
          .u64("warmup", 1, "discarded warmup repetitions per scenario")
          .u64("jobs", 1,
               "parallel scenario workers (0 = one per available CPU); reps stay "
               "sequential within a scenario, virtual metrics are identical "
               "for any value, wall metrics get noisier — keep 1 when "
               "recording a baseline")
          .str("out", "BENCH.json", "where to write the report")
          .str("compare", "", "baseline BENCH.json to diff against")
          .str("tolerance", "",
               "wall-metric tolerance: global fraction, then name=frac overrides "
               "(e.g. 0.25,wall_ns=0.5); requires --compare")
          .str("note", "", "free-text provenance recorded in the report")
          .str("telemetry", "",
               "stream scenario progress/results to this endpoint (unix:PATH "
               "or tcp:HOST:PORT) instead of stderr")
          .str("telemetry-run", "adx-bench", "run id tagging this stream")
          .str("telemetry-dump", "", "also write the telemetry frames to this file")
          .u64("slow-pop-ns", 0,
               "debug: busy-wait N ns of host time in every event-queue pop "
               "(gate self-test; virtual results unchanged)")
          .note("Clocks: metrics tagged clock=virtual are simulated virtual time —")
          .note("deterministic for a fixed seed, identical on every machine, and compared")
          .note("EXACTLY against the baseline (--tolerance refuses to apply to them).")
          .note("Metrics tagged clock=wall are host wall-clock time — noisy, compared")
          .note("within tolerance * baseline + an IQR-scaled band.")
          .note("")
          .note("Exit codes: 0 ok, 1 regression vs --compare baseline, 2 usage error.");
  opt.parse(argc, argv);

  if (opt.get_flag("list")) {
    for (const auto& s : perf::all_scenarios()) {
      std::cout << s.name << "\n    " << s.description << '\n';
    }
    return 0;
  }

  if (!opt.get_str("tolerance").empty() && opt.get_str("compare").empty()) {
    std::cerr << "adx-bench: --tolerance only makes sense with --compare\n";
    return 2;
  }
  if (opt.get_u64("reps") == 0) {
    std::cerr << "adx-bench: --reps must be >= 1\n";
    return 2;
  }

  // Parse the baseline and the tolerance BEFORE measuring: a malformed file or
  // a tolerance naming a deterministic metric should fail in milliseconds, not
  // after a full benchmark sweep.
  perf::bench_report baseline;
  perf::tolerance_spec tol;
  const bool comparing = !opt.get_str("compare").empty();
  if (comparing) {
    try {
      baseline = perf::bench_report::from_json(read_file(opt.get_str("compare")));
      tol = perf::tolerance_spec::parse(opt.get_str("tolerance"));
    } catch (const std::exception& e) {
      std::cerr << "adx-bench: " << e.what() << '\n';
      return 2;
    }
    const auto errors = perf::validate_tolerance(tol, baseline);
    if (!errors.empty()) {
      for (const auto& e : errors) std::cerr << "adx-bench: " << e << '\n';
      return 2;
    }
  }

  std::vector<const perf::scenario*> to_run;
  if (opt.get_str("scenarios").empty()) {
    for (const auto& s : perf::all_scenarios()) to_run.push_back(&s);
  } else {
    for (const auto& name : split_csv(opt.get_str("scenarios"))) {
      const auto* s = perf::find_scenario(name);
      if (s == nullptr) {
        std::cerr << "adx-bench: unknown scenario '" << name << "' (see --list)\n";
        return 2;
      }
      to_run.push_back(s);
    }
  }

  sim::event_queue::set_debug_pop_delay_ns(opt.get_u64("slow-pop-ns"));

  perf::bench_report report;
  report.reps = static_cast<unsigned>(opt.get_u64("reps"));
  report.warmup = static_cast<unsigned>(opt.get_u64("warmup"));
  report.note = opt.get_str("note");

  // With telemetry attached, progress/results go to the aggregation server
  // as structured frames instead of stderr chatter — the dashboard shows
  // them merged with every other producer's.
  std::unique_ptr<telemetry::client> tele;
  if (!opt.get_str("telemetry").empty() || !opt.get_str("telemetry-dump").empty()) {
    telemetry::client_options copt;
    copt.endpoint = opt.get_str("telemetry");
    copt.dump_path = opt.get_str("telemetry-dump");
    copt.run_id = opt.get_str("telemetry-run");
    copt.producer = "adx-bench";
    std::string terr;
    tele = telemetry::client::open(copt, &terr);
    if (!tele) std::cerr << "adx-bench: telemetry disabled: " << terr << '\n';
  }

  exec::job_executor ex(exec::resolve_jobs(opt.get_u64("jobs")));
  const bool parallel = ex.jobs() > 1 && to_run.size() > 1;
  std::mutex progress_mu;
  perf::scenario_progress progress;
  std::atomic<std::uint64_t> scenarios_done{0};
  if (tele) {
    progress.finished = [&](const perf::scenario& s, const perf::scenario_outcome& o) {
      tele->publish_result(s.name, !o.ok(), o.error);
      tele->publish_progress(scenarios_done.fetch_add(1, std::memory_order_relaxed) + 1,
                             to_run.size(), s.name);
    };
  } else if (parallel) {
    std::cerr << "adx-bench: running " << to_run.size() << " scenarios across "
              << ex.jobs() << " workers\n";
    progress.finished = [&](const perf::scenario& s, const perf::scenario_outcome& o) {
      const std::lock_guard<std::mutex> l(progress_mu);
      std::cerr << "  finished " << s.name << (o.ok() ? "" : " (FAILED)") << '\n';
    };
  } else {
    progress.started = [](const perf::scenario& s) {
      std::cerr << "  running " << s.name << " ..." << std::flush;
    };
    progress.finished = [](const perf::scenario&, const perf::scenario_outcome& o) {
      if (o.ok()) std::cerr << " done\n";
    };
  }

  const auto outcomes =
      perf::run_scenarios(to_run, report.reps, report.warmup, ex, progress);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].ok()) {
      std::cerr << "\nadx-bench: scenario " << to_run[i]->name
                << " failed: " << outcomes[i].error << '\n';
      return 1;
    }
    report.scenarios.push_back(outcomes[i].summary);
  }

  write_file(opt.get_str("out"), report.to_json());
  std::cerr << "adx-bench: wrote " << opt.get_str("out") << " (" << report.scenarios.size()
            << " scenarios, " << report.reps << " reps)\n";
  if (tele) {
    tele->publish_result("bench", false,
                         std::to_string(report.scenarios.size()) + " scenarios");
    tele->flush();
  }

  if (!comparing) return 0;

  // A --scenarios filter deliberately skips the rest of the suite; gating a
  // filtered run against the full baseline would report every unselected
  // scenario as missing. Narrow the baseline to what actually ran and say so.
  if (!opt.get_str("scenarios").empty()) {
    std::vector<perf::scenario_summary> kept;
    for (auto& bs : baseline.scenarios) {
      if (report.find(bs.name) != nullptr) kept.push_back(std::move(bs));
    }
    const auto skipped = baseline.scenarios.size() - kept.size();
    baseline.scenarios = std::move(kept);
    if (skipped > 0) {
      std::cout << "info scenario filter active; " << skipped
                << " baseline scenario(s) not selected, not compared\n";
    }
  }

  const auto cmp = perf::compare_reports(report, baseline, tol);
  for (const auto& f : cmp.findings) {
    (f.fatal() ? std::cerr : std::cout) << (f.fatal() ? "FAIL " : "info ") << f.describe()
                                        << '\n';
  }
  if (cmp.failed()) {
    std::cerr << "adx-bench: regression gate FAILED; offending scenarios:";
    for (const auto& name : cmp.regressed_scenarios()) std::cerr << ' ' << name;
    std::cerr << '\n';
    return 1;
  }
  std::cout << "adx-bench: regression gate passed (" << baseline.scenarios.size()
            << " baseline scenarios checked)\n";
  return 0;
}
