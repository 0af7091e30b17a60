// Shared helpers for the benchmark harness: flag parsing and paper-vs-measured
// printing, including the Tables 1-3 and Figures 4-9 printers. The
// experiments themselves live in perf/experiments.hpp, shared with the
// adx-bench scenario registry.
//
// Every bench declares its flags through the shared `adx::cli::options`
// parser (see bench_options below): each binary gets a generated `--help`
// screen, `--name=value` / `--name value` syntax, and a clean exit-2 error
// on unknown flags — no per-bench argv scanning.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "cli/options.hpp"
#include "ct/context.hpp"
#include "exec/job_executor.hpp"
#include "locks/adaptive_lock.hpp"
#include "locks/factory.hpp"
#include "obs/report_sink.hpp"
#include "obs/tracer.hpp"
#include "perf/experiments.hpp"
#include "tsp/parallel.hpp"

namespace adx::bench {

/// Paper-vs-measured tables render through the observability layer's
/// report_builder; benches keep the short historical name.
using table = obs::report_builder;

/// Starts the shared flag parser for a bench. Chain `.u64/.str/.flag`
/// declarations onto the result, then call `parse(argc, argv)`.
inline cli::options bench_options(char** argv, const char* summary) {
  return cli::options(argv != nullptr && argv[0] != nullptr ? argv[0] : "bench",
                      summary)
      .note("Clocks: figures are simulated virtual time (deterministic for a "
            "fixed seed and")
      .note("machine shape) unless a column or metric is explicitly labelled "
            "'wall' (host")
      .note("wall-clock time, noisy). adx-bench tracks both against committed "
            "baselines.");
}

/// Starts the flag parser for a *sweep* bench: bench_options plus the shared
/// `--jobs` flag. Sweep benches run every grid point as an independent
/// simulation on an exec::job_executor, so their figures are byte-identical
/// for any worker count.
inline cli::options bench_sweep_options(char** argv, const char* summary) {
  return bench_options(argv, summary)
      .u64("jobs", 0,
           "parallel sweep workers (0 = one per available CPU); figures are "
           "byte-identical for any value");
}

/// Folds the declared `--jobs` flag into a concrete worker count.
inline unsigned jobs_from(const cli::options& opt) {
  return exec::resolve_jobs(opt.get_u64("jobs"));
}

/// Reads a declared `--shards` flag; exits 2 unless it names at least one
/// shard (an execution domain cannot run on zero).
inline unsigned shards_from(const cli::options& opt) {
  const auto n = opt.get_u64("shards");
  if (n == 0 || n > std::numeric_limits<unsigned>::max()) {
    std::fprintf(stderr, "--shards: expected 1..%u, got %llu\n",
                 std::numeric_limits<unsigned>::max(), static_cast<unsigned long long>(n));
    std::exit(2);
  }
  return static_cast<unsigned>(n);
}

/// Reads a declared `--format` flag; exits 2 on bad values.
inline obs::report_format report_format_from(const cli::options& opt) {
  const auto& s = opt.get_str("format");
  const auto f = obs::parse_report_format(s);
  if (!f) {
    std::fprintf(stderr, "unknown --format '%s' (expected table, csv or json)\n",
                 s.c_str());
    std::exit(2);
  }
  return *f;
}

/// Declares and parses the standard `--format` flag — the whole command line
/// of the table-only benches (Tables 4-8).
inline obs::report_format parse_format_only(int argc, char** argv,
                                            const char* summary) {
  auto opt = bench_options(argv, summary)
                 .str("format", "table", "report format: table|csv|json");
  opt.parse(argc, argv);
  return report_format_from(opt);
}

/// One paper row of the Tables 4-8 layout: an operation's published cost
/// (us) with the lock word local and remote; a negative remote prints "-".
struct paper_cost {
  const char* name;
  double local;
  double remote;
};

/// Renders the Tables 4-8 layout: each paper row beside the measured row of
/// the same index, honouring `--format=table|csv|json`.
inline void emit_cost_table(obs::report_format fmt, const char* title, const char* first_col,
                            const char* preamble, std::initializer_list<paper_cost> paper,
                            const std::vector<perf::cost_row>& measured) {
  table t({first_col, "paper local", "meas. local", "paper remote", "meas. remote"});
  t.title(title);
  if (preamble != nullptr) t.preamble(preamble);
  auto m = measured.begin();
  for (const auto& p : paper) {
    const bool remote = p.remote >= 0;
    t.row({p.name, table::num(p.local), table::num(m->local_us),
           remote ? table::num(p.remote) : "-", remote ? table::num(m->remote_us) : "-"});
    ++m;
  }
  t.emit(fmt);
}

/// printf into a std::string, for report preamble/note lines.
[[gnu::format(printf, 1, 2)]] inline std::string strf(const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  va_end(ap2);
  return out;
}

/// Prints the standard Tables 1-3 layout (paper row + measured row) through a
/// report_sink, honouring `--format=table|csv|json`.
inline void print_tsp_table(const char* title, tsp::variant v, int paper_blocking_ms,
                            int paper_adaptive_ms, double paper_improvement,
                            int paper_sequential_ms, int argc, char** argv) {
  perf::tsp_table_shape shape;
  auto opt = bench_options(argv, title)
                 .u64("cities", shape.cities, "TSP problem size")
                 .u64("processors", shape.processors, "processors (one searcher thread each)")
                 .str("format", "table", "report format: table|csv|json");
  opt.parse(argc, argv);
  const auto fmt = report_format_from(opt);
  shape.cities = static_cast<unsigned>(opt.get_u64("cities"));
  shape.processors = static_cast<unsigned>(opt.get_u64("processors"));

  const auto [seq_ms, blocking, adaptive] = perf::tsp_table(v, shape);
  const double improvement = (blocking.mean_ms - adaptive.mean_ms) / blocking.mean_ms;

  table t({"", "sequential (ms)", "blocking lock (ms)", "adaptive lock (ms)",
           "improvement"});
  t.title(title);
  t.preamble(strf("(measured: %u cities, %u processors, 1 searcher thread/processor, "
                  "mean over %zu seeds)",
                  shape.cities, shape.processors, shape.seeds.size()));
  t.row({"paper (BBN GP1000)",
         paper_sequential_ms > 0 ? std::to_string(paper_sequential_ms) : "-",
         std::to_string(paper_blocking_ms), std::to_string(paper_adaptive_ms),
         table::pct(paper_improvement)});
  t.row({"measured (simulator)", table::num(seq_ms, 0),
         table::num(blocking.mean_ms, 0),
         table::num(adaptive.mean_ms, 0), table::pct(improvement)});

  const double work_norm =
      (blocking.mean_ms_per_expansion - adaptive.mean_ms_per_expansion) /
      blocking.mean_ms_per_expansion;
  t.note(strf("work-normalized improvement (per node expanded; removes the "
              "B&B exploration luck between runs): %.1f%%",
              100 * work_norm));
  t.note(strf("qlock: blocking %.0f%% contended (peak %lld waiting) vs adaptive "
              "%.0f%% (peak %lld); expansions %llu vs %llu",
              100 * blocking.qlock_contention,
              static_cast<long long>(blocking.qlock_peak),
              100 * adaptive.qlock_contention,
              static_cast<long long>(adaptive.qlock_peak),
              static_cast<unsigned long long>(blocking.mean_expansions),
              static_cast<unsigned long long>(adaptive.mean_expansions)));
  t.note(strf("speedup over sequential: blocking %.1fx, adaptive %.1fx",
              seq_ms / blocking.mean_ms, seq_ms / adaptive.mean_ms));
  t.emit(fmt);
}

/// Runs one TSP config with pattern recording and prints the requested
/// lock's waiting-count series as an ASCII chart (Figures 4-9).
///
/// `--trace-json=PATH` additionally records a structured-event trace of the
/// run — thread run slices, lock acquire/held spans, reconfiguration
/// decisions annotated with v_i / d_c — and writes Chrome trace-event JSON
/// (Perfetto-loadable) to PATH. When tracing, the lock kind defaults to
/// adaptive (so the trace contains reconfiguration events); `--lock=KIND`
/// overrides it either way.
inline void print_pattern_figure(const char* title, tsp::variant v, bool qlock,
                                 int argc, char** argv) {
  perf::pattern_shape shape;
  auto opt = bench_options(argv, title)
                 .u64("cities", shape.cities, "TSP problem size")
                 .u64("processors", shape.processors, "processors (one searcher thread each)")
                 .u64("seed", shape.seed, "instance seed")
                 .str("trace-json", "", "write Chrome trace-event JSON to PATH")
                 .str("lock", "",
                      "lock kind to trace (default blocking; adaptive when tracing)")
                 .flag("csv", "also dump the raw waiting-count series as CSV");
  opt.parse(argc, argv);
  shape.cities = static_cast<unsigned>(opt.get_u64("cities"));
  shape.processors = static_cast<unsigned>(opt.get_u64("processors"));
  shape.seed = opt.get_u64("seed");
  const auto& trace_path = opt.get_str("trace-json");
  const auto lock_name =
      !opt.get_str("lock").empty()
          ? opt.get_str("lock")
          : std::string(trace_path.empty() ? "blocking" : "adaptive");
  try {
    shape.kind = locks::parse_lock_kind(lock_name);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "--lock: %s\n", e.what());
    std::exit(2);
  }

  obs::tracer tr;
  if (!trace_path.empty()) {
    tr.enable();
    shape.tracer = &tr;
  }
  const auto r = perf::locking_pattern(v, shape);
  const auto& pattern = qlock ? r.qlock_pattern : r.act_pattern;
  const auto& report = qlock ? r.lock_reports[0] : r.lock_reports[2];

  std::printf("%s\n", title);
  if (shape.kind != locks::lock_kind::blocking) {
    std::printf("(lock kind: %s)\n", locks::to_string(shape.kind));
  }
  std::printf("(measured: %u cities, seed %llu, %u processors; waiting threads over "
              "virtual time)\n\n",
              shape.cities, static_cast<unsigned long long>(shape.seed), shape.processors);
  std::printf("%s\n", pattern.ascii_chart(r.elapsed).c_str());
  std::printf("requests %llu, contended %.1f%%, peak waiting %lld, mean wait %.0f us, "
              "run %.0f ms\n",
              static_cast<unsigned long long>(report.requests),
              100 * report.contention_ratio, static_cast<long long>(report.peak_waiting),
              report.mean_wait_us, r.elapsed.ms());
  if (opt.get_flag("csv")) {
    std::printf("\n%s", pattern.to_csv().c_str());
  }
  if (!trace_path.empty()) {
    std::ofstream out(trace_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", trace_path.c_str());
      std::exit(1);
    }
    out << tr.chrome_json();
    std::printf("\nChrome trace (%zu events%s) written to %s\n", tr.size(),
                tr.dropped() ? strf(", %llu dropped",
                                    static_cast<unsigned long long>(tr.dropped()))
                                   .c_str()
                             : "",
                trace_path.c_str());
  }
}

}  // namespace adx::bench
