// Parallel LMSK TSP on the simulated multiprocessor (§4).
//
// The program is a collection of asynchronous cooperating searcher threads
// (one per processor, as in the paper's measurements) sharing two
// abstractions: a work queue of subproblems and the best-tour-so-far value.
// Three implementations vary those abstractions:
//
//   * centralized          — one global queue + one global best value, both
//                            on a single node; optimal pruning, high
//                            contention and remote traffic;
//   * distributed          — per-processor queues on a ring (steal from the
//                            next non-empty queue), per-processor best-value
//                            copies propagated on improvement; may expand
//                            useless nodes due to stale bounds;
//   * distributed_lb       — distributed plus the paper's load-balancing
//                            rule: each time a searcher gets a node it moves
//                            one subproblem from the next processor's queue
//                            into its own, then takes its local best.
//
// All variants synchronize with the paper's four locks: `qlock` (work
// queue), `glob-act-lock` (active-searcher count), `glob-low-lock` (best
// tour value) and `globlock` (multi-purpose global-structure lock). Any lock
// kind from the factory can be used, so blocking vs. adaptive is a parameter
// (Tables 1-3), and the locking patterns of qlock / glob-act-lock can be
// traced (Figures 4-9).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "locks/factory.hpp"
#include "locks/run_config.hpp"
#include "obs/tracer.hpp"
#include "sim/trace.hpp"
#include "tsp/lmsk.hpp"

namespace adx::tsp {

enum class variant { centralized, distributed, distributed_lb };

[[nodiscard]] const char* to_string(variant v);

struct parallel_config {
  unsigned processors = 10;
  variant impl = variant::centralized;

  /// Unified run configuration (machine shape, lock kind + parameters,
  /// perturbation profile, seed). `processors`/`impl` and the lock cost
  /// model stay TSP-specific knobs on top of it.
  adx::run_config run = adx::run_config{}.with_lock(locks::lock_kind::blocking);
  locks::lock_cost_model cost = locks::lock_cost_model::butterfly_cthreads();

  /// Charged processor time per LMSK matrix-cell operation. Calibrated so
  /// the sequential 32-city baseline lands near the paper's 20.7 s.
  double per_op_us = 4.5;

  /// Matrix words are charged as words/divisor memory accesses (block
  /// transfers); keeps data traffic realistic without overwhelming the
  /// module model.
  std::uint64_t data_word_divisor = 8;

  /// The shared queue is a bound-ordered linked structure (as in the 1993
  /// Cthreads implementation): an insert traverses ~half the queue inside
  /// the qlock critical section, reading this many words per entry. This is
  /// what makes the centralized queue's critical sections long — and its
  /// qlock hot (Figure 4) — while the shorter per-processor queues of the
  /// distributed variants stay cheap (Figures 6/8).
  std::uint64_t queue_scan_entry_words = 2;

  /// Idle searchers re-check for work at this interval.
  sim::vdur poll_interval = sim::microseconds(500);

  /// Record qlock / glob-act-lock locking patterns (Figures 4-9).
  bool record_patterns = false;

  /// Structured-event tracer (not owned; may be null). When set, the runtime
  /// and every lock emit spans/instants into it: thread run slices, lock
  /// acquire/held spans, contention and handoff instants, reconfiguration
  /// decisions annotated with v_i / d_c.
  obs::tracer* tracer = nullptr;

  std::uint64_t max_events = 400'000'000ULL;
};

/// Aggregated statistics of one lock (or one lock group, for the per-shard
/// locks of the distributed variants).
struct lock_report {
  std::string name;
  std::uint64_t requests{0};
  std::uint64_t contended{0};
  std::int64_t peak_waiting{0};
  double mean_wait_us{0.0};
  double contention_ratio{0.0};
};

struct parallel_result {
  tour best;
  sim::vtime elapsed{};
  std::uint64_t expansions{0};
  std::uint64_t pruned_pops{0};
  std::uint64_t ops{0};
  std::uint64_t steals{0};
  std::uint64_t events{0};
  std::vector<lock_report> lock_reports;
  sim::trace qlock_pattern{"qlock"};
  sim::trace act_pattern{"glob-act-lock"};
};

/// Runs the parallel solver to completion on a fresh simulated machine.
/// Throws std::invalid_argument when `processors` is 0 or exceeds the
/// machine's nodes, `data_word_divisor` is 0, or `per_op_us` is negative or
/// not finite.
[[nodiscard]] parallel_result solve_parallel(const instance& inst,
                                             const parallel_config& cfg);

}  // namespace adx::tsp
