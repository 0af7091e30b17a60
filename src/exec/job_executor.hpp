// Host-level parallel sweep executor.
//
// Every evaluation driver in this repo (adx-check, adx-bench, the fig1/
// ablation sweeps) is a grid of *independent* deterministic simulations: each
// run builds its own sim::machine / ct::runtime from a run_config, so runs
// can execute on any host thread in any order without affecting each other's
// virtual-time results. `job_executor` is the one place that exploits this:
// a fixed-size thread pool with a chunked fan-out API that always collects
// results **by job index**, so a driver's output is byte-identical no matter
// how many workers it runs (`--jobs=1` executes inline on the calling thread
// and reproduces the historical sequential behaviour exactly).
//
// Determinism contract:
//   * map()/for_each() run fn(i) exactly once for every i in [0, count) and
//     map() stores the result at out[i] — worker count and chunk size change
//     only the wall-clock schedule, never the collected values.
//   * find_first() returns the smallest index whose predicate is true, also
//     independent of worker count. With several workers it may *evaluate*
//     indexes beyond the answer speculatively (and skips indexes already
//     known to be past a smaller hit); with one worker it evaluates
//     sequentially and stops at the first hit, like a plain loop.
//   * A throwing job cancels the batch and the exception is rethrown to the
//     caller. When several jobs throw, the lowest-indexed exception among
//     those evaluated wins; with one worker that is exactly the first throw,
//     matching a sequential loop.
//
// Jobs must be independent: they may not touch shared mutable state without
// their own synchronization (the simulator never needs any — machines are
// instance-scoped by construction).
//
// Handoff (the paper's Fig. 1 rule applied to the host barrier): a batch is
// published by bumping an atomic generation counter and joined by counting
// finished pool workers on a second atomic. A waiter on either counter spins
// a bounded number of `pause` iterations — a sharded DES window is about a
// microsecond of work, far shorter than a futex sleep/wake round trip — then
// parks on the counter (std::atomic::wait). Spinning only pays when every
// worker has a CPU of its own, so an executor whose worker count exceeds the
// process's CPU affinity mask parks at once: spinning there would burn the
// very CPU the awaited worker needs.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace adx::exec {

/// Worker count for `--jobs=0` / unspecified: the number of CPUs in this
/// process's affinity mask (so `taskset` and CPU-limited containers are
/// honoured), at least 1.
[[nodiscard]] unsigned default_jobs();

/// Folds a `--jobs` flag value into a concrete worker count (0 = default).
[[nodiscard]] unsigned resolve_jobs(std::uint64_t flag_value);

class job_executor {
 public:
  /// "no index": find_first's miss value.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// `jobs` worker slots (the calling thread is one of them; `jobs - 1`
  /// pool threads are spawned). 0 means default_jobs().
  explicit job_executor(unsigned jobs = 0);
  ~job_executor();
  job_executor(const job_executor&) = delete;
  job_executor& operator=(const job_executor&) = delete;

  [[nodiscard]] unsigned jobs() const { return jobs_; }

  /// True when waiters spin before parking: the affinity mask held at least
  /// jobs() CPUs when the executor was built.
  [[nodiscard]] bool spins() const { return spin_; }

  /// Runs fn(i) for every i in [0, count). `chunk` is the claiming
  /// granularity (0 = automatic); it never affects observable results.
  /// A single job (count == 1) runs inline on the caller, with no handoff.
  template <typename Fn>
  void for_each(std::size_t count, Fn&& fn, std::size_t chunk = 0) {
    (void)run_find(count, pick_chunk(count, chunk), [&fn](std::size_t i) {
      fn(i);
      return false;
    });
  }

  /// Runs fn(i) for every i in [0, count) and collects the results by job
  /// index: out[i] == fn(i) regardless of worker count. The result type must
  /// be default-constructible (slots are pre-allocated, then assigned).
  template <typename Fn>
  [[nodiscard]] auto map(std::size_t count, Fn&& fn, std::size_t chunk = 0)
      -> std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>> {
    std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>> out(count);
    (void)run_find(count, pick_chunk(count, chunk), [&fn, &out](std::size_t i) {
      out[i] = fn(i);
      return false;
    });
    return out;
  }

  /// Smallest i in [0, count) with pred(i) true; npos when none. Evaluation
  /// order is unspecified beyond the determinism contract above.
  template <typename Pred>
  [[nodiscard]] std::size_t find_first(std::size_t count, Pred&& pred,
                                       std::size_t chunk = 1) {
    return run_find(count, chunk == 0 ? 1 : chunk,
                    [&pred](std::size_t i) { return static_cast<bool>(pred(i)); });
  }

 private:
  struct batch;

  /// Auto chunking: ~4 claims per worker keeps the claim counter cold while
  /// still load-balancing uneven jobs.
  [[nodiscard]] std::size_t pick_chunk(std::size_t count, std::size_t chunk) const {
    if (chunk != 0) return chunk;
    const std::size_t target = static_cast<std::size_t>(jobs_) * 4;
    return count <= target ? 1 : count / target;
  }

  /// The type-erased core behind all three entry points: runs body over
  /// [0, count), returns the smallest index for which it returned true.
  std::size_t run_find(std::size_t count, std::size_t chunk,
                       const std::function<bool(std::size_t)>& body);

  void worker_loop();
  static void work_on(batch& b);
  /// Returns `word`'s value once it differs from `old`: spins first when
  /// spin_ is set, then parks on the word.
  [[nodiscard]] std::uint32_t await_change(const std::atomic<std::uint32_t>& word,
                                           std::uint32_t old) const;

  unsigned jobs_;
  bool spin_;

  // current_ and shutdown_ are plain fields: written only before a
  // generation_ bump and read only after a worker observes that bump.
  batch* current_{nullptr};
  bool shutdown_{false};
  // On separate cache lines: workers spin on generation_ while the caller
  // spins on finished_.
  alignas(64) std::atomic<std::uint32_t> generation_{0};  ///< bumped per batch and at shutdown
  alignas(64) std::atomic<std::uint32_t> finished_{0};    ///< pool workers done with the batch
  std::vector<std::thread> workers_;  ///< last: the threads use every member above
};

}  // namespace adx::exec
