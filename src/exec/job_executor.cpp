#include "exec/job_executor.hpp"

#include <algorithm>
#include <mutex>

#ifdef __linux__
#include <sched.h>
#endif

namespace adx::exec {

namespace {

/// Pause iterations a waiter spins before parking. At ~20 ns per `pause` on
/// a current Xeon this is ~80 µs: dozens of sharded windows, yet well under
/// a scheduler quantum.
constexpr unsigned kSpinIterations = 4096;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

unsigned default_jobs() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

unsigned resolve_jobs(std::uint64_t flag_value) {
  if (flag_value == 0) return default_jobs();
  // More workers than jobs ever helps nothing; bound the thread count so a
  // typo'd --jobs cannot exhaust the host.
  return static_cast<unsigned>(std::min<std::uint64_t>(flag_value, 512));
}

/// One fan-out call's shared state. Lives on the caller's stack for the
/// duration of run_find; workers reach it through job_executor::current_.
struct job_executor::batch {
  const std::function<bool(std::size_t)>* body{nullptr};
  std::size_t count{0};
  std::size_t chunk{1};
  std::atomic<std::size_t> next{0};        ///< claim cursor (monotone)
  std::atomic<std::size_t> found{npos};    ///< min index with body(i) == true
  std::atomic<bool> stop{false};           ///< a job threw: drain and bail

  std::mutex err_mu;
  std::exception_ptr error;
  std::size_t error_index{npos};
};

job_executor::job_executor(unsigned jobs)
    : jobs_(jobs == 0 ? default_jobs() : jobs), spin_(jobs_ <= default_jobs()) {
  workers_.reserve(jobs_ - 1);
  for (unsigned w = 1; w < jobs_; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

job_executor::~job_executor() {
  shutdown_ = true;
  generation_.fetch_add(1);
  generation_.notify_all();
  for (auto& t : workers_) t.join();
}

std::uint32_t job_executor::await_change(const std::atomic<std::uint32_t>& word,
                                         std::uint32_t old) const {
  if (spin_) {
    for (unsigned i = 0; i < kSpinIterations; ++i) {
      const std::uint32_t v = word.load(std::memory_order_acquire);
      if (v != old) return v;
      cpu_relax();
    }
  }
  word.wait(old, std::memory_order_acquire);
  return word.load(std::memory_order_acquire);
}

void job_executor::worker_loop() {
  const std::uint32_t pool = jobs_ - 1;  // workers_ may still be growing
  std::uint32_t seen = 0;
  for (;;) {
    seen = await_change(generation_, seen);
    if (shutdown_) return;
    work_on(*current_);
    // Only the last finisher can release a parked caller.
    if (finished_.fetch_add(1) + 1 == pool) finished_.notify_one();
  }
}

void job_executor::work_on(batch& b) {
  for (;;) {
    if (b.stop.load(std::memory_order_acquire)) return;
    const std::size_t begin = b.next.fetch_add(b.chunk, std::memory_order_relaxed);
    if (begin >= b.count) return;
    const std::size_t end = std::min(begin + b.chunk, b.count);
    for (std::size_t i = begin; i < end; ++i) {
      if (b.stop.load(std::memory_order_acquire)) return;
      // An index past an already-found smaller hit cannot improve the
      // minimum; skip it (pure speculation saved, result unchanged).
      if (i >= b.found.load(std::memory_order_acquire)) continue;
      bool hit;
      try {
        hit = (*b.body)(i);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> l(b.err_mu);
          if (i < b.error_index) {
            b.error_index = i;
            b.error = std::current_exception();
          }
        }
        b.stop.store(true, std::memory_order_release);
        return;
      }
      if (hit) {
        std::size_t cur = b.found.load(std::memory_order_acquire);
        while (i < cur &&
               !b.found.compare_exchange_weak(cur, i, std::memory_order_acq_rel)) {
        }
      }
    }
  }
}

std::size_t job_executor::run_find(std::size_t count, std::size_t chunk,
                                   const std::function<bool(std::size_t)>& body) {
  if (count == 0) return npos;

  if (jobs_ == 1 || count == 1) {
    // Inline sequential execution: exact historical loop semantics — first
    // exception propagates immediately, first hit stops the scan.
    for (std::size_t i = 0; i < count; ++i) {
      if (body(i)) return i;
    }
    return npos;
  }

  batch b;
  b.body = &body;
  b.count = count;
  b.chunk = std::max<std::size_t>(1, chunk);
  // Every pool worker finished the previous batch before run_find returned,
  // so nobody reads current_ or writes finished_ until the bump below.
  current_ = &b;
  finished_.store(0, std::memory_order_relaxed);
  generation_.fetch_add(1);
  generation_.notify_all();
  work_on(b);  // the calling thread is worker 0
  const std::uint32_t pool = jobs_ - 1;
  for (std::uint32_t f = finished_.load(std::memory_order_acquire); f != pool;
       f = await_change(finished_, f)) {
  }
  current_ = nullptr;
  if (b.error) std::rethrow_exception(b.error);
  return b.found.load(std::memory_order_acquire);
}

}  // namespace adx::exec
