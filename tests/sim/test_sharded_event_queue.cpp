#include "sim/sharded_event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "exec/job_executor.hpp"
#include "sim/event_queue.hpp"

namespace adx::sim {
namespace {

TEST(ShardedEventQueue, RejectsZeroShards) {
  EXPECT_THROW(sharded_event_queue(0, microseconds(10)), std::invalid_argument);
}

TEST(ShardedEventQueue, RejectsNonPositiveLookahead) {
  EXPECT_THROW(sharded_event_queue(4, vdur{0}), std::invalid_argument);
  EXPECT_THROW(sharded_event_queue(4, vdur{-5}), std::invalid_argument);
}

TEST(ShardedEventQueue, StartsEmpty) {
  sharded_event_queue q(4, microseconds(10));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.run(), 0u);
  EXPECT_EQ(q.windows(), 0u);
  EXPECT_EQ(q.processed(), 0u);
}

TEST(ShardedEventQueue, SendValidatesTargetShard) {
  sharded_event_queue q(2, microseconds(10));
  EXPECT_THROW(q.send(0, 5, vtime{100'000}, 0, [] {}), std::out_of_range);
}

TEST(ShardedEventQueue, SendInsideHorizonThrows) {
  sharded_event_queue q(2, vdur{1000});
  // Source shard sits at time 0; anything before 0 + lookahead is a
  // causality hazard the conservative protocol must reject.
  EXPECT_THROW(q.send(0, 1, vtime{999}, 0, [] {}), std::logic_error);
}

TEST(ShardedEventQueue, SendExactlyAtHorizonIsAllowed) {
  sharded_event_queue q(2, vdur{1000});
  bool ran = false;
  q.send(0, 1, vtime{1000}, 0, [&] { ran = true; });
  q.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(q.cross_sends(), 1u);
}

TEST(ShardedEventQueue, TiesWithinShardKeepFifoOrder) {
  sharded_event_queue q(1, microseconds(10));
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(0, vtime{100}, [&order, i] { order.push_back(i); });
  }
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ShardedEventQueue, NowIsMaxOverShards) {
  sharded_event_queue q(2, microseconds(10));
  q.schedule_at(0, vtime{300}, [] {});
  q.schedule_at(1, vtime{7000}, [] {});
  q.run();
  EXPECT_EQ(q.now(0).ns, 300u);
  EXPECT_EQ(q.now(1).ns, 7000u);
  EXPECT_EQ(q.now().ns, 7000u);
}

// --- Stress: the sharded queue vs a plain sequential event_queue. ---------
//
// The program: kStreams independent event chains that occasionally fire
// cross-stream messages. Stream s's own events live on timestamps ≡ s
// (mod kStreams) and message transit is a multiple of kStreams, so a
// delivery keeps its *sender's* residue class: it can never tie with the
// receiver's local events, and same-timestamp deliveries can only come from
// one sender (whose origin counter orders them by program order in both
// executions). The per-stream traces are therefore a total observable —
// byte-identical between the plain reference queue and the sharded queue at
// every shard count and worker count.

constexpr unsigned kStreams = 8;
constexpr std::uint64_t kResidue = kStreams;
constexpr vdur kLookahead{kResidue * 50};  // multiple of the residue modulus

struct rec {
  std::uint64_t at;
  unsigned origin;  ///< stream whose clock produced the timestamp
  bool delivered;   ///< true for a cross-stream message delivery
  bool operator==(const rec&) const = default;
};

struct run_result {
  std::array<std::vector<rec>, kStreams> trace;
  std::uint64_t processed{0};
  std::uint64_t windows{0};
  std::uint64_t cross_sends{0};
};

class driver {
 public:
  // shard_count == 0 runs the reference model: every stream on one plain
  // event_queue, messages scheduled directly at their delivery time. Only
  // the first `live` streams run local events; the rest stay idle and only
  // receive messages, so their shards are busy in few windows.
  driver(unsigned shard_count, unsigned events_per_stream, unsigned live = kStreams)
      : shards_(shard_count) {
    if (shards_ > 0) shq_ = std::make_unique<sharded_event_queue>(shards_, kLookahead);
    for (unsigned s = 0; s < live; ++s) {
      st_[s].x = 0x9E3779B97F4A7C15ULL * (s + 1);
      st_[s].remaining = events_per_stream;
      schedule_local(s, vtime{s});
    }
  }

  run_result run(exec::job_executor* ex = nullptr) {
    if (shards_ == 0) {
      out_.processed = ref_.run();
    } else {
      out_.processed = ex ? shq_->run(*ex) : shq_->run();
      out_.windows = shq_->windows();
      out_.cross_sends = shq_->cross_sends();
    }
    return std::move(out_);
  }

 private:
  struct stream_state {
    std::uint64_t x{0};
    unsigned remaining{0};
    std::uint64_t origin_counter{0};
  };

  [[nodiscard]] unsigned shard_of(unsigned s) const { return shards_ ? s % shards_ : 0; }

  std::uint64_t rnd(unsigned s, std::uint64_t mod) {
    auto& x = st_[s].x;
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return (x >> 33) % mod;
  }

  void schedule_local(unsigned s, vtime at) {
    const auto fn = [this, s, at] { local_event(s, at); };
    if (shards_) {
      shq_->schedule_at(shard_of(s), at, fn);
    } else {
      ref_.schedule_at(at, fn);
    }
  }

  void local_event(unsigned s, vtime t) {
    out_.trace[s].push_back({t.ns, s, false});
    if (rnd(s, 4) == 0) {
      const auto u = static_cast<unsigned>((s + 1 + rnd(s, kStreams - 1)) % kStreams);
      // extra == 0 lands the message at exactly the lookahead horizon — the
      // boundary case the conservative window must still order correctly.
      const std::uint64_t extra = rnd(s, 3) * kResidue;
      const vtime at{t.ns + static_cast<std::uint64_t>(kLookahead.ns) + extra};
      const auto fn = [this, u, s, at] { out_.trace[u].push_back({at.ns, s, true}); };
      if (shards_) {
        const auto origin =
            (static_cast<std::uint64_t>(s) << 32) | st_[s].origin_counter++;
        shq_->send(shard_of(s), shard_of(u), at, origin, fn);
      } else {
        ref_.schedule_at(at, fn);
      }
    }
    if (--st_[s].remaining > 0) {
      schedule_local(s, vtime{t.ns + kResidue * (1 + rnd(s, 25))});
    }
  }

  unsigned shards_;
  event_queue ref_;
  std::unique_ptr<sharded_event_queue> shq_;
  std::array<stream_state, kStreams> st_;
  run_result out_;
};

TEST(ShardedEventQueue, StressMatchesSequentialReferenceAtEveryShardCount) {
  constexpr unsigned kEvents = 400;
  const auto ref = driver(0, kEvents).run();
  std::uint64_t deliveries = 0;
  for (const auto& t : ref.trace) {
    for (const auto& r : t) deliveries += r.delivered ? 1 : 0;
  }
  ASSERT_EQ(ref.processed, kStreams * kEvents + deliveries);

  std::uint64_t windows = 0, sends = 0;
  for (const unsigned shards : {1u, 2u, 3u, 5u, 8u}) {
    const auto got = driver(shards, kEvents).run();
    EXPECT_EQ(got.processed, ref.processed) << "shards=" << shards;
    for (unsigned s = 0; s < kStreams; ++s) {
      EXPECT_EQ(got.trace[s], ref.trace[s]) << "shards=" << shards << " stream=" << s;
    }
    // Window and barrier-delivery counts are pure functions of the global
    // pending set, so they too are shard-count invariants.
    if (windows == 0) {
      windows = got.windows;
      sends = got.cross_sends;
      EXPECT_GT(sends, 0u);
    } else {
      EXPECT_EQ(got.windows, windows) << "shards=" << shards;
      EXPECT_EQ(got.cross_sends, sends) << "shards=" << shards;
    }
  }
}

TEST(ShardedEventQueue, ParallelExecutionMatchesSequential) {
  constexpr unsigned kEvents = 300;
  const auto seq = driver(8, kEvents).run();
  exec::job_executor ex(4);
  const auto par = driver(8, kEvents).run(&ex);
  EXPECT_EQ(par.processed, seq.processed);
  EXPECT_EQ(par.windows, seq.windows);
  EXPECT_EQ(par.cross_sends, seq.cross_sends);
  for (unsigned s = 0; s < kStreams; ++s) {
    EXPECT_EQ(par.trace[s], seq.trace[s]) << "stream=" << s;
  }
}

TEST(ShardedEventQueue, IdleShardsSkippedWithoutChangingResults) {
  // One live stream (one busy shard per window, run inline) and three live
  // streams (a strict subset of the shards fans out); every message may
  // target an idle shard, which then runs only that delivery.
  constexpr unsigned kEvents = 300;
  for (const unsigned live : {1u, 3u}) {
    const auto ref = driver(0, kEvents, live).run();
    std::uint64_t idle_deliveries = 0;
    for (unsigned s = live; s < kStreams; ++s) idle_deliveries += ref.trace[s].size();
    ASSERT_GT(idle_deliveries, 0u) << "live=" << live;

    const auto seq = driver(8, kEvents, live).run();
    for (const unsigned workers : {1u, 2u, 8u}) {
      exec::job_executor ex(workers);
      const auto par = driver(8, kEvents, live).run(&ex);
      EXPECT_EQ(par.processed, ref.processed) << "live=" << live << " workers=" << workers;
      EXPECT_EQ(par.windows, seq.windows) << "live=" << live << " workers=" << workers;
      EXPECT_EQ(par.cross_sends, seq.cross_sends) << "live=" << live << " workers=" << workers;
      for (unsigned s = 0; s < kStreams; ++s) {
        EXPECT_EQ(par.trace[s], ref.trace[s])
            << "live=" << live << " workers=" << workers << " stream=" << s;
      }
    }
  }
}

}  // namespace
}  // namespace adx::sim
