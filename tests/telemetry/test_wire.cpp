// Wire-protocol codec: bit-exact round trips for every message type, strict
// rejection of malformed frames, and incremental parsing at any chunking.
#include "telemetry/wire.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "sim/rng.hpp"
#include "telemetry/timeline.hpp"

namespace adx::telemetry {
namespace {

message roundtrip(const message& in) {
  const std::string frame = encode_frame(in);
  frame_reader r;
  r.feed(frame);
  message out;
  EXPECT_EQ(r.next(out), frame_reader::status::ok);
  EXPECT_EQ(r.pending(), 0u);
  return out;
}

hello_msg sample_hello() { return {kProtocolVersion, "run-7", "adx-check"}; }

trace_event_msg sample_event() {
  trace_event_msg e;
  e.name = "qlock.held";
  e.cat = "lock";
  e.ph = 0;  // complete
  e.ts_ns = 123'456'789;
  e.dur_ns = 42'000;
  e.pid = 3;
  e.tid = 17;
  e.a1_key = "v_i";
  e.a1_value = -5;
  e.a2_key = "waiting";
  e.a2_value = 9;
  e.detail_key = "d_c";
  e.detail = "spin-then-block(400)";
  return e;
}

metrics_msg sample_metrics() {
  metrics_msg m;
  m.ts_ns = 999;
  m.counters = {{"lock.acquisitions", 120}, {"sim.remote_reads", 7}};
  m.gauges = {{"lock.contention_ratio", 0.375},
              {"weird", -0.0},
              {"tiny", std::numeric_limits<double>::denorm_min()}};
  hist_snapshot h;
  h.name = "lock.wait_ns";
  h.count = 3;
  h.sum_lo = 0xFFFF'FFFF'FFFF'FFF0ULL;  // a sum past 2^64 keeps both halves
  h.sum_hi = 1;
  h.min = 5;
  h.max = 40;
  h.buckets = {{5, 1}, {40, 2}};
  m.histograms.push_back(h);
  return m;
}

adapt_msg sample_adapt() {
  return {55'000, "qlock", "simple-adapt", "pure-spin(400)",
          "no-of-waiting-threads=3", 3};
}

TEST(Wire, RoundTripEveryMessageType) {
  EXPECT_EQ(roundtrip(message{sample_hello()}), message{sample_hello()});
  EXPECT_EQ(roundtrip(message{sample_event()}), message{sample_event()});
  EXPECT_EQ(roundtrip(message{sample_metrics()}), message{sample_metrics()});
  EXPECT_EQ(roundtrip(message{sample_adapt()}), message{sample_adapt()});
  EXPECT_EQ(roundtrip(message{progress_msg{3, 12, "mutex/spin"}}),
            message{(progress_msg{3, 12, "mutex/spin"})});
  EXPECT_EQ(roundtrip(message{result_msg{"cell-a", 1, "mutual-exclusion"}}),
            message{(result_msg{"cell-a", 1, "mutual-exclusion"})});
  EXPECT_EQ(roundtrip(message{bye_msg{99}}), message{bye_msg{99}});
}

TEST(Wire, DoublesRoundTripBitExact) {
  // Doubles travel as IEEE-754 bit patterns; NaN payload bits included.
  metrics_msg m;
  m.gauges = {{"nan", std::nan("")},
              {"inf", std::numeric_limits<double>::infinity()},
              {"neg0", -0.0},
              {"pi", 3.141592653589793}};
  const auto out = std::get<metrics_msg>(roundtrip(message{m}));
  ASSERT_EQ(out.gauges.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out.gauges[i].second),
              std::bit_cast<std::uint64_t>(m.gauges[i].second))
        << m.gauges[i].first;
  }
}

TEST(Wire, IncrementalFeedByteAtATime) {
  const std::string frame = encode_frame(message{sample_event()});
  frame_reader r;
  message out;
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    r.feed(frame.data() + i, 1);
    EXPECT_EQ(r.next(out), frame_reader::status::need_more) << "at byte " << i;
  }
  r.feed(frame.data() + frame.size() - 1, 1);
  ASSERT_EQ(r.next(out), frame_reader::status::ok);
  EXPECT_EQ(out, message{sample_event()});
}

TEST(Wire, MultipleFramesInOneBuffer) {
  std::string buf = encode_frame(message{sample_hello()}) +
                    encode_frame(message{sample_adapt()}) +
                    encode_frame(message{bye_msg{0}});
  frame_reader r;
  r.feed(buf);
  message out;
  ASSERT_EQ(r.next(out), frame_reader::status::ok);
  EXPECT_TRUE(std::holds_alternative<hello_msg>(out));
  ASSERT_EQ(r.next(out), frame_reader::status::ok);
  EXPECT_TRUE(std::holds_alternative<adapt_msg>(out));
  ASSERT_EQ(r.next(out), frame_reader::status::ok);
  EXPECT_TRUE(std::holds_alternative<bye_msg>(out));
  EXPECT_EQ(r.next(out), frame_reader::status::need_more);
}

TEST(Wire, TruncatedPayloadRejectedAtEveryPrefix) {
  // Chop the payload (not the frame header): every prefix must fail decode,
  // never misparse. The frame_reader would wait for more bytes; decoding the
  // truncated payload directly must error.
  const message m{sample_event()};
  const std::string frame = encode_frame(m);
  const std::string payload = frame.substr(5);
  for (std::size_t n = 0; n < payload.size(); ++n) {
    message out;
    std::string err;
    EXPECT_FALSE(decode_payload(
        static_cast<std::uint8_t>(msg_type::trace_event),
        std::string_view(payload.data(), n), out, &err))
        << "prefix of " << n << " bytes decoded";
    EXPECT_FALSE(err.empty());
  }
}

TEST(Wire, TrailingBytesRejected) {
  const std::string frame = encode_frame(message{bye_msg{1}});
  std::string payload = frame.substr(5) + "x";  // one trailing byte
  message out;
  std::string err;
  EXPECT_FALSE(decode_payload(static_cast<std::uint8_t>(msg_type::bye), payload,
                              out, &err));
  EXPECT_NE(err.find("trailing"), std::string::npos);
}

TEST(Wire, UnknownTypeRejected) {
  message out;
  std::string err;
  EXPECT_FALSE(decode_payload(0, "", out, &err));
  EXPECT_FALSE(decode_payload(200, "", out, &err));
  EXPECT_NE(err.find("unknown"), std::string::npos);
}

TEST(Wire, OversizedFramePoisonsReader) {
  // Header claiming a > kMaxFrameBytes payload: the reader must error
  // immediately (not buffer 16 MiB of garbage) and stay failed.
  std::string bogus;
  const std::uint32_t len = kMaxFrameBytes + 1;
  for (int i = 0; i < 4; ++i) bogus.push_back(static_cast<char>((len >> (8 * i)) & 0xFF));
  bogus.push_back(2);
  frame_reader r;
  r.feed(bogus);
  message out;
  EXPECT_EQ(r.next(out), frame_reader::status::error);
  EXPECT_NE(r.error_text().find("exceeds"), std::string::npos);
  // Poisoned: even a valid frame afterwards keeps erroring.
  r.feed(encode_frame(message{bye_msg{0}}));
  EXPECT_EQ(r.next(out), frame_reader::status::error);
}

TEST(Wire, CorruptStringLengthRejected) {
  // A string whose declared length runs past the payload end.
  std::string payload;
  const std::uint32_t version = kProtocolVersion;
  for (int i = 0; i < 4; ++i) payload.push_back(static_cast<char>((version >> (8 * i)) & 0xFF));
  const std::uint32_t huge = 0xFFFFFF;
  for (int i = 0; i < 4; ++i) payload.push_back(static_cast<char>((huge >> (8 * i)) & 0xFF));
  payload += "ab";
  message out;
  std::string err;
  EXPECT_FALSE(decode_payload(static_cast<std::uint8_t>(msg_type::hello), payload,
                              out, &err));
}

TEST(Wire, ObsEventConversionPreservesFields) {
  obs::event e;
  e.name = "proc.run";
  e.cat = "ct";
  e.ph = obs::phase::complete;
  e.ts = sim::vtime{5000};
  e.dur = sim::vdur{250};
  e.pid = 2;
  e.tid = 11;
  e.a1 = {"v_i", 42};
  e.detail_key = "d_c";
  e.detail = "blocking";
  const auto w = to_wire(e);
  EXPECT_EQ(w.name, "proc.run");
  EXPECT_EQ(w.cat, "ct");
  EXPECT_EQ(w.ph, static_cast<std::uint8_t>(obs::phase::complete));
  EXPECT_EQ(w.ts_ns, 5000);
  EXPECT_EQ(w.dur_ns, 250);
  EXPECT_EQ(w.a1_key, "v_i");
  EXPECT_EQ(w.a1_value, 42);
  EXPECT_TRUE(w.a2_key.empty());
  EXPECT_EQ(w.detail_key, "d_c");
  EXPECT_EQ(w.detail, "blocking");
}

TEST(Wire, MetricsSnapshotAndHistogramRestore) {
  obs::metrics m;
  m.get_counter("a.count").inc(7);
  m.get_gauge("a.ratio").set(0.25);
  auto& h = m.get_histogram("a.wait_ns");
  for (const std::uint64_t v : {1, 2, 4, 100, 5000}) h.add(v);

  const auto snap = snapshot_metrics(m, 777);
  EXPECT_EQ(snap.ts_ns, 777);
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].second, 7u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_TRUE(restore_histogram(snap.histograms[0]) == h);

  // Seeded random histograms (empty ones, weighted adds, sums past 2^64)
  // survive snapshot -> encode -> decode -> restore bit for bit.
  sim::rng r(2024);
  for (int round = 0; round < 50; ++round) {
    obs::metrics mr;
    auto& hr = mr.get_histogram("h");
    const auto n = r.below(5) == 0 ? 0 : r.below(200);
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto shift = r.below(64);
      hr.add(r() >> shift, 1 + r.below(1ULL << r.below(40)));
    }
    const auto out = std::get<metrics_msg>(roundtrip(message{snapshot_metrics(mr, round)}));
    ASSERT_EQ(out.histograms.size(), 1u);
    EXPECT_TRUE(restore_histogram(out.histograms[0]) == hr) << "round " << round;
  }
}

TEST(Wire, MalformedHistogramPoisonsReader) {
  // One crafted frame per decode rule; each must poison the reader.
  const auto crafted = [](obs::log_histogram::sparse_buckets buckets) {
    metrics_msg m;
    hist_snapshot h;
    h.name = "bad";
    for (const auto& [i, n] : buckets) h.count += n;
    h.buckets = std::move(buckets);
    m.histograms.push_back(h);
    return m;
  };
  metrics_msg past_range = crafted({{3, 1}, {obs::log_histogram::max_buckets, 1}});
  metrics_msg unsorted = crafted({{40, 1}, {5, 1}});
  metrics_msg repeated = crafted({{5, 1}, {5, 1}});
  metrics_msg miscounted = crafted({{5, 1}, {40, 2}});
  miscounted.histograms[0].count = 4;
  for (const auto& [m, why] : {std::pair{past_range, "out of range"},
                               std::pair{unsorted, "not ascending"},
                               std::pair{repeated, "not ascending"},
                               std::pair{miscounted, "do not sum"}}) {
    frame_reader r;
    r.feed(encode_frame(message{m}));
    message out;
    EXPECT_EQ(r.next(out), frame_reader::status::error) << why;
    EXPECT_NE(r.error_text().find(why), std::string::npos) << r.error_text();
    r.feed(encode_frame(message{bye_msg{0}}));
    EXPECT_EQ(r.next(out), frame_reader::status::error) << why;
    EXPECT_THROW((void)restore_histogram(m.histograms[0]), std::invalid_argument) << why;
  }
  // The top valid index still decodes.
  const metrics_msg top = crafted({{obs::log_histogram::max_buckets - 1, 1}});
  EXPECT_EQ(roundtrip(message{top}), message{top});
}

TEST(Wire, VersionOneHelloRefused) {
  // A v1 producer's hello still parses as a frame, but v1 metrics carried
  // double histograms this decoder cannot read: the timeline refuses it.
  frame_reader r;
  r.feed(encode_frame(message{hello_msg{1, "old-run", "old-producer"}}));
  message out;
  ASSERT_EQ(r.next(out), frame_reader::status::ok);
  timeline tl;
  stream_state st;
  std::string err;
  EXPECT_FALSE(tl.apply(st, out, &err));
  EXPECT_NE(err.find("unsupported protocol version 1"), std::string::npos) << err;
}

TEST(Wire, ParseEndpointForms) {
  auto ep = parse_endpoint("unix:/tmp/x.sock");
  ASSERT_TRUE(ep);
  EXPECT_EQ(ep->k, endpoint::kind::unix_domain);
  EXPECT_EQ(ep->path, "/tmp/x.sock");

  ep = parse_endpoint("/tmp/bare-path.sock");
  ASSERT_TRUE(ep);
  EXPECT_EQ(ep->k, endpoint::kind::unix_domain);

  ep = parse_endpoint("tcp:127.0.0.1:9314");
  ASSERT_TRUE(ep);
  EXPECT_EQ(ep->k, endpoint::kind::tcp);
  EXPECT_EQ(ep->host, "127.0.0.1");
  EXPECT_EQ(ep->port, 9314);

  std::string err;
  EXPECT_FALSE(parse_endpoint("unix:", &err));
  EXPECT_FALSE(parse_endpoint("tcp:nohost", &err));
  EXPECT_FALSE(parse_endpoint("tcp:127.0.0.1:0", &err));
  EXPECT_FALSE(parse_endpoint("tcp:127.0.0.1:70000", &err));
  EXPECT_FALSE(parse_endpoint("garbage", &err));
  EXPECT_FALSE(err.empty());
}

}  // namespace
}  // namespace adx::telemetry
