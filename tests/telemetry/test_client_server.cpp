// End-to-end loopback: real clients streaming to a real server over unix /
// TCP sockets, with the CI invariant checked in-process — the server's live
// merged export is byte-identical to merging the producers' dump files after
// the fact. Plus the degradation contracts: server death mid-run never
// crashes or blocks a producer, and virtual results are bit-identical with
// telemetry on or off.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "check/runner.hpp"
#include "obs/tracer.hpp"
#include "telemetry/client.hpp"
#include "telemetry/hook.hpp"
#include "telemetry/server.hpp"
#include "telemetry/timeline.hpp"

namespace adx::telemetry {
namespace {

std::string tmp_path(const std::string& tag, const std::string& suffix) {
  static int counter = 0;
  return "/tmp/adx-tlm-test-" + std::to_string(::getpid()) + "-" + tag + "-" +
         std::to_string(counter++) + suffix;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Decodes a dump file into messages; fails the test on any framing error.
std::vector<message> parse_dump(const std::string& path) {
  frame_reader r;
  r.feed(read_file(path));
  std::vector<message> out;
  message m;
  for (;;) {
    const auto st = r.next(m);
    if (st == frame_reader::status::need_more) break;
    EXPECT_EQ(st, frame_reader::status::ok) << r.error_text();
    if (st != frame_reader::status::ok) break;
    out.push_back(std::move(m));
  }
  EXPECT_EQ(r.pending(), 0u) << "trailing bytes in dump " << path;
  return out;
}

/// Merges dump files exactly as `adx-telemetryd --merge` does.
std::string merge_dumps(const std::vector<std::string>& paths) {
  timeline tl;
  for (const auto& p : paths) {
    stream_state st;
    for (const auto& m : parse_dump(p)) {
      std::string err;
      EXPECT_TRUE(tl.apply(st, m, &err)) << p << ": " << err;
    }
    tl.stream_closed(st);
  }
  return tl.chrome_json();
}

bool wait_until(const std::function<bool()>& pred, int timeout_ms = 10'000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

/// One producer's worth of traffic, deterministic per run id.
void publish_workload(client& c, int run_index) {
  for (int i = 0; i < 20; ++i) {
    trace_event_msg e;
    e.name = "job" + std::to_string(i);
    e.cat = "test";
    e.ph = static_cast<std::uint8_t>(obs::phase::instant);
    e.ts_ns = 1000 * (i + 1) + run_index;  // interleaves across runs
    e.tid = static_cast<std::uint32_t>(i % 4);
    c.publish(message{std::move(e)});
  }
  c.publish_adapt(adapt_msg{5'500 + run_index, "qlock", "simple-adapt",
                            "spin-then-block(30)", "no-of-waiting-threads=2", 2});
  obs::metrics m;
  m.get_counter("runs").inc(static_cast<std::uint64_t>(run_index + 1));
  m.get_histogram("wait_ns").add(10'000 * static_cast<std::uint64_t>(run_index + 1));
  c.publish_metrics(m, 21'000 + run_index);
  c.publish_progress(20, 20, "done");
  c.publish_result("sweep", false, "");
}

TEST(ClientServer, UnixLoopbackLiveMergeEqualsPostHocDumps) {
  const std::string sock = tmp_path("uds", ".sock");
  timeline tl;
  std::string err;
  auto srv = server::start(*parse_endpoint("unix:" + sock), tl, &err);
  ASSERT_TRUE(srv) << err;

  constexpr int kProducers = 4;
  std::vector<std::string> dumps;
  for (int p = 0; p < kProducers; ++p) dumps.push_back(tmp_path("uds-dump", ".tlm"));
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      client_options copt;
      copt.endpoint = "unix:" + sock;
      copt.dump_path = dumps[static_cast<std::size_t>(p)];
      copt.run_id = "run-" + std::to_string(p);
      copt.producer = "test-producer";
      std::string cerr;
      auto c = client::open(copt, &cerr);
      ASSERT_TRUE(c) << cerr;
      EXPECT_TRUE(c->socket_alive());
      publish_workload(*c, p);
      c->flush();
      EXPECT_EQ(c->dropped(), 0u);
      // Destructor sends bye and closes the stream.
    });
  }
  for (auto& t : producers) t.join();

  ASSERT_TRUE(wait_until([&] { return tl.runs_done() >= kProducers; }))
      << "server saw " << tl.runs_done() << " finished runs";
  srv->stop();
  EXPECT_EQ(srv->connections_accepted(), static_cast<std::size_t>(kProducers));
  EXPECT_EQ(srv->protocol_errors(), 0u);

  const std::string live = tl.chrome_json();
  const std::string posthoc = merge_dumps(dumps);
  EXPECT_EQ(live, posthoc);  // THE invariant: live merge == post-hoc merge
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_NE(live.find("\"run\":\"run-" + std::to_string(p) + "\""),
              std::string::npos);
  }
  EXPECT_NE(live.find("\"qlock.adapt\""), std::string::npos);

  for (const auto& d : dumps) std::remove(d.c_str());
  std::remove(sock.c_str());
}

TEST(ClientServer, TcpLoopbackStreams) {
  timeline tl;
  std::unique_ptr<server> srv;
  std::uint16_t port = 0;
  for (std::uint16_t p = 19'431; p < 19'531 && !srv; ++p) {
    endpoint ep;
    ep.k = endpoint::kind::tcp;
    ep.host = "127.0.0.1";
    ep.port = p;
    std::string err;
    srv = server::start(ep, tl, &err);
    if (srv) port = p;
  }
  ASSERT_TRUE(srv) << "no free loopback port";

  {
    client_options copt;
    copt.endpoint = "tcp:127.0.0.1:" + std::to_string(port);
    copt.run_id = "tcp-run";
    copt.producer = "tcp-test";
    std::string err;
    auto c = client::open(copt, &err);
    ASSERT_TRUE(c) << err;
    publish_workload(*c, 0);
    c->flush();
  }
  ASSERT_TRUE(wait_until([&] { return tl.runs_done() >= 1; }));
  srv->stop();
  EXPECT_EQ(srv->protocol_errors(), 0u);
  EXPECT_NE(tl.chrome_json().find("\"run\":\"tcp-run\""), std::string::npos);
}

TEST(ClientServer, MultiThreadedPublisherKeepsDumpEqualToStream) {
  // Frames from several publishing threads land in per-thread rings; the
  // sender serializes them into ONE order written to both socket and dump.
  const std::string sock = tmp_path("mt", ".sock");
  const std::string dump = tmp_path("mt-dump", ".tlm");
  timeline tl;
  std::string err;
  auto srv = server::start(*parse_endpoint("unix:" + sock), tl, &err);
  ASSERT_TRUE(srv) << err;
  {
    client_options copt;
    copt.endpoint = "unix:" + sock;
    copt.dump_path = dump;
    copt.run_id = "mt-run";
    copt.producer = "mt";
    auto c = client::open(copt, &err);
    ASSERT_TRUE(c) << err;
    std::vector<std::thread> pubs;
    for (int t = 0; t < 4; ++t) {
      pubs.emplace_back([&, t] {
        for (int i = 0; i < 50; ++i) {
          trace_event_msg e;
          e.name = "t" + std::to_string(t) + "." + std::to_string(i);
          e.cat = "mt";
          e.ph = static_cast<std::uint8_t>(obs::phase::instant);
          e.ts_ns = 100 * i + t;
          e.tid = static_cast<std::uint32_t>(t);
          c->publish(message{std::move(e)});
        }
      });
    }
    for (auto& t : pubs) t.join();
    c->flush();
    EXPECT_EQ(c->dropped(), 0u);
  }
  ASSERT_TRUE(wait_until([&] { return tl.runs_done() >= 1; }));
  srv->stop();
  EXPECT_EQ(srv->protocol_errors(), 0u);
  EXPECT_EQ(tl.chrome_json(), merge_dumps({dump}));

  std::remove(dump.c_str());
  std::remove(sock.c_str());
}

TEST(ClientServer, ServerDeathMidRunNeverBlocksOrCorruptsDump) {
  const std::string sock = tmp_path("kill", ".sock");
  const std::string dump = tmp_path("kill-dump", ".tlm");
  timeline tl;
  std::string err;
  auto srv = server::start(*parse_endpoint("unix:" + sock), tl, &err);
  ASSERT_TRUE(srv) << err;

  client_options copt;
  copt.endpoint = "unix:" + sock;
  copt.dump_path = dump;
  copt.run_id = "doomed";
  copt.producer = "kill-test";
  copt.send_timeout_ms = 200;  // fast stall detection, bounded test time
  auto c = client::open(copt, &err);
  ASSERT_TRUE(c) << err;
  EXPECT_TRUE(c->socket_alive());

  publish_workload(*c, 0);
  c->flush();

  // Kill the server mid-run, then keep publishing hard.
  srv->stop();
  srv.reset();
  std::remove(sock.c_str());
  constexpr int kAfter = 500;
  for (int i = 0; i < kAfter; ++i) {
    trace_event_msg e;
    e.name = "after" + std::to_string(i);
    e.cat = "kill";
    e.ph = static_cast<std::uint8_t>(obs::phase::instant);
    e.ts_ns = 100'000 + i;
    c->publish(message{std::move(e)});
    if (i % 100 == 0) c->flush();  // flush() must not hang on a dead socket
  }
  c->flush();
  EXPECT_EQ(c->dropped(), 0u);  // rings never filled; socket death != drops
  c.reset();                    // clean shutdown, bye still written to dump

  // The dump is untouched by the socket's death: complete and well-framed.
  const auto msgs = parse_dump(dump);
  ASSERT_GE(msgs.size(), 2u);
  ASSERT_TRUE(std::holds_alternative<hello_msg>(msgs.front()));
  ASSERT_TRUE(std::holds_alternative<bye_msg>(msgs.back()));
  std::size_t after_events = 0;
  for (const auto& m : msgs) {
    if (const auto* e = std::get_if<trace_event_msg>(&m)) {
      after_events += e->cat == "kill" ? 1 : 0;
    }
  }
  EXPECT_EQ(after_events, static_cast<std::size_t>(kAfter));
  std::remove(dump.c_str());
}

TEST(ClientServer, DumpOnlyClientFramesHelloFirstByeLast) {
  const std::string dump = tmp_path("dumponly", ".tlm");
  {
    client_options copt;
    copt.dump_path = dump;
    copt.run_id = "offline";
    copt.producer = "dump-test";
    std::string err;
    auto c = client::open(copt, &err);
    ASSERT_TRUE(c) << err;
    EXPECT_FALSE(c->socket_alive());
    publish_workload(*c, 0);
  }
  const auto msgs = parse_dump(dump);
  ASSERT_GE(msgs.size(), 2u);
  const auto* hello = std::get_if<hello_msg>(&msgs.front());
  ASSERT_NE(hello, nullptr);
  EXPECT_EQ(hello->run_id, "offline");
  EXPECT_EQ(hello->producer, "dump-test");
  EXPECT_EQ(hello->version, kProtocolVersion);
  EXPECT_TRUE(std::holds_alternative<bye_msg>(msgs.back()));
  std::remove(dump.c_str());
}

TEST(ClientServer, OpenFailsWithNoReachableDestination) {
  client_options copt;
  copt.endpoint = "unix:/tmp/adx-tlm-test-no-such-server.sock";
  copt.run_id = "r";
  std::string err;
  EXPECT_EQ(client::open(copt, &err), nullptr);
  EXPECT_FALSE(err.empty());
}

TEST(ClientServer, TracerSinkStreamsRecordedEvents) {
  // A sink-only tracer (enabled() false, sink attached) streams every record
  // without storing — the sim-side live-export path.
  const std::string dump = tmp_path("sink", ".tlm");
  {
    client_options copt;
    copt.dump_path = dump;
    copt.run_id = "sink-run";
    std::string err;
    auto c = client::open(copt, &err);
    ASSERT_TRUE(c) << err;

    obs::tracer tr;
    tr.attach_sink(c.get());
    ASSERT_TRUE(tr.recording());
    tr.instant("adapt.decision", "policy", sim::vtime{2'000}, 0, 1,
               {"v_i", 3});
    tr.complete("cs.held", "lock", sim::vtime{1'000}, sim::vdur{500}, 0, 1);
    tr.attach_sink(nullptr);
  }
  const auto msgs = parse_dump(dump);
  std::size_t events = 0;
  for (const auto& m : msgs) {
    if (const auto* e = std::get_if<trace_event_msg>(&m)) {
      ++events;
      if (e->name == "adapt.decision") {
        EXPECT_EQ(e->ts_ns, 2'000);
        EXPECT_EQ(e->a1_key, "v_i");
        EXPECT_EQ(e->a1_value, 3);
      }
    }
  }
  EXPECT_EQ(events, 2u);
  std::remove(dump.c_str());
}

TEST(Hook, EnabledTracksTheActiveClientAndRoutesAdaptEvents) {
  ASSERT_FALSE(enabled());  // no client: one relaxed load, nothing else
  publish_adapt_event(1, "noop", "p", "d", "s", 0);  // must be a safe no-op

  const std::string dump = tmp_path("hook", ".tlm");
  {
    client_options copt;
    copt.dump_path = dump;
    copt.run_id = "hooked";
    std::string err;
    auto c = client::open(copt, &err);
    ASSERT_TRUE(c) << err;
    EXPECT_TRUE(enabled());
    EXPECT_EQ(active(), c.get());
    publish_adapt_event(9'000, "qlock", "simple-adapt", "blocking",
                        "no-of-waiting-threads=4", 4);
    c->flush();
  }
  EXPECT_FALSE(enabled());  // destruction clears the registration

  bool saw = false;
  for (const auto& m : parse_dump(dump)) {
    if (const auto* a = std::get_if<adapt_msg>(&m)) {
      saw = true;
      EXPECT_EQ(a->ts_ns, 9'000);
      EXPECT_EQ(a->object, "qlock");
      EXPECT_EQ(a->decision, "blocking");
      EXPECT_EQ(a->sensor_value, 4);
    }
  }
  EXPECT_TRUE(saw);
  std::remove(dump.c_str());
}

TEST(ClientServer, VirtualResultsBitIdenticalWithTelemetryOn) {
  // Satellite guarantee: attaching telemetry must not perturb the simulation.
  // Run the adaptive-lock checker fixture (which fires the adapt hook from
  // inside lock_stats::on_reconfigure) with and without an active client and
  // compare every virtual-clock result exactly.
  check::check_params p;
  p.config.lock = locks::lock_kind::adaptive;
  p.config.seed = 7;
  p.iterations = 6;

  const auto baseline = check::run_check(p);

  const std::string dump = tmp_path("identical", ".tlm");
  check::check_result with_tele;
  {
    client_options copt;
    copt.dump_path = dump;
    copt.run_id = "identical";
    std::string err;
    auto c = client::open(copt, &err);
    ASSERT_TRUE(c) << err;
    with_tele = check::run_check(p);
  }

  EXPECT_EQ(with_tele.end_time.ns, baseline.end_time.ns);
  EXPECT_EQ(with_tele.events, baseline.events);
  EXPECT_EQ(with_tele.completed, baseline.completed);
  EXPECT_EQ(with_tele.violations.size(), baseline.violations.size());
  std::remove(dump.c_str());
}

}  // namespace
}  // namespace adx::telemetry
