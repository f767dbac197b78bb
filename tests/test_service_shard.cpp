// Shard lifecycle over real sockets: a standalone ShardServer driven
// end-to-end through UDS connections (submit/answer correlation, the
// exactly-once drain contract, reload preserving session ε budgets,
// protocol violations answered with kError + close), arena-backed audit
// storage, and the multi-process ShardService supervisor (shard map,
// aggregated telemetry, crash + restart + client re-route, drain).
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <poll.h>
#include <set>
#include <string>
#include <sys/socket.h>
#include <sys/time.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "io/json.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/stream.h"
#include "service/shard/shard_server.h"
#include "service/shard/shard_service.h"
#include "trace/dataset.h"
#include "trace/store.h"
#include "trace/store_io.h"

namespace locpriv::service::shard {
namespace {

net::Endpoint uds_endpoint(const std::string& name) {
  const std::string path =
      ::testing::TempDir() + "/lp_" + name + "." + std::to_string(::getpid()) + ".sock";
  std::string err;
  const auto ep = net::Endpoint::parse("unix:" + path, &err);
  EXPECT_TRUE(ep.has_value()) << err;
  net::unlink_endpoint(*ep);
  return *ep;
}

GatewayConfig small_gateway() {
  GatewayConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 256;
  cfg.epsilon = 0.05;
  cfg.budget_eps = 100.0;  // ample: nothing suppressed unless a test wants it
  cfg.budget_window_s = 3600;
  cfg.seed = 2016;
  return cfg;
}

/// Standalone shard on its own loop thread; clients block from the test
/// thread. Every test ends with a drain, which makes run() return.
struct ShardFixture {
  ShardServer server;
  std::thread loop;

  explicit ShardFixture(ShardServerConfig cfg) : server(std::move(cfg), net::Fd()) {
    EXPECT_TRUE(server.start()) << server.error();
    loop = std::thread([this] { server.run(); });
  }
  ~ShardFixture() {
    if (loop.joinable()) loop.join();
    net::unlink_endpoint(server.endpoint());
  }
  /// Drains through a throwaway connection and joins the loop thread.
  void drain_and_join() {
    net::Connection conn;
    ASSERT_TRUE(conn.connect(server.endpoint()));
    std::string reply;
    ASSERT_TRUE(conn.request(net::FrameType::kDrainReq, "", net::FrameType::kDrainReply, reply))
        << conn.error();
    loop.join();
  }
};

ShardServerConfig standalone_config(const std::string& name) {
  ShardServerConfig cfg;
  cfg.shard_index = 0;
  cfg.shard_count = 1;
  cfg.listen = uds_endpoint(name);
  cfg.gateway = small_gateway();
  return cfg;
}

trace::Event event_at(trace::Timestamp t, double x, double y) { return {t, {x, y}}; }

TEST(ShardServer, SubmitAnswersEchoTagsExactlyOnce) {
  ShardFixture fx(standalone_config("submit"));
  net::Connection conn;
  ASSERT_TRUE(conn.connect(fx.server.endpoint()));

  constexpr int kUsers = 5;
  constexpr int kPerUser = 8;
  std::set<std::uint64_t> tags;
  for (int r = 0; r < kPerUser; ++r) {
    for (int u = 0; u < kUsers; ++u) {
      net::SubmitPayload p;
      p.tag = static_cast<std::uint64_t>(u * 1000 + r);
      p.user_id = "user-" + std::to_string(u);
      p.event = event_at(r * 60, 100.0 + u, 200.0 - u);
      ASSERT_TRUE(conn.send_submit(p)) << conn.error();
      tags.insert(p.tag);
    }
  }
  std::vector<std::uint64_t> last_seq(kUsers, 0);
  std::vector<bool> seen(kUsers, false);
  for (int i = 0; i < kUsers * kPerUser; ++i) {
    net::Frame frame;
    ASSERT_TRUE(conn.recv(frame)) << conn.error();
    ASSERT_EQ(frame.type, net::FrameType::kAnswer);
    const auto a = net::decode_answer(frame.payload.data(), frame.payload.size());
    ASSERT_TRUE(a.has_value());
    ASSERT_EQ(tags.erase(a->tag), 1u) << "tag answered twice or never sent";
    EXPECT_EQ(a->status, ReportStatus::delivered);
    ASSERT_TRUE(a->protected_event.has_value());
    // Per-user answers arrive in submission order with increasing seq.
    const int u = static_cast<int>(a->tag / 1000);
    EXPECT_TRUE(!seen[u] || a->seq > last_seq[u]);
    seen[u] = true;
    last_seq[u] = a->seq;
  }
  EXPECT_TRUE(tags.empty());
  fx.drain_and_join();
}

TEST(ShardServer, DrainAnswersEverythingBeforeReplyThenEof) {
  net::Connection conn;
  constexpr int kReports = 40;
  {
    ShardFixture fx(standalone_config("drain"));
    ASSERT_TRUE(conn.connect(fx.server.endpoint()));

    for (int i = 0; i < kReports; ++i) {
      net::SubmitPayload p;
      p.tag = static_cast<std::uint64_t>(i + 1);
      p.user_id = "drain-user-" + std::to_string(i % 7);
      p.event = event_at(i, 10.0 + i, -10.0 - i);
      ASSERT_TRUE(conn.send_submit(p));
    }
    // Drain is requested while answers are still in flight: the
    // contract is every accepted report is answered BEFORE the drain
    // reply arrives.
    ASSERT_TRUE(conn.send(net::FrameType::kDrainReq, ""));
    int answers = 0;
    net::Frame frame;
    for (;;) {
      ASSERT_TRUE(conn.recv(frame)) << conn.error();
      if (frame.type == net::FrameType::kAnswer) {
        ++answers;
        continue;
      }
      ASSERT_EQ(frame.type, net::FrameType::kDrainReply);
      const io::JsonValue reply =
          io::parse_json(std::string(frame.payload.begin(), frame.payload.end()));
      EXPECT_EQ(reply.at("received").as_number(), kReports);
      EXPECT_EQ(reply.at("delivered").as_number(), answers);
      break;
    }
    EXPECT_EQ(answers, kReports);
    fx.loop.join();  // drain stops the loop; the thread exits on its own
  }
  // In production the drained shard process exits, which closes the
  // socket; here the fixture's destruction stands in for that. The
  // stream ends cleanly — EOF, not an error.
  net::Frame frame;
  EXPECT_FALSE(conn.recv(frame));
  EXPECT_TRUE(conn.eof());
}

TEST(ShardServer, ReloadPreservesSessionBudgets) {
  ShardServerConfig cfg = standalone_config("reload");
  // Budget for exactly 3 reports per window: 3 × 0.1 ≤ 0.35 < 4 × 0.1.
  cfg.gateway.epsilon = 0.1;
  cfg.gateway.budget_eps = 0.35;
  ShardFixture fx(std::move(cfg));
  net::Connection conn;
  ASSERT_TRUE(conn.connect(fx.server.endpoint()));

  const auto submit_one = [&](std::uint64_t tag, trace::Timestamp t) -> ReportStatus {
    net::SubmitPayload p;
    p.tag = tag;
    p.user_id = "alice";
    p.event = event_at(t, 50.0, 60.0);
    EXPECT_TRUE(conn.send_submit(p));
    net::Frame frame;
    if (!conn.recv(frame) || frame.type != net::FrameType::kAnswer) {
      ADD_FAILURE() << "no answer for tag " << tag << ": " << conn.error();
      return ReportStatus::rejected_queue_full;
    }
    const auto a = net::decode_answer(frame.payload.data(), frame.payload.size());
    if (!a.has_value()) {
      ADD_FAILURE() << "malformed answer for tag " << tag;
      return ReportStatus::rejected_queue_full;
    }
    EXPECT_EQ(a->tag, tag);
    return a->status;
  };

  EXPECT_EQ(submit_one(1, 0), ReportStatus::delivered);
  EXPECT_EQ(submit_one(2, 60), ReportStatus::delivered);

  // No-op reload (empty spec): sessions and their spent ε survive.
  std::string reply;
  ASSERT_TRUE(conn.request(net::FrameType::kReload, "", net::FrameType::kReloadReply, reply))
      << conn.error();
  EXPECT_GE(io::parse_json(reply).at("sessions_kept").as_number(), 1.0);

  // The ledger remembers the 2 pre-reload spends: one more fits the
  // 0.35 budget, the 4th is suppressed. A reload that reset sessions
  // would deliver all four.
  EXPECT_EQ(submit_one(3, 120), ReportStatus::delivered);
  EXPECT_EQ(submit_one(4, 180), ReportStatus::suppressed_budget);

  // An invalid spec is rejected without dropping the connection.
  ASSERT_TRUE(conn.send(net::FrameType::kReload, std::string("{\"faults\":\"not a spec\"}")));
  net::Frame frame;
  ASSERT_TRUE(conn.recv(frame));
  EXPECT_EQ(frame.type, net::FrameType::kError);
  EXPECT_EQ(submit_one(5, 7200), ReportStatus::delivered);  // new window, same conn

  fx.drain_and_join();
}

TEST(ShardServer, ReloadWithUnknownMetricIsRejectedAndKeepsServing) {
  ShardFixture fx(standalone_config("badmetric"));
  net::Connection conn;
  ASSERT_TRUE(conn.connect(fx.server.endpoint()));

  // The objective spec parses and validates; only resolving the metric
  // name fails, inside Gateway::reload.
  ASSERT_TRUE(conn.send(net::FrameType::kReload,
                        std::string(R"({"objectives": "pr=0.2,pr_tol=0.1,pr_metric=bogus"})")));
  net::Frame frame;
  ASSERT_TRUE(conn.recv(frame)) << conn.error();
  ASSERT_EQ(frame.type, net::FrameType::kError);
  const std::string message(frame.payload.begin(), frame.payload.end());
  EXPECT_NE(message.find("reload rejected"), std::string::npos) << message;

  net::SubmitPayload p;
  p.tag = 7;
  p.user_id = "carol";
  p.event = event_at(0, 1.0, 2.0);
  ASSERT_TRUE(conn.send_submit(p));
  ASSERT_TRUE(conn.recv(frame)) << conn.error();
  ASSERT_EQ(frame.type, net::FrameType::kAnswer);
  const auto a = net::decode_answer(frame.payload.data(), frame.payload.size());
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->tag, 7u);
  EXPECT_EQ(a->status, ReportStatus::delivered);

  fx.drain_and_join();
}

TEST(ShardServer, HeldAnswerIsReleasedWithoutFurtherTraffic) {
  ShardServerConfig cfg = standalone_config("held");
  cfg.gateway.downstream_latency = std::chrono::milliseconds(5);
  ShardFixture fx(std::move(cfg));
  net::Connection conn;
  ASSERT_TRUE(conn.connect(fx.server.endpoint()));
  // Nothing else arrives after the submit: a loop that released held
  // answers only on socket events would never answer it.
  const timeval deadline{5, 0};
  ASSERT_EQ(::setsockopt(conn.fd(), SOL_SOCKET, SO_RCVTIMEO, &deadline, sizeof deadline), 0);

  net::SubmitPayload p;
  p.tag = 42;
  p.user_id = "dora";
  p.event = event_at(0, 3.0, 4.0);
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(conn.send_submit(p));
  // The ASSERTs return from this lambda only: on a timeout the drain
  // below still stops the loop thread, so the fixture's join cannot hang.
  [&] {
    net::Frame frame;
    ASSERT_TRUE(conn.recv(frame)) << conn.error();
    EXPECT_GE(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(5));
    ASSERT_EQ(frame.type, net::FrameType::kAnswer);
    const auto a = net::decode_answer(frame.payload.data(), frame.payload.size());
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->tag, 42u);
    EXPECT_EQ(a->status, ReportStatus::delivered);
    EXPECT_EQ(a->downstream_attempts, 1u);
  }();

  fx.drain_and_join();
}

TEST(ShardServer, ProtocolViolationsGetErrorFrameAndClose) {
  ShardFixture fx(standalone_config("proto"));

  const auto expect_error_then_eof = [&](const std::vector<std::uint8_t>& bytes,
                                         const std::string& label) {
    net::Connection conn;
    ASSERT_TRUE(conn.connect(fx.server.endpoint()));
    int err = 0;
    ASSERT_TRUE(net::write_all(conn.fd(), bytes.data(), bytes.size(), &err));
    net::Frame frame;
    ASSERT_TRUE(conn.recv(frame)) << label << ": " << conn.error();
    EXPECT_EQ(frame.type, net::FrameType::kError) << label;
    EXPECT_FALSE(conn.recv(frame)) << label;
    EXPECT_TRUE(conn.eof()) << label;
  };

  // Garbage bytes: framing lost at the magic.
  expect_error_then_eof(std::vector<std::uint8_t>(64, 0xab), "garbage");

  // Valid header carrying an oversized payload length.
  std::vector<std::uint8_t> oversized;
  net::encode_frame(net::FrameType::kSubmit, std::string(16, 'x'), oversized);
  const std::uint32_t huge = static_cast<std::uint32_t>(net::kMaxFramePayload + 1);
  oversized[8] = static_cast<std::uint8_t>(huge);
  oversized[9] = static_cast<std::uint8_t>(huge >> 8);
  oversized[10] = static_cast<std::uint8_t>(huge >> 16);
  oversized[11] = static_cast<std::uint8_t>(huge >> 24);
  expect_error_then_eof(oversized, "oversized");

  // Well-framed kSubmit whose payload fails to decode.
  std::vector<std::uint8_t> malformed;
  net::encode_frame(net::FrameType::kSubmit, std::string("not a submit"), malformed);
  expect_error_then_eof(malformed, "malformed submit");

  // A frame type a shard endpoint does not serve.
  std::vector<std::uint8_t> wrong;
  net::encode_frame(net::FrameType::kShardMapReq, std::string(), wrong);
  expect_error_then_eof(wrong, "shard map on shard endpoint");

  // The server survived all of it.
  fx.drain_and_join();
}

TEST(ShardServer, ArenaAuditBorrowsMappedOriginals) {
  trace::Dataset d;
  d.add(trace::Trace("cab-000", {{0, {10.5, -20.25}}, {60, {11.0, -21.0}}}));
  d.add(trace::Trace("cab-001", {{30, {0.0, 0.0}}}));
  const std::string store_path = ::testing::TempDir() + "/lp_audit_" +
                                 std::to_string(::getpid()) + ".lpds";
  trace::save_store(store_path, *trace::TraceStore::from_dataset(d));

  ShardServerConfig cfg = standalone_config("audit");
  cfg.dataset_path = store_path;
  cfg.audit = true;
  ShardFixture fx(std::move(cfg));
  net::Connection conn;
  ASSERT_TRUE(conn.connect(fx.server.endpoint()));

  // Two originals that exist verbatim in the mapped arena, one that
  // does not (a user the dataset never saw).
  const struct {
    const char* user;
    trace::Event event;
  } reports[] = {
      {"cab-000", event_at(0, 10.5, -20.25)},
      {"cab-000", event_at(60, 11.0, -21.0)},
      {"ghost", event_at(5, 1.0, 2.0)},
  };
  std::uint64_t tag = 0;
  for (const auto& r : reports) {
    net::SubmitPayload p;
    p.tag = ++tag;
    p.user_id = r.user;
    p.event = r.event;
    ASSERT_TRUE(conn.send_submit(p));
    net::Frame frame;
    ASSERT_TRUE(conn.recv(frame)) << conn.error();
  }

  // Telemetry exposes the borrowed/copied split while serving.
  std::string reply;
  ASSERT_TRUE(conn.request(net::FrameType::kTelemetryReq, "", net::FrameType::kTelemetryReply,
                           reply))
      << conn.error();
  const io::JsonValue telemetry = io::parse_json(reply);
  EXPECT_TRUE(telemetry.at("shard").at("dataset_mapped").as_bool());
  EXPECT_GE(telemetry.at("process").at("resident_set_kb").as_number(), 1.0);

  fx.drain_and_join();
  ASSERT_NE(fx.server.auditor(), nullptr);
  EXPECT_TRUE(fx.server.auditor()->arena_backed());
  EXPECT_EQ(fx.server.auditor()->recorded(), 3u);
  const StreamAuditor::StorageStats stats = fx.server.auditor()->storage();
  EXPECT_EQ(stats.borrowed, 2u);
  EXPECT_EQ(stats.copied, 1u);
  ::unlink(store_path.c_str());
}

// ---------------------------------------------------------- supervisor

/// Sends one frame to the in-process supervisor, pumps its
/// single-threaded loop until the reply bytes reach the socket, then
/// reads it. (The supervisor must stay single-threaded — fork safety —
/// so tests drive run_once instead of a loop thread.)
bool supervisor_request(ShardService& svc, net::Connection& conn, net::FrameType type,
                        const std::string& payload, net::Frame& reply) {
  if (!conn.send(type, payload)) return false;
  for (int i = 0; i < 500; ++i) {
    (void)svc.run_once(10);
    struct pollfd p = {conn.fd(), POLLIN, 0};
    if (::poll(&p, 1, 0) == 1) break;
  }
  return conn.recv(reply);
}

ShardServiceConfig supervisor_config(const std::string& name, std::size_t shards) {
  ShardServiceConfig cfg;
  cfg.listen = uds_endpoint(name);
  cfg.shards = shards;
  cfg.gateway = small_gateway();
  return cfg;
}

TEST(ShardService, ServesShardMapRoutesSubmitsAndAggregatesTelemetry) {
  const ShardServiceConfig cfg = supervisor_config("svc_map", 2);
  ShardService svc(cfg);
  ASSERT_TRUE(svc.start()) << svc.error();

  net::Connection sup;
  ASSERT_TRUE(sup.connect(cfg.listen));
  net::Frame reply;
  ASSERT_TRUE(supervisor_request(svc, sup, net::FrameType::kShardMapReq, "", reply))
      << sup.error();
  ASSERT_EQ(reply.type, net::FrameType::kShardMapReply);
  std::string err;
  const auto map = net::ShardMap::from_json(
      std::string(reply.payload.begin(), reply.payload.end()), &err);
  ASSERT_TRUE(map.has_value()) << err;
  EXPECT_EQ(map->shards, 2u);
  ASSERT_EQ(map->endpoints.size(), 2u);

  // Submit a handful of users straight to their owning shards (the
  // shards are separate processes, so blocking I/O needs no pumping).
  std::vector<net::Connection> shard_conns(2);
  for (std::size_t k = 0; k < 2; ++k) {
    ASSERT_TRUE(shard_conns[k].connect(map->endpoints[k]));
  }
  constexpr int kUsers = 20;
  std::vector<int> per_shard(2, 0);
  for (int u = 0; u < kUsers; ++u) {
    const std::string user = "svc-user-" + std::to_string(u);
    const std::size_t k = map->shard_of(user);
    net::SubmitPayload p;
    p.tag = static_cast<std::uint64_t>(u + 1);
    p.user_id = user;
    p.event = event_at(0, 1.0 * u, -1.0 * u);
    ASSERT_TRUE(shard_conns[k].send_submit(p));
    ++per_shard[k];
  }
  // The mixed routing hash spreads 20 users across both shards.
  EXPECT_GT(per_shard[0], 0);
  EXPECT_GT(per_shard[1], 0);
  for (std::size_t k = 0; k < 2; ++k) {
    for (int i = 0; i < per_shard[k]; ++i) {
      net::Frame frame;
      ASSERT_TRUE(shard_conns[k].recv(frame)) << shard_conns[k].error();
      EXPECT_EQ(frame.type, net::FrameType::kAnswer);
    }
  }

  // Aggregate telemetry sums the shards and reports per-shard RSS.
  ASSERT_TRUE(supervisor_request(svc, sup, net::FrameType::kTelemetryReq, "", reply));
  ASSERT_EQ(reply.type, net::FrameType::kTelemetryReply);
  const io::JsonValue telemetry =
      io::parse_json(std::string(reply.payload.begin(), reply.payload.end()));
  EXPECT_EQ(telemetry.at("aggregate").at("received").as_number(), kUsers);
  EXPECT_EQ(telemetry.at("aggregate").at("delivered").as_number(), kUsers);
  EXPECT_EQ(telemetry.at("aggregate").at("resident_set_kb_per_shard").as_array().size(), 2u);

  // A submit on the supervisor endpoint is a protocol error.
  ASSERT_TRUE(supervisor_request(svc, sup, net::FrameType::kSubmit, "nope", reply));
  EXPECT_EQ(reply.type, net::FrameType::kError);

  svc.drain();
  EXPECT_TRUE(svc.draining());
}

TEST(ShardService, CrashedShardIsRestartedAndClientsReroute) {
  ShardService svc(supervisor_config("svc_crash", 2));
  ASSERT_TRUE(svc.start()) << svc.error();
  const net::ShardMap map = svc.shard_map();

  // A user owned by shard 0.
  std::string victim_user;
  for (int i = 0; i < 1000 && victim_user.empty(); ++i) {
    const std::string candidate = "crash-user-" + std::to_string(i);
    if (map.shard_of(candidate) == 0) victim_user = candidate;
  }
  ASSERT_FALSE(victim_user.empty());

  net::Connection shard0;
  ASSERT_TRUE(shard0.connect(map.endpoints[0]));
  net::SubmitPayload p;
  p.tag = 1;
  p.user_id = victim_user;
  p.event = event_at(0, 5.0, 6.0);
  ASSERT_TRUE(shard0.send_submit(p));
  net::Frame frame;
  ASSERT_TRUE(shard0.recv(frame)) << shard0.error();
  EXPECT_EQ(frame.type, net::FrameType::kAnswer);

  // Kill the shard process. The supervisor reaps it (SIGCHLD through
  // the signal pipe) and re-forks onto the same endpoint.
  const pid_t old_pid = svc.shard_pid(0);
  ASSERT_GT(old_pid, 0);
  ASSERT_EQ(::kill(old_pid, SIGKILL), 0);
  for (int i = 0; i < 1000 && svc.restarts() == 0; ++i) {
    (void)svc.run_once(10);
  }
  ASSERT_EQ(svc.restarts(), 1u);
  EXPECT_NE(svc.shard_pid(0), old_pid);
  EXPECT_GT(svc.shard_pid(0), 0);

  // The old connection is dead; re-routing is just reconnecting to the
  // same advertised endpoint.
  EXPECT_FALSE(shard0.recv(frame));
  ASSERT_TRUE(shard0.connect(map.endpoints[0]));
  p.tag = 2;
  ASSERT_TRUE(shard0.send_submit(p));
  ASSERT_TRUE(shard0.recv(frame)) << shard0.error();
  EXPECT_EQ(frame.type, net::FrameType::kAnswer);
  const auto a = net::decode_answer(frame.payload.data(), frame.payload.size());
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->tag, 2u);
  // The crash lost the shard's sessions: the restarted shard starts the
  // user's sequence over instead of resuming the old ledger.
  EXPECT_EQ(a->status, ReportStatus::delivered);

  svc.drain();
}

TEST(ShardService, DrainViaFrameClosesEverything) {
  const ShardServiceConfig cfg = supervisor_config("svc_drain", 2);
  ShardService svc(cfg);
  ASSERT_TRUE(svc.start()) << svc.error();

  net::Connection sup;
  ASSERT_TRUE(sup.connect(cfg.listen));
  net::Frame reply;
  ASSERT_TRUE(supervisor_request(svc, sup, net::FrameType::kReload, "", reply)) << sup.error();
  EXPECT_EQ(reply.type, net::FrameType::kReloadReply);

  ASSERT_TRUE(supervisor_request(svc, sup, net::FrameType::kDrainReq, "", reply)) << sup.error();
  ASSERT_EQ(reply.type, net::FrameType::kDrainReply);
  EXPECT_EQ(io::parse_json(std::string(reply.payload.begin(), reply.payload.end()))
                .at("shards")
                .as_number(),
            2.0);
  EXPECT_TRUE(svc.draining());
  // The supervisor closes the requesting connection after the reply.
  EXPECT_FALSE(sup.recv(reply));
  EXPECT_TRUE(sup.eof());
  // Both shard processes exited: their endpoints no longer accept.
  net::Connection probe;
  EXPECT_FALSE(probe.connect(svc.shard_map().endpoints[0]));
}

}  // namespace
}  // namespace locpriv::service::shard
