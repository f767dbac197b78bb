// `locpriv serve` / `locpriv ping` — the real network front end.
// serve runs the shard supervisor in this process (forking one gateway
// process per shard); ping is the matching client-side probe.
#include <chrono>
#include <csignal>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "commands.h"
#include "io/args.h"
#include "io/table.h"
#include "net/client.h"
#include "net/socket.h"
#include "service/adaptive/objective.h"
#include "service/gateway.h"
#include "service/resilience/fault_plan.h"
#include "service/shard/shard_service.h"

namespace locpriv::cli {
namespace {

net::Endpoint parse_endpoint_arg(const std::string& spec) {
  std::string err;
  const auto ep = net::Endpoint::parse(spec, &err);
  if (!ep) throw std::runtime_error(err);
  return *ep;
}

}  // namespace

int cmd_serve(const Args& args) {
  io::ArgParser parser("serve",
                       "serve the obfuscation gateway over the network (N shard processes)");
  parser.add({.name = "listen", .help = "supervisor endpoint: unix:<path> | tcp:<host>:<port>",
              .default_value = "unix:/tmp/locpriv.sock"})
      .add({.name = "shards", .help = "gateway worker processes", .default_value = "4"})
      .add({.name = "data", .help = "binary .lpds dataset to map read-only in every shard"})
      .add({.name = "workers",
            .help = "gateway downstream lanes per shard (downstream calls in flight)",
            .default_value = "2"})
      .add({.name = "queue-capacity", .help = "held answers per lane (backpressure bound)",
            .default_value = "1024"})
      .add({.name = "session-shards", .help = "session-manager stripe count per shard",
            .default_value = "8"})
      .add({.name = "max-sessions", .help = "per-stripe session cap (0 = unbounded)",
            .default_value = "4096"})
      .add({.name = "idle-timeout",
            .help = "evict sessions idle this many stream-seconds (0 = never)",
            .default_value = "0"})
      .add({.name = "epsilon", .help = "Geo-I epsilon per report", .default_value = "0.02"})
      .add({.name = "budget-reports", .help = "ε budget per window, in reports",
            .default_value = "30"})
      .add({.name = "window", .help = "budget sliding window, seconds", .default_value = "3600"})
      .add({.name = "downstream-us",
            .help = "simulated LBS round-trip per delivery, microseconds", .default_value = "0"})
      .add({.name = "faults", .help = "fault-injection spec (see serve-sim --help)"})
      .add({.name = "objectives", .help = "closed-loop ε objectives (see serve-sim --help)"})
      .add({.name = "seed", .help = "noise seed", .default_value = "2016"})
      .add({.name = "audit", .help = "arena-backed delivered-vs-original audit per shard",
            .is_flag = true})
      .add({.name = "reload-file",
            .help = "JSON re-read on SIGHUP: {\"faults\": spec, \"objectives\": spec}"});
  const io::ParsedArgs parsed = parser.parse(args);

  service::shard::ShardServiceConfig cfg;
  cfg.listen = parse_endpoint_arg(parsed.get("listen"));
  cfg.shards = static_cast<std::size_t>(parsed.get_int("shards"));
  if (parsed.has("data")) cfg.dataset_path = parsed.get("data");
  cfg.audit = parsed.get_flag("audit");
  if (parsed.has("reload-file")) cfg.reload_file = parsed.get("reload-file");

  service::GatewayConfig& gw = cfg.gateway;
  gw.workers = static_cast<std::size_t>(parsed.get_int("workers"));
  gw.queue_capacity = static_cast<std::size_t>(parsed.get_int("queue-capacity"));
  gw.sessions.shard_count = static_cast<std::size_t>(parsed.get_int("session-shards"));
  gw.sessions.max_sessions_per_shard = static_cast<std::size_t>(parsed.get_int("max-sessions"));
  gw.sessions.idle_timeout_s = parsed.get_int("idle-timeout");
  gw.epsilon = parsed.get_double("epsilon");
  gw.budget_eps = gw.epsilon * parsed.get_double("budget-reports");
  gw.budget_window_s = parsed.get_int("window");
  gw.seed = static_cast<std::uint64_t>(parsed.get_int("seed"));
  gw.downstream_latency = std::chrono::microseconds(parsed.get_int("downstream-us"));
  if (parsed.has("faults")) gw.faults = service::parse_fault_spec(parsed.get("faults"));
  if (parsed.has("objectives")) {
    gw.objectives = service::adaptive::parse_objective_spec(parsed.get("objectives"));
  }

  service::shard::ShardService supervisor(cfg);
  if (!supervisor.start()) {
    std::cerr << "serve: " << supervisor.error() << "\n";
    return 1;
  }
  std::cout << "serve: supervisor on " << cfg.listen.to_string() << ", " << cfg.shards
            << " shard processes\n";
  for (std::size_t k = 0; k < cfg.shards; ++k) {
    std::cout << "  shard " << k << ": " << cfg.listen.shard_endpoint(k).to_string() << "\n";
  }
  if (!cfg.dataset_path.empty()) {
    std::cout << "  dataset " << cfg.dataset_path << " mapped read-only per shard\n";
  }
  std::cout << "SIGTERM drains, SIGHUP reloads"
            << (cfg.reload_file.empty() ? "" : " from " + cfg.reload_file) << "\n"
            << std::flush;
  supervisor.run();
  std::cout << "serve: drained, bye\n";
  return 0;
}

int cmd_ping(const Args& args) {
  io::ArgParser parser("ping", "probe a running locpriv serve instance");
  parser.add({.name = "connect", .help = "supervisor endpoint",
              .default_value = "unix:/tmp/locpriv.sock"})
      .add({.name = "user", .help = "submit one report as this user", .default_value = "ping"})
      .add({.name = "x", .help = "report x, meters", .default_value = "100"})
      .add({.name = "y", .help = "report y, meters", .default_value = "200"})
      .add({.name = "time", .help = "report timestamp, stream-seconds", .default_value = "0"})
      .add({.name = "count", .help = "reports to submit", .default_value = "1"})
      .add({.name = "telemetry", .help = "print the aggregated telemetry JSON", .is_flag = true})
      .add({.name = "drain", .help = "drain and stop the service", .is_flag = true});
  const io::ParsedArgs parsed = parser.parse(args);

  const net::Endpoint supervisor = parse_endpoint_arg(parsed.get("connect"));
  net::ShardClient client;
  if (!client.connect(supervisor)) {
    std::cerr << "ping: " << client.error() << "\n";
    return 1;
  }
  std::cout << "ping: " << client.map().shards << " shards via " << supervisor.to_string()
            << "\n";

  if (parsed.get_flag("drain")) {
    std::string reply;
    if (!client.supervisor().request(net::FrameType::kDrainReq, "", net::FrameType::kDrainReply,
                                     reply)) {
      std::cerr << "ping: drain: " << client.supervisor().error() << "\n";
      return 1;
    }
    std::cout << "drained: " << reply << "\n";
    return 0;
  }

  const std::string user = parsed.get("user");
  const long long count = parsed.get_int("count");
  const std::size_t shard = client.shard_of(user);
  const auto t0 = std::chrono::steady_clock::now();
  for (long long i = 0; i < count; ++i) {
    trace::Event event;
    event.time = parsed.get_int("time") + i;
    event.location = {parsed.get_double("x"), parsed.get_double("y")};
    if (!client.submit(user, event, static_cast<std::uint64_t>(i + 1))) {
      std::cerr << "ping: submit: " << client.error() << "\n";
      return 1;
    }
  }
  for (long long i = 0; i < count; ++i) {
    net::AnswerPayload answer;
    if (!client.recv_answer(shard, answer)) {
      std::cerr << "ping: answer: " << client.error() << "\n";
      return 1;
    }
    if (i + 1 == count) {
      const auto t1 = std::chrono::steady_clock::now();
      const double ms =
          std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(t1 - t0).count();
      std::ostringstream point;
      if (answer.protected_event.has_value()) {
        point << " -> (" << answer.protected_event->location.x << ", "
              << answer.protected_event->location.y << ")";
      }
      std::cout << "user '" << user << "' on shard " << shard << ": " << count
                << (count == 1 ? " report" : " reports") << " answered, last status "
                << service::to_string(answer.status) << point.str() << ", round-trip "
                << io::Table::num(ms, 2) << " ms\n";
    }
  }

  if (parsed.get_flag("telemetry")) {
    std::string reply;
    if (!client.supervisor().request(net::FrameType::kTelemetryReq, "",
                                     net::FrameType::kTelemetryReply, reply)) {
      std::cerr << "ping: telemetry: " << client.supervisor().error() << "\n";
      return 1;
    }
    std::cout << reply << "\n";
  }
  return 0;
}

}  // namespace locpriv::cli
