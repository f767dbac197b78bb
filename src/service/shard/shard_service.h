// The shard supervisor: forks N ShardServer worker processes, serves
// the shard map and aggregated telemetry on the main endpoint, and owns
// the service lifecycle — SIGTERM drains every shard before exit,
// SIGHUP pushes a policy reload into every shard without dropping a
// connection, and a crashed shard is reaped, re-forked and re-listens
// on its old socket so clients re-route by simply reconnecting.
//
// Process model: clients fetch the shard map from the supervisor once,
// then talk to shards DIRECTLY (endpoints are a pure function of the
// base endpoint, routing is ShardMap::shard_of — a mixed stable hash of
// the user id, the same function on both sides). The supervisor is
// never on the data path, so it cannot become a parse bottleneck.
//
// Fork safety: the supervisor stays single-threaded for its entire
// life — its event loop runs on the calling thread and it never creates
// another — so fork() (without exec) is always safe here, including
// re-forks after a shard crash. Each child is single-threaded too: its
// event loop drives its Gateway directly.
#pragma once

#include <cstdint>
#include <string>
#include <sys/types.h>
#include <unordered_map>
#include <vector>

#include "net/client.h"
#include "net/event_loop.h"
#include "net/fd.h"
#include "net/socket.h"
#include "service/gateway.h"

namespace locpriv::service::shard {

struct ShardServiceConfig {
  /// Supervisor endpoint; shard k listens at listen.shard_endpoint(k).
  net::Endpoint listen;
  std::size_t shards = 1;
  /// Per-shard gateway configuration (each shard owns a full Gateway).
  GatewayConfig gateway;
  /// Binary dataset shards map read-only. The supervisor verifies it
  /// once up front (checksum + invariants, which also warms the shared
  /// page cache); shards then map without verification.
  std::string dataset_path;
  bool audit = false;
  /// JSON file re-read on SIGHUP: {"faults": "<spec>", "objectives":
  /// "<spec>"} — absent keys keep the current value, empty strings
  /// clear. Empty path = SIGHUP pushes an empty (no-op) reload.
  std::string reload_file;
};

class ShardService {
 public:
  explicit ShardService(ShardServiceConfig cfg);
  ~ShardService();

  ShardService(const ShardService&) = delete;
  ShardService& operator=(const ShardService&) = delete;

  /// Verifies the dataset, forks every shard, waits for each kReady,
  /// then binds the supervisor endpoint and installs signal routing
  /// (SIGTERM/SIGINT drain, SIGHUP reload, SIGCHLD restart). False with
  /// error() set on failure (already-forked shards are torn down).
  [[nodiscard]] bool start();

  /// Serves until a drain (signal or client kDrainReq) completes.
  void run();

  /// One loop iteration — the test-driver entry point.
  int run_once(int timeout_ms);

  /// Drains every shard (exactly-once per accepted report), reaps the
  /// children and stops the loop. Idempotent.
  void drain();

  /// Pushes a reload into every live shard. Either spec may be empty =
  /// keep current. False if any shard rejected it (error() has why).
  [[nodiscard]] bool reload(const std::string& faults_spec, const std::string& objectives_spec);

  /// Aggregated telemetry: per-shard reports plus summed counters.
  [[nodiscard]] std::string aggregate_telemetry();

  [[nodiscard]] net::ShardMap shard_map() const;
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] pid_t shard_pid(std::size_t k) const { return procs_[k].pid; }
  [[nodiscard]] std::uint64_t restarts() const { return restarts_; }
  [[nodiscard]] bool draining() const { return draining_; }

  /// Forks a child that runs the whole service (start() + run()) and
  /// never returns; the parent gets the child's pid, or -1 with *err
  /// set. Call only while single-threaded (benches and tests call this
  /// before spawning their client threads). The child _exits; it never
  /// unwinds into the caller's stack.
  [[nodiscard]] static pid_t spawn(const ShardServiceConfig& cfg, std::string* err);

 private:
  struct ShardProc {
    pid_t pid = -1;
    net::Connection control;  ///< blocking framed socketpair to the child
  };

  struct ClientConn {
    net::Fd fd;
    std::uint64_t serial = 0;
    net::FrameReader reader;
    std::vector<std::uint8_t> backlog;  ///< single-threaded: no outbox needed
    std::size_t backlog_pos = 0;
    bool close_after_flush = false;
  };

  [[nodiscard]] bool fork_shard(std::size_t k);
  void reap_children();
  void handle_signals();
  void accept_ready();
  void client_event(std::uint64_t serial, unsigned events);
  void dispatch(ClientConn& conn, const net::Frame& frame);
  void send(ClientConn& conn, net::FrameType type, const std::string& payload);
  void flush(ClientConn& conn);
  void close_client(std::uint64_t serial);
  void reload_from_file();

  ShardServiceConfig cfg_;
  std::string error_;
  net::EventLoop loop_;
  net::Fd listener_;
  std::vector<ShardProc> procs_;
  std::unordered_map<std::uint64_t, ClientConn> clients_;
  std::uint64_t next_serial_ = 1;
  std::uint64_t restarts_ = 0;
  bool draining_ = false;
  bool started_ = false;
};

}  // namespace locpriv::service::shard
