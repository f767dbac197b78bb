// One shard of the network gateway: a single-threaded event loop owning
// one listening socket, N framed client connections, and one Gateway.
// A report runs to completion on the loop thread: frame decode →
// Gateway::submit (session, protect) → kAnswer encoded into the
// connection's backlog → socket write once the dispatch is done.
//
// Answer routing: each accepted kSubmit gets a shard-unique cookie,
// passed to Gateway::submit. The sink runs on the loop thread — inside
// submit() when the answer owes no downstream wait, otherwise when
// run_once() releases it at its due time — looks the cookie up, and
// encodes the kAnswer frame (echoing the client's tag) straight into
// the submitting connection's backlog. A connection that died in the
// meantime just drops the answer. The sink never flushes or closes a
// connection, because it may run inside that very connection's
// dispatch; run_once() flushes after it.
//
// Held answers: run_once() caps its poll timeout at the gateway's next
// due answer, so an answer held for its downstream delay goes out
// within about a millisecond of its due time even when no socket is
// active, and never early.
//
// Backpressure: a connection whose unwritten backlog exceeds the
// high-water mark stops being read (its kEventRead interest is dropped)
// until the backlog drains below the low-water mark — a slow reader
// throttles itself, never the shard.
//
// Dataset arena: when a dataset path is configured the shard maps the
// .lpds file (use_mmap, no verify — the supervisor verified it once),
// so every shard's actual-trace pages come from the same page cache and
// per-shard resident memory stays far below dataset size. The arena
// also backs the auditor (StreamAuditor arena mode) when auditing is on.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/event_loop.h"
#include "net/fd.h"
#include "net/frame.h"
#include "net/socket.h"
#include "service/audit.h"
#include "service/gateway.h"
#include "trace/store.h"

namespace locpriv::service::shard {

struct ShardServerConfig {
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  /// This shard's own endpoint (the supervisor passes
  /// base.shard_endpoint(shard_index)).
  net::Endpoint listen;
  GatewayConfig gateway;
  /// Binary dataset to map read-only (empty = none). See file comment.
  std::string dataset_path;
  /// Attach an arena-backed StreamAuditor to the sink.
  bool audit = false;
};

/// Reads a reload spec, {"faults": "<spec>", "objectives": "<spec>"},
/// into `current`: an absent key keeps its value, an empty string
/// clears it, anything else goes through parse_fault_spec /
/// adaptive::parse_objective_spec. Empty text changes nothing. Throws
/// on malformed JSON or a spec that does not parse.
[[nodiscard]] GatewayConfig apply_reload_spec(GatewayConfig current, const std::string& text);

class ShardServer {
 public:
  /// `control` is the framed socketpair end to the supervisor; invalid
  /// = standalone (tests drive the server directly).
  ShardServer(ShardServerConfig cfg, net::Fd control);
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// Maps the dataset, builds the gateway, binds + listens, announces
  /// kReady on the control channel. False with error() set on failure.
  [[nodiscard]] bool start();

  /// Event loop until a drain completes or stop() is called.
  void run();

  /// One loop iteration, waiting at most until the next held answer is
  /// due, then releasing due answers and flushing backlogs — the
  /// test-driver entry point. Returns the number of callbacks
  /// dispatched.
  int run_once(int timeout_ms);

  void stop();

  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] const net::Endpoint& endpoint() const { return cfg_.listen; }
  [[nodiscard]] bool draining() const { return draining_; }
  [[nodiscard]] std::size_t connections() const { return conns_.size(); }
  [[nodiscard]] const Gateway& gateway() const { return *gateway_; }
  [[nodiscard]] const StreamAuditor* auditor() const { return auditor_.get(); }

  /// The shard's telemetry report: gateway telemetry plus shard
  /// identity, connection count, live sessions, resident set and (when
  /// auditing) the borrowed/copied audit-storage split.
  [[nodiscard]] std::string telemetry_json() const;

 private:
  struct Conn {
    net::Fd fd;
    std::uint64_t serial = 0;
    net::FrameReader reader;
    /// Frames (answers and replies, in the order they were produced)
    /// not yet accepted by the socket.
    std::vector<std::uint8_t> backlog;
    std::size_t backlog_pos = 0;
    bool is_control = false;
    bool read_paused = false;
    /// Protocol violation: flush what is queued (the kError), then close.
    bool close_after_flush = false;
  };

  struct Pending {
    std::uint64_t serial = 0;  ///< the submitting connection
    std::uint64_t tag = 0;
  };

  void accept_ready();
  void conn_event(std::uint64_t serial, unsigned events);
  void read_conn(Conn& conn);
  void dispatch(Conn& conn, const net::Frame& frame);
  void handle_submit(Conn& conn, const net::Frame& frame);
  void handle_drain(Conn& conn);
  void handle_reload(Conn& conn, const net::Frame& frame);
  void protocol_error(Conn& conn, const std::string& message);
  /// Queues a frame on the connection's backlog.
  void send(Conn& conn, net::FrameType type, const std::string& payload);
  /// Writes what the socket takes of the backlog; manages write
  /// interest and read-pause state.
  void flush(Conn& conn);
  void flush_all();
  void close_conn(std::uint64_t serial);
  void update_interest(Conn& conn);
  /// The sink: routes one gateway answer to its connection's backlog.
  void on_answer(const ProtectedReport& report);
  void finish_drain();

  ShardServerConfig cfg_;
  std::string error_;
  net::EventLoop loop_;
  net::Fd listener_;
  std::shared_ptr<const trace::TraceStore> store_;
  std::unique_ptr<StreamAuditor> auditor_;
  std::unordered_map<std::uint64_t, Conn> conns_;
  std::uint64_t next_serial_ = 1;
  std::uint64_t control_serial_ = 0;  ///< 0 = no control channel

  std::unordered_map<std::uint64_t, Pending> pending_;  ///< cookie -> submitter
  std::uint64_t next_cookie_ = 1;
  std::vector<std::uint8_t> answer_payload_;  ///< reused encode buffer

  bool draining_ = false;
  /// Drain reply queued; the loop stops once every backlog is flushed.
  bool finishing_ = false;
  std::uint64_t drain_requester_ = 0;  ///< conn serial to answer, 0 = none

  /// Last: its destructor drains held answers into the members above.
  std::unique_ptr<Gateway> gateway_;
};

}  // namespace locpriv::service::shard
