#include "service/shard/shard_service.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#include <utility>

#include "io/json.h"
#include "net/error.h"
#include "net/stream.h"
#include "service/shard/shard_server.h"
#include "trace/store_io.h"

namespace locpriv::service::shard {
namespace {

constexpr int kWatchedSignals[] = {SIGTERM, SIGINT, SIGHUP, SIGCHLD};

/// How a reaped child ended, from the status of a waitpid without
/// WUNTRACED: it either exited or was killed by a signal.
std::string exit_cause(int status) {
  if (WIFEXITED(status)) return "exited with status " + std::to_string(WEXITSTATUS(status));
  return "killed by signal " + std::to_string(WTERMSIG(status));
}

}  // namespace

ShardService::ShardService(ShardServiceConfig cfg) : cfg_(std::move(cfg)) {
  net::ignore_sigpipe();
}

ShardService::~ShardService() {
  if (started_ && !draining_) drain();
}

bool ShardService::start() {
  if (cfg_.shards == 0) {
    error_ = "supervisor: shard count must be >= 1";
    return false;
  }
  if (!cfg_.dataset_path.empty()) {
    try {
      trace::LoadOptions opts;
      opts.format = trace::LoadOptions::Format::kBinary;
      opts.use_mmap = true;
      opts.verify = true;  // one verification pass for the whole service
      (void)trace::load_store(cfg_.dataset_path, opts);
    } catch (const std::exception& e) {
      error_ = std::string("supervisor: dataset: ") + e.what();
      return false;
    }
  }

  procs_.resize(cfg_.shards);
  for (std::size_t k = 0; k < cfg_.shards; ++k) {
    if (!fork_shard(k)) {
      drain();
      return false;
    }
  }

  listener_ = net::listen_endpoint(cfg_.listen, /*backlog=*/128, &error_);
  if (!listener_.valid()) {
    drain();
    return false;
  }
  if (!net::set_nonblocking(listener_.get())) {
    error_ = net::errno_message("supervisor: listener nonblocking");
    drain();
    return false;
  }
  (void)loop_.add(listener_.get(), net::kEventRead, [this](unsigned) { accept_ready(); });

  net::SignalPipe& signals = net::SignalPipe::instance();
  for (const int signo : kWatchedSignals) (void)signals.watch(signo);
  (void)loop_.add(signals.fd(), net::kEventRead, [this](unsigned) { handle_signals(); });
  started_ = true;
  return true;
}

bool ShardService::fork_shard(std::size_t k) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    error_ = net::errno_message("supervisor: socketpair");
    return false;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    error_ = net::errno_message("supervisor: fork");
    ::close(sv[0]);
    ::close(sv[1]);
    return false;
  }
  if (pid == 0) {
    // Child. Drop every inherited descriptor with protocol meaning:
    // the supervisor's listener, client connections and the other
    // shards' control channels must die with the supervisor, not live
    // on in a worker.
    ::close(sv[0]);
    listener_.reset();
    for (auto& proc : procs_) proc.control.close();
    clients_.clear();
    net::SignalPipe& signals = net::SignalPipe::instance();
    for (const int signo : kWatchedSignals) signals.unwatch(signo);

    ShardServerConfig shard_cfg;
    shard_cfg.shard_index = k;
    shard_cfg.shard_count = cfg_.shards;
    shard_cfg.listen = cfg_.listen.shard_endpoint(k);
    shard_cfg.gateway = cfg_.gateway;
    shard_cfg.dataset_path = cfg_.dataset_path;
    shard_cfg.audit = cfg_.audit;
    // Never unwind into the caller: this process's copy of the
    // supervisor would drain and unlink the live service's endpoints.
    try {
      ShardServer server(std::move(shard_cfg), net::Fd(sv[1]));
      if (!server.start()) {
        std::fprintf(stderr, "shard %zu: %s\n", k, server.error().c_str());
        ::_exit(1);
      }
      server.run();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "shard %zu: %s\n", k, e.what());
      ::_exit(1);
    } catch (...) {
      std::fprintf(stderr, "shard %zu: unknown exception\n", k);
      ::_exit(1);
    }
    ::_exit(0);
  }
  // Parent.
  ::close(sv[1]);
  procs_[k].pid = pid;
  procs_[k].control.adopt(net::Fd(sv[0]));  // stays blocking: request/reply only

  net::Frame ready;
  if (!procs_[k].control.recv(ready) || ready.type != net::FrameType::kReady) {
    int status = 0;
    const std::string cause = ::waitpid(pid, &status, 0) == pid
                                  ? exit_cause(status)
                                  : net::errno_message("waitpid");
    error_ = "supervisor: shard " + std::to_string(k) + " died before ready: " + cause;
    procs_[k].pid = -1;
    return false;
  }
  return true;
}

void ShardService::reap_children() {
  while (true) {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, WNOHANG);
    if (pid <= 0) return;
    for (std::size_t k = 0; k < procs_.size(); ++k) {
      if (procs_[k].pid != pid) continue;
      procs_[k].pid = -1;
      procs_[k].control.close();
      if (!draining_) {
        // Same socket path, fresh process: clients re-route by
        // reconnecting. Sessions of that shard restart empty — the
        // crash lost them, not the restart.
        if (fork_shard(k)) {
          ++restarts_;
        } else {
          std::fprintf(stderr, "supervisor: restart of shard %zu failed: %s\n", k,
                       error_.c_str());
        }
      }
      break;
    }
  }
}

void ShardService::handle_signals() {
  for (const int signo : net::SignalPipe::instance().drain()) {
    switch (signo) {
      case SIGCHLD:
        reap_children();
        break;
      case SIGHUP:
        reload_from_file();
        break;
      case SIGTERM:
      case SIGINT:
        drain();
        break;
      default:
        break;
    }
  }
}

void ShardService::reload_from_file() {
  std::string spec;
  if (!cfg_.reload_file.empty()) {
    std::ifstream in(cfg_.reload_file, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "supervisor: reload file: cannot open %s\n", cfg_.reload_file.c_str());
      return;
    }
    std::ostringstream text;
    text << in.rdbuf();
    spec = text.str();
  }
  if (!reload(spec)) {
    std::fprintf(stderr, "supervisor: reload failed: %s\n", error_.c_str());
  }
}

bool ShardService::reload(const std::string& spec) {
  GatewayConfig next;
  try {
    next = apply_reload_spec(cfg_.gateway, spec);
  } catch (const std::exception& e) {
    error_ = std::string("reload rejected: ") + e.what();
    return false;
  }
  bool ok = true;
  bool rejected = false;
  for (std::size_t k = 0; k < procs_.size(); ++k) {
    if (procs_[k].pid < 0) continue;
    std::string reply;
    if (!procs_[k].control.request(net::FrameType::kReload, spec, net::FrameType::kReloadReply,
                                   reply)) {
      error_ = "shard " + std::to_string(k) + ": " + procs_[k].control.error();
      ok = false;
      // A shard that answered is still connected: it rejected the spec.
      // One whose channel closed died, and re-forks from cfg_.gateway.
      rejected = rejected || procs_[k].control.connected();
    }
  }
  if (!rejected) cfg_.gateway = std::move(next);
  return ok;
}

void ShardService::drain() {
  if (draining_) return;
  draining_ = true;
  for (std::size_t k = 0; k < procs_.size(); ++k) {
    if (procs_[k].pid < 0 || !procs_[k].control.connected()) continue;
    std::string reply;
    if (!procs_[k].control.request(net::FrameType::kDrainReq, "", net::FrameType::kDrainReply,
                                   reply)) {
      std::fprintf(stderr, "supervisor: drain of shard %zu: %s\n", k,
                   procs_[k].control.error().c_str());
    }
  }
  for (auto& proc : procs_) {
    if (proc.pid < 0) continue;
    int status = 0;
    (void)::waitpid(proc.pid, &status, 0);
    proc.pid = -1;
    proc.control.close();
  }
  for (std::size_t k = 0; k < procs_.size(); ++k) {
    net::unlink_endpoint(cfg_.listen.shard_endpoint(k));
  }
  net::unlink_endpoint(cfg_.listen);
  loop_.stop();
}

std::string ShardService::aggregate_telemetry() {
  std::vector<io::JsonValue> shard_reports;
  for (std::size_t k = 0; k < procs_.size(); ++k) {
    if (procs_[k].pid < 0 || !procs_[k].control.connected()) continue;
    std::string reply;
    if (!procs_[k].control.request(net::FrameType::kTelemetryReq, "",
                                   net::FrameType::kTelemetryReply, reply)) {
      continue;
    }
    try {
      shard_reports.push_back(io::parse_json(reply));
    } catch (const std::exception&) {
      // A malformed shard report is dropped, not fatal to the aggregate.
    }
  }

  // Every key of each shard's counters block is summed, so a counter
  // added to the shard telemetry reaches the aggregate unlisted.
  std::map<std::string, double> counters;
  io::JsonArray rss;
  for (const auto& s : shard_reports) {
    if (s.contains("counters")) {
      for (const auto& [key, value] : s.at("counters").as_object()) {
        counters[key] += value.as_number();
      }
    }
    if (s.contains("process")) rss.push_back(s.at("process").at("resident_set_kb"));
  }
  io::JsonObject aggregate(counters.begin(), counters.end());
  aggregate["resident_set_kb_per_shard"] = std::move(rss);
  aggregate["supervisor_resident_set_kb"] = static_cast<double>(resident_set_kb());
  aggregate["restarts"] = static_cast<double>(restarts_);

  io::JsonObject root;
  root["shards"] = cfg_.shards;
  root["aggregate"] = std::move(aggregate);
  root["per_shard"] = io::JsonArray(shard_reports.begin(), shard_reports.end());
  return io::to_json(io::JsonValue(std::move(root)));
}

net::ShardMap ShardService::shard_map() const {
  net::ShardMap map;
  map.shards = cfg_.shards;
  map.endpoints.reserve(cfg_.shards);
  for (std::size_t k = 0; k < cfg_.shards; ++k) {
    map.endpoints.push_back(cfg_.listen.shard_endpoint(k));
  }
  return map;
}

void ShardService::accept_ready() {
  while (true) {
    net::Fd fd = net::accept_connection(listener_.get());
    if (!fd.valid()) return;
    const std::uint64_t serial = next_serial_++;
    ClientConn conn;
    conn.fd = std::move(fd);
    conn.serial = serial;
    const int raw_fd = conn.fd.get();
    clients_.emplace(serial, std::move(conn));
    if (!loop_.add(raw_fd, net::kEventRead,
                   [this, serial](unsigned ev) { client_event(serial, ev); })) {
      clients_.erase(serial);
    }
  }
}

void ShardService::client_event(std::uint64_t serial, unsigned events) {
  const auto it = clients_.find(serial);
  if (it == clients_.end()) return;
  ClientConn& conn = it->second;
  if (events & net::kEventWrite) flush(conn);
  if (clients_.find(serial) == clients_.end()) return;
  if ((events & net::kEventRead) == 0) return;

  char buf[16 * 1024];
  while (true) {
    const ssize_t got = net::read_some(conn.fd.get(), buf, sizeof buf);
    if (got < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_client(serial);
      return;
    }
    if (got == 0) {
      close_client(serial);
      return;
    }
    conn.reader.feed(buf, static_cast<std::size_t>(got));
    net::Frame frame;
    net::FrameReader::Result r;
    while ((r = conn.reader.next(frame)) == net::FrameReader::Result::kFrame) {
      dispatch(conn, frame);
      if (clients_.find(serial) == clients_.end()) return;
      if (conn.close_after_flush) break;
    }
    if (r == net::FrameReader::Result::kBad) {
      send(conn, net::FrameType::kError, net::to_string(conn.reader.error()));
      conn.close_after_flush = true;
      flush(conn);
      return;
    }
    if (conn.close_after_flush) return;
    if (static_cast<std::size_t>(got) < sizeof buf) break;
  }
}

void ShardService::dispatch(ClientConn& conn, const net::Frame& frame) {
  switch (frame.type) {
    case net::FrameType::kShardMapReq:
      send(conn, net::FrameType::kShardMapReply, shard_map().to_json());
      break;
    case net::FrameType::kTelemetryReq:
      send(conn, net::FrameType::kTelemetryReply, aggregate_telemetry());
      break;
    case net::FrameType::kDrainReq: {
      drain();
      io::JsonObject reply;
      reply["shards"] = cfg_.shards;
      send(conn, net::FrameType::kDrainReply, io::to_json(io::JsonValue(std::move(reply))));
      conn.close_after_flush = true;
      break;
    }
    case net::FrameType::kReload: {
      if (reload(std::string(frame.payload.begin(), frame.payload.end()))) {
        io::JsonObject reply;
        reply["shards"] = cfg_.shards;
        send(conn, net::FrameType::kReloadReply, io::to_json(io::JsonValue(std::move(reply))));
      } else {
        send(conn, net::FrameType::kError, error_);
      }
      break;
    }
    case net::FrameType::kSubmit:
      send(conn, net::FrameType::kError,
           "submits go to a shard endpoint; fetch the shard map first");
      conn.close_after_flush = true;
      break;
    default:
      send(conn, net::FrameType::kError, "unexpected frame type for the supervisor endpoint");
      conn.close_after_flush = true;
      break;
  }
  flush(conn);
}

void ShardService::send(ClientConn& conn, net::FrameType type, const std::string& payload) {
  encode_frame(type, payload, conn.backlog);
}

void ShardService::flush(ClientConn& conn) {
  while (conn.backlog_pos < conn.backlog.size()) {
    const ssize_t put = net::write_some(conn.fd.get(), conn.backlog.data() + conn.backlog_pos,
                                        conn.backlog.size() - conn.backlog_pos);
    if (put < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        (void)loop_.modify(conn.fd.get(), net::kEventRead | net::kEventWrite);
        return;
      }
      close_client(conn.serial);
      return;
    }
    conn.backlog_pos += static_cast<std::size_t>(put);
  }
  conn.backlog.clear();
  conn.backlog_pos = 0;
  if (conn.close_after_flush) {
    close_client(conn.serial);
    return;
  }
  (void)loop_.modify(conn.fd.get(), net::kEventRead);
}

void ShardService::close_client(std::uint64_t serial) {
  const auto it = clients_.find(serial);
  if (it == clients_.end()) return;
  loop_.remove(it->second.fd.get());
  clients_.erase(it);
}

int ShardService::run_once(int timeout_ms) { return loop_.run_once(timeout_ms); }

void ShardService::run() {
  while (!loop_.stopped()) (void)run_once(-1);
}

pid_t ShardService::spawn(const ShardServiceConfig& cfg, std::string* err) {
  const pid_t pid = ::fork();
  if (pid < 0) {
    if (err != nullptr) *err = net::errno_message("spawn supervisor: fork");
    return -1;
  }
  if (pid != 0) return pid;
  // Child: run the whole service; never unwind into the caller.
  try {
    ShardService service(cfg);
    if (!service.start()) {
      std::fprintf(stderr, "supervisor: %s\n", service.error().c_str());
      ::_exit(1);
    }
    service.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "supervisor: %s\n", e.what());
    ::_exit(1);
  } catch (...) {
    std::fprintf(stderr, "supervisor: unknown exception\n");
    ::_exit(1);
  }
  ::_exit(0);
}

}  // namespace locpriv::service::shard
