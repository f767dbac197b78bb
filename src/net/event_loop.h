// Single-threaded readiness event loop — epoll on Linux with a poll(2)
// fallback backend (selectable for tests and non-epoll platforms).
//
// The loop owns no file descriptors; callers register interest with a
// callback and keep ownership. Dispatch is generation-checked: a
// callback may add, modify, or remove any fd (including itself) during
// dispatch, and a removed-then-reused fd number never receives the old
// registration's stale events.
//
// Every method must be called from the loop thread. A signal handler
// reaches the loop through SignalPipe; a caller with timed work (the
// shard's held answers) bounds run_once()'s timeout instead.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "net/fd.h"

namespace locpriv::net {

/// Interest/readiness bits, backend-neutral.
inline constexpr unsigned kEventRead = 1u << 0;
inline constexpr unsigned kEventWrite = 1u << 1;
/// Error/hangup on the fd; always delivered regardless of interest.
inline constexpr unsigned kEventError = 1u << 2;

class EventLoop {
 public:
  enum class Backend {
    kDefault,  ///< epoll where available, poll otherwise
    kEpoll,
    kPoll,
  };

  /// `events` is the readiness bitmask (kEventRead/kEventWrite/kEventError).
  using Callback = std::function<void(unsigned events)>;

  explicit EventLoop(Backend backend = Backend::kDefault);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` with an interest mask. False if already registered
  /// or the backend rejects the fd. The fd must be non-blocking.
  [[nodiscard]] bool add(int fd, unsigned interest, Callback cb);

  /// Changes the interest mask of a registered fd. An unchanged mask
  /// costs no system call.
  [[nodiscard]] bool modify(int fd, unsigned interest);

  /// Unregisters `fd`. Safe to call from inside its own (or any other)
  /// callback; pending events for the registration are dropped.
  void remove(int fd);

  /// One poll iteration: waits up to `timeout_ms` (-1 = forever), then
  /// dispatches ready callbacks. Returns the number of callbacks
  /// dispatched (0 on timeout).
  int run_once(int timeout_ms);

  /// run_once(-1) until stop(). Re-entrant callbacks may call stop().
  void run();

  /// Makes run() return after the current iteration.
  void stop() { stopped_ = true; }
  [[nodiscard]] bool stopped() const { return stopped_; }

  [[nodiscard]] Backend backend() const { return backend_; }
  [[nodiscard]] std::size_t watched() const { return entries_.size(); }

 private:
  struct Entry {
    unsigned interest = 0;
    std::uint64_t gen = 0;
    Callback cb;
  };

  int wait_epoll(int timeout_ms, std::vector<std::pair<int, unsigned>>& ready);
  int wait_poll(int timeout_ms, std::vector<std::pair<int, unsigned>>& ready);

  Backend backend_;
  Fd epoll_fd_;
  std::unordered_map<int, Entry> entries_;
  std::uint64_t next_gen_ = 1;
  bool stopped_ = false;
};

/// Routes signals into a process-wide self-pipe so an event loop can
/// handle them synchronously: the handler (async-signal-safe by
/// construction — one write(2) to a non-blocking pipe, errno preserved)
/// records the signal number; the loop watches fd() for kEventRead and
/// calls drain() to collect pending signal numbers in arrival order.
///
/// Process-wide singleton because signal dispositions are process-wide.
class SignalPipe {
 public:
  static SignalPipe& instance();

  SignalPipe(const SignalPipe&) = delete;
  SignalPipe& operator=(const SignalPipe&) = delete;

  /// Installs the pipe handler for `signo`. Returns false on sigaction
  /// failure. Idempotent per signal.
  [[nodiscard]] bool watch(int signo);

  /// Restores SIG_DFL for `signo` (used by forked children that must
  /// not inherit the parent's handler routing).
  void unwatch(int signo);

  /// Non-blocking read end; register with an EventLoop for kEventRead.
  [[nodiscard]] int fd() const { return read_fd_.get(); }

  /// Pending signal numbers, oldest first. Non-blocking; empty when the
  /// pipe is dry.
  [[nodiscard]] std::vector<int> drain();

 private:
  SignalPipe();

  Fd read_fd_;
  Fd write_fd_;
};

}  // namespace locpriv::net
