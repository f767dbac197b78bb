// Event-loop semantics on BOTH backends (epoll and the poll fallback):
// readiness dispatch, interest modification, removal from inside a
// callback, stop(), generation safety when an fd number is reused, and
// SignalPipe routing.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <string>
#include <unistd.h>
#include <vector>

#include "net/event_loop.h"
#include "net/fd.h"

namespace locpriv::net {
namespace {

struct Pipe {
  Fd rd, wr;
  Pipe() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::pipe(fds), 0);
    rd.reset(fds[0]);
    wr.reset(fds[1]);
    EXPECT_TRUE(set_nonblocking(rd.get()));
    EXPECT_TRUE(set_nonblocking(wr.get()));
  }
  void put(char c) { EXPECT_EQ(::write(wr.get(), &c, 1), 1); }
  char take() {
    char c = 0;
    EXPECT_EQ(::read(rd.get(), &c, 1), 1);
    return c;
  }
};

class NetLoop : public ::testing::TestWithParam<EventLoop::Backend> {};

INSTANTIATE_TEST_SUITE_P(Backends, NetLoop,
                         ::testing::Values(EventLoop::Backend::kEpoll, EventLoop::Backend::kPoll),
                         [](const auto& info) {
                           return info.param == EventLoop::Backend::kEpoll ? "epoll" : "poll";
                         });

TEST_P(NetLoop, BackendIsWhatWasAskedFor) {
  EventLoop loop(GetParam());
  EXPECT_EQ(loop.backend(), GetParam());
  EXPECT_EQ(loop.watched(), 0u);
}

TEST_P(NetLoop, ReadReadinessDispatchesOnlyWhenDataArrives) {
  EventLoop loop(GetParam());
  Pipe p;
  int fired = 0;
  ASSERT_TRUE(loop.add(p.rd.get(), kEventRead, [&](unsigned events) {
    EXPECT_TRUE(events & kEventRead);
    ++fired;
    EXPECT_EQ(p.take(), 'a');
  }));
  EXPECT_EQ(loop.watched(), 1u);
  EXPECT_EQ(loop.run_once(0), 0);  // nothing readable yet
  p.put('a');
  EXPECT_EQ(loop.run_once(0), 1);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.run_once(0), 0);  // drained: level-triggered, no re-fire
}

TEST_P(NetLoop, WriteReadinessAndModify) {
  EventLoop loop(GetParam());
  Pipe p;
  int writes = 0;
  ASSERT_TRUE(loop.add(p.wr.get(), kEventWrite, [&](unsigned events) {
    EXPECT_TRUE(events & kEventWrite);
    ++writes;
  }));
  EXPECT_EQ(loop.run_once(0), 1);  // empty pipe is immediately writable
  // Drop write interest: no dispatch even though the pipe stays writable.
  ASSERT_TRUE(loop.modify(p.wr.get(), 0));
  EXPECT_EQ(loop.run_once(0), 0);
  ASSERT_TRUE(loop.modify(p.wr.get(), kEventWrite));
  EXPECT_EQ(loop.run_once(0), 1);
  EXPECT_EQ(writes, 2);
}

TEST_P(NetLoop, AddRejectsDuplicateAndModifyRejectsUnknown) {
  EventLoop loop(GetParam());
  Pipe p;
  ASSERT_TRUE(loop.add(p.rd.get(), kEventRead, [](unsigned) {}));
  EXPECT_FALSE(loop.add(p.rd.get(), kEventRead, [](unsigned) {}));
  EXPECT_FALSE(loop.modify(p.wr.get(), kEventRead));
  loop.remove(p.rd.get());
  EXPECT_EQ(loop.watched(), 0u);
  EXPECT_TRUE(loop.add(p.rd.get(), kEventRead, [](unsigned) {}));
}

TEST_P(NetLoop, CallbackMayRemoveItself) {
  EventLoop loop(GetParam());
  Pipe p;
  int fired = 0;
  ASSERT_TRUE(loop.add(p.rd.get(), kEventRead, [&](unsigned) {
    ++fired;
    (void)p.take();
    loop.remove(p.rd.get());
  }));
  p.put('x');
  EXPECT_EQ(loop.run_once(0), 1);
  p.put('y');
  EXPECT_EQ(loop.run_once(0), 0);  // registration gone
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.watched(), 0u);
}

// A callback closes a DIFFERENT ready fd, and a new registration reuses
// the same fd number in the same iteration: the stale readiness event
// for the old registration must not reach the new callback.
TEST_P(NetLoop, ReusedFdNumberGetsNoStaleEvents) {
  EventLoop loop(GetParam());
  Pipe keeper;
  Pipe victim;
  int victim_fired = 0;
  int imposter_fired = 0;
  Fd imposter;
  ASSERT_TRUE(loop.add(victim.rd.get(), kEventRead,
                       [&](unsigned) { ++victim_fired; }));
  ASSERT_TRUE(loop.add(keeper.rd.get(), kEventRead, [&](unsigned) {
    (void)keeper.take();
    const int reused = victim.rd.get();
    loop.remove(reused);
    victim.rd.reset();             // close: the number is free
    imposter.reset(::dup(keeper.rd.get()));
    ASSERT_EQ(imposter.get(), reused);  // kernel reuses lowest free fd
    ASSERT_TRUE(set_nonblocking(imposter.get()));
    ASSERT_TRUE(loop.add(imposter.get(), kEventRead,
                         [&](unsigned) { ++imposter_fired; }));
  }));
  victim.put('v');  // victim IS ready this iteration...
  keeper.put('k');
  (void)loop.run_once(0);
  // ...but its registration died mid-dispatch; neither callback may see
  // the stale event. (keeper's fd ordering is backend-dependent, so the
  // victim callback may fire 0 or 1 times — never after removal.)
  EXPECT_LE(victim_fired, 1);
  EXPECT_EQ(imposter_fired, 0);
  loop.remove(imposter.get());
  loop.remove(keeper.rd.get());
}

TEST_P(NetLoop, StopMakesRunReturn) {
  EventLoop loop(GetParam());
  Pipe p;
  int fired = 0;
  ASSERT_TRUE(loop.add(p.rd.get(), kEventRead, [&](unsigned) {
    ++fired;
    (void)p.take();
    loop.stop();
  }));
  p.put('s');
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(loop.stopped());
}

TEST_P(NetLoop, SignalPipeRoutesSignalsInOrder) {
  SignalPipe& sp = SignalPipe::instance();
  ASSERT_TRUE(sp.watch(SIGUSR1));
  ASSERT_TRUE(sp.watch(SIGUSR2));

  EventLoop loop(GetParam());
  std::vector<int> seen;
  ASSERT_TRUE(loop.add(sp.fd(), kEventRead, [&](unsigned) {
    for (const int signo : sp.drain()) seen.push_back(signo);
  }));
  ASSERT_EQ(::raise(SIGUSR1), 0);
  ASSERT_EQ(::raise(SIGUSR2), 0);
  ASSERT_EQ(::raise(SIGUSR1), 0);
  while (seen.size() < 3) {
    ASSERT_GE(loop.run_once(1000), 0);
  }
  EXPECT_EQ(seen, (std::vector<int>{SIGUSR1, SIGUSR2, SIGUSR1}));
  EXPECT_TRUE(sp.drain().empty());
  loop.remove(sp.fd());
  sp.unwatch(SIGUSR1);
  sp.unwatch(SIGUSR2);
}

}  // namespace
}  // namespace locpriv::net
