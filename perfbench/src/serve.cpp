// serve-steady and serve-churn: an open-loop load generator against a
// 2-shard fleet over unix sockets, CPU-bound (no simulated downstream).
//
// The fleet is ShardService::spawn with 2 gateway workers per shard and
// the default budget (ε 0.01 per report, 0.3 per 3600 s window, i.e. 30
// reports). Reports are the taxi fleet's events replayed in stream-time
// order at a fixed wall-clock rate; report i is due at start + i / rate
// whatever happened to earlier ones, and its latency runs from that due
// time to the arrival of its answer.
//
// serve-steady: every driver is one user, so after warm-up sessions are
// only looked up and about half the reports hit the budget.
// serve-churn: the same events, but every report comes from a new user,
// so past the session cap each report creates a session and evicts one.
//
// A run: set-up (fleet synthesis + spawn, repeated) -> warm-up -> the
// nominal-rate window (latency, CPU, memory) -> in traced runs only,
// closed-loop saturation phases (capacity) -> drain -> gates, including an
// in-process 1-worker Gateway replay whose output digest must match the
// fleet's.
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "io/json.h"
#include "lppm/online.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/socket.h"
#include "procstat.h"
#include "service/gateway.h"
#include "service/session_manager.h"
#include "service/shard/shard_service.h"
#include "trace/store.h"
#include "trace/store_io.h"

namespace perfbench {

namespace {

using namespace locpriv;
using std::chrono::duration;
using std::chrono::duration_cast;
using std::chrono::nanoseconds;

constexpr std::size_t kShards = 2;
constexpr std::size_t kWorkersPerShard = 2;
/// Latency windows by due time: p99 is the median of per-window p99s, so
/// one host stall spoils one window, not the figure.
constexpr double kNominalWindowS = 1.0;
/// Saturation phases keep up to this many reports outstanding per shard
/// connection: a quarter of a worker's default queue, so nothing is
/// rejected, and latency stays near inflight / throughput.
constexpr std::size_t kSaturationInflight = 256;
/// A saturating lane wakes on this tick rather than on every answer, so
/// that it reads and refills in batches the way the open loop does at
/// high rates.
constexpr std::chrono::microseconds kSaturationTick{100};
constexpr double kWarmupSpeedup = 4.0;
constexpr int kTagPhaseShift = 40;
constexpr double kInf = std::numeric_limits<double>::infinity();
/// How long a phase waits for the answers to what it sent.
constexpr std::chrono::seconds kDrainWait{10};

/// Fixed per-workload sizes. Each nominal rate is about a quarter of what
/// one CPU serves at that operating point (1 / server CPU per report at
/// the nominal rate, measured on the development host); the saturation
/// capacity is higher because batching cuts the CPU per report as load
/// rises. Constants, never calibrated per run.
struct ServeParams {
  bool churn = false;
  std::size_t drivers = 1000;
  double nominal_rps = 10000.0;
  /// Warm-up runs at kWarmupSpeedup x the nominal rate: it only has to
  /// create the sessions (and, under churn, fill the session cap) and
  /// open the budget windows.
  std::uint64_t warmup_reports = 80000;
  /// Of --seconds in traced runs, where saturation gets the rest; untraced
  /// runs spend all of it at the nominal rate.
  double nominal_share = 0.6;
  /// Reports per saturation phase: about a second of work at capacity.
  std::uint64_t saturation_reports = 400000;
};

ServeParams params_for(const Options& opt) {
  ServeParams p;
  p.churn = opt.workload == "serve-churn";
  p.nominal_rps = p.churn ? 16000.0 : 18000.0;
  if (p.churn) {
    p.warmup_reports = 200000;  // past the 2 x 32768-session cap; > 10^6 ids per run
    p.saturation_reports = 200000;
  }
  if (opt.smoke) {
    p.drivers = 40;
    p.nominal_rps = 2000.0;
    p.warmup_reports = 2000;
    p.saturation_reports = 20000;
  }
  return p;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

/// Order-independent digest term of one answer, keyed by stream index.
std::uint64_t answer_digest(std::uint64_t index, service::ReportStatus status,
                            const std::optional<trace::Event>& e) {
  std::uint64_t h = mix64(index ^ (static_cast<std::uint64_t>(status) << 56));
  if (e) {
    h = mix64(h ^ bits(e->location.x));
    h = mix64(h ^ bits(e->location.y));
    h = mix64(h ^ static_cast<std::uint64_t>(e->time));
  }
  return h;
}

bool answered_ok(service::ReportStatus s) {
  return s == service::ReportStatus::delivered || s == service::ReportStatus::suppressed_budget;
}

/// The report stream: the fleet's events merged in (time, driver) order
/// and repeated with timestamps shifted by the fleet's span, so it never
/// runs out and every user's clock keeps moving forward.
class Stream {
 public:
  Stream(const trace::Dataset& fleet, bool churn, std::uint64_t seed) : churn_(churn), seed_(seed) {
    trace::Timestamp lo = std::numeric_limits<trace::Timestamp>::max();
    trace::Timestamp hi = std::numeric_limits<trace::Timestamp>::min();
    net::ShardMap routing;
    routing.shards = kShards;
    for (std::size_t u = 0; u < fleet.size(); ++u) {
      ids_.push_back(fleet[u].user_id());
      driver_shard_.push_back(static_cast<std::uint8_t>(routing.shard_of(ids_.back())));
      for (const trace::Event& e : fleet[u]) {
        base_.push_back({static_cast<std::uint32_t>(u), e});
        lo = std::min(lo, e.time);
        hi = std::max(hi, e.time);
      }
    }
    std::sort(base_.begin(), base_.end(), [](const Entry& a, const Entry& b) {
      return a.event.time != b.event.time ? a.event.time < b.event.time : a.driver < b.driver;
    });
    period_ = hi - lo + 3600;
  }

  [[nodiscard]] trace::Event event(std::uint64_t i) const {
    const Entry& b = base_[i % base_.size()];
    return {b.event.time + static_cast<trace::Timestamp>(i / base_.size()) * period_,
            b.event.location};
  }
  /// Integer identity of report i's user (driver index, or i under churn).
  [[nodiscard]] std::uint64_t user_key(std::uint64_t i) const {
    return churn_ ? i : base_[i % base_.size()].driver;
  }
  [[nodiscard]] std::string user_id(std::uint64_t i) const {
    if (!churn_) return ids_[base_[i % base_.size()].driver];
    std::string id = "n";
    id += std::to_string(seed_);
    id += '-';
    id += std::to_string(i);
    return id;
  }
  [[nodiscard]] std::size_t shard(std::uint64_t i) const {
    if (!churn_) return driver_shard_[base_[i % base_.size()].driver];
    net::ShardMap routing;
    routing.shards = kShards;
    return routing.shard_of(user_id(i));
  }
  [[nodiscard]] std::size_t size() const { return base_.size(); }

 private:
  struct Entry {
    std::uint32_t driver;
    trace::Event event;
  };
  bool churn_;
  std::uint64_t seed_;
  std::vector<Entry> base_;
  std::vector<std::string> ids_;
  std::vector<std::uint8_t> driver_shard_;
  trace::Timestamp period_ = 0;
};

struct Phase {
  std::uint32_t id = 0;
  std::uint64_t first = 0;  ///< global stream index of the first report
  std::uint64_t count = 0;
  double rate = 0.0;  ///< reports per second, whole fleet; open loop only
  /// Closed loop: each lane keeps up to this many reports outstanding and
  /// refills the freed slots on every wake-up (0 = open loop).
  std::size_t inflight = 0;
  double window_s = kNominalWindowS;
  /// Traced run: requests due in odd windows record a span each,
  /// so odd against even windows measures what tracing costs.
  bool trace = false;
  Clock::time_point start;
};

/// One traced request, from its due time through send to its answer.
struct RequestSpan {
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point answered;
};

bool traced_window(const Phase& ph, std::uint64_t index) {
  if (!ph.trace) return false;
  const double offset_s = static_cast<double>(index - ph.first) / ph.rate;
  return static_cast<std::uint64_t>(offset_s / ph.window_s) % 2 == 1;
}

/// Answers counted across the lanes of a closed-loop phase, and when the
/// fleet passed 10 % and 90 % of the phase's reports: the throughput
/// between the two leaves out ramp-up and the tail.
struct Progress {
  std::atomic<std::uint64_t> answered{0};
  Clock::time_point at10;
  Clock::time_point at90;
};

/// One shard connection's share of a phase and what came back on it.
struct Lane {
  int fd = -1;
  std::vector<std::uint64_t> reports;  ///< global indices, ascending
  /// Per report, from its due time (open loop) or its send (closed loop);
  /// +inf when not answered OK.
  std::vector<double> latency_ms;
  std::vector<double> late_ms;  ///< send time - due time, per sent report; open loop
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t suppressed = 0;
  std::uint64_t digest = 0;
  bool exactly_once = true;
  std::string error;
  std::vector<std::pair<std::uint64_t, trace::Timestamp>> deliveries;  ///< (user, time)
  std::vector<Clock::time_point> sent_at;  ///< per report; traced windows and closed loop
  std::vector<RequestSpan> spans;
};

Clock::time_point due_time(const Phase& ph, std::uint64_t index) {
  return ph.start + nanoseconds(static_cast<std::int64_t>(
                        static_cast<double>(index - ph.first) * 1e9 / ph.rate));
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return duration<double, std::milli>(b - a).count();
}

/// Sends the lane's reports, on schedule (open loop) or to keep
/// `ph.inflight` reports outstanding (closed loop), and reads answers
/// until every sent report is answered or the drain deadline passes.
/// Non-blocking socket, one ppoll per wake-up: the thread sleeps until
/// the next report is due or an answer arrives (open loop), or for one
/// kSaturationTick (closed loop).
void drive_lane(const Phase& ph, const Stream& stream, Lane& lane, Progress& progress) {
  const std::size_t n = lane.reports.size();
  const bool closed = ph.inflight > 0;
  lane.latency_ms.assign(n, kInf);
  if (!closed) lane.late_ms.reserve(n);
  if (ph.trace || closed) lane.sent_at.resize(n);
  std::vector<std::uint8_t> seen(n, 0);
  const std::uint64_t at10 = ph.count / 10;
  const std::uint64_t at90 = ph.count - ph.count / 10;

  std::vector<std::uint8_t> wbuf;
  std::size_t wpos = 0;
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> rbuf(1 << 16);
  net::FrameReader reader;
  net::Frame frame;
  std::size_t next = 0;
  bool send_done = n == 0;
  Clock::time_point drain_deadline = Clock::now() + kDrainWait;

  for (;;) {
    Clock::time_point now = Clock::now();
    for (int batch = 0; next < n && batch < 256; ++batch) {
      if (closed) {
        if (next - lane.answered >= ph.inflight) break;
        lane.sent_at[next] = now;
      } else {
        const Clock::time_point due = due_time(ph, lane.reports[next]);
        if (due > now) break;
        lane.late_ms.push_back(ms_between(due, now));
        if (traced_window(ph, lane.reports[next])) lane.sent_at[next] = now;
      }
      net::SubmitPayload sp;
      sp.tag = (static_cast<std::uint64_t>(ph.id) << kTagPhaseShift) | next;
      sp.user_id = stream.user_id(lane.reports[next]);
      sp.event = stream.event(lane.reports[next]);
      payload.clear();
      net::encode_submit(sp, payload);
      net::encode_frame(net::FrameType::kSubmit, payload.data(), payload.size(), wbuf);
      ++next;
    }
    if (!send_done && next == n) {
      send_done = true;
      drain_deadline = now + kDrainWait;
    }
    while (wpos < wbuf.size()) {
      const ssize_t k = ::write(lane.fd, wbuf.data() + wpos, wbuf.size() - wpos);
      if (k > 0) {
        wpos += static_cast<std::size_t>(k);
      } else if (k < 0 && errno == EINTR) {
        continue;
      } else if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        lane.error = std::string("write: ") + std::strerror(errno);
        lane.sent = next;
        return;
      }
    }
    if (wpos == wbuf.size()) {
      wbuf.clear();
      wpos = 0;
    }
    for (int chunk = 0; chunk < 16; ++chunk) {
      const ssize_t k = ::read(lane.fd, rbuf.data(), rbuf.size());
      if (k > 0) {
        reader.feed(rbuf.data(), static_cast<std::size_t>(k));
        if (static_cast<std::size_t>(k) < rbuf.size()) break;
      } else if (k == 0) {
        lane.error = "shard closed the connection";
        lane.sent = next;
        return;
      } else if (errno == EINTR) {
        continue;
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      } else {
        lane.error = std::string("read: ") + std::strerror(errno);
        lane.sent = next;
        return;
      }
    }
    now = Clock::now();
    for (;;) {
      const net::FrameReader::Result res = reader.next(frame);
      if (res == net::FrameReader::Result::kNeedMore) break;
      if (res == net::FrameReader::Result::kBad) {
        lane.error = std::string("bad frame: ") + net::to_string(reader.error());
        lane.sent = next;
        return;
      }
      const auto answer = frame.type == net::FrameType::kAnswer
                              ? net::decode_answer(frame.payload.data(), frame.payload.size())
                              : std::nullopt;
      if (!answer) {
        lane.error = "unexpected or undecodable frame of type " +
                     std::to_string(static_cast<int>(frame.type));
        lane.sent = next;
        return;
      }
      const std::uint64_t pos = answer->tag & ((1ULL << kTagPhaseShift) - 1);
      if ((answer->tag >> kTagPhaseShift) != ph.id || pos >= next || seen[pos]) {
        lane.exactly_once = false;
        continue;
      }
      seen[pos] = 1;
      ++lane.answered;
      if (closed) {
        const std::uint64_t done = progress.answered.fetch_add(1, std::memory_order_relaxed) + 1;
        if (done == at10) progress.at10 = now;
        if (done == at90) progress.at90 = now;
      }
      const std::uint64_t index = lane.reports[pos];
      lane.digest += answer_digest(index, answer->status, answer->protected_event);
      if (!answered_ok(answer->status)) continue;  // failed: its latency stays +inf
      lane.latency_ms[pos] = ms_between(closed ? lane.sent_at[pos] : due_time(ph, index), now);
      if (traced_window(ph, index)) {
        lane.spans.push_back({due_time(ph, index), lane.sent_at[pos], now});
      }
      if (answer->status == service::ReportStatus::delivered) {
        ++lane.delivered;
        lane.deliveries.emplace_back(stream.user_key(index), stream.event(index).time);
      } else {
        ++lane.suppressed;
      }
    }
    if (send_done && lane.answered == next) break;
    if (send_done && now > drain_deadline) {
      lane.error =
          "answers still missing " + std::to_string(kDrainWait.count()) + " s after sending";
      break;
    }

    Clock::time_point wake = now + (closed ? kSaturationTick : std::chrono::milliseconds(10));
    if (!closed && next < n) wake = std::min(wake, due_time(ph, lane.reports[next]));
    if (send_done) wake = std::min(wake, drain_deadline);
    const std::int64_t wait_ns =
        std::max<std::int64_t>(0, duration_cast<nanoseconds>(wake - now).count());
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    const short events = static_cast<short>((closed ? 0 : POLLIN) | (wbuf.empty() ? 0 : POLLOUT));
    pollfd pfd{lane.fd, events, 0};
    (void)::ppoll(&pfd, 1, &ts, nullptr);
  }
  lane.sent = next;
}

struct PhaseResult {
  Phase phase;
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t ok = 0;
  std::uint64_t delivered = 0;
  std::uint64_t suppressed = 0;
  std::uint64_t failed = 0;  ///< planned - answered OK
  std::uint64_t digest = 0;
  bool exactly_once = true;
  std::string error;
  std::vector<double> latency_ms;     ///< every planned report; +inf = failed
  std::vector<double> window_p99_ms;  ///< p99 of each window of due times (one window if closed)
  std::vector<double> late_ms;
  std::vector<std::pair<std::uint64_t, trace::Timestamp>> deliveries;
  std::vector<RequestSpan> spans;
  double wall_s = 0.0;
  /// Closed loop: reports answered per second between 10 % and 90 % of
  /// the phase; 0 when any report failed.
  double throughput_per_s = 0.0;
  /// Traced runs: p50 of windows with per-request spans over p50 of
  /// windows without, minus 1.
  double tracing_overhead_frac = 0.0;

  [[nodiscard]] double failed_frac() const {
    return phase.count ? static_cast<double>(failed) / static_cast<double>(phase.count) : 0.0;
  }
  [[nodiscard]] double p99_ms() const { return median(window_p99_ms); }
};

struct Fleet {
  pid_t supervisor = -1;
  net::Endpoint base;
  net::Connection control;
  std::vector<net::Connection> shards;
  std::vector<pid_t> shard_pids;
};

service::GatewayConfig gateway_config() {
  service::GatewayConfig g;
  g.workers = kWorkersPerShard;
  return g;  // default queue, session cap, ε, budget and seed; no downstream
}

bool connect_retry(net::Connection& conn, const net::Endpoint& ep) {
  for (int i = 0; i < 400; ++i) {
    if (conn.connect(ep)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

void stop_fleet(Fleet& f) {
  if (f.supervisor < 0) return;
  // Hang up on the shards first: a shard drains by flushing every answer
  // to its clients, and a client that no longer reads would stall it.
  f.shards.clear();
  std::string reply;
  if (!f.control.connected() ||
      !f.control.request(net::FrameType::kDrainReq, "", net::FrameType::kDrainReply, reply)) {
    ::kill(f.supervisor, SIGKILL);
  }
  f.control.close();
  ::waitpid(f.supervisor, nullptr, 0);
  // The supervisor reaps its shards before it exits; make sure of it.
  for (const pid_t pid : f.shard_pids) {
    if (::kill(pid, 0) == 0) ::kill(pid, SIGKILL);
  }
  f.supervisor = -1;
}

/// Spawns the fleet and connects to the supervisor and every shard.
/// Call only while single-threaded (ShardService::spawn forks).
void start_fleet(Fleet& f, const std::string& dataset) {
  service::shard::ShardServiceConfig cfg;
  f.base.kind = net::Endpoint::Kind::kUnix;
  f.base.path = "sv" + std::to_string(::getpid()) + ".sock";
  cfg.listen = f.base;
  cfg.shards = kShards;
  cfg.dataset_path = dataset;
  cfg.gateway = gateway_config();
  std::string err;
  f.supervisor = service::shard::ShardService::spawn(cfg, &err);
  if (f.supervisor < 0) throw std::runtime_error("spawn: " + err);
  if (!connect_retry(f.control, f.base)) {
    stop_fleet(f);
    throw std::runtime_error("supervisor never listened on " + f.base.to_string());
  }
  // Control requests carry no deadline of their own; a stuck fleet must
  // fail the run, not hang it.
  const timeval deadline{20, 0};
  (void)::setsockopt(f.control.fd(), SOL_SOCKET, SO_RCVTIMEO, &deadline, sizeof deadline);
  std::string reply;
  if (!f.control.request(net::FrameType::kShardMapReq, "", net::FrameType::kShardMapReply, reply)) {
    stop_fleet(f);
    throw std::runtime_error("shard map: " + f.control.error());
  }
  const auto map = net::ShardMap::from_json(reply, &err);
  if (!map || map->shards != kShards) {
    stop_fleet(f);
    throw std::runtime_error("shard map: unexpected reply " + reply);
  }
  f.shards.resize(kShards);
  for (std::size_t k = 0; k < kShards; ++k) {
    if (!connect_retry(f.shards[k], f.base.shard_endpoint(k))) {
      stop_fleet(f);
      throw std::runtime_error("shard " + std::to_string(k) + " never listened");
    }
  }
  f.shard_pids = procstat::children(f.supervisor);
  if (f.shard_pids.size() != kShards) {
    stop_fleet(f);
    throw std::runtime_error("expected " + std::to_string(kShards) + " shard processes, found " +
                             std::to_string(f.shard_pids.size()));
  }
}

PhaseResult run_phase(Fleet& f, const Stream& stream, Phase ph) {
  std::vector<Lane> lanes(kShards);
  for (std::size_t k = 0; k < kShards; ++k) {
    lanes[k].fd = f.shards[k].fd();
    const int flags = ::fcntl(lanes[k].fd, F_GETFL);
    (void)::fcntl(lanes[k].fd, F_SETFL, flags | O_NONBLOCK);
  }
  for (std::uint64_t i = ph.first; i < ph.first + ph.count; ++i) {
    lanes[stream.shard(i)].reports.push_back(i);
  }
  ph.start = Clock::now() + std::chrono::milliseconds(2);
  Progress progress;
  {
    std::vector<std::jthread> threads;
    for (Lane& lane : lanes) {
      threads.emplace_back(
          [&ph, &stream, &lane, &progress] { drive_lane(ph, stream, lane, progress); });
    }
  }
  PhaseResult r;
  r.phase = ph;
  r.wall_s = seconds_between(ph.start, Clock::now());
  const bool closed = ph.inflight > 0;
  const std::size_t windows =
      closed ? 1
             : std::max<std::size_t>(1, static_cast<std::size_t>(static_cast<double>(ph.count) /
                                                                 ph.rate / ph.window_s));
  std::vector<std::vector<double>> per_window(windows);
  for (Lane& lane : lanes) {
    r.sent += lane.sent;
    r.answered += lane.answered;
    r.delivered += lane.delivered;
    r.suppressed += lane.suppressed;
    r.digest += lane.digest;
    r.exactly_once = r.exactly_once && lane.exactly_once;
    if (!lane.error.empty()) r.error += lane.error + "; ";
    for (std::size_t pos = 0; pos < lane.reports.size(); ++pos) {
      const double offset_s =
          closed ? 0.0 : static_cast<double>(lane.reports[pos] - ph.first) / ph.rate;
      const std::size_t w = std::min(windows - 1, static_cast<std::size_t>(offset_s / ph.window_s));
      per_window[w].push_back(lane.latency_ms[pos]);
    }
    r.latency_ms.insert(r.latency_ms.end(), lane.latency_ms.begin(), lane.latency_ms.end());
    r.late_ms.insert(r.late_ms.end(), lane.late_ms.begin(), lane.late_ms.end());
    r.deliveries.insert(r.deliveries.end(), lane.deliveries.begin(), lane.deliveries.end());
    r.spans.insert(r.spans.end(), lane.spans.begin(), lane.spans.end());
  }
  if (ph.trace && windows >= 2) {
    std::vector<double> traced;
    std::vector<double> plain;
    for (std::size_t w = 0; w < windows; ++w) {
      (w % 2 ? traced : plain).insert((w % 2 ? traced : plain).end(), per_window[w].begin(),
                                      per_window[w].end());
    }
    r.tracing_overhead_frac = quantile(traced, 0.5) / quantile(plain, 0.5) - 1.0;
  }
  for (const std::vector<double>& w : per_window) {
    if (!w.empty()) r.window_p99_ms.push_back(quantile(w, 0.99));
  }
  r.ok = r.delivered + r.suppressed;
  r.failed = ph.count - r.ok;
  if (closed && r.failed == 0 && progress.at90 > progress.at10) {
    r.throughput_per_s = static_cast<double>(ph.count - 2 * (ph.count / 10)) /
                         seconds_between(progress.at10, progress.at90);
  }
  return r;
}

struct FleetTelemetry {
  double received = 0, delivered = 0, suppressed = 0, rejected = 0;
  double sessions_created = 0, sessions_evicted_lru = 0;
  double service_p99_us = 0;  ///< worst shard
};

FleetTelemetry read_telemetry(Fleet& f) {
  std::string reply;
  if (!f.control.request(net::FrameType::kTelemetryReq, "", net::FrameType::kTelemetryReply,
                         reply)) {
    throw std::runtime_error("telemetry: " + f.control.error());
  }
  const io::JsonValue doc = io::parse_json(reply);
  FleetTelemetry t;
  for (const io::JsonValue& shard : doc.at("per_shard").as_array()) {
    const io::JsonValue& c = shard.at("counters");
    t.received += c.at("received").as_number();
    t.delivered += c.at("delivered").as_number();
    t.suppressed += c.at("suppressed_budget").as_number();
    t.rejected += c.at("rejected_queue_full").as_number();
    t.sessions_created += c.at("sessions_created").as_number();
    t.sessions_evicted_lru += c.at("sessions_evicted_lru").as_number();
    t.service_p99_us = std::max(t.service_p99_us, shard.at("latency").at("p99_us").as_number());
  }
  return t;
}

/// Largest number of deliveries any user got inside one budget window
/// (t - window, t], the window GeoIndBudget enforces.
std::size_t max_window_deliveries(std::vector<std::pair<std::uint64_t, trace::Timestamp>> d,
                                  trace::Timestamp window) {
  std::sort(d.begin(), d.end());
  std::size_t worst = 0;
  std::size_t lo = 0;
  for (std::size_t hi = 0; hi < d.size(); ++hi) {
    if (hi > 0 && d[hi].first != d[hi - 1].first) lo = hi;
    while (d[lo].second <= d[hi].second - window) ++lo;
    worst = std::max(worst, hi - lo + 1);
  }
  return worst;
}

service::SessionManager::SessionFactory default_session_factory() {
  const service::GatewayConfig g = gateway_config();
  return [g](const std::string& user) -> std::unique_ptr<lppm::StreamSession> {
    return std::make_unique<lppm::BudgetedGeoIndSession>(
        g.epsilon, lppm::GeoIndBudget(g.epsilon, g.budget_eps, g.budget_window_s),
        service::user_seed(g.seed, user));
  };
}

struct Replay {
  std::uint64_t digest = 0;
  std::uint64_t answered = 0;
  double cpu_us_per_req = 0.0;
};

/// The stream prefix [0, count) through one in-process 1-worker Gateway:
/// the reference the fleet's output digest must equal. The queue is
/// sized so that nothing is ever rejected.
Replay replay_gateway(const Stream& stream, std::uint64_t count) {
  service::GatewayConfig g = gateway_config();
  g.workers = 1;
  g.queue_capacity = static_cast<std::size_t>(count) + 1;
  std::atomic<std::uint64_t> digest{0};
  std::atomic<std::uint64_t> answered{0};
  const double cpu0 = self_cpu_seconds();
  {
    service::Gateway gateway(g, [&](const service::ProtectedReport& p) {
      digest.fetch_add(answer_digest(p.cookie, p.status, p.protected_event),
                       std::memory_order_relaxed);
      answered.fetch_add(1, std::memory_order_relaxed);
    });
    for (std::uint64_t i = 0; i < count; ++i) {
      if (!gateway.submit(stream.user_id(i), stream.event(i), i)) {
        throw std::runtime_error("replay gateway rejected a report");
      }
    }
    gateway.drain();
  }
  Replay r;
  r.digest = digest.load();
  r.answered = answered.load();
  r.cpu_us_per_req = (self_cpu_seconds() - cpu0) * 1e6 / static_cast<double>(count);
  return r;
}

/// ns per frame of the wire codec over the stream's first `count`
/// reports: submit and answer frames each encoded, fed through a
/// FrameReader and decoded.
double codec_ns_per_frame(const Stream& stream, std::uint64_t count) {
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> wire;
  net::FrameReader reader;
  net::Frame frame;
  std::uint64_t check = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t i = 0; i < count; ++i) {
    net::SubmitPayload sp;
    sp.tag = i;
    sp.user_id = stream.user_id(i);
    sp.event = stream.event(i);
    payload.clear();
    wire.clear();
    net::encode_submit(sp, payload);
    net::encode_frame(net::FrameType::kSubmit, payload.data(), payload.size(), wire);
    reader.feed(wire.data(), wire.size());
    if (reader.next(frame) != net::FrameReader::Result::kFrame) {
      throw std::runtime_error("codec: submit");
    }
    const auto sub = net::decode_submit(frame.payload.data(), frame.payload.size());
    if (!sub) throw std::runtime_error("codec: decode_submit");
    net::AnswerPayload ap;
    ap.tag = sub->tag;
    ap.user_id = sub->user_id;
    ap.seq = i;
    ap.protected_event = sub->event;
    payload.clear();
    wire.clear();
    net::encode_answer(ap, payload);
    net::encode_frame(net::FrameType::kAnswer, payload.data(), payload.size(), wire);
    reader.feed(wire.data(), wire.size());
    if (reader.next(frame) != net::FrameReader::Result::kFrame) {
      throw std::runtime_error("codec: answer");
    }
    const auto ans = net::decode_answer(frame.payload.data(), frame.payload.size());
    if (!ans) throw std::runtime_error("codec: decode_answer");
    check += ans->tag;
  }
  const double ns = duration<double, std::nano>(Clock::now() - t0).count();
  if (check != count * (count - 1) / 2) throw std::runtime_error("codec: tags garbled");
  return ns / (2.0 * static_cast<double>(count));
}

/// ns per StreamSession::report over the stream prefix, sessions built
/// by the gateway's default factory: one per driver (steady), or one per
/// report (churn), created outside the timed loop in blocks.
double session_report_ns(const Stream& stream, std::uint64_t count, bool churn) {
  const auto factory = default_session_factory();
  constexpr std::uint64_t kBlock = 1 << 14;
  std::vector<std::unique_ptr<lppm::StreamSession>> sessions;
  std::vector<std::uint64_t> keys;
  double ns = 0.0;
  std::uint64_t delivered = 0;
  for (std::uint64_t lo = 0; lo < count; lo += kBlock) {
    const std::uint64_t hi = std::min(count, lo + kBlock);
    std::vector<lppm::StreamSession*> target;
    std::vector<trace::Event> events;
    for (std::uint64_t i = lo; i < hi; ++i) {
      const std::uint64_t key = churn ? i - lo : stream.user_key(i);
      if (churn || key >= sessions.size() || !sessions[key]) {
        if (key >= sessions.size()) sessions.resize(key + 1);
        sessions[key] = factory(stream.user_id(i));
      }
      target.push_back(sessions[key].get());
      events.push_back(stream.event(i));
    }
    const Clock::time_point t0 = Clock::now();
    for (std::size_t j = 0; j < target.size(); ++j) {
      delivered += target[j]->report(events[j]) ? 1 : 0;
    }
    ns += duration<double, std::nano>(Clock::now() - t0).count();
    if (churn) sessions.clear();
  }
  if (delivered == 0) throw std::runtime_error("session replay delivered nothing");
  return ns / static_cast<double>(count);
}

/// ns per SessionManager::acquire over the stream prefix's user sequence
/// with the gateway's default session cap (lookups under steady, create
/// plus LRU evict under churn).
double session_acquire_ns(const Stream& stream, std::uint64_t count) {
  service::SessionManager manager(service::SessionManagerConfig{}, default_session_factory(),
                                  nullptr);
  std::vector<std::string> users;
  std::vector<trace::Timestamp> times;
  constexpr std::uint64_t kBlock = 1 << 14;
  double ns = 0.0;
  for (std::uint64_t lo = 0; lo < count; lo += kBlock) {
    const std::uint64_t hi = std::min(count, lo + kBlock);
    users.clear();
    times.clear();
    for (std::uint64_t i = lo; i < hi; ++i) {
      users.push_back(stream.user_id(i));
      times.push_back(stream.event(i).time);
    }
    const Clock::time_point t0 = Clock::now();
    for (std::size_t j = 0; j < users.size(); ++j) (void)manager.acquire(users[j], times[j]);
    ns += duration<double, std::nano>(Clock::now() - t0).count();
  }
  return ns / static_cast<double>(count);
}

}  // namespace

Result run_serve(const Options& opt, Host& host, SpanLog& spans) {
  const ServeParams P = params_for(opt);
  Result r;
  const std::string dataset = "serve-" + std::to_string(opt.seed) + ".lpds";

  // Set-up, repeated: synthesize the fleet, write it, spawn the service
  // and connect to every shard. The last fleet stays up for the run.
  std::vector<double> setup_times;
  Fleet fleet;
  std::unique_ptr<Stream> stream;
  for (int i = 0; i < 5; ++i) {
    if (i > 0) stop_fleet(fleet);
    SpanLog::Scope s(spans, "setup");
    const Clock::time_point t0 = Clock::now();
    // ~60 reports/h per driver against a budget of 30/h.
    const trace::Dataset data = make_fleet(P.drivers, opt.seed);
    trace::save_store(dataset, *trace::TraceStore::from_dataset(data));
    start_fleet(fleet, dataset);
    setup_times.push_back(seconds_between(t0, Clock::now()));
    if (!stream) stream = std::make_unique<Stream>(data, P.churn, opt.seed);
  }

  std::uint32_t next_phase = 1;
  std::uint64_t cursor = 0;
  std::uint64_t total_sent = 0;
  std::uint64_t total_delivered = 0;
  std::uint64_t fleet_digest = 0;
  std::vector<std::pair<std::uint64_t, trace::Timestamp>> deliveries;
  // rate > 0: open loop at that rate; rate == 0: closed loop.
  auto phase = [&](double rate, std::uint64_t count, const char* name, bool trace = false) {
    SpanLog::Scope s(spans, name);
    Phase ph;
    ph.trace = trace;
    ph.id = next_phase++;
    ph.first = cursor;
    ph.count = count;
    ph.rate = rate;
    if (rate == 0.0) ph.inflight = kSaturationInflight;
    PhaseResult pr = run_phase(fleet, *stream, ph);
    // Keep one request span in 64: enough to see the shape in a viewer.
    for (std::size_t i = 0; i < pr.spans.size(); i += 64) {
      spans.record("loadgen.request", pr.spans[i].due, pr.spans[i].answered);
      spans.record("loadgen.late", pr.spans[i].due, pr.spans[i].sent);
    }
    cursor += count;
    total_sent += pr.sent;
    total_delivered += pr.delivered;
    deliveries.insert(deliveries.end(), pr.deliveries.begin(), pr.deliveries.end());
    r.gate(pr.error.empty(), std::string(name) + ": connection error " + pr.error);
    r.gate(pr.exactly_once && pr.answered == pr.sent,
           std::string(name) + ": every tag answered exactly once");
    return pr;
  };

  // Warm-up: sessions are created and the first budget windows fill.
  const PhaseResult warm =
      phase(P.nominal_rps * kWarmupSpeedup, P.warmup_reports, "warmup");
  fleet_digest += warm.digest;

  // The nominal-rate window.
  const std::vector<pid_t> server_pids = [&] {
    std::vector<pid_t> v{fleet.supervisor};
    v.insert(v.end(), fleet.shard_pids.begin(), fleet.shard_pids.end());
    return v;
  }();
  std::vector<procstat::Sample> before;
  for (const pid_t pid : server_pids) before.push_back(procstat::sample(pid));
  const double loadgen_cpu0 = self_cpu_seconds();
  const double nominal_s = opt.trace ? opt.seconds * P.nominal_share : opt.seconds;
  const std::uint64_t nominal_count = static_cast<std::uint64_t>(P.nominal_rps * nominal_s);
  const PhaseResult nominal = phase(P.nominal_rps, nominal_count, "nominal", opt.trace);
  const double loadgen_cpu = self_cpu_seconds() - loadgen_cpu0;
  std::vector<procstat::Sample> used;
  for (std::size_t k = 0; k < server_pids.size(); ++k) {
    used.push_back(procstat::sample(server_pids[k]) - before[k]);
  }
  fleet_digest += nominal.digest;
  const std::uint64_t replay_count = cursor;
  const FleetTelemetry tel = read_telemetry(fleet);
  r.gate(static_cast<std::uint64_t>(tel.received) == total_sent,
         "serve: telemetry received equals reports sent");
  r.gate(static_cast<std::uint64_t>(tel.delivered) == total_delivered,
         "serve: telemetry delivered equals the client's count");
  double pss_mb = 0.0;
  double private_mb = 0.0;
  for (const pid_t pid : fleet.shard_pids) {
    const procstat::Memory m = procstat::memory(pid);
    pss_mb = std::max(pss_mb, m.pss_mb);
    private_mb = std::max(private_mb, m.private_mb);
  }

  // Traced runs: closed-loop saturation phases for the rest of the run's
  // time (at least three); capacity is the median phase's throughput.
  std::vector<double> throughputs;
  const Clock::time_point saturation_end =
      Clock::now() + duration_cast<nanoseconds>(duration<double>(opt.seconds - nominal_s));
  while (opt.trace && (throughputs.size() < 3 || Clock::now() < saturation_end)) {
    const PhaseResult sat = phase(0.0, P.saturation_reports, "saturation");
    throughputs.push_back(sat.throughput_per_s);
    std::printf("  saturation: %.0f/s, p99 %.3f ms, failed %llu in %.2f s\n",
                sat.throughput_per_s, sat.p99_ms(), static_cast<unsigned long long>(sat.failed),
                sat.wall_s);
  }
  const double capacity = median(throughputs);

  const FleetTelemetry end_tel = read_telemetry(fleet);
  r.gate(static_cast<std::uint64_t>(end_tel.received) == total_sent,
         "serve: telemetry received equals reports sent (after saturation)");
  r.gate(static_cast<std::uint64_t>(end_tel.delivered) == total_delivered,
         "serve: telemetry delivered equals the client's count (after saturation)");
  stop_fleet(fleet);
  std::filesystem::remove(dataset);

  const service::GatewayConfig g = gateway_config();
  const std::size_t budget_reports =
      static_cast<std::size_t>(std::floor(g.budget_eps / g.epsilon + 1e-9));
  r.gate(max_window_deliveries(std::move(deliveries), g.budget_window_s) <= budget_reports,
         "serve: no user gets more deliveries in a window than the budget allows");

  Replay replay;
  {
    SpanLog::Scope s(spans, "service.gateway_replay");
    replay = replay_gateway(*stream, replay_count);
  }
  r.gate(replay.answered == replay_count && replay.digest == fleet_digest,
         "serve: fleet output digest equals the 1-worker Gateway replay");

  // End-to-end numbers of the nominal window.
  double server_cpu_s = 0.0;
  for (const procstat::Sample& s : used) server_cpu_s += s.cpu_s();
  const double answered = static_cast<double>(std::max<std::uint64_t>(1, nominal.ok));
  r.attempted = nominal.phase.count;
  r.failed = r.correct ? nominal.failed : nominal.phase.count;
  r.e2e("setup_s", median(setup_times), "s");
  r.e2e("p50_ms", quantile(nominal.latency_ms, 0.5), "ms");
  r.e2e("p99_ms", nominal.p99_ms(), "ms");
  r.e2e("cpu_us_per_op", server_cpu_s * 1e6 / answered, "us");
  r.e2e("mem_mb", pss_mb, "MB");
  host.loadgen_cpu_share = loadgen_cpu / nominal.wall_s;
  std::printf("%s: %zu drivers, stream %zu events, nominal %.0f/s for %llu reports "
              "(%.1f%% suppressed, failed %llu), %zu saturation phases -> %.0f/s, %llu reports in all\n",
              opt.workload.c_str(), P.drivers, stream->size(), P.nominal_rps,
              static_cast<unsigned long long>(nominal.phase.count),
              100.0 * static_cast<double>(nominal.suppressed) / answered,
              static_cast<unsigned long long>(nominal.failed), throughputs.size(), capacity,
              static_cast<unsigned long long>(cursor));

  if (!opt.trace) return r;

  r.layer("shard.user_us_per_req", [&] {
    double s = 0.0;
    for (std::size_t k = 1; k < used.size(); ++k) s += used[k].user_s;
    return s * 1e6 / answered;
  }(), "us");
  r.layer("shard.sys_us_per_req", [&] {
    double s = 0.0;
    for (std::size_t k = 1; k < used.size(); ++k) s += used[k].sys_s;
    return s * 1e6 / answered;
  }(), "us");
  r.layer("supervisor.cpu_us_per_req", used[0].cpu_s() * 1e6 / answered, "us");
  r.layer("shard.ctx_switches_per_req", [&] {
    double s = 0.0;
    for (std::size_t k = 1; k < used.size(); ++k) s += static_cast<double>(used[k].ctx());
    return s / answered;
  }(), "count");
  r.layer("service.gateway_us_per_req", replay.cpu_us_per_req, "us");
  r.layer("service.sessions_created", tel.sessions_created, "count");
  r.layer("service.sessions_evicted_lru", tel.sessions_evicted_lru, "count");
  r.layer("service.service_p99_us", tel.service_p99_us, "us");
  r.layer("service.suppressed_frac", tel.suppressed / std::max(1.0, tel.received), "frac");
  r.layer("service.rejected_queue_full", tel.rejected, "count");
  r.layer("service.capacity_per_s", capacity, "1/s");
  r.layer("shard.pss_mb", pss_mb, "MB");
  r.layer("shard.private_mb", private_mb, "MB");
  r.layer("loadgen.late_p99_ms", quantile(nominal.late_ms, 0.99), "ms");
  r.layer("loadgen.failed_frac", nominal.failed_frac(), "frac");
  const std::uint64_t micro = std::min<std::uint64_t>(replay_count, opt.smoke ? 4000 : 200000);
  {
    SpanLog::Scope s(spans, "net.codec");
    r.layer("net.codec_ns_per_frame", codec_ns_per_frame(*stream, micro), "ns");
  }
  {
    SpanLog::Scope s(spans, "lppm.session_report");
    r.layer("lppm.session_report_ns", session_report_ns(*stream, micro, P.churn), "ns");
  }
  {
    SpanLog::Scope s(spans, "service.session_acquire");
    r.layer("service.session_acquire_ns", session_acquire_ns(*stream, replay_count), "ns");
  }
  r.layer("tracing.overhead_frac", nominal.tracing_overhead_frac, "frac");
  return r;
}

}  // namespace perfbench
