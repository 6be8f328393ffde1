#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <thread>

#include "canvas.hpp"
#include "util/json.hpp"
#include "wire.hpp"

namespace perfbench {

namespace {

using ricsa::util::Json;
using ricsa::viz::Image;

constexpr std::size_t kMaxFailureReasons = 20;
/// Longest wait after the window for the last steers to be observed.
constexpr double kDrainS = 5.0;
/// Not every viewer holding a frame (past the warm-up) by then is a failure.
constexpr double kJoinTimeoutS = 60.0;
/// Canvases kept per viewer for the post-window sample comparison: the
/// newest frame, and enough history for the relay viewer (one hop behind)
/// to share a frame with the origin SSE viewer.
constexpr std::size_t kRing = 4;

double wall_ms() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::microseconds>(
                                 std::chrono::system_clock::now().time_since_epoch())
                                 .count()) /
         1000.0;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

struct Snapshot {
  std::uint64_t seq = 0;
  double pub_ms = 0.0;
  Image image;
};

/// Applies every received body to its viewer's canvas off the network
/// thread, as a browser decodes off its event loop, and keeps the newest
/// canvases for the sample comparison.
class Verifier {
 public:
  explicit Verifier(std::size_t viewers) : canvases_(viewers), rings_(viewers) {
    thread_ = std::thread([this] { loop(); });
  }
  ~Verifier() { finish(); }
  Verifier(const Verifier&) = delete;
  Verifier& operator=(const Verifier&) = delete;

  void push(std::size_t viewer, std::uint64_t seq, double pub_ms, Json body) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back({viewer, seq, pub_ms, std::move(body)});
    }
    cv_.notify_one();
  }

  /// Drain the queue and join; the accessors below are valid afterwards.
  void finish() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  const std::deque<Snapshot>& ring(std::size_t viewer) const { return rings_[viewer]; }
  const std::vector<std::string>& failures() const { return failures_; }
  std::uint64_t verified() const { return verified_; }

 private:
  struct Item {
    std::size_t viewer;
    std::uint64_t seq;
    double pub_ms;
    Json body;
  };

  void loop() {
    for (;;) {
      Item item;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return !queue_.empty() || done_; });
        if (queue_.empty()) return;
        item = std::move(queue_.front());
        queue_.pop_front();
      }
      std::string error;
      Image& canvas = canvases_[item.viewer];
      if (apply_body(item.body, canvas, &error)) {
        ++verified_;
      } else {
        failures_.push_back("seq " + std::to_string(item.seq) + ": " + error);
      }
      auto& ring = rings_[item.viewer];
      ring.push_back({item.seq, item.pub_ms, canvas});
      if (ring.size() > kRing) ring.pop_front();
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Item> queue_;
  bool done_ = false;
  std::vector<Image> canvases_;
  std::vector<std::deque<Snapshot>> rings_;
  std::vector<std::string> failures_;
  std::uint64_t verified_ = 0;
  std::thread thread_;  // last: joins before the state above dies
};

struct Conn {
  int fd = -1;
  ResponseReader reader;
  std::string out;
  std::size_t out_off = 0;
  bool want_write = false;
  std::uint32_t tag = 0;  // epoll tag: viewer index, or viewers.size() for control
};

struct ViewerState {
  Conn conn;
  bool has_frame = false;
  /// Requests carry the viewer's `client=` id (from the window's start).
  bool paced = false;
  bool stopped = false;
  std::uint64_t last_seq = 0;
  Json state;
  Clock::time_point sent{};
  Clock::time_point headers{};
  ViewerResult result;
};

struct SteerState {
  Clock::time_point due{};
  Clock::time_point sent{};
  bool posted = false;
  bool observed = false;
};

struct ControlReq {
  enum class Kind { kSteer, kFetch } kind = Kind::kSteer;
  std::size_t index = 0;  // steer index or viewer index (fetch)
  std::string method;
  std::string path;
  std::string body;
};

enum class Phase { kJoin, kWindow, kDrain, kFetch, kDone };

class Generator {
 public:
  Generator(const LoadPlan& plan, Clock::time_point construct_start, bool setup_only)
      : plan_(plan),
        construct_start_(construct_start),
        setup_only_(setup_only),
        viewers_(plan.viewers.size()),
        steers_(plan.steers.size()),
        verifier_(plan.viewers.size()) {
    result_.viewers.resize(plan.viewers.size());
    for (std::size_t i = 0; i < plan.viewers.size(); ++i) {
      viewers_[i].result.spec = plan.viewers[i];
    }
  }

  ~Generator() {
    for (auto& v : viewers_) close_conn(v.conn);
    close_conn(control_);
    if (epoll_ >= 0) ::close(epoll_);
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  LoadResult run();

 private:
  void fail(const std::string& why) {
    ++result_.failed;
    if (result_.failures.size() < kMaxFailureReasons) result_.failures.push_back(why);
  }
  double rel_ms(Clock::time_point t) const { return ms_between(t0_, t); }
  bool open(Conn& conn, int port, std::uint32_t tag);
  void close_conn(Conn& conn) {
    if (conn.fd >= 0) ::close(conn.fd);
    conn.fd = -1;
  }
  void send(Conn& conn, std::string bytes);
  void flush(Conn& conn);
  void start_viewer(std::size_t i);
  void open_stream(std::size_t i);
  void poll_next(std::size_t i);
  void attach_sessions();
  std::string client_param(std::size_t i) const {
    return viewers_[i].paced ? "&client=" + plan_.viewers[i].client_id : std::string();
  }
  void on_readable(std::uint32_t tag);
  void on_viewer_event(std::size_t i, WireEvent& ev, Clock::time_point now);
  void on_frame(std::size_t i, const WireEvent& ev, Clock::time_point now);
  void on_control_event(WireEvent& ev, Clock::time_point now);
  void pump_control();
  void advance(Clock::time_point now);
  Clock::time_point next_deadline() const;
  void check_samples();

  const LoadPlan& plan_;
  const Clock::time_point construct_start_;
  const bool setup_only_;
  int epoll_ = -1;
  Phase phase_ = Phase::kJoin;
  Clock::time_point t0_{};
  Clock::time_point phase_deadline_{};
  std::vector<ViewerState> viewers_;
  Conn control_;
  std::deque<ControlReq> control_queue_;
  bool control_busy_ = false;
  ControlReq control_current_;
  Clock::time_point control_sent_{};
  std::vector<SteerState> steers_;
  std::size_t next_steer_ = 0;
  std::map<double, Clock::time_point> origin_sse_receipts_;
  std::map<double, Clock::time_point> relay_receipts_;
  std::map<std::size_t, Json> fetched_;
  Verifier verifier_;
  LoadResult result_;
};

bool Generator::open(Conn& conn, int port, std::uint32_t tag) {
  conn.fd = connect_loopback(port);
  if (conn.fd < 0) return false;
  conn.tag = tag;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u32 = tag;
  return ::epoll_ctl(epoll_, EPOLL_CTL_ADD, conn.fd, &ev) == 0;
}

void Generator::send(Conn& conn, std::string bytes) {
  conn.out.append(bytes);
  ++result_.requests_sent;
  flush(conn);
}

void Generator::flush(Conn& conn) {
  if (conn.fd < 0) return;
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      break;
    }
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
  }
  const bool want = !conn.out.empty();
  if (want != conn.want_write) {
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.u32 = conn.tag;
    ::epoll_ctl(epoll_, EPOLL_CTL_MOD, conn.fd, &ev);
    conn.want_write = want;
  }
}

void Generator::start_viewer(std::size_t i) {
  ViewerState& v = viewers_[i];
  const ViewerSpec& spec = plan_.viewers[i];
  if (!open(v.conn, spec.port, static_cast<std::uint32_t>(i))) {
    fail("viewer " + spec.name + ": connect failed");
    v.stopped = true;
    return;
  }
  if (spec.sse) {
    open_stream(i);
  } else {
    poll_next(i);
  }
}

void Generator::open_stream(std::size_t i) {
  ViewerState& v = viewers_[i];
  v.sent = Clock::now();
  ++result_.attempted;
  send(v.conn, "GET /api/stream?since=" + std::to_string(v.last_seq) +
                   "&delta=1&timeout=5" + client_param(i) +
                   " HTTP/1.1\r\nHost: 127.0.0.1\r\nAccept: text/event-stream\r\n\r\n");
}

void Generator::attach_sessions() {
  // Viewers join anonymously while the origin warms up and identify
  // themselves when the window opens, as a dashboard attaching to a running
  // simulation would: per-client pacing then starts against a measured
  // publish period, not the cold start-up estimate. SSE viewers reconnect
  // with their cursor, so the stream continues without a gap.
  for (std::size_t i = 0; i < viewers_.size(); ++i) {
    ViewerState& v = viewers_[i];
    v.paced = true;
    if (!plan_.viewers[i].sse || v.stopped) continue;
    close_conn(v.conn);
    v.conn = Conn{};
    if (!open(v.conn, plan_.viewers[i].port, static_cast<std::uint32_t>(i))) {
      fail("viewer " + plan_.viewers[i].name + ": reconnect failed");
      v.stopped = true;
      continue;
    }
    open_stream(i);
  }
}

void Generator::poll_next(std::size_t i) {
  ViewerState& v = viewers_[i];
  if (v.stopped || v.conn.fd < 0) return;
  v.sent = Clock::now();
  ++result_.attempted;
  send(v.conn, "GET /api/poll?since=" + std::to_string(v.last_seq) +
                   "&delta=1&timeout=5" + client_param(i) +
                   " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n");
}

void Generator::on_readable(std::uint32_t tag) {
  const bool is_control = tag == viewers_.size();
  Conn& conn = is_control ? control_ : viewers_[tag].conn;
  if (conn.fd < 0) return;
  char buf[65536];
  std::vector<WireEvent> events;
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      try {
        conn.reader.feed(std::string_view(buf, static_cast<std::size_t>(n)), events);
      } catch (const WireError& e) {
        fail(std::string("malformed response: ") + e.what());
        close_conn(conn);
        if (!is_control) viewers_[tag].stopped = true;
        return;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // EOF or error: the servers keep every connection open while we run.
    fail(is_control ? "control connection closed"
                    : "viewer " + plan_.viewers[tag].name + ": connection closed");
    close_conn(conn);
    if (!is_control) viewers_[tag].stopped = true;
    break;
  }
  const Clock::time_point now = Clock::now();
  for (WireEvent& ev : events) {
    if (is_control) {
      on_control_event(ev, now);
    } else {
      on_viewer_event(tag, ev, now);
    }
  }
}

void Generator::on_viewer_event(std::size_t i, WireEvent& ev, Clock::time_point now) {
  ViewerState& v = viewers_[i];
  const ViewerSpec& spec = plan_.viewers[i];
  if (ev.kind == WireEvent::Kind::kHeaders) {
    v.headers = now;
    if (ev.status != 200) fail("viewer " + spec.name + ": HTTP " + std::to_string(ev.status));
    return;
  }
  if (ev.status != 200) return;  // already counted at the headers
  if (spec.sse) ++result_.attempted;
  on_frame(i, ev, now);
  if (!spec.sse) poll_next(i);
}

void Generator::on_frame(std::size_t i, const WireEvent& ev, Clock::time_point now) {
  ViewerState& v = viewers_[i];
  const ViewerSpec& spec = plan_.viewers[i];
  const double recv_wall = wall_ms();
  Json body;
  try {
    body = Json::parse(ev.data);
  } catch (const std::exception& e) {
    fail("viewer " + spec.name + ": body is not JSON");
    return;
  }
  if (body.at("timeout").as_bool(false)) return;  // long-poll timeout, no frame
  const std::uint64_t seq = static_cast<std::uint64_t>(body.at("seq").as_int(0));
  if (v.has_frame) {
    if (seq != v.last_seq + 1) {
      fail("viewer " + spec.name + ": seq " + std::to_string(seq) + " after " +
           std::to_string(v.last_seq));
    }
    if (body.contains("base_seq") &&
        static_cast<std::uint64_t>(body.at("base_seq").as_int(0)) != v.last_seq) {
      fail("viewer " + spec.name + ": base_seq mismatch at seq " + std::to_string(seq));
    }
  }
  const Json& state = body.at("state");
  if (body.at("delta").as_bool(false) && v.has_frame && state.is_object()) {
    for (const auto& [key, value] : state.as_object()) v.state[key] = value;
  } else {
    v.state = state;
  }
  v.has_frame = true;
  v.last_seq = seq;
  const double pub_ms = v.state.at("published_ms").as_number(0.0);

  if (phase_ == Phase::kWindow) {
    ++v.result.frames;
    v.result.wire_bytes += ev.envelope_bytes + ev.data.size();
    v.result.envelope_bytes += ev.envelope_bytes;
    v.result.delivery_ms.push_back(recv_wall - pub_ms);
    if (plan_.trace) {
      result_.spans.push_back({(spec.sse ? "sse." : "poll.") + spec.name, seq,
                               rel_ms(spec.sse ? now : v.sent),
                               spec.sse ? -1.0 : rel_ms(v.headers), rel_ms(now)});
    }
    if (spec.sse) {
      // The relay hop pairs the two SSE viewers' receipts of one frame,
      // whichever arrives first.
      auto& mine = spec.via_relay ? relay_receipts_ : origin_sse_receipts_;
      auto& other = spec.via_relay ? origin_sse_receipts_ : relay_receipts_;
      const auto it = other.find(pub_ms);
      if (it != other.end()) {
        result_.hop_ms.push_back(spec.via_relay ? ms_between(it->second, now)
                                                : ms_between(now, it->second));
        other.erase(it);
      } else {
        mine[pub_ms] = now;
        while (mine.size() > 512) mine.erase(mine.begin());
      }
    }
  }
  if (i == 0 && (phase_ == Phase::kWindow || phase_ == Phase::kDrain)) {
    const Json& params = v.state.at("parameters");
    for (std::size_t s = 0; s < steers_.size(); ++s) {
      SteerState& st = steers_[s];
      if (!st.posted || st.observed) continue;
      const Json& shown = params.at(plan_.steers[s].param);
      if (shown.is_number() && shown.as_number() == plan_.steers[s].value) {
        st.observed = true;
        result_.steer_ms.push_back(ms_between(st.due, now));
        if (plan_.trace) {
          result_.spans.push_back({"steer", s, rel_ms(st.due), rel_ms(st.sent), rel_ms(now)});
        }
      }
    }
  }
  verifier_.push(i, seq, pub_ms, std::move(body));
}

void Generator::on_control_event(WireEvent& ev, Clock::time_point now) {
  if (ev.kind == WireEvent::Kind::kHeaders) return;
  control_busy_ = false;
  const ControlReq req = std::move(control_current_);
  if (ev.status != 200) {
    fail(req.method + " " + req.path + ": HTTP " + std::to_string(ev.status));
    return;
  }
  switch (req.kind) {
    case ControlReq::Kind::kSteer:
      result_.steer_rtt_ms.push_back(ms_between(control_sent_, now));
      break;
    case ControlReq::Kind::kFetch:
      try {
        fetched_[req.index] = Json::parse(ev.data);
      } catch (const std::exception&) {
        fail("sample fetch: body is not JSON");
      }
      break;
  }
}

void Generator::pump_control() {
  if (control_busy_ || control_queue_.empty() || control_.fd < 0) return;
  control_current_ = std::move(control_queue_.front());
  control_queue_.pop_front();
  const ControlReq& req = control_current_;
  control_sent_ = Clock::now();
  if (req.kind == ControlReq::Kind::kSteer) {
    SteerState& st = steers_[req.index];
    st.sent = control_sent_;
    st.posted = true;
    result_.late_ms.push_back(ms_between(st.due, control_sent_));
  }
  control_busy_ = true;
  ++result_.attempted;
  std::string text = req.method + " " + req.path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (req.method == "POST") {
    text += "Content-Type: application/json\r\nContent-Length: " +
            std::to_string(req.body.size()) + "\r\n";
  }
  text += "\r\n" + req.body;
  send(control_, std::move(text));
}

void Generator::advance(Clock::time_point now) {
  switch (phase_) {
    case Phase::kJoin: {
      const bool all = std::all_of(viewers_.begin(), viewers_.end(),
                                   [](const ViewerState& v) { return v.has_frame; });
      if (all && !result_.joined) {
        result_.joined = true;
        result_.ready_s = std::chrono::duration<double>(now - construct_start_).count();
        if (setup_only_) {
          phase_ = Phase::kDone;
          return;
        }
      }
      if (all && viewers_[0].last_seq >= plan_.warmup_frames) {
        if (plan_.on_window_start) plan_.on_window_start();
        t0_ = Clock::now();
        attach_sessions();
        phase_ = Phase::kWindow;
        phase_deadline_ = t0_ + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(plan_.seconds));
      } else if (now >= phase_deadline_) {
        ++result_.attempted;
        fail("not every viewer received a frame before the join timeout");
        phase_ = Phase::kDone;
      }
      return;
    }
    case Phase::kWindow: {
      while (next_steer_ < steers_.size()) {
        const auto due = t0_ + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       plan_.steers[next_steer_].due_s));
        if (due > now) break;
        steers_[next_steer_].due = due;
        Json body;
        body[plan_.steers[next_steer_].param] = plan_.steers[next_steer_].value;
        control_queue_.push_back(
            {ControlReq::Kind::kSteer, next_steer_, "POST", "/api/steer", body.dump()});
        ++next_steer_;
      }
      if (now >= phase_deadline_) {
        result_.window_s = std::chrono::duration<double>(now - t0_).count();
        if (plan_.on_window_end) plan_.on_window_end();
        phase_ = Phase::kDrain;
        phase_deadline_ = now + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(kDrainS));
      }
      return;
    }
    case Phase::kDrain: {
      const bool settled =
          next_steer_ == steers_.size() &&
          std::all_of(steers_.begin(), steers_.end(),
                      [](const SteerState& s) { return s.observed; });
      if (!settled && now < phase_deadline_) return;
      for (std::size_t s = 0; s < steers_.size(); ++s) {
        ++result_.attempted;
        if (!steers_[s].observed) {
          fail("steer " + std::to_string(s) + " (" + plan_.steers[s].param +
               ") never observed");
        }
      }
      // Stop the viewers, then fetch each origin viewer's newest frame as a
      // full frame while it is still inside the server's window.
      for (std::size_t i = 0; i < viewers_.size(); ++i) {
        viewers_[i].stopped = true;
        close_conn(viewers_[i].conn);
        if (!plan_.viewers[i].via_relay && viewers_[i].has_frame) {
          control_queue_.push_back(
              {ControlReq::Kind::kFetch, i, "GET",
               "/api/poll?timeout=0&since=" + std::to_string(viewers_[i].last_seq - 1),
               ""});
        }
      }
      phase_ = Phase::kFetch;
      phase_deadline_ = now + std::chrono::seconds(10);
      return;
    }
    case Phase::kFetch:
      if (!control_busy_ && control_queue_.empty()) {
        phase_ = Phase::kDone;
      } else if (now >= phase_deadline_) {
        fail("control requests did not complete");
        phase_ = Phase::kDone;
      }
      return;
    case Phase::kDone:
      return;
  }
}

Clock::time_point Generator::next_deadline() const {
  Clock::time_point next = phase_deadline_;
  if (phase_ == Phase::kWindow && next_steer_ < steers_.size()) {
    next = std::min(next, t0_ + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(
                                        plan_.steers[next_steer_].due_s)));
  }
  return next;
}

void Generator::check_samples() {
  const auto find = [](const std::deque<Snapshot>& ring,
                       auto pred) -> const Snapshot* {
    for (auto it = ring.rbegin(); it != ring.rend(); ++it) {
      if (pred(*it)) return &*it;
    }
    return nullptr;
  };
  std::size_t origin_sse = viewers_.size();
  for (std::size_t i = 0; i < viewers_.size(); ++i) {
    if (plan_.viewers[i].sse && !plan_.viewers[i].via_relay) origin_sse = i;
  }
  for (std::size_t i = 0; i < viewers_.size(); ++i) {
    const ViewerSpec& spec = plan_.viewers[i];
    if (!viewers_[i].has_frame) continue;
    ++result_.attempted;
    ++result_.samples_checked;
    if (!spec.via_relay) {
      const auto it = fetched_.find(i);
      if (it == fetched_.end()) {
        fail("viewer " + spec.name + ": no full frame fetched");
        continue;
      }
      const std::uint64_t seq = static_cast<std::uint64_t>(it->second.at("seq").as_int(0));
      const Snapshot* shot = find(verifier_.ring(i),
                                  [seq](const Snapshot& s) { return s.seq == seq; });
      if (seq != viewers_[i].last_seq || shot == nullptr) {
        fail("viewer " + spec.name + ": sample frame " + std::to_string(seq) +
             " not comparable");
        continue;
      }
      try {
        const Image full = decode_b64_png(it->second.at("image_b64").as_string());
        if (!same_pixels(full, shot->image)) {
          fail("viewer " + spec.name + ": canvas differs from full frame " +
               std::to_string(seq));
        }
      } catch (const std::exception& e) {
        fail("viewer " + spec.name + ": full frame does not decode");
      }
    } else {
      if (origin_sse == viewers_.size()) continue;
      const auto& origin = verifier_.ring(origin_sse);
      const Snapshot* shot = find(verifier_.ring(i), [&](const Snapshot& s) {
        return find(origin, [&](const Snapshot& o) { return o.pub_ms == s.pub_ms; }) !=
               nullptr;
      });
      if (shot == nullptr) {
        fail("viewer " + spec.name + ": no frame in common with the origin viewer");
        continue;
      }
      const Snapshot* twin = find(origin, [&](const Snapshot& o) {
        return o.pub_ms == shot->pub_ms;
      });
      if (!same_pixels(shot->image, twin->image)) {
        fail("viewer " + spec.name + ": relay canvas differs from origin canvas");
      }
    }
  }
}

LoadResult Generator::run() {
  epoll_ = ::epoll_create1(EPOLL_CLOEXEC);
  phase_deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(kJoinTimeoutS));
  for (std::size_t i = 0; i < viewers_.size(); ++i) start_viewer(i);
  if (!setup_only_ &&
      !open(control_, plan_.control_port, static_cast<std::uint32_t>(viewers_.size()))) {
    fail("control connection failed");
  }
  epoll_event events[16];
  while (phase_ != Phase::kDone) {
    advance(Clock::now());
    if (phase_ == Phase::kDone) break;
    pump_control();
    const double wait_ms = ms_between(Clock::now(), next_deadline());
    const int timeout = std::clamp(static_cast<int>(std::ceil(wait_ms)), 0, 100);
    const int n = ::epoll_wait(epoll_, events, 16, timeout);
    for (int k = 0; k < n; ++k) {
      const std::uint32_t tag = events[k].data.u32;
      Conn& conn = tag == viewers_.size() ? control_ : viewers_[tag].conn;
      if (events[k].events & EPOLLOUT) flush(conn);
      if (events[k].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) on_readable(tag);
    }
  }
  for (auto& v : viewers_) close_conn(v.conn);
  close_conn(control_);
  verifier_.finish();
  for (const std::string& why : verifier_.failures()) fail("verify: " + why);
  result_.frames_verified = verifier_.verified();
  if (!setup_only_ && result_.joined) check_samples();
  for (std::size_t i = 0; i < viewers_.size(); ++i) {
    result_.viewers[i] = std::move(viewers_[i].result);
  }
  return std::move(result_);
}

}  // namespace

LoadResult run_load(const LoadPlan& plan, Clock::time_point construct_start,
                    bool setup_only) {
  Generator generator(plan, construct_start, setup_only);
  return generator.run();
}

}  // namespace perfbench
