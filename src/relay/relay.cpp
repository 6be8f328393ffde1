#include "relay/relay.hpp"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <utility>

#include "net/buffer_chain.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "web/hub.hpp"

namespace ricsa::relay {
namespace {

using Clock = std::chrono::steady_clock;

/// Strict cursor parse (mirrors the origin front end's contract).
bool parse_since(const std::string& raw, std::uint64_t& out) {
  if (raw.empty() || raw[0] < '0' || raw[0] > '9') return false;
  try {
    std::size_t parsed = 0;
    out = static_cast<std::uint64_t>(std::stoull(raw, &parsed));
    return parsed == raw.size();
  } catch (const std::exception&) {
    return false;
  }
}

bool parse_timeout(const std::string& raw, double ceiling, double& out) {
  try {
    std::size_t parsed = 0;
    const double value = std::stod(raw, &parsed);
    if (parsed != raw.size() || std::isnan(value)) return false;
    out = std::clamp(value, 0.0, ceiling);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

const std::map<std::string, std::string> kSseHeaders = {
    {"Content-Type", "text/event-stream"}, {"Cache-Control", "no-cache"}};
const std::map<std::string, std::string> kTextHeaders = {
    {"Content-Type", "text/plain; charset=utf-8"}};

void stream_error(const web::HttpServer::StreamSink& sink, int status,
                  const std::string& message) {
  sink.begin(kTextHeaders, status);
  sink.chunk(message + "\n");
  sink.end();
}

web::HubRegistry::Config registry_config(const RelayNodeConfig& config,
                                         net::Reactor* reactor) {
  web::HubRegistry::Config out;
  out.hub.window = config.frame_window;
  out.hub.workers = config.hub_workers;
  out.hub.max_wait_s = config.poll_timeout_s;
  out.hub.reactor = reactor;
  if (!config.subscriber.views.empty()) {
    out.default_view = config.subscriber.views.front();
  }
  // Relay shards are never reaped: every shard is pinned by the subscriber
  // (its rebased seq space must survive).
  out.idle_reap_s = 0.0;
  // Downstream clients get the same session/controller stack the origin
  // runs — a relay tier must not turn paced clients back into unpaced ones.
  out.pacing = config.pacing;
  return out;
}

std::string timeout_body(std::uint64_t since) {
  return "{\"seq\":" + std::to_string(since) + ",\"timeout\":true}";
}

}  // namespace

/// One downstream SSE subscription on the relay. Same pump shape as the
/// origin's (chunk → drained callback → next wait). A `client=` id binds
/// the same pacing session the polls use; tiers stay kFull (the relay
/// serves the bodies it received, verbatim), so the session's controller
/// governs pacing and frame skipping only.
struct RelayNode::RelayStream {
  RelayNode* node = nullptr;
  std::shared_ptr<web::FrameHub> hub;
  std::string view;
  web::HttpServer::StreamSink sink;
  std::shared_ptr<web::ClientSession> session;
  std::uint64_t since = 0;
  bool want_delta = false;
  bool force_full = false;
  double timeout_s = 15.0;
};

RelayNode::RelayNode(RelayNodeConfig config)
    : config_(std::move(config)),
      registry_(registry_config(config_, &server_.reactor())),
      subscriber_(config_.subscriber, registry_),
      forward_client_(config_.subscriber.upstream_port) {}

RelayNode::~RelayNode() { stop(); }

int RelayNode::start() {
  if (started_.exchange(true)) return server_.port();
  server_.route("GET", "/", [](const web::HttpRequest&) {
    return web::HttpResponse::text("ricsa relay node\n");
  });
  server_.route("GET", "/api/state",
                [this](const web::HttpRequest& r) { return handle_state(r); });
  server_.route("GET", "/api/stats",
                [this](const web::HttpRequest& r) { return handle_stats(r); });
  server_.route_async("GET", "/api/poll",
                      [this](const web::HttpRequest& r,
                             web::HttpServer::ResponseSink sink) {
                        handle_poll(r, std::move(sink));
                      });
  server_.route_stream("GET", "/api/stream",
                       [this](const web::HttpRequest& r,
                              web::HttpServer::StreamSink sink) {
                         handle_stream(r, std::move(sink));
                       });
  // Control traffic goes upstream: a relay can serve frames, only the
  // origin can steer the simulation or declare views.
  server_.route("POST", "/api/steer", [this](const web::HttpRequest& r) {
    return forward_post(r, "/api/steer");
  });
  server_.route("POST", "/api/view", [this](const web::HttpRequest& r) {
    return forward_post(r, "/api/view");
  });
  server_.set_workers(config_.http_workers);
  server_.set_reactors(config_.reactors);
  server_.set_max_connections(config_.max_connections);
  // Never kill a legal long-poll mid-wait (same derivation as the origin).
  server_.set_idle_read_timeout(config_.poll_timeout_s + 15.0);
  const int port = server_.start(config_.port);
  subscriber_.start();
  return port;
}

void RelayNode::stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  // Upstream first (no new publishes), then the server (downstream
  // connections close, parked sinks start refusing), then the hubs (any
  // still-parked waiter completes into a dead sink).
  subscriber_.stop();
  server_.stop();
  registry_.shutdown();
}

std::string RelayNode::relay_path_header() const {
  std::string out = config_.subscriber.relay_id;
  for (const std::string& hop : subscriber_.upstream_path()) {
    out += "," + hop;
  }
  return out;
}

bool RelayNode::request_path_conflicts(
    const web::HttpRequest& request) const {
  const auto it = request.headers.find("x-relay-path");
  if (it == request.headers.end()) return false;  // a plain browser
  std::vector<std::string> own;
  own.push_back(config_.subscriber.relay_id);
  for (std::string& hop : subscriber_.upstream_path()) {
    own.push_back(std::move(hop));
  }
  for (const std::string& part : util::split(it->second, ',')) {
    const std::string_view id = util::trim(part);
    if (id.empty()) continue;
    for (const std::string& mine : own) {
      if (id == mine) return true;
    }
  }
  return false;
}

void RelayNode::handle_poll(const web::HttpRequest& request,
                            web::HttpServer::ResponseSink sink) {
  if (request_path_conflicts(request)) {
    web::HttpResponse conflict = web::HttpResponse::json(
        "{\"error\":\"relay loop\",\"path\":\"" + relay_path_header() + "\"}",
        409);
    conflict.headers["X-Relay-Path"] = relay_path_header();
    sink(conflict);
    return;
  }
  std::string view = request.query_param("view");
  if (view.empty()) view = registry_.default_view_name();
  const std::shared_ptr<web::FrameHub> hub = registry_.subscribe(view);
  if (!hub) {
    sink(web::HttpResponse::not_found());
    return;
  }
  std::uint64_t since = 0;
  if (!parse_since(request.query_param("since", "0"), since)) {
    sink(web::HttpResponse::bad_request("since must be a non-negative integer"));
    return;
  }
  double timeout = config_.poll_timeout_s;
  const std::string timeout_raw = request.query_param("timeout");
  if (!timeout_raw.empty() &&
      !parse_timeout(timeout_raw, config_.poll_timeout_s, timeout)) {
    sink(web::HttpResponse::bad_request("timeout must be a number, not NaN"));
    return;
  }
  const bool want_delta = request.query_param("delta", "0") == "1" &&
                          request.query_param("full", "0") != "1";
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout));
  // Same pacing contract as the origin: a (sanitized) `client` id keys a
  // session whose controller paces/skips this relay's deliveries to that
  // client. Tier stays kFull — the relay owns no cheaper encodings — so
  // only the decision's interval/skip axis applies here.
  std::shared_ptr<web::ClientSession> session;
  web::FrameHub::WaitOptions options;
  const std::string client =
      web::sanitize_client_id(request.query_param("client"));
  if (!client.empty()) {
    const double now = web::mono_now_s();
    session = registry_.sessions().acquire(client, request.peer, now);
    if (session) {
      const web::ClientSession::Decision decision =
          session->decide(now, config_.pacing.frame_interval_s, view);
      options.latest_only = decision.skip_to_latest;
      if (decision.not_before_s > now) {
        options.not_before =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   decision.not_before_s - now));
      }
    }
  }
  park_poll(hub, std::move(view), since, since, want_delta, deadline,
            std::move(session), options, std::move(sink));
}

void RelayNode::park_poll(std::shared_ptr<web::FrameHub> hub,
                          std::string view, std::uint64_t client_since,
                          std::uint64_t cursor, bool want_delta,
                          Clock::time_point deadline,
                          std::shared_ptr<web::ClientSession> session,
                          web::FrameHub::WaitOptions options,
                          web::HttpServer::ResponseSink sink) {
  options.timeout_s = std::max(
      0.0, std::chrono::duration<double>(deadline - Clock::now()).count());
  hub->wait_async(
      cursor, options,
      [this, hub, view = std::move(view), client_since, want_delta, deadline,
       session = std::move(session), options,
       sink = std::move(sink)](web::FramePtr frame) mutable {
        if (!frame) {
          // Timeout contract: echo the *client's* cursor, not the parked
          // one — their next poll resumes where they left off.
          web::HttpResponse response =
              web::HttpResponse::json(timeout_body(client_since));
          response.headers["X-Relay-Path"] = relay_path_header();
          sink(response);
          if (session) session->on_timeout(web::mono_now_s());
          return;
        }
        // Body selection against pre-encoded frames: a relay frame carries
        // either a delta body (sequential consumers) or a full body
        // (joins/resyncs) — never pixels to assemble from.
        std::shared_ptr<const std::string> body;
        if (want_delta && frame->seq == client_since + 1) {
          body = web::body_shared(frame, web::Tier::kFull, true);
        }
        if (!body || body->empty()) {
          body = web::body_shared(frame, web::Tier::kFull, false);
        }
        if (!body->empty()) {
          web::HttpResponse response = web::HttpResponse::json_shared(body);
          response.headers["X-Relay-Path"] = relay_path_header();
          if (!session) {
            sink(response);
            return;
          }
          // Paced client: stamp the dispatch, account the delivery at
          // kernel drain — the controller's RTT sample brackets exactly
          // this relay→client hop.
          const std::uint64_t skipped =
              (client_since != 0 && frame->seq > client_since + 1)
                  ? frame->seq - client_since - 1
                  : 0;
          const std::size_t bytes = body->size();
          const double cadence = config_.pacing.frame_interval_s;
          session->note_dispatch(web::mono_now_s(), view);
          sink(response, [session, bytes, skipped, cadence, view] {
            session->on_delivered(web::mono_now_s(), bytes, skipped,
                                  web::Tier::kFull, cadence, view);
          });
          return;
        }
        // A delta-only frame that cannot answer this client (fresh join,
        // full=1, or a skip past the sequential chain). Escalate one
        // upstream full-frame resync — latched in the subscriber — and
        // re-park just past this frame until the snapshot lands or the
        // poll deadline passes. Synchronous completions recurse at most
        // window-depth before parking for real.
        subscriber_.request_resync(view);
        if (Clock::now() >= deadline) {
          web::HttpResponse response =
              web::HttpResponse::json(timeout_body(client_since));
          response.headers["X-Relay-Path"] = relay_path_header();
          sink(response);
          if (session) session->on_timeout(web::mono_now_s());
          return;
        }
        const std::uint64_t next = frame->seq;
        park_poll(hub, std::move(view), client_since, next, want_delta,
                  deadline, std::move(session), options, std::move(sink));
      });
}

void RelayNode::handle_stream(const web::HttpRequest& request,
                              web::HttpServer::StreamSink sink) {
  if (request_path_conflicts(request)) {
    stream_error(sink, 409, "relay loop: " + relay_path_header());
    return;
  }
  std::string view = request.query_param("view");
  if (view.empty()) view = registry_.default_view_name();
  const std::shared_ptr<web::FrameHub> hub = registry_.subscribe(view);
  if (!hub) {
    stream_error(sink, 404, "not found");
    return;
  }
  std::uint64_t since = 0;
  if (!parse_since(request.query_param("since", "0"), since)) {
    stream_error(sink, 400, "since must be a non-negative integer");
    return;
  }
  double timeout = config_.poll_timeout_s;
  const std::string timeout_raw = request.query_param("timeout");
  if (!timeout_raw.empty() &&
      !parse_timeout(timeout_raw, config_.poll_timeout_s, timeout)) {
    stream_error(sink, 400, "timeout must be a number, not NaN");
    return;
  }
  std::map<std::string, std::string> headers = kSseHeaders;
  headers["X-Relay-Path"] = relay_path_header();
  sink.begin(headers);
  if (sink.head_only()) return;

  auto s = std::make_shared<RelayStream>();
  s->node = this;
  s->hub = hub;
  s->view = std::move(view);
  s->sink = std::move(sink);
  const std::string client =
      web::sanitize_client_id(request.query_param("client"));
  if (!client.empty()) {
    s->session =
        registry_.sessions().acquire(client, request.peer, web::mono_now_s());
  }
  s->since = since;
  s->want_delta = request.query_param("delta", "0") == "1";
  s->force_full = request.query_param("full", "0") == "1";
  s->timeout_s = std::max(timeout, 0.05);
  stream_pump(s);
}

void RelayNode::stream_pump(const std::shared_ptr<RelayStream>& s) {
  if (!s->sink.alive()) return;
  web::FrameHub::WaitOptions options;
  options.timeout_s = s->timeout_s;
  if (s->session) {
    // Re-decide per pump cycle: a client whose drains slow mid-stream is
    // paced/skipped on the very next wait, exactly like the origin's pump.
    const double now = web::mono_now_s();
    const web::ClientSession::Decision decision =
        s->session->decide(now, config_.pacing.frame_interval_s, s->view);
    options.latest_only = decision.skip_to_latest;
    if (decision.not_before_s > now) {
      options.not_before =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 decision.not_before_s - now));
    }
  }
  s->hub->wait_async(s->since, options, [this, s](web::FramePtr frame) {
    if (!frame) {
      if (s->hub->is_shutdown()) {
        s->sink.end();
        return;
      }
      if (s->session) s->session->on_timeout(web::mono_now_s());
      s->sink.chunk(": keepalive\n\n", [this, s] { stream_pump(s); });
      return;
    }
    std::shared_ptr<const std::string> body;
    if (!s->force_full && s->want_delta && frame->seq == s->since + 1) {
      body = web::body_shared(frame, web::Tier::kFull, true);
    }
    if (!body || body->empty()) {
      body = web::body_shared(frame, web::Tier::kFull, false);
    }
    if (body->empty()) {
      // Delta-only frame under a full requirement: skip it, escalate one
      // latched upstream resync, and keep waiting for the snapshot.
      subscriber_.request_resync(s->view);
      s->since = frame->seq;
      stream_pump(s);
      return;
    }
    s->force_full = false;
    const std::uint64_t skipped =
        (s->since != 0 && frame->seq > s->since + 1)
            ? frame->seq - s->since - 1
            : 0;
    const std::size_t bytes = body->size();
    s->since = frame->seq;
    net::BufferChain event;
    event.append_copy("id: " + std::to_string(frame->seq) + "\ndata: ");
    event.append_shared(std::move(body));
    event.append_copy("\n\n");
    if (s->session) s->session->note_dispatch(web::mono_now_s(), s->view);
    s->sink.chunk(std::move(event), [this, s, bytes, skipped] {
      if (s->session) {
        s->session->on_delivered(web::mono_now_s(), bytes, skipped,
                                 web::Tier::kFull,
                                 config_.pacing.frame_interval_s, s->view);
      }
      registry_.touch(s->view);
      stream_pump(s);
    });
  });
}

web::HttpResponse RelayNode::handle_state(const web::HttpRequest& request) {
  if (request_path_conflicts(request)) {
    web::HttpResponse conflict = web::HttpResponse::json(
        "{\"error\":\"relay loop\",\"path\":\"" + relay_path_header() + "\"}",
        409);
    conflict.headers["X-Relay-Path"] = relay_path_header();
    return conflict;
  }
  std::string view = request.query_param("view");
  if (view.empty()) view = registry_.default_view_name();
  const std::shared_ptr<web::FrameHub> hub = registry_.subscribe(view);
  if (!hub) return web::HttpResponse::not_found();
  util::Json out;
  const web::FramePtr frame = hub->latest();
  out["seq"] = static_cast<double>(frame ? frame->seq : 0);
  out["state"] = frame ? frame->state : util::Json();
  web::HttpResponse response = web::HttpResponse::json(out.dump());
  response.headers["X-Relay-Path"] = relay_path_header();
  return response;
}

web::HttpResponse RelayNode::handle_stats(const web::HttpRequest&) {
  util::Json out;
  {
    util::Json relay;
    relay["id"] = config_.subscriber.relay_id;
    relay["upstream_port"] =
        static_cast<double>(config_.subscriber.upstream_port);
    const std::vector<std::string> chain = subscriber_.upstream_path();
    relay["depth"] = static_cast<double>(1 + chain.size());
    relay["path"] = relay_path_header();
    relay["failed"] = subscriber_.any_failed();
    out["relay"] = relay;
  }
  {
    util::Json views;
    for (const auto& [view, s] : subscriber_.stats()) {
      util::Json v;
      v["frames"] = static_cast<double>(s.frames);
      v["full_frames"] = static_cast<double>(s.full_frames);
      v["delta_frames"] = static_cast<double>(s.delta_frames);
      v["resyncs"] = static_cast<double>(s.resyncs);
      v["reconnects"] = static_cast<double>(s.reconnects);
      v["epoch_changes"] = static_cast<double>(s.epoch_changes);
      v["restarts"] = static_cast<double>(s.restarts);
      v["last_upstream_seq"] = static_cast<double>(s.last_upstream_seq);
      v["last_local_seq"] = static_cast<double>(s.last_local_seq);
      v["sse"] = s.sse;
      v["failed"] = s.failed;
      if (!s.failure.empty()) v["failure"] = s.failure;
      views[view] = v;
    }
    out["subscriber"] = views;
  }
  {
    // The forwarding-without-decoding proof: every local publish must be
    // pre-encoded and the relay must never touch an encoder.
    util::Json hubs;
    for (const std::string& name : registry_.view_names()) {
      const std::shared_ptr<web::FrameHub> hub = registry_.find(name);
      if (!hub) continue;
      const web::FrameHub::Stats s = hub->stats();
      util::Json h;
      h["seq"] = static_cast<double>(hub->seq());
      h["published"] = static_cast<double>(s.published);
      h["served"] = static_cast<double>(s.served);
      h["timeouts"] = static_cast<double>(s.timeouts);
      h["waiting"] = static_cast<double>(s.waiting);
      h["image_encodes"] = static_cast<double>(s.image_encodes);
      h["preencoded_publishes"] = static_cast<double>(s.preencoded_publishes);
      hubs[name] = h;
    }
    out["views"] = hubs;
  }
  // Downstream pacing sessions (same shape as the origin's stats block).
  out["pacing"] = registry_.sessions().stats_json(web::mono_now_s());
  out["connections_open"] = static_cast<double>(server_.connections_open());
  out["requests_served"] = static_cast<double>(server_.requests_served());
  out["bytes_sent"] = static_cast<double>(server_.bytes_sent());
  web::HttpResponse response = web::HttpResponse::json(out.dump());
  response.headers["X-Relay-Path"] = relay_path_header();
  return response;
}

web::HttpResponse RelayNode::forward_post(const web::HttpRequest& request,
                                          const std::string& path) {
  std::string target = path;
  if (!request.query.empty()) target += "?" + request.query;
  try {
    web::HttpClient::RetryPolicy policy;
    policy.max_attempts = 3;
    web::HttpClient::Response upstream;
    {
      std::lock_guard<std::mutex> lock(forward_mutex_);
      upstream = forward_client_.post_with_retry(
          target, request.body, policy,
          request.headers.count("content-type")
              ? request.headers.at("content-type")
              : "application/json",
          5.0);
    }
    web::HttpResponse response = web::HttpResponse::json(upstream.body);
    response.status = upstream.status;
    return response;
  } catch (const std::exception& e) {
    return web::HttpResponse::json(
        std::string("{\"error\":\"upstream unreachable: ") + e.what() +
            "\"}",
        503);
  }
}

}  // namespace ricsa::relay
