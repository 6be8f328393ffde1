#include "relay/relay.hpp"

#include <string_view>
#include <utility>
#include <vector>

#include "util/json.hpp"
#include "util/strings.hpp"
#include "web/hub.hpp"

namespace ricsa::relay {
namespace {

/// Hub fan-out and HTTP route-handler worker threads of a relay node.
constexpr std::size_t kHubWorkers = 2;
constexpr std::size_t kHttpWorkers = 2;

web::HubRegistry::Config registry_config(const RelayNodeConfig& config,
                                         net::Reactor* reactor) {
  web::HubRegistry::Config out;
  out.hub.window = config.frame_window;
  out.hub.workers = kHubWorkers;
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

}  // namespace

RelayNode::RelayNode(RelayNodeConfig config)
    : config_(std::move(config)),
      registry_(registry_config(config_, &server_.reactor())),
      subscriber_(config_.subscriber, registry_),
      // Served through the origin's own code path. Differences: pacing
      // judges downstream promptness against the configured cadence, a
      // frame with no full body escalates a latched upstream resync, and
      // every frame/state response names the relay chain.
      frames_(registry_, config_.poll_timeout_s,
              {[cadence = config_.pacing.frame_interval_s] { return cadence; },
               [this](const std::string& view) {
                 subscriber_.request_resync(view);
               },
               [this] {
                 return web::FrameServer::Headers{
                     {"X-Relay-Path", relay_path_header()}};
               }}),
      forward_client_(config_.subscriber.upstream_port) {}

RelayNode::~RelayNode() { stop(); }

int RelayNode::start() {
  if (started_.exchange(true)) return server_.port();
  server_.route("GET", "/", [](const web::HttpRequest&) {
    return web::HttpResponse::text("ricsa relay node\n");
  });
  // The relay's loop check stands in front of the shared routes: a request
  // whose X-Relay-Path already names this node would close a cycle.
  server_.route("GET", "/api/state", [this](const web::HttpRequest& r) {
    return request_path_conflicts(r) ? loop_conflict() : frames_.state(r);
  });
  server_.route("GET", "/api/stats",
                [this](const web::HttpRequest& r) { return handle_stats(r); });
  server_.route_async("GET", "/api/poll",
                      [this](const web::HttpRequest& r,
                             web::HttpServer::ResponseSink sink) {
                        if (request_path_conflicts(r)) {
                          sink(loop_conflict());
                          return;
                        }
                        frames_.poll(r, std::move(sink));
                      });
  server_.route_stream("GET", "/api/stream",
                       [this](const web::HttpRequest& r,
                              web::HttpServer::StreamSink sink) {
                         if (request_path_conflicts(r)) {
                           web::stream_error(sink, 409, "relay loop: " +
                                                            relay_path_header());
                           return;
                         }
                         frames_.stream(r, std::move(sink));
                       });
  // Control traffic goes upstream: a relay can serve frames, only the
  // origin can steer the simulation or declare views.
  server_.route("POST", "/api/steer", [this](const web::HttpRequest& r) {
    return forward_post(r, "/api/steer");
  });
  server_.route("POST", "/api/view", [this](const web::HttpRequest& r) {
    return forward_post(r, "/api/view");
  });
  server_.set_workers(kHttpWorkers);
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

web::HttpResponse RelayNode::loop_conflict() const {
  web::HttpResponse conflict = web::HttpResponse::json(
      "{\"error\":\"relay loop\",\"path\":\"" + relay_path_header() + "\"}",
      409);
  conflict.headers["X-Relay-Path"] = relay_path_header();
  return conflict;
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
  // The origin's per-view hub counters carry the forwarding-without-
  // decoding proof: every local publish must be pre-encoded
  // (preencoded_publishes == published) and image_encodes must stay 0.
  web::add_node_stats(out, server_, registry_);
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
