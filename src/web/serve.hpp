// Downstream serving of the frame contract — /api/poll, /api/stream and
// /api/state — for the origin (AjaxFrontEnd) and a relay (RelayNode) alike:
// query `since` (cursor), `timeout`, `view`, `delta=1`, `full=1` and a
// `client` id that binds the registry's pacing session. Both transports
// pick the body the same way and account it with the same session calls.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "util/json.hpp"
#include "web/http.hpp"
#include "web/hub.hpp"
#include "web/registry.hpp"

namespace ricsa::web {

/// Strict cursor parse: std::stoull silently negates a leading '-' ("-1"
/// wraps to 2^64-1) and ignores trailing garbage, so insist on a digit up
/// front and a full parse.
bool parse_since(const std::string& raw, std::uint64_t& out);

/// Strict wait-timeout parse: std::stod accepts "nan" and negatives
/// without throwing, and either would poison the hub's deadline
/// arithmetic. Clamps to [0, ceiling].
bool parse_timeout(const std::string& raw, double ceiling, double& out);

/// Error path for a stream route: a non-200 chunked response with a short
/// text body. EventSource treats any non-200 as a fatal error, which is
/// what drives the dashboard's fallback to long-poll.
void stream_error(const HttpServer::StreamSink& sink, int status,
                  const std::string& message);

/// One shard's counters, the per-view block of /api/stats.
util::Json hub_stats_json(const FrameHub& hub);

/// Add the /api/stats keys every serving node reports to `out`: each live
/// shard's counters (`views`), the pacing sessions (`pacing`) and the
/// server's connection and byte counters.
void add_node_stats(util::Json& out, const HttpServer& server,
                    const HubRegistry& registry);

class FrameServer {
 public:
  using Headers = std::map<std::string, std::string>;

  /// What differs between the nodes serving the contract.
  struct Hooks {
    /// Publish period pacing judges clients against, read once per poll
    /// and once per stream event. Required.
    std::function<double()> cadence_s;
    /// Called with the view when a frame cannot answer a client for lack
    /// of a full body (a relayed delta-only frame; an origin never
    /// publishes one): the client then waits for a later frame. May be
    /// empty.
    std::function<void(const std::string& view)> request_resync;
    /// Headers added to every frame, timeout and state response (not to
    /// 400/404 errors). May be empty.
    std::function<Headers()> extra_headers;
  };

  /// `registry` must outlive the server and every wait it parks: the
  /// owner stops its HttpServer, then shuts the registry down, before
  /// destroying this object.
  FrameServer(HubRegistry& registry, double poll_timeout_s, Hooks hooks);

  /// Shard for the request's `view=` (the default view when absent),
  /// reviving a reaped shard of a known name; null for names the
  /// publisher never declared.
  std::shared_ptr<FrameHub> hub_for(const HttpRequest& request);

  void poll(const HttpRequest& request, HttpServer::ResponseSink sink);
  void stream(const HttpRequest& request, HttpServer::StreamSink sink);
  HttpResponse state(const HttpRequest& request);

 private:
  struct Query;
  struct Poll;
  struct Stream;

  /// Parse the query both transports take into `q`. Returns the reason to
  /// refuse the request (a 404 when `q.hub` is null, else a 400), or "".
  std::string parse(const HttpRequest& request, Query& q);
  /// The pacing session the request's `client=` id names, or null.
  std::shared_ptr<ClientSession> session_for(const HttpRequest& request);

  /// Park `p` on its hub until a frame that answers it, or its deadline.
  void park(const std::shared_ptr<Poll>& p);
  /// One step of the push loop: wait, push one event, and arm the next
  /// step from the event's drained callback.
  void pump(const std::shared_ptr<Stream>& s);
  void add_extra_headers(Headers& headers) const;

  HubRegistry& registry_;
  const double poll_timeout_s_;
  const Hooks hooks_;
};

}  // namespace ricsa::web
