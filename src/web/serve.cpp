#include "web/serve.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "net/buffer_chain.hpp"
#include "web/session.hpp"

namespace ricsa::web {

namespace {

using Clock = std::chrono::steady_clock;

const std::map<std::string, std::string> kSseHeaders = {
    {"Content-Type", "text/event-stream"}, {"Cache-Control", "no-cache"}};

/// One wait's pacing decision: the session's, or without a session the
/// unpaced legacy contract (full tier, gap-free window replay).
ClientSession::Decision decide(ClientSession* session,
                               const std::string& view, double cadence) {
  if (session == nullptr) return {};
  return session->decide(mono_now_s(), cadence, view);
}

/// The hub wait a decision implies (timeout left to the caller).
FrameHub::WaitOptions wait_options(const ClientSession::Decision& decision) {
  FrameHub::WaitOptions options;
  options.latest_only = decision.skip_to_latest;
  const double now = mono_now_s();
  if (decision.not_before_s > now) {
    options.not_before =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               decision.not_before_s - now));
  }
  return options;
}

/// Body selection, cheapest first. A cursor exactly one frame behind (same
/// tier as its previous delivery) gets the prebuilt sequential delta body.
/// A cursor further behind — the paced / skipping client — gets a delta
/// assembled against its *actual* cursor frame, from the publish-time tile
/// encodes, while that frame remains in the retention window. Everyone
/// else (fresh clients, cursors past the window edge, tier changes, full=1
/// resyncs, stale-epoch resyncs) gets the full snapshot. Prebuilt bodies
/// ride as aliased frame buffers (body_shared): N watchers of one frame
/// share one allocation. Only a cursor-anchored delta — unique to this
/// client — is a fresh string. `tier` is updated to the tier served: a
/// pre-encoded frame carries only kFull, so the session's tier (and its
/// delta veto, which guards tier changes that cannot happen here) is moot.
std::shared_ptr<const std::string> select_body(const FrameHub& hub,
                                               const FramePtr& frame,
                                               std::uint64_t since,
                                               bool want_delta, Tier& tier,
                                               bool allow_delta) {
  if (frame->preencoded) {
    tier = Tier::kFull;
    allow_delta = true;
  }
  want_delta = want_delta && allow_delta;
  std::shared_ptr<const std::string> body;
  if (want_delta && frame->seq == since + 1) {
    body = body_shared(frame, tier, true);
  } else if (want_delta && since > 0 && frame->seq > since + 1) {
    std::string assembled = hub.delta_body_for(frame, since, tier);
    if (!assembled.empty()) {
      body = std::make_shared<const std::string>(std::move(assembled));
    }
  }
  if (!body || body->empty()) body = body_shared(frame, tier, false);
  return body;
}

std::uint64_t skipped_between(std::uint64_t since, std::uint64_t seq) {
  return (since != 0 && seq > since + 1) ? seq - since - 1 : 0;
}

/// Stamp the dispatch of a body to `session` now and return the callback
/// that accounts its delivery when the body has drained into the kernel:
/// the pair brackets enqueue → socket-buffer empty, the per-delivery RTT
/// the delay-based controllers steer on, and TCP backpressure from a slow
/// reader shows up as drain latency. Empty without a session.
std::function<void()> dispatch(const std::shared_ptr<ClientSession>& session,
                               const std::string& view, std::size_t bytes,
                               std::uint64_t skipped, Tier tier,
                               double cadence) {
  if (!session) return nullptr;
  session->note_dispatch(mono_now_s(), view);
  return [session, view, bytes, skipped, tier, cadence] {
    session->on_delivered(mono_now_s(), bytes, skipped, tier, cadence, view);
  };
}

}  // namespace

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

void stream_error(const HttpServer::StreamSink& sink, int status,
                  const std::string& message) {
  sink.begin({{"Content-Type", "text/plain; charset=utf-8"}}, status);
  sink.chunk(message + "\n");
  sink.end();
}

util::Json hub_stats_json(const FrameHub& hub) {
  const FrameHub::Stats s = hub.stats();
  util::Json out;
  out["seq"] = static_cast<double>(hub.seq());
  out["published"] = static_cast<double>(s.published);
  out["served"] = static_cast<double>(s.served);
  out["timeouts"] = static_cast<double>(s.timeouts);
  out["waiting"] = static_cast<double>(s.waiting);
  out["waiting_peak"] = static_cast<double>(s.waiting_peak);
  out["image_encodes"] = static_cast<double>(s.image_encodes);
  out["preencoded_publishes"] = static_cast<double>(s.preencoded_publishes);
  out["image_bytes_in"] = static_cast<double>(s.image_bytes_in);
  out["image_bytes_out"] = static_cast<double>(s.image_bytes_out);
  return out;
}

void add_node_stats(util::Json& out, const HttpServer& server,
                    const HubRegistry& registry) {
  util::Json views;
  for (const std::string& name : registry.view_names()) {
    const std::shared_ptr<FrameHub> hub = registry.find(name);
    if (hub) views[name] = hub_stats_json(*hub);
  }
  out["views"] = views;
  // Per-client adaptive pacing: session count, tier occupancy, and the
  // per-session goodput/interval/tier detail. Registry-level — sessions
  // span views.
  out["pacing"] = registry.sessions().stats_json(mono_now_s());
  out["connections_open"] = static_cast<double>(server.connections_open());
  out["bytes_sent"] = static_cast<double>(server.bytes_sent());
  out["requests_served"] = static_cast<double>(server.requests_served());
}

/// The query both transports take, parsed.
struct FrameServer::Query {
  std::shared_ptr<FrameHub> hub;
  std::string view;
  std::shared_ptr<ClientSession> session;
  std::uint64_t since = 0;
  /// Where the next wait parks: `since`, advanced past frames that could
  /// not answer the client. Body selection and skip accounting stay
  /// anchored on `since`, the last frame the client actually received.
  std::uint64_t cursor = 0;
  double timeout_s = 0.0;
  bool want_delta = false;  // delta=1
  /// full=1, the client's resync escape hatch: a browser whose canvas
  /// composite failed (or that otherwise lost track of what it shows)
  /// asks for a complete frame regardless of its cursor.
  bool full = false;
};

/// One long-poll in flight.
struct FrameServer::Poll : Query {
  HttpServer::ResponseSink sink;
  ClientSession::Decision decision;
  double cadence = 0.0;
  Clock::time_point deadline;
};

/// One SSE subscription: the stream-side twin of a long-poll loop. `full`
/// holds until the first event, a complete frame; deltas resume from
/// there. `timeout_s` bounds each wait: when it elapses without a frame
/// the stream emits a keepalive comment and waits again.
struct FrameServer::Stream : Query {
  HttpServer::StreamSink sink;
};

FrameServer::FrameServer(HubRegistry& registry, double poll_timeout_s,
                         Hooks hooks)
    : registry_(registry),
      poll_timeout_s_(poll_timeout_s),
      hooks_(std::move(hooks)) {}

void FrameServer::add_extra_headers(Headers& headers) const {
  if (!hooks_.extra_headers) return;
  for (auto& [name, value] : hooks_.extra_headers()) headers[name] = value;
}

std::shared_ptr<FrameHub> FrameServer::hub_for(const HttpRequest& request) {
  const std::string view = request.query_param("view");
  return registry_.subscribe(view.empty() ? registry_.default_view_name()
                                          : view);
}

std::string FrameServer::parse(const HttpRequest& request, Query& q) {
  q.view = request.query_param("view");
  if (q.view.empty()) q.view = registry_.default_view_name();
  q.hub = registry_.subscribe(q.view);
  if (!q.hub) return "not found";
  if (!parse_since(request.query_param("since", "0"), q.since)) {
    return "since must be a non-negative integer";
  }
  q.cursor = q.since;
  q.timeout_s = poll_timeout_s_;
  const std::string timeout_raw = request.query_param("timeout");
  if (!timeout_raw.empty() &&
      !parse_timeout(timeout_raw, poll_timeout_s_, q.timeout_s)) {
    return "timeout must be a number, not NaN";
  }
  q.want_delta = request.query_param("delta", "0") == "1";
  q.full = request.query_param("full", "0") == "1";
  return {};
}

std::shared_ptr<ClientSession> FrameServer::session_for(
    const HttpRequest& request) {
  // Per-client adaptive pacing: a `client` identifier opts the request into
  // a session whose measured goodput picks the quality tier and the minimum
  // inter-frame interval. The id is attacker-chosen input that becomes a
  // map key: an invalid one (over-long, bad charset) is treated as absent,
  // and a null session (table at its cap) falls through to the unpaced
  // path too. One table for every view and both transports: a browser
  // polling two shards, or switching transports, keeps one meter and
  // controller.
  const std::string client = sanitize_client_id(request.query_param("client"));
  if (client.empty()) return nullptr;
  return registry_.sessions().acquire(client, request.peer, mono_now_s());
}

void FrameServer::poll(const HttpRequest& request,
                       HttpServer::ResponseSink sink) {
  auto p = std::make_shared<Poll>();
  if (const std::string error = parse(request, *p); !error.empty()) {
    sink(p->hub ? HttpResponse::bad_request(error) : HttpResponse::not_found());
    return;
  }
  p->cadence = hooks_.cadence_s();
  p->session = session_for(request);
  p->decision = decide(p->session.get(), p->view, p->cadence);
  p->deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(p->timeout_s));
  p->sink = std::move(sink);
  park(p);
}

void FrameServer::park(const std::shared_ptr<Poll>& p) {
  FrameHub::WaitOptions options = wait_options(p->decision);
  options.timeout_s = std::max(
      0.0, std::chrono::duration<double>(p->deadline - Clock::now()).count());
  const auto timed_out = [this, p] {
    // Echo the client's own cursor, not the current head: a publish racing
    // this timeout must not let the client advance past a frame it never
    // received.
    HttpResponse response = HttpResponse::json(
        "{\"seq\":" + std::to_string(p->since) + ",\"timeout\":true}");
    add_extra_headers(response.headers);
    p->sink(response);
    if (p->session) p->session->on_timeout(mono_now_s());
  };
  // The completion holds the hub: a shard reaped mid-wait stays alive (shut
  // down, but valid) until its last parked completion ran.
  p->hub->wait_async(p->cursor, options, [this, p,
                                          timed_out](FramePtr frame) {
    if (!frame) {
      timed_out();
      return;
    }
    Tier tier = p->decision.tier;
    std::shared_ptr<const std::string> body =
        select_body(*p->hub, frame, p->since, p->want_delta && !p->full,
                    tier, p->decision.allow_delta);
    if (body->empty()) {
      // A delta-only frame that cannot answer this client (fresh join,
      // full=1, or a skip past the sequential chain). Escalate a resync and
      // re-park just past this frame until a snapshot lands or the poll
      // deadline passes. Synchronous completions recurse at most
      // window-depth before parking for real.
      if (hooks_.request_resync) hooks_.request_resync(p->view);
      if (Clock::now() >= p->deadline) {
        timed_out();
        return;
      }
      p->cursor = frame->seq;
      park(p);
      return;
    }
    const std::size_t bytes = body->size();
    HttpResponse response = HttpResponse::json_shared(std::move(body));
    add_extra_headers(response.headers);
    p->sink(response, dispatch(p->session, p->view, bytes,
                               skipped_between(p->since, frame->seq), tier,
                               p->cadence));
  });
}

void FrameServer::stream(const HttpRequest& request,
                         HttpServer::StreamSink sink) {
  auto s = std::make_shared<Stream>();
  if (const std::string error = parse(request, *s); !error.empty()) {
    stream_error(sink, s->hub ? 400 : 404, error);
    return;
  }
  // Unlike a poll — where the client pays a round-trip per retry — the
  // keepalive loop here is server-driven, so a zero timeout would spin it
  // at wire speed. Floor it.
  s->timeout_s = std::max(s->timeout_s, 0.05);

  Headers headers = kSseHeaders;
  add_extra_headers(headers);
  sink.begin(std::move(headers));
  // HEAD: the headers a stream would carry were sent and the connection
  // closed — never a parked suppressed infinite body.
  if (sink.head_only()) return;

  s->sink = std::move(sink);
  s->session = session_for(request);
  pump(s);
}

// The step makes the same pacing decision a poll would, parks on the hub,
// and on completion pushes the same body a poll would have carried. The
// next step is armed only from the chunk's drained callback, so a slow
// consumer paces its own stream through TCP backpressure — and feeds the
// goodput meter drain-time timestamps, exactly what on_delivered sees on
// the poll path. No unbounded recursion: chunk() always defers through a
// reactor post, so each event breaks the call chain.
void FrameServer::pump(const std::shared_ptr<Stream>& s) {
  if (!s->sink.alive()) return;
  const double cadence = hooks_.cadence_s();
  const ClientSession::Decision decision =
      decide(s->session.get(), s->view, cadence);
  FrameHub::WaitOptions options = wait_options(decision);
  options.timeout_s = s->timeout_s;
  s->hub->wait_async(s->cursor, options, [this, s, decision,
                                         cadence](FramePtr frame) {
    if (!frame) {
      if (s->hub->is_shutdown()) {
        // The shard is gone — reaped idle or server stopping. End the
        // stream cleanly (terminal chunk, close); a reconnecting client
        // brings its stale cursor and takes the same clamp-to-head resync
        // long-pollers take against a revived shard.
        s->sink.end();
        return;
      }
      if (s->session) s->session->on_timeout(mono_now_s());
      // Comment line: feeds the client's liveness timer without touching
      // onmessage, the SSE idiom for "still here, nothing new".
      s->sink.chunk(": keepalive\n\n", [this, s] { pump(s); });
      return;
    }
    Tier tier = decision.tier;
    std::shared_ptr<const std::string> body =
        select_body(*s->hub, frame, s->since, s->want_delta && !s->full,
                    tier, decision.allow_delta);
    if (body->empty()) {
      // Delta-only frame under a full requirement: skip it, escalate a
      // resync, and keep waiting for the snapshot — parked past this frame,
      // but with the client's own cursor kept for the next body.
      if (hooks_.request_resync) hooks_.request_resync(s->view);
      s->cursor = frame->seq;
      pump(s);
      return;
    }
    s->full = false;
    const std::uint64_t skipped = skipped_between(s->since, frame->seq);
    s->since = s->cursor = frame->seq;
    // The event is a chain, not a concatenation: tiny copied framing lines
    // bracket the shared body buffer (compact JSON: never carries a raw
    // newline), which rides to the socket without being copied per client.
    const std::size_t bytes = body->size();
    net::BufferChain event;
    event.append_copy("id: " + std::to_string(frame->seq) + "\ndata: ");
    event.append_shared(std::move(body));
    event.append_copy("\n\n");
    std::function<void()> delivered =
        dispatch(s->session, s->view, bytes, skipped, tier, cadence);
    s->sink.chunk(std::move(event), [this, s,
                                     delivered = std::move(delivered)] {
      if (delivered) delivered();
      // A stream subscribes once but consumes continuously; each drained
      // event counts as subscriber activity for the shard's idle-reap
      // clock, as each poll's subscribe() does.
      registry_.touch(s->view);
      pump(s);
    });
  });
}

HttpResponse FrameServer::state(const HttpRequest& request) {
  const std::shared_ptr<FrameHub> hub = hub_for(request);
  if (!hub) return HttpResponse::not_found();
  util::Json out;
  const FramePtr frame = hub->latest();
  out["seq"] = static_cast<double>(frame ? frame->seq : 0);
  out["state"] = frame ? frame->state : util::Json();
  HttpResponse response = HttpResponse::json(out.dump());
  add_extra_headers(response.headers);
  return response;
}

}  // namespace ricsa::web
