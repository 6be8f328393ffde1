// Relay fan-out subsystem tests: the pre-encoded hub publish path, the
// render-skip registry query, end-to-end frame forwarding through a relay
// node (seq rebasing, delta continuity, the never-decodes counters, the
// relay's own /api/state), resync through an upstream restart, serving-side escalation latching,
// full-tier serving to a paced client below the full tier,
// topology guards (cycle and depth-cap aborts), the long-poll transport
// fallback, and the hardened HttpClient retry schedule.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"
#include "relay/relay.hpp"
#include "relay/subscriber.hpp"
#include "util/json.hpp"
#include "viz/image.hpp"
#include "web/frontend.hpp"
#include "web/http.hpp"
#include "web/registry.hpp"
#include "web/session.hpp"

namespace w = ricsa::web;
namespace r = ricsa::relay;
using ricsa::util::Json;

namespace {

/// First top-level `"seq":` digit run in a compact poll body.
std::uint64_t body_seq(const std::string& body) {
  const std::size_t pos = body.find("\"seq\":");
  if (pos == std::string::npos) return 0;
  return std::strtoull(body.c_str() + pos + 6, nullptr, 10);
}

std::uint64_t body_base_seq(const std::string& body) {
  const std::size_t pos = body.find("\"base_seq\":");
  if (pos == std::string::npos) return 0;
  return std::strtoull(body.c_str() + pos + 11, nullptr, 10);
}

bool body_is_full(const std::string& body) {
  return body.find("\"delta\":false") != std::string::npos;
}

w::FrontEndConfig small_origin() {
  w::FrontEndConfig config;
  config.session.resolution = 16;
  config.session.cycles_per_frame = 1;
  config.session.viz.image_width = 32;
  config.session.viz.image_height = 32;
  config.frame_interval_s = 0.03;
  config.tile_size = 16;
  return config;
}

r::RelayNodeConfig small_relay(int upstream_port,
                               const std::string& id = "relay-under-test") {
  r::RelayNodeConfig config;
  config.subscriber.upstream_port = upstream_port;
  config.subscriber.views = {"main"};
  config.subscriber.relay_id = id;
  config.subscriber.backoff_initial_s = 0.02;
  config.subscriber.backoff_max_s = 0.25;
  config.poll_timeout_s = 5.0;
  return config;
}

void wait_for_relay_head(r::RelayNode& relay, std::uint64_t seq,
                         int budget_ms = 5000) {
  const auto hub = relay.registry().find("main");
  ASSERT_NE(hub, nullptr);
  for (int i = 0; i < budget_ms / 10 && hub->seq() < seq; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(hub->seq(), seq);
}

}  // namespace

// ----------------------------------------------- pre-encoded publishes ----

TEST(PublishEncoded, RoundTripsBodiesWithoutTouchingAnEncoder) {
  w::FrameHub::Config config;
  config.window = 8;
  config.workers = 1;
  w::FrameHub hub(config);

  w::FrameHub::PreEncoded full;
  full.full_body = "{\"delta\":false,\"seq\":1,\"x\":\"full-one\"}";
  EXPECT_EQ(hub.publish_encoded(std::move(full)), 1u);

  w::FrameHub::PreEncoded delta;
  delta.delta_body = "{\"base_seq\":1,\"delta\":true,\"seq\":2,\"x\":\"d\"}";
  EXPECT_EQ(hub.publish_encoded(std::move(delta)), 2u);

  const w::FramePtr first = hub.next_after(0);
  ASSERT_NE(first, nullptr);
  ASSERT_EQ(first->seq, 1u);
  EXPECT_EQ(first->body(w::Tier::kFull, false),
            "{\"delta\":false,\"seq\":1,\"x\":\"full-one\"}");
  // A full-only pre-encoded frame has no delta body.
  EXPECT_EQ(first->body(w::Tier::kFull, true), "");
  const w::FramePtr second = hub.next_after(1);
  ASSERT_NE(second, nullptr);
  ASSERT_EQ(second->seq, 2u);
  EXPECT_EQ(second->body(w::Tier::kFull, true),
            "{\"base_seq\":1,\"delta\":true,\"seq\":2,\"x\":\"d\"}");
  EXPECT_EQ(second->body(w::Tier::kFull, false), "");

  const w::FrameHub::Stats stats = hub.stats();
  EXPECT_EQ(stats.published, 2u);
  EXPECT_EQ(stats.preencoded_publishes, 2u);
  EXPECT_EQ(stats.image_encodes, 0u);
  hub.shutdown();
}

TEST(PublishEncoded, RegistryPathDeclaresViewsAndSkipsDecimation) {
  w::HubRegistry::Config config;
  config.hub.window = 8;
  config.hub.workers = 1;
  config.idle_reap_s = 0.0;
  // The relayed body is already rebased: every frame must land.
  w::HubRegistry registry(config);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    w::FrameHub::PreEncoded pre;
    pre.full_body = "{\"delta\":false,\"seq\":" + std::to_string(i) + "}";
    EXPECT_EQ(registry.publish_encoded("relayed", std::move(pre)), i);
  }
  EXPECT_EQ(registry.find("relayed")->seq(), 6u);
  registry.shutdown();
}

// ------------------------------------------------- end-to-end forward ----

TEST(RelayNode, ForwardsFramesWithLocalSeqsAndNeverDecodes) {
  w::AjaxFrontEnd origin(small_origin());
  const int origin_port = origin.start();
  r::RelayNode relay(small_relay(origin_port));
  relay.start();
  wait_for_relay_head(relay, 3);

  // Downstream joins the relay exactly as it would the origin.
  const auto state = w::http_get(relay.port(), "/api/state");
  EXPECT_EQ(state.status, 200);
  std::uint64_t since = body_seq(state.body);
  EXPECT_GE(since, 3u);

  // Sequential polls ride rebased deltas: strictly +1 local seqs, each
  // delta anchored on the previous local frame.
  int full_bodies = 0;
  for (int i = 0; i < 5; ++i) {
    const auto poll = w::http_get(
        relay.port(),
        "/api/poll?since=" + std::to_string(since) + "&delta=1&timeout=5");
    ASSERT_EQ(poll.status, 200);
    const std::uint64_t seq = body_seq(poll.body);
    EXPECT_EQ(seq, since + 1);
    if (body_is_full(poll.body)) {
      ++full_bodies;
    } else if (poll.body.find("\"base_seq\":") != std::string::npos) {
      // Sequential deltas are anchored implicitly (base = seq - 1) and
      // omit base_seq; when present it must name the client's cursor.
      EXPECT_EQ(body_base_seq(poll.body), since);
    }
    since = seq;
  }
  // Steady state is all deltas (the join frame was the only full).
  EXPECT_EQ(full_bodies, 0);

  // The never-decodes proof: every relay publish was pre-encoded and the
  // relay never touched a PNG/base64 encoder.
  const auto hub = relay.registry().find("main");
  const w::FrameHub::Stats stats = hub->stats();
  EXPECT_EQ(stats.image_encodes, 0u);
  EXPECT_EQ(stats.preencoded_publishes, stats.published);
  EXPECT_GT(stats.published, 0u);

  // Relay identity in /api/stats, X-Relay-Path on responses.
  const auto st = w::http_get(relay.port(), "/api/stats");
  EXPECT_EQ(st.status, 200);
  EXPECT_NE(st.body.find("\"relay\""), std::string::npos);
  EXPECT_NE(st.body.find("relay-under-test"), std::string::npos);
  ASSERT_TRUE(st.headers.count("x-relay-path"));
  EXPECT_EQ(st.headers.at("x-relay-path"), "relay-under-test");

  // The subscriber negotiated the SSE stream (transport auto).
  const auto sub_stats = relay.subscriber().stats();
  ASSERT_EQ(sub_stats.size(), 1u);
  EXPECT_TRUE(sub_stats[0].second.sse);
  EXPECT_FALSE(sub_stats[0].second.failed);

  relay.stop();
  origin.stop();
}

TEST(RelayNode, StateCarriesTheOriginsStateUnderTheRelaysSeq) {
  w::AjaxFrontEnd origin(small_origin());
  const int origin_port = origin.start();
  r::RelayNode relay(small_relay(origin_port));
  relay.start();
  wait_for_relay_head(relay, 5);

  // The relay joined with one full body, then merged key deltas: keys that
  // never change after the join (view, variable) must survive the deltas,
  // and the per-frame cycle must be the newest one.
  const auto state = w::http_get(relay.port(), "/api/state");
  ASSERT_EQ(state.status, 200);
  const Json parsed = Json::parse(state.body);
  const std::uint64_t seq = body_seq(state.body);
  ASSERT_GE(seq, 5u);
  const Json& st = parsed.at("state");
  ASSERT_TRUE(st.is_object()) << state.body;
  EXPECT_EQ(st.at("view").as_string(), "main");
  EXPECT_TRUE(st.at("variable").is_string());
  ASSERT_TRUE(st.at("cycle").is_number());

  // The state belongs to the relay's frame `seq`: that frame's sequential
  // delta (the origin advances its cycle every frame) names the same cycle.
  const auto poll = w::http_get(
      relay.port(),
      "/api/poll?since=" + std::to_string(seq - 1) + "&delta=1&timeout=5");
  ASSERT_EQ(poll.status, 200);
  ASSERT_EQ(body_seq(poll.body), seq);
  EXPECT_EQ(Json::parse(poll.body).at("state").at("cycle").as_number(),
            st.at("cycle").as_number());

  relay.stop();
  origin.stop();
}

TEST(RelayNode, LongPollTransportForwardsToo) {
  w::AjaxFrontEnd origin(small_origin());
  const int origin_port = origin.start();
  r::RelayNodeConfig config = small_relay(origin_port, "poll-relay");
  config.subscriber.transport = "poll";
  config.subscriber.poll_timeout_s = 1.0;
  r::RelayNode relay(config);
  relay.start();
  wait_for_relay_head(relay, 3);

  const auto state = w::http_get(relay.port(), "/api/state");
  const std::uint64_t since = body_seq(state.body);
  const auto poll = w::http_get(
      relay.port(),
      "/api/poll?since=" + std::to_string(since) + "&delta=1&timeout=5");
  ASSERT_EQ(poll.status, 200);
  EXPECT_EQ(body_seq(poll.body), since + 1);

  const auto sub_stats = relay.subscriber().stats();
  ASSERT_EQ(sub_stats.size(), 1u);
  EXPECT_FALSE(sub_stats[0].second.sse);
  EXPECT_GT(sub_stats[0].second.frames, 0u);

  relay.stop();
  origin.stop();
}

// ------------------------------------------------ restart resync path ----

TEST(RelayNode, UpstreamRestartPropagatesAsCleanResync) {
  auto origin = std::make_unique<w::AjaxFrontEnd>(small_origin());
  const int origin_port = origin->start();
  r::RelayNode relay(small_relay(origin_port, "restart-relay"));
  relay.start();
  wait_for_relay_head(relay, 3);

  std::uint64_t since = body_seq(w::http_get(relay.port(), "/api/state").body);
  ASSERT_GT(since, 0u);

  // Kill the origin mid-stream. The relay's upstream connection breaks and
  // its reconnect loop starts spinning against a dead port.
  origin->stop();
  origin.reset();

  // Restart the origin on the same port (listen_loopback sets
  // SO_REUSEADDR), with a fresh seq space starting at 1 — an epoch change
  // the relay must absorb.
  w::FrontEndConfig again = small_origin();
  again.port = origin_port;
  origin = std::make_unique<w::AjaxFrontEnd>(again);
  ASSERT_EQ(origin->start(), origin_port);

  // Downstream keeps polling its local cursor and must see: strictly
  // increasing local seqs, a full-frame resync (never a misanchored
  // delta), and then flowing frames — zero gaps, zero errors.
  bool saw_full_resync = false;
  int frames_after_restart = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (frames_after_restart < 5 &&
         std::chrono::steady_clock::now() < deadline) {
    const auto poll = w::http_get(
        relay.port(),
        "/api/poll?since=" + std::to_string(since) + "&delta=1&timeout=2");
    ASSERT_EQ(poll.status, 200);
    if (poll.body.find("\"timeout\":true") != std::string::npos) continue;
    const std::uint64_t seq = body_seq(poll.body);
    ASSERT_GT(seq, since);
    if (body_is_full(poll.body)) {
      saw_full_resync = true;
    } else if (poll.body.find("\"base_seq\":") != std::string::npos) {
      // A cursor-anchored delta must name the previous local frame;
      // sequential deltas omit base_seq (anchored implicitly at seq - 1).
      EXPECT_EQ(body_base_seq(poll.body), since);
    }
    if (saw_full_resync) ++frames_after_restart;
    since = seq;
  }
  EXPECT_TRUE(saw_full_resync);
  EXPECT_GE(frames_after_restart, 5);

  // The subscriber recorded the outage as reconnects and a resync-worthy
  // event, and still never decoded a frame.
  const auto hub = relay.registry().find("main");
  const w::FrameHub::Stats stats = hub->stats();
  EXPECT_EQ(stats.image_encodes, 0u);
  EXPECT_EQ(stats.preencoded_publishes, stats.published);
  const auto sub_stats = relay.subscriber().stats();
  EXPECT_GT(sub_stats[0].second.reconnects, 0u);
  EXPECT_FALSE(sub_stats[0].second.failed);

  relay.stop();
  origin->stop();
}

// ---------------------------------------------- escalation is latched ----

TEST(RelayNode, FullFrameEscalationServesSnapshotsAndLatches) {
  w::AjaxFrontEnd origin(small_origin());
  const int origin_port = origin.start();
  r::RelayNode relay(small_relay(origin_port, "escalate-relay"));
  relay.start();
  wait_for_relay_head(relay, 4);

  const std::uint64_t head =
      body_seq(w::http_get(relay.port(), "/api/state").body);
  ASSERT_GT(head, 1u);
  const std::uint64_t resyncs_before =
      relay.subscriber().stats()[0].second.resyncs;

  // Several clients demand a full snapshot at once. The relay head is a
  // delta-only frame (steady state), so the relay must escalate upstream —
  // once, thanks to the latch — and every client must still get a full
  // body before its deadline.
  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::atomic<int> full_served{0};
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      const auto poll = w::http_get(
          relay.port(), "/api/poll?since=" + std::to_string(head - 1) +
                            "&full=1&timeout=5");
      if (poll.status == 200 && body_is_full(poll.body) &&
          body_seq(poll.body) >= head) {
        ++full_served;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(full_served.load(), kClients);

  // The latch kept the upstream escalation count below the client count:
  // the four concurrent demands collapse into one resync (a straggler
  // arriving after the first resync completed may add another).
  const std::uint64_t escalations =
      relay.subscriber().stats()[0].second.resyncs - resyncs_before;
  EXPECT_GE(escalations, 1u);
  EXPECT_LE(escalations, 3u);

  relay.stop();
  origin.stop();
}

// ------------------------------------------ paced clients, relayed tier ----

TEST(RelayNode, ClientBelowFullTierStillGetsFullTierSequentialDeltas) {
  // A relayed frame carries only the full tier's bodies. A client whose
  // session sits on a cheaper tier must still be served — and accounted —
  // at the full tier: asking the frame for a half-tier body finds none,
  // falls back to the full body a delta-only frame lacks, and turns every
  // poll into an upstream resync.
  w::FrontEndConfig origin_config = small_origin();
  // Room between one poll's answer and the next poll's arrival, so each
  // poll parks before the next frame and is answered sequentially.
  origin_config.frame_interval_s = 0.25;
  w::AjaxFrontEnd origin(origin_config);
  const int origin_port = origin.start();
  r::RelayNodeConfig config = small_relay(origin_port, "tier-relay");
  // Only the staged samples below may move the tier, not the live polls.
  config.pacing.downgrade_streak = 8;
  r::RelayNode relay(config);
  relay.start();
  wait_for_relay_head(relay, 2);

  // Stage the session on the half tier with slow deliveries on another
  // view, old enough to sit outside the meter window: "main" stays
  // unpaced and its first delivery is the test's.
  const double now = w::mono_now_s();
  const auto session =
      relay.registry().sessions().acquire("slow-client", "", now - 30.0);
  ASSERT_NE(session, nullptr);
  for (int i = 0; i < 8; ++i) {
    session->on_delivered(now - 28.0 + 2.0 * i, 1000, 0, w::Tier::kFull,
                          config.pacing.frame_interval_s, "staging");
  }
  ASSERT_EQ(session->tier(), w::Tier::kHalf);

  const auto relay_resyncs = [&] {
    const Json stats = Json::parse(w::http_get(relay.port(), "/api/stats").body);
    return stats.at("subscriber").at("main").at("resyncs").as_number();
  };
  const double resyncs_before = relay_resyncs();
  std::uint64_t since = body_seq(w::http_get(relay.port(), "/api/state").body);
  for (int i = 0; i < 4; ++i) {
    const auto poll = w::http_get(
        relay.port(), "/api/poll?since=" + std::to_string(since) +
                          "&delta=1&client=slow-client&timeout=5");
    ASSERT_EQ(poll.status, 200);
    ASSERT_EQ(body_seq(poll.body), since + 1) << poll.body;
    EXPECT_FALSE(body_is_full(poll.body)) << poll.body;
    since = body_seq(poll.body);
  }
  EXPECT_EQ(relay_resyncs(), resyncs_before);
  // Every relay delivery reached the session's meters (8 staged + 4).
  const Json pacing =
      Json::parse(w::http_get(relay.port(), "/api/stats").body).at("pacing");
  EXPECT_GE(pacing.at("clients").as_array().at(0).at("delivered").as_number(),
            12.0);

  relay.stop();
  origin.stop();
}

// ------------------------------------------------- topology guards ----

TEST(RelayNode, SelfSubscriptionIsRejectedAsACycle) {
  // A relay pointed at itself: its own X-Relay-Path id comes straight
  // back, the server side answers 409 at the join, and the subscriber
  // aborts permanently instead of building a forwarding loop. The
  // self-loop needs the port known up front (subscriber config is
  // captured at construction), so reserve an ephemeral port by binding
  // and closing a listener, then bind the relay to it explicitly.
  const int port = [] {
    auto probe = ricsa::net::Socket::listen_loopback(0);
    return probe.local_port();
  }();
  r::RelayNodeConfig self = small_relay(port, "ouroboros");
  self.port = port;
  r::RelayNode node(self);
  ASSERT_EQ(node.start(), port);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!node.subscriber().any_failed() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(node.subscriber().any_failed());
  const auto stats = node.subscriber().stats();
  EXPECT_TRUE(stats[0].second.failed);
  EXPECT_FALSE(stats[0].second.failure.empty());
  node.stop();
}

TEST(RelayNode, DepthCapAbortsTheSubscription) {
  w::AjaxFrontEnd origin(small_origin());
  const int origin_port = origin.start();
  r::RelayNode tier1(small_relay(origin_port, "tier-1"));
  tier1.start();
  wait_for_relay_head(tier1, 2);

  // tier-2 would be the second relay hop; with max_depth 1 its own
  // presence already exceeds the cap once it sees tier-1 in the response
  // chain.
  r::RelayNodeConfig config = small_relay(tier1.port(), "tier-2");
  config.subscriber.max_depth = 1;
  r::RelayNode tier2(config);
  tier2.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!tier2.subscriber().any_failed() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(tier2.subscriber().any_failed());
  const auto stats = tier2.subscriber().stats();
  EXPECT_NE(stats[0].second.failure.find("depth"), std::string::npos);

  // A deep-enough cap chains fine: tier-3 at the default depth cap serves
  // frames three hops from the origin.
  r::RelayNodeConfig ok = small_relay(tier1.port(), "tier-2-ok");
  r::RelayNode tier2ok(ok);
  tier2ok.start();
  {
    const auto hub = tier2ok.registry().find("main");
    ASSERT_NE(hub, nullptr);
    for (int i = 0; i < 500 && hub->seq() < 2; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GE(hub->seq(), 2u);
  }
  // The learned chain names the upstream relay, depth included in stats.
  const auto chain = tier2ok.subscriber().upstream_path();
  ASSERT_EQ(chain.size(), 1u);
  EXPECT_EQ(chain[0], "tier-1");

  tier2ok.stop();
  tier2.stop();
  tier1.stop();
  origin.stop();
}

// ----------------------------------------------- HttpClient hardening ----

TEST(HttpClientRetry, RetriesBareFiveOhThreesWithCappedBackoff) {
  w::HttpServer server;
  std::atomic<int> hits{0};
  server.route("GET", "/flaky", [&](const w::HttpRequest&) {
    // Two bare 503s (no Retry-After), then success: the retry schedule
    // must carry the caller across without help from the server.
    if (++hits <= 2) return w::HttpResponse::text("busy", 503);
    return w::HttpResponse::text("ok");
  });
  const int port = server.start();

  w::HttpClient client(port);
  w::HttpClient::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_s = 0.01;
  policy.max_backoff_s = 0.05;
  const auto response = client.get_with_retry("/flaky", policy);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "ok");
  EXPECT_EQ(hits.load(), 3);

  // Attempts exhausted: the final 503 comes back instead of an exception.
  hits = -100;
  const auto still_busy = client.get_with_retry("/flaky", policy);
  EXPECT_EQ(still_busy.status, 503);
  server.stop();
}

TEST(HttpClientRetry, HttpDateRetryAfterFallsBackToSchedule) {
  w::HttpServer server;
  std::atomic<int> hits{0};
  server.route("GET", "/flaky", [&](const w::HttpRequest&) {
    // RFC 7231 allows Retry-After to be an HTTP-date (or any junk, from a
    // misbehaving server). Neither is a delay in seconds: a client that
    // runs them through strtod reads 0 off the day name (a hot retry
    // loop) and "nan" even survives std::min against the backoff cap. A
    // non-numeric header must fall back to the capped exponential
    // schedule as if it were absent.
    const int hit = ++hits;
    if (hit <= 2) {
      auto resp = w::HttpResponse::text("busy", 503);
      resp.headers["Retry-After"] =
          hit == 1 ? "Fri, 08 Aug 2026 12:00:00 GMT" : "nan";
      return resp;
    }
    return w::HttpResponse::text("ok");
  });
  const int port = server.start();

  w::HttpClient client(port);
  w::HttpClient::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_s = 0.05;
  policy.max_backoff_s = 0.1;
  const auto t0 = std::chrono::steady_clock::now();
  const auto response = client.get_with_retry("/flaky", policy);
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(hits.load(), 3);
  // Both failed attempts waited out the schedule (0.05 s + 0.1 s): not the
  // zero-delay hot loop of a mis-parsed date, and nowhere near the stall a
  // nan backoff would produce.
  EXPECT_GE(elapsed_s, 0.15);
  EXPECT_LT(elapsed_s, 5.0);
  server.stop();
}

TEST(HttpClientRetry, SurfacesConnectErrorsDistinctly) {
  // A port with nothing behind it: grab an ephemeral port and close it.
  const int dead_port = [] {
    auto probe = ricsa::net::Socket::listen_loopback(0);
    return probe.local_port();
  }();
  w::HttpClient client(dead_port);
  w::HttpClient::RetryPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff_s = 0.01;
  policy.max_backoff_s = 0.02;
  try {
    client.get_with_retry("/", policy, 1.0);
    FAIL() << "expected HttpError";
  } catch (const w::HttpError& e) {
    EXPECT_EQ(e.kind(), w::HttpError::Kind::kConnect);
  }
}
