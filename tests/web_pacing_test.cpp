// Per-client adaptive pacing and long-poll robustness tests:
//  * ClientSession tier assignment, downgrade, upgrade-probe recovery, and
//    SessionTable idle expiry (the tier pipeline's control law, no sockets),
//    including the two branches only the trendline delay law takes: pacing
//    at every tier and the upward-probe veto
//  * /api/poll parameter sanitization — NaN / negative / malformed timeout
//    values must produce 400 or a clean 200-timeout, never reach the hub's
//    deadline arithmetic
//  * EINTR during a response write: the body keeps flowing instead of the
//    connection being treated as dead
//  * the idle read timeout is derived from the poll configuration, so a
//    legal long-poll config no longer kills keep-alive connections mid-poll
//  * end-to-end: a slow polling client is transparently downgraded while a
//    fast one keeps the full tier, and /api/stats reports the pacing state.
#include <gtest/gtest.h>
#include <pthread.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "relay/relay.hpp"
#include "time_scale.hpp"
#include "transport/congestion_controller.hpp"
#include "util/json.hpp"
#include "web/frontend.hpp"
#include "web/http.hpp"
#include "web/hub.hpp"
#include "web/session.hpp"

namespace w = ricsa::web;
namespace r = ricsa::relay;
namespace t = ricsa::transport;
using ricsa::util::Json;

namespace {

w::PacingConfig pacing_config() {
  w::PacingConfig p;
  p.frame_interval_s = 0.05;
  p.meter_window_s = 1.0;
  p.downgrade_streak = 2;
  p.upgrade_streak = 3;
  return p;
}

// Per-tier full-body sizes: full image, half image, state-only.
constexpr std::array<std::size_t, w::kTierCount> kSizes = {20000, 6000, 900};

w::FrontEndConfig small_frontend() {
  w::FrontEndConfig config;
  config.session.resolution = 16;
  config.session.cycles_per_frame = 1;
  config.session.viz.image_width = 32;
  config.session.viz.image_height = 32;
  config.frame_interval_s = 0.02;
  config.pacing.downgrade_streak = 2;
  config.pacing.upgrade_streak = 3;
  config.pacing.meter_window_s = 0.5;
  return config;
}

}  // namespace

// ----------------------------------------------------- ClientSession ----

TEST(ClientSession, FastClientStaysOnFullTier) {
  w::ClientSession s(pacing_config(), "fast", "127.0.0.1:1", 0.0);
  double t = 0.0;
  for (int i = 0; i < 40; ++i) {
    t += 0.05;  // polls at publisher cadence, drains everything offered
    s.on_delivered(t, kSizes[0], 0, s.tier(), 0.05);
  }
  EXPECT_EQ(s.tier(), w::Tier::kFull);
  const auto d = s.decide(t, 0.05);
  EXPECT_EQ(d.tier, w::Tier::kFull);
  EXPECT_EQ(d.not_before_s, 0.0);       // unpaced
  EXPECT_FALSE(d.skip_to_latest);       // gap-free window replay preserved
}

TEST(ClientSession, SlowClientDowngradesToCheapestTierAndIsPaced) {
  w::ClientSession s(pacing_config(), "slow", "", 0.0);
  double t = 0.0;
  for (int i = 0; i < 100; ++i) {
    t += 0.2;  // drains one frame per 0.2 s: a quarter of the offered rate
    s.on_delivered(t, kSizes[static_cast<std::size_t>(s.tier())], 0,
                   s.tier(), 0.05);
  }
  EXPECT_EQ(s.tier(), w::Tier::kStateOnly);
  // With even the cheapest tier under-drained, the Robbins-Monro interval
  // throttles the frame rate toward the client's demonstrated pace.
  EXPECT_GT(s.interval_s(), 0.05 * 1.25);
  const auto d = s.decide(t, 0.05);
  EXPECT_TRUE(d.skip_to_latest);
  EXPECT_GT(d.not_before_s, t);  // pacing window extends past "now"
  const Json stats = s.stats_json(t);
  EXPECT_EQ(stats.at("tier").as_string(), "state");
  EXPECT_GE(stats.at("downgrades").as_number(), 2.0);
}

TEST(ClientSession, ControllerGainTunesTheThrottledInterval) {
  // The Eq. 1 gain lives in one place, the law's own config: a session
  // built with a non-default pacing.controller.rmsa_gain_a must pace a
  // client on the cheapest tier differently from the default gain. (The
  // default saturates its first step at the interval ceiling; a gain of
  // 0.3 takes small steps.)
  const auto throttled_interval = [](double gain) {
    w::PacingConfig config = pacing_config();
    config.controller.rmsa_gain_a = gain;
    w::ClientSession s(config, "gain", "", 0.0);
    double t = 0.0;
    for (int i = 0; i < 12; ++i) {
      t += 0.2;  // drains a quarter of the offered rate
      s.on_delivered(t, kSizes[static_cast<std::size_t>(s.tier())], 0,
                     s.tier(), 0.05);
    }
    EXPECT_EQ(s.tier(), w::Tier::kStateOnly);
    return s.interval_s();
  };
  const double default_gain = throttled_interval(1.0);
  const double low_gain = throttled_interval(0.3);
  EXPECT_GT(low_gain, 0.05 * 1.25);  // throttled at all
  EXPECT_GT(std::abs(low_gain - default_gain), 0.01)
      << "default " << default_gain << " vs gain 0.3: " << low_gain;
}

TEST(ClientSession, DelayLawPacesTheFullTierOnRisingDelay) {
  // A client that drains everything offered while its per-delivery RTT
  // keeps climbing: a standing queue is building. The trendline law paces
  // every tier, so the interval stretches while the full tier holds (the
  // paper's law stretches it only on the cheapest tier).
  w::PacingConfig config = pacing_config();
  config.controller.kind = t::ControllerKind::kTrendline;
  w::ClientSession s(config, "queue", "", 0.0);
  double t = 0.0;
  for (int i = 1; i <= 30; ++i) {
    t += std::max(0.05, s.interval_s());
    s.on_delivered(t, kSizes[0], 0, s.tier(), 0.05, "", 0.05 + 0.01 * i);
  }
  EXPECT_EQ(s.tier(), w::Tier::kFull);
  EXPECT_GT(s.interval_s(), 0.05 * 1.25);
  EXPECT_GT(s.decide(t, 0.05).not_before_s, t);
}

TEST(ClientSession, DelayLawVetoesUpgradeProbesWhileDelayRises) {
  // A session knocked down to the half tier drains promptly for one
  // upgrade streak. Under flat delay the streak's last sample probes back
  // up. Under rising delay that sample is where the trendline law detects
  // overuse, so the probe waits until the delay stops rising — including
  // the samples right after the decrease, while the law's regression
  // window is still rebuilding.
  w::PacingConfig config = pacing_config();  // upgrade 3
  config.controller.kind = t::ControllerKind::kTrendline;
  // The law caps its rate at 1.5x the achieved rate, so only the first
  // slow sample falls below the downgrade threshold.
  config.downgrade_streak = 1;
  for (const double rise : {0.0, 0.1}) {
    w::ClientSession s(config, "probe", "", 0.0);
    double t = 0.2;
    double rtt = 0.05;
    s.on_delivered(t, kSizes[0], 0, s.tier(), 0.05, "", rtt);
    ASSERT_EQ(s.tier(), w::Tier::kHalf);
    for (int i = 0; i < config.upgrade_streak; ++i) {
      t += 0.05;
      rtt += rise;
      s.on_delivered(t, kSizes[1], 0, s.tier(), 0.05, "", rtt);
    }
    EXPECT_EQ(s.tier(), rise > 0.0 ? w::Tier::kHalf : w::Tier::kFull);
    if (rise == 0.0) {
      s.on_delivered(t + 0.05, kSizes[1], 0, s.tier(), 0.05, "", rtt);
      EXPECT_EQ(s.tier(), w::Tier::kFull);
      continue;
    }
    // The RTT is still rising on the fourth sample: still half.
    t += 0.05;
    rtt += rise;
    s.on_delivered(t, kSizes[1], 0, s.tier(), 0.05, "", rtt);
    EXPECT_EQ(s.tier(), w::Tier::kHalf);
    // Once the delay stops rising the probe fires.
    for (int i = 0; i < 20 && s.tier() != w::Tier::kFull; ++i) {
      t += 0.05;
      s.on_delivered(t, kSizes[1], 0, s.tier(), 0.05, "", rtt);
    }
    EXPECT_EQ(s.tier(), w::Tier::kFull);
  }
}

TEST(ClientSession, TierTransitionSuspendsDeltaUntilAFullBodyIsServed) {
  w::PacingConfig config = pacing_config();
  w::ClientSession s(config, "delta", "", 0.0);
  EXPECT_TRUE(s.decide(0.0, 0.05).allow_delta);  // steady tier: deltas fine
  double t = 0.0;
  while (s.tier() == w::Tier::kFull) {
    t += 0.2;
    s.on_delivered(t, kSizes[0], 0, w::Tier::kFull, 0.05);
  }
  // The previous delivery was full-tier but the next serve is half-tier: a
  // delta would omit the (unchanged) image and leave the client showing the
  // wrong resolution.
  EXPECT_FALSE(s.decide(t, 0.05).allow_delta);
  s.on_delivered(t + 0.2, kSizes[1], 0, s.tier(), 0.05);
  EXPECT_TRUE(s.decide(t + 0.2, 0.05).allow_delta);  // full body delivered; deltas resume
}

TEST(ClientSession, RecoveredClientUpgradesBackToFull) {
  w::ClientSession s(pacing_config(), "recovering", "", 0.0);
  double t = 0.0;
  for (int i = 0; i < 100; ++i) {
    t += 0.2;
    s.on_delivered(t, kSizes[static_cast<std::size_t>(s.tier())], 0,
                   s.tier(), 0.05);
  }
  ASSERT_EQ(s.tier(), w::Tier::kStateOnly);

  // The client recovers: it now drains every frame the pacing offers, as
  // fast as it is offered. Probes first restore the frame rate, then climb
  // the quality tiers.
  for (int i = 0; i < 500 && s.tier() != w::Tier::kFull; ++i) {
    t += std::max(0.05, s.interval_s());
    s.on_delivered(t, kSizes[static_cast<std::size_t>(s.tier())], 0,
                   s.tier(), 0.05);
  }
  EXPECT_EQ(s.tier(), w::Tier::kFull);
  EXPECT_LE(s.interval_s(), 0.05 * 1.25);
  EXPECT_GE(s.stats_json(t).at("upgrades").as_number(), 2.0);
}

TEST(ClientSession, FailedUpgradeProbesBackOffExponentially) {
  // A client parked exactly at its capacity boundary: every upward probe
  // gets knocked straight back down. Without backoff it re-probes (and the
  // user-visible quality flaps) every upgrade_streak samples forever; with
  // backoff the probe interval doubles per failure and resets on success.
  w::PacingConfig config = pacing_config();  // upgrade 3, downgrade 2
  config.max_probe_backoff = 8;
  w::ClientSession s(config, "boundary", "", 0.0);
  double t = 0.0;

  // Two under-drained samples knock the tier down one notch.
  const auto knock_down = [&] {
    for (int i = 0; i < 2; ++i) {
      t += 0.2;
      s.on_delivered(t, kSizes[static_cast<std::size_t>(s.tier())], 0,
                     s.tier(), 0.05);
    }
  };
  // Prompt samples until the probe upgrades back to full; returns how many
  // it took (the probe interval under the current backoff).
  const auto prompt_samples_until_full = [&] {
    for (int i = 1; i <= 50; ++i) {
      t += 0.05;
      s.on_delivered(t, kSizes[static_cast<std::size_t>(s.tier())], 0,
                     s.tier(), 0.05);
      if (s.tier() == w::Tier::kFull) return i;
    }
    return -1;
  };

  knock_down();
  ASSERT_EQ(s.tier(), w::Tier::kHalf);
  EXPECT_EQ(s.probe_backoff(), 1);

  EXPECT_EQ(prompt_samples_until_full(), 3);  // first probe: plain streak
  knock_down();                               // ...and it fails
  EXPECT_EQ(s.probe_backoff(), 2);
  EXPECT_EQ(prompt_samples_until_full(), 6);  // doubled interval
  knock_down();
  EXPECT_EQ(s.probe_backoff(), 4);
  EXPECT_EQ(prompt_samples_until_full(), 12);
  knock_down();
  EXPECT_EQ(s.probe_backoff(), 8);
  EXPECT_EQ(prompt_samples_until_full(), 24);
  knock_down();  // yet another failure cannot exceed the cap
  EXPECT_EQ(s.probe_backoff(), 8);
  EXPECT_EQ(prompt_samples_until_full(), 24);

  // This time the upgrade sticks: a full prompt streak at the richer tier
  // resets the backoff for future probes.
  for (int i = 0; i < 3; ++i) {
    t += 0.05;
    s.on_delivered(t, kSizes[0], 0, s.tier(), 0.05);
  }
  EXPECT_EQ(s.probe_backoff(), 1);
  EXPECT_EQ(s.stats_json(t).at("probe_backoff").as_number(), 1.0);
}

TEST(SessionTable, KeysSessionsAndExpiresIdleOnes) {
  w::PacingConfig config = pacing_config();
  config.idle_expiry_s = 60.0;
  w::SessionTable table(config);
  const auto a = table.acquire("a", "127.0.0.1:5", 0.0);
  const auto a2 = table.acquire("a", "127.0.0.1:5", 1.0);
  EXPECT_EQ(a.get(), a2.get());  // same id -> same session
  table.acquire("b", "", 1.0);
  EXPECT_EQ(table.size(), 2u);

  // "a" (last touched at 1.0 via acquire) and "b" both expire by t=100.
  table.acquire("c", "", 100.0);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.expired(), 2u);

  const Json stats = table.stats_json(100.0);
  EXPECT_EQ(stats.at("sessions").as_number(), 1.0);
  EXPECT_EQ(stats.at("expired").as_number(), 2.0);
  EXPECT_EQ(stats.at("tiers").at("full").as_number(), 1.0);
  EXPECT_EQ(stats.at("clients").as_array().size(), 1u);
}

TEST(SessionTable, CapsLiveSessionsAndRefusesBeyondIt) {
  w::PacingConfig config = pacing_config();
  config.max_sessions = 4;
  config.idle_expiry_s = 10.0;
  w::SessionTable table(config);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(table.acquire("id" + std::to_string(i), "", 0.0), nullptr);
  }
  // Table full: a fifth distinct id is refused (served unpaced by the
  // caller) while existing ids still resolve.
  EXPECT_EQ(table.acquire("overflow", "", 0.5), nullptr);
  EXPECT_NE(table.acquire("id2", "", 0.5), nullptr);
  EXPECT_EQ(table.size(), 4u);
  // Once the old sessions expire, new ids are admitted again.
  EXPECT_NE(table.acquire("overflow", "", 20.0), nullptr);
}

// ------------------------------------------- /api/poll param sanitizing ----

TEST(PollParams, NaNNegativeAndMalformedTimeoutsNeverReachTheHub) {
  w::AjaxFrontEnd fe(small_frontend());
  const int origin_port = fe.start();
  // A relay serves the same contract through the same code: every probe
  // below runs against both servers.
  r::RelayNodeConfig relay_config;
  relay_config.subscriber.upstream_port = origin_port;
  relay_config.subscriber.views = {"main"};
  relay_config.subscriber.relay_id = "params-relay";
  relay_config.poll_timeout_s = 5.0;
  r::RelayNode relay(relay_config);
  relay.start();
  const auto relay_hub = relay.registry().find("main");
  while (fe.frame_seq() == 0 || relay_hub->seq() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  for (const int port : {origin_port, relay.port()}) {
    SCOPED_TRACE(port == origin_port ? "origin" : "relay");
    // std::stod("nan") parses without throwing; it must still be rejected.
    EXPECT_EQ(w::http_get(port, "/api/poll?since=0&timeout=nan").status, 400);
    EXPECT_EQ(w::http_get(port, "/api/poll?since=0&timeout=-nan").status, 400);
    // Entirely non-numeric input is a 400, not a silent default.
    EXPECT_EQ(w::http_get(port, "/api/poll?since=0&timeout=soon").status, 400);
    EXPECT_EQ(w::http_get(port, "/api/poll?since=xyz&timeout=1").status, 400);
    // std::stoull would silently wrap "-1" to 2^64-1; it must be a 400.
    EXPECT_EQ(w::http_get(port, "/api/poll?since=-1&timeout=1").status, 400);
    // Trailing garbage is not a number either.
    EXPECT_EQ(w::http_get(port, "/api/poll?since=5xyz&timeout=1").status, 400);
    EXPECT_EQ(w::http_get(port, "/api/poll?since=0&timeout=2abc").status, 400);
    // A view the publisher never declared is a 404.
    EXPECT_EQ(w::http_get(port, "/api/poll?view=nope&timeout=1").status, 404);

    // A negative timeout clamps to zero: with a future cursor (clamped to
    // the head, waiting for the next publish) that means an immediate,
    // clean 200-timeout — not a negative deadline in the hub. The relay's
    // local seqs trail the origin's, so this cursor is ahead on both.
    const std::uint64_t future = fe.frame_seq() + 1000;
    const auto t0 = std::chrono::steady_clock::now();
    const auto neg = w::http_get(
        port, "/api/poll?since=" + std::to_string(future) + "&timeout=-5");
    EXPECT_EQ(neg.status, 200);
    EXPECT_TRUE(Json::parse(neg.body).contains("timeout"));
    EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count(),
              2.0);
    // The timeout echoes the client's own cursor; a relay names itself.
    EXPECT_EQ(Json::parse(neg.body).at("seq").as_number(),
              static_cast<double>(future));
    if (port == relay.port()) {
      ASSERT_TRUE(neg.headers.count("x-relay-path"));
      EXPECT_EQ(neg.headers.at("x-relay-path"), "params-relay");
    }

    // +inf is finite-bounded by the configured ceiling, and a frame already
    // exists, so this returns it immediately.
    const auto inf = w::http_get(port, "/api/poll?since=0&timeout=inf");
    EXPECT_EQ(inf.status, 200);
    EXPECT_GE(Json::parse(inf.body).at("seq").as_number(), 1.0);
  }
  relay.stop();
  fe.stop();
}

// ------------------------------------------------- EINTR mid-response ----

namespace {
void noop_handler(int) {}
}  // namespace

TEST(HttpWrite, WriteAllSurvivesEintrMidResponse) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  // Shrink the buffers so the writer blocks mid-body and signals land
  // inside send().
  const int small = 4096;
  ::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  ::setsockopt(sv[1], SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));

  // Install a no-op SIGUSR1 handler WITHOUT SA_RESTART: blocked send()
  // calls return -1/EINTR instead of resuming transparently.
  struct sigaction sa {};
  sa.sa_handler = noop_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  struct sigaction previous {};
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &previous), 0);

  const std::string payload(4u << 20, 'x');
  std::atomic<bool> write_ok{false};
  std::thread writer([&] {
    write_ok = w::detail::write_all(sv[0], payload.data(), payload.size());
  });
  const pthread_t handle = writer.native_handle();

  // Drain slowly while peppering the writer with signals. Signals stop
  // well before the tail so the thread is guaranteed alive for every
  // pthread_kill (the writer cannot finish while megabytes are undrained).
  std::size_t got = 0;
  char buf[8192];
  int iterations = 0;
  while (got < payload.size()) {
    if (got + (1u << 20) < payload.size()) {
      ASSERT_EQ(pthread_kill(handle, SIGUSR1), 0);
    }
    const ssize_t n = ::recv(sv[1], buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    got += static_cast<std::size_t>(n);
    if (++iterations % 16 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  writer.join();
  EXPECT_TRUE(write_ok.load());  // EINTR retried, full body delivered
  EXPECT_EQ(got, payload.size());

  ::sigaction(SIGUSR1, &previous, nullptr);
  ::close(sv[0]);
  ::close(sv[1]);
}

// ------------------------------------------------- idle read timeout ----

TEST(Http, IdleReadTimeoutGovernsAsyncResponseSurvival) {
  // Scaled-down reproduction of the 30 s constant bug: an async (long-poll
  // style) response completing after the idle read timeout dies with the
  // connection; one completing within it is delivered. The application must
  // therefore derive the read timeout from its poll configuration.
  std::vector<std::thread> repliers;
  std::mutex repliers_mutex;
  const auto slow_route = [&](const w::HttpRequest&,
                              w::HttpServer::ResponseSink sink) {
    std::lock_guard<std::mutex> lock(repliers_mutex);
    repliers.emplace_back([sink] {
      std::this_thread::sleep_for(std::chrono::milliseconds(600));
      sink(w::HttpResponse::text("late"));
    });
  };

  {
    w::HttpServer strict;
    strict.set_idle_read_timeout(0.2);  // shorter than the response delay
    strict.route_async("GET", "/slow", slow_route);
    const int port = strict.start();
    w::HttpClient client(port);
    EXPECT_THROW(client.get("/slow", 5.0), std::runtime_error);
    {
      std::lock_guard<std::mutex> lock(repliers_mutex);
      for (auto& t : repliers) t.join();
      repliers.clear();
    }
    strict.stop();
  }
  {
    w::HttpServer lenient;
    lenient.set_idle_read_timeout(2.0);  // derived-above-the-delay behaviour
    lenient.route_async("GET", "/slow", slow_route);
    const int port = lenient.start();
    w::HttpClient client(port);
    EXPECT_EQ(client.get("/slow", 5.0).body, "late");
    {
      std::lock_guard<std::mutex> lock(repliers_mutex);
      for (auto& t : repliers) t.join();
      repliers.clear();
    }
    lenient.stop();
  }
}

TEST(AjaxFrontEnd, ReadTimeoutDerivedFromPollConfiguration) {
  // A poll timeout beyond the old hard-coded 30 s read constant is a legal
  // configuration and must not be able to kill keep-alive connections
  // mid-poll: the derived read timeout always exceeds it.
  w::FrontEndConfig config = small_frontend();
  config.poll_timeout_s = 60.0;
  w::AjaxFrontEnd fe(config);
  EXPECT_GT(fe.server().idle_read_timeout_s(), 60.0);
}

// ----------------------------------------------- end-to-end pacing ----

TEST(AjaxFrontEndPacing, SlowClientDowngradedFastClientKeepsFullTier) {
  w::AjaxFrontEnd fe(small_frontend());
  const int port = fe.start();
  while (fe.frame_seq() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  const auto poll_loop = [port](const std::string& client, double delay_s,
                                double duration_s, std::string& last_tier) {
    w::HttpClient http(port);
    std::uint64_t since = 0;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(duration_s);
    while (std::chrono::steady_clock::now() < deadline) {
      Json body;
      try {
        body = Json::parse(http.get("/api/poll?since=" + std::to_string(since) +
                                        "&timeout=1&client=" + client,
                                    5.0)
                               .body);
      } catch (const std::exception&) {
        continue;
      }
      if (body.contains("timeout")) continue;
      since = static_cast<std::uint64_t>(body.at("seq").as_number());
      if (body.contains("tier")) last_tier = body.at("tier").as_string();
      if (delay_s > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(delay_s));
      }
    }
  };

  std::string slow_tier = "?", fast_tier = "?";
  std::thread slow([&] { poll_loop("slow-e2e", 0.12, 2.5, slow_tier); });
  std::thread fast([&] { poll_loop("fast-e2e", 0.0, 2.5, fast_tier); });
  slow.join();
  fast.join();

  if (ricsa_test::kTimeScale > 1.0) {
    // The downgrade decision keys on absolute time constants — frame
    // cadence, goodput horizons, idle cutoffs — that an instrumented
    // build skews non-uniformly (stretching the think time instead just
    // makes the session look idle). Under TSAN this test is race
    // coverage for concurrent pollers against the session table, not a
    // pacing-outcome check.
    fe.stop();
    GTEST_SKIP() << "pacing outcome requires native-speed timing";
  }

  // The slow poller (6x the frame interval) ends on a cheaper tier; the
  // prompt one keeps the full stream.
  EXPECT_TRUE(slow_tier == "half" || slow_tier == "state") << slow_tier;
  EXPECT_EQ(fast_tier, "full");

  // /api/stats exposes the session table and per-client pacing detail.
  const Json stats = Json::parse(w::http_get(port, "/api/stats").body);
  const Json& pacing = stats.at("pacing");
  EXPECT_GE(pacing.at("sessions").as_number(), 2.0);
  bool saw_slow = false;
  for (const Json& client : pacing.at("clients").as_array()) {
    if (client.at("client").as_string() != "slow-e2e") continue;
    saw_slow = true;
    EXPECT_NE(client.at("tier").as_string(), "full");
    EXPECT_GT(client.at("goodput_Bps").as_number(), 0.0);
    EXPECT_GE(client.at("delivered").as_number(), 3.0);
    EXPECT_TRUE(client.contains("interval_s"));
    EXPECT_TRUE(client.contains("peer"));
  }
  EXPECT_TRUE(saw_slow);
  fe.stop();
}

TEST(AjaxFrontEndPacing, ClientlessPollsKeepTheLegacyContract) {
  // No `client` parameter -> no session: full tier, gap-free replay, and no
  // entry in the session table.
  w::AjaxFrontEnd fe(small_frontend());
  const int port = fe.start();
  while (fe.frame_seq() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const Json body =
      Json::parse(w::http_get(port, "/api/poll?since=0&timeout=5").body);
  EXPECT_EQ(body.at("tier").as_string(), "full");
  EXPECT_TRUE(body.contains("image_b64"));
  EXPECT_EQ(fe.sessions().size(), 0u);
  fe.stop();
}
