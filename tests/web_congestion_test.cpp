// Pluggable congestion-controller tests:
//  * RMSA parity — RmsaPacingController behind the CongestionController
//    interface reproduces the raw RmsaController's sleep sequence
//    sample-for-sample (the refactor seam must be bit-identical)
//  * TrendlineController on synthetic delay series: overuse MD against
//    the incoming-rate estimate, one MD per excursion, hold on drain,
//    additive increase with the incoming-rate ceiling
//  * controller name parsing and the `client=` id sanitizer that keys the
//    session table.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "transport/congestion_controller.hpp"
#include "transport/rate_controller.hpp"
#include "web/session.hpp"

namespace t = ricsa::transport;
namespace w = ricsa::web;

namespace {

constexpr double kCadence = 0.05;  // 20 fps
constexpr double kMaxInterval = 1.0;

t::CongestionSample sample(double now_s, double offered_fps,
                           double achieved_fps, double rtt_s,
                           bool loss = false) {
  t::CongestionSample s;
  s.now_s = now_s;
  s.offered_fps = offered_fps;
  s.achieved_fps = achieved_fps;
  s.rtt_s = rtt_s;
  s.loss = loss;
  return s;
}

// ------------------------------------------------------------- RMSA parity

// The exact trace the pacing layer produces: offered/achieved frame rates
// with occasional losses, covering convergence, overshoot, and recovery.
struct TraceStep {
  double offered_fps;
  double achieved_fps;
  bool loss;
};

std::vector<TraceStep> recorded_trace() {
  std::vector<TraceStep> trace;
  for (int i = 0; i < 10; ++i) trace.push_back({20.0, 20.0, false});
  for (int i = 0; i < 15; ++i) trace.push_back({20.0, 6.0 + 0.3 * i, false});
  trace.push_back({12.0, 5.0, true});
  for (int i = 0; i < 20; ++i) trace.push_back({10.0, 9.5, false});
  trace.push_back({10.0, 2.0, true});
  for (int i = 0; i < 10; ++i) trace.push_back({5.0, 4.9, false});
  return trace;
}

TEST(RmsaParity, InterfaceReproducesRawControllerSleepForSleep) {
  t::ControllerConfig config;
  t::RmsaPacingController wrapped(config);
  wrapped.reset(kCadence, kCadence, kMaxInterval);

  // The raw controller exactly as web/session.hpp historically drove it:
  // frame-rate domain, one frame per burst, achieved rate as the target.
  t::RmsaConfig raw_config;
  raw_config.gain_a = config.rmsa_gain_a;
  raw_config.alpha = config.rmsa_alpha;
  raw_config.window = 1;
  raw_config.datagram_bytes = 1;
  raw_config.initial_sleep_s = kCadence;
  raw_config.min_sleep_s = kCadence;
  raw_config.max_sleep_s = kMaxInterval;
  t::RmsaController raw(raw_config);

  double now = 0.0;
  for (const TraceStep& step : recorded_trace()) {
    now += kCadence;
    raw.set_target(step.achieved_fps);
    const double raw_sleep =
        raw.update(t::RateFeedback{step.offered_fps, step.loss});
    const double wrapped_sleep = wrapped.update(
        sample(now, step.offered_fps, step.achieved_fps, 0.08, step.loss));
    ASSERT_DOUBLE_EQ(raw_sleep, wrapped_sleep);
    ASSERT_DOUBLE_EQ(raw.sleep_time(), wrapped.interval_s());
  }
}

TEST(RmsaParity, ResetRestartsTheGainScheduleIdentically) {
  t::ControllerConfig config;
  t::RmsaPacingController wrapped(config);
  wrapped.reset(kCadence, kCadence, kMaxInterval);
  for (int i = 0; i < 7; ++i) {
    wrapped.update(sample(i * kCadence, 20.0, 5.0, 0.1));
  }
  wrapped.reset(0.2, kCadence, kMaxInterval);

  t::RmsaConfig raw_config;
  raw_config.gain_a = config.rmsa_gain_a;
  raw_config.alpha = config.rmsa_alpha;
  raw_config.window = 1;
  raw_config.datagram_bytes = 1;
  raw_config.initial_sleep_s = 0.2;
  raw_config.min_sleep_s = kCadence;
  raw_config.max_sleep_s = kMaxInterval;
  t::RmsaController raw(raw_config);

  for (int i = 0; i < 12; ++i) {
    raw.set_target(8.0);
    const double raw_sleep = raw.update(t::RateFeedback{10.0, false});
    const double wrapped_sleep =
        wrapped.update(sample(1.0 + i * kCadence, 10.0, 8.0, 0.1));
    ASSERT_DOUBLE_EQ(raw_sleep, wrapped_sleep);
  }
}

TEST(RmsaParity, LegacyPlacementFlagsMatchTheHardWiredBehavior) {
  t::ControllerConfig config;
  t::RmsaPacingController rmsa(config);
  // The hard-wired controller stretched the interval only on the cheapest
  // tier and never vetoed a probe; the wrapped one must report the same.
  EXPECT_FALSE(rmsa.paces_all_tiers());
  EXPECT_TRUE(rmsa.probe_ok());
  EXPECT_EQ(rmsa.name(), "rmsa");
}

// ------------------------------------------------------------ trendline (GCC)

t::TrendlineController trendline_controller() {
  t::TrendlineController c;
  c.reset(kCadence, kCadence, kMaxInterval);
  return c;
}

TEST(Trendline, RampTriggersOveruseAgainstTheIncomingRate) {
  auto c = trendline_controller();
  double delay = 0.05;
  int i = 0;
  while (c.probe_ok() && i < 50) {
    delay += 0.02;
    c.update(sample(++i * kCadence, 20.0, 8.0, delay));
  }
  ASSERT_FALSE(c.probe_ok()) << "ramp never tripped the overuse detector";
  // The decrease invalidated the fitted trend along with the window.
  EXPECT_DOUBLE_EQ(c.slope(), 0.0);
  // The decrease lands at beta * incoming (8 fps), not beta * target.
  EXPECT_NEAR(1.0 / c.interval_s(), t::TrendlineController::kBeta * 8.0, 1e-9);
}

TEST(Trendline, OneExcursionCostsOneDecrease) {
  auto c = trendline_controller();
  double delay = 0.05;
  int i = 0;
  while (c.probe_ok() && i < 50) {
    delay += 0.02;
    c.update(sample(++i * kCadence, 20.0, 8.0, delay));
  }
  ASSERT_FALSE(c.probe_ok());
  const double after_md = 1.0 / c.interval_s();
  // The regression window was invalidated: the next two samples cannot
  // re-fit a slope, so the rate must not take a second decrease.
  c.update(sample(++i * kCadence, 20.0, 8.0, delay + 0.02));
  c.update(sample(++i * kCadence, 20.0, 8.0, delay + 0.04));
  EXPECT_GE(1.0 / c.interval_s(), after_md);
}

TEST(Trendline, DrainingQueueHoldsTheRate) {
  auto c = trendline_controller();
  c.reset(0.2, kCadence, kMaxInterval);
  // Steeply falling delay: underuse. The regression needs three samples
  // before a slope exists; from then on the law holds — neither AI nor MD.
  double delay = 0.5;
  for (int i = 0; i < 3; ++i) {
    delay -= 0.03;
    c.update(sample(i * kCadence, 5.0, 50.0, delay));
  }
  const double before = 1.0 / c.interval_s();
  for (int i = 3; i < 12; ++i) {
    delay -= 0.03;
    c.update(sample(i * kCadence, 5.0, 50.0, delay));
  }
  EXPECT_DOUBLE_EQ(1.0 / c.interval_s(), before);
}

TEST(Trendline, FlatDelayRampsAdditivelyUnderTheIncomingCeiling) {
  auto c = trendline_controller();
  c.reset(0.5, kCadence, kMaxInterval);
  // Flat delay = AI every sample, but never past achieved * headroom.
  for (int i = 0; i < 200; ++i) {
    c.update(sample(i * kCadence, 2.0, 6.0, 0.08));
  }
  EXPECT_NEAR(1.0 / c.interval_s(), 6.0 * t::TrendlineController::kHeadroom,
              1e-9);
}

// ------------------------------------------------------ knob parsing & ids

TEST(ControllerKnob, ParsesEveryAliasAndRejectsUnknown) {
  t::ControllerKind kind;
  EXPECT_TRUE(t::parse_controller_kind("rmsa", &kind));
  EXPECT_EQ(kind, t::ControllerKind::kRmsa);
  EXPECT_TRUE(t::parse_controller_kind("trendline", &kind));
  EXPECT_EQ(kind, t::ControllerKind::kTrendline);
  EXPECT_TRUE(t::parse_controller_kind("gcc", &kind));
  EXPECT_EQ(kind, t::ControllerKind::kTrendline);
  EXPECT_STREQ(t::controller_kind_name(t::ControllerKind::kTrendline),
               "trendline");
  EXPECT_FALSE(t::parse_controller_kind("gradient", &kind));
  EXPECT_FALSE(t::parse_controller_kind("timely", &kind));
  EXPECT_FALSE(t::parse_controller_kind("delay-gradient", &kind));
  EXPECT_FALSE(t::parse_controller_kind("vegas", &kind));
  EXPECT_FALSE(t::parse_controller_kind("", &kind));
}

TEST(ClientId, SanitizerAcceptsTokenCharactersOnly) {
  EXPECT_EQ(w::sanitize_client_id("tab-7_b.2-X"), "tab-7_b.2-X");
  // Anything outside [A-Za-z0-9._-], the empty id, and oversized ids all
  // collapse to "" (anonymous: no session is keyed).
  EXPECT_EQ(w::sanitize_client_id(""), "");
  EXPECT_EQ(w::sanitize_client_id("a b"), "");
  EXPECT_EQ(w::sanitize_client_id("x/../y"), "");
  EXPECT_EQ(w::sanitize_client_id("id\"</script>"), "");
  EXPECT_EQ(w::sanitize_client_id("a\r\nSet-Cookie:x"), "");
  EXPECT_EQ(w::sanitize_client_id(std::string(65, 'a')), "");
  EXPECT_EQ(w::sanitize_client_id(std::string(64, 'a')), std::string(64, 'a'));
}

}  // namespace
