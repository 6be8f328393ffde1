// Pluggable per-session congestion controllers for the web pacing stack.
//
// The paper's Robbins-Monro controller (Eq. 1, rate_controller.hpp) reacts
// to goodput utilization only: it cannot see queue growth until throughput
// has already collapsed, so slow-WAN sessions flap between quality tiers
// instead of settling. Both web transports (long-poll and SSE) measure a
// per-delivery round trip — response dispatch to kernel drain — that a
// delay-based law can steer on *before* the queue overflows.
//
// This interface abstracts the control law behind the per-session pacing in
// web/session.hpp. One feedback sample per completed delivery carries the
// rate signals (offered/achieved frame rate), the delay signals (RTT and
// kernel-drain time) and a loss flag; the controller proposes the next
// minimum inter-frame interval.
//
//  * RmsaPacingController — the paper's Eq. 1 in the frame-rate domain,
//    bit-identical to the previously hard-wired RmsaController usage.
//  * TrendlineController — GCC-style least-squares slope of the smoothed
//    delay series feeding an overuse detector driving AIMD.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <string>

#include "transport/rate_controller.hpp"

namespace ricsa::transport {

/// One completed-delivery feedback sample.
struct CongestionSample {
  double now_s = 0.0;
  /// Frame rate the session's pacing currently offers (frames/s).
  double offered_fps = 0.0;
  /// Frame rate the client demonstrably drains (frames/s).
  double achieved_fps = 0.0;
  /// Dispatch-to-drain round trip for this delivery, seconds; < 0 when the
  /// transport produced no sample.
  double rtt_s = -1.0;
  /// Kernel-drain time of this body (enqueue to socket-buffer empty),
  /// seconds; < 0 when unknown.
  double drain_s = -1.0;
  /// Delivery contract violated (drop, disconnect mid-write).
  bool loss = false;
};

/// Controller telemetry surfaced per session in /api/stats.
struct ControllerTelemetry {
  /// Most recent delay signal consumed (RTT or drain), seconds; < 0 when
  /// none has been seen yet.
  double last_rtt_s = -1.0;
  /// Delay derivative: the trendline slope in delay-seconds per second.
  /// 0 for RMSA.
  double gradient = 0.0;
};

class CongestionController {
 public:
  virtual ~CongestionController() = default;

  /// Consume one delivery sample; returns the proposed minimum inter-frame
  /// interval in seconds, within the [min, max] bounds of the last reset().
  virtual double update(const CongestionSample& sample) = 0;

  /// Restart the law (new tier, upward probe): interval bounds and the
  /// starting point, clamped into [min, max].
  virtual void reset(double initial_interval_s, double min_interval_s,
                     double max_interval_s) = 0;

  /// Current interval proposal without consuming a sample.
  virtual double interval_s() const = 0;

  /// True when the law's interval proposal applies at every quality tier.
  /// False reproduces the legacy RMSA placement: the interval is stretched
  /// only once the session already sits on the cheapest tier.
  virtual bool paces_all_tiers() const { return false; }

  /// Gate for upward probes: delay-based laws veto a tier/rate probe while
  /// the network still shows rising delay.
  virtual bool probe_ok() const { return true; }

  virtual std::string name() const = 0;
  virtual ControllerTelemetry telemetry() const { return {}; }
};

enum class ControllerKind { kRmsa, kTrendline };

const char* controller_kind_name(ControllerKind kind);
/// Parse a `controller=` knob value ("rmsa", "trendline"/"gcc"). Returns
/// false on an unknown name.
bool parse_controller_kind(const std::string& name, ControllerKind* out);

struct ControllerConfig {
  ControllerKind kind = ControllerKind::kRmsa;

  /// Robbins-Monro gain template (Eq. 1, frame-rate domain).
  double rmsa_gain_a = 1.0;
  double rmsa_alpha = 0.8;
};

/// The paper's Eq. 1 behind the pluggable interface. Wraps RmsaController
/// exactly the way web/session.hpp historically drove it: frame-rate
/// domain (window = 1, datagram_bytes = 1), the achieved rate as the
/// moving target g*, the offered rate as the measured goodput.
class RmsaPacingController final : public CongestionController {
 public:
  explicit RmsaPacingController(const ControllerConfig& config);

  double update(const CongestionSample& sample) override;
  void reset(double initial_interval_s, double min_interval_s,
             double max_interval_s) override;
  double interval_s() const override;
  std::string name() const override { return "rmsa"; }
  ControllerTelemetry telemetry() const override;

 private:
  ControllerConfig config_;
  std::unique_ptr<RmsaController> inner_;
  double last_rtt_s_ = -1.0;
};

/// GCC-style trendline estimator: least-squares slope of the smoothed
/// delay series drives an overuse detector driving AIMD on the frame rate.
class TrendlineController final : public CongestionController {
 public:
  TrendlineController();

  double update(const CongestionSample& sample) override;
  void reset(double initial_interval_s, double min_interval_s,
             double max_interval_s) override;
  double interval_s() const override;
  bool paces_all_tiers() const override { return true; }
  bool probe_ok() const override { return !overusing_; }
  std::string name() const override { return "trendline"; }
  ControllerTelemetry telemetry() const override;

  /// Fitted delay slope after the last sample, delay-seconds per second.
  double slope() const { return slope_; }

  static constexpr std::size_t kWindow = 20;       ///< regression samples.
  static constexpr double kSmoothing = 0.6;        ///< delay EWMA retention.
  static constexpr double kSlopeThreshold = 0.02;  ///< overuse, delay-s per s.
  static constexpr double kBeta = 0.85;            ///< MD factor on overuse.
  static constexpr double kAddStepFps = 0.5;       ///< additive step, frames/s.
  /// Offered-rate ceiling as a multiple of the achieved (incoming) rate —
  /// GCC caps the target bitrate relative to the incoming-rate estimate.
  static constexpr double kHeadroom = 1.5;

 private:
  double clamp_rate(double rate_fps) const;

  double min_interval_s_ = 1e-3;
  double max_interval_s_ = 2.0;
  double rate_fps_ = 1.0;
  double smoothed_delay_s_ = -1.0;
  double last_rtt_s_ = -1.0;
  double slope_ = 0.0;
  bool overusing_ = false;
  std::deque<std::pair<double, double>> window_;  // (now_s, smoothed delay)
};

/// Build the configured controller. The returned controller still needs a
/// reset() with the session's interval bounds before the first update().
std::unique_ptr<CongestionController> make_controller(
    const ControllerConfig& config);

}  // namespace ricsa::transport
