#include "transport/congestion_controller.hpp"

#include <algorithm>
#include <cmath>

namespace ricsa::transport {
namespace {

/// The delay signal a law steers on: the measured round trip when the
/// transport produced one, else the kernel-drain time (an SSE stream whose
/// reader stalls shows backpressure there first), else nothing.
double delay_signal(const CongestionSample& sample) {
  if (sample.rtt_s >= 0.0) return sample.rtt_s;
  if (sample.drain_s >= 0.0) return sample.drain_s;
  return -1.0;
}

}  // namespace

const char* controller_kind_name(ControllerKind kind) {
  switch (kind) {
    case ControllerKind::kRmsa:
      return "rmsa";
    case ControllerKind::kTrendline:
      return "trendline";
  }
  return "rmsa";
}

bool parse_controller_kind(const std::string& name, ControllerKind* out) {
  if (name == "rmsa") {
    *out = ControllerKind::kRmsa;
  } else if (name == "trendline" || name == "gcc") {
    *out = ControllerKind::kTrendline;
  } else {
    return false;
  }
  return true;
}

// ------------------------------------------------------------------ RMSA --

RmsaPacingController::RmsaPacingController(const ControllerConfig& config)
    : config_(config) {
  reset(0.2, 0.2, 1.0);
}

void RmsaPacingController::reset(double initial_interval_s,
                                 double min_interval_s,
                                 double max_interval_s) {
  // Re-initializing restarts the Robbins-Monro gain schedule — the right
  // move whenever conditions changed (new tier, upward probe): the decayed
  // gain of the old schedule would barely track the new regime.
  RmsaConfig rmsa;
  rmsa.gain_a = config_.rmsa_gain_a;
  rmsa.alpha = config_.rmsa_alpha;
  // Frame-rate domain (the paper's Eq. 1 measures g in datagrams/s;
  // frames/s is the web analogue): one frame per burst.
  rmsa.window = 1;
  rmsa.datagram_bytes = 1;
  rmsa.initial_sleep_s =
      std::clamp(initial_interval_s, min_interval_s, max_interval_s);
  rmsa.min_sleep_s = min_interval_s;
  rmsa.max_sleep_s = max_interval_s;
  inner_ = std::make_unique<RmsaController>(rmsa);
}

double RmsaPacingController::update(const CongestionSample& sample) {
  const double delay = delay_signal(sample);
  if (delay >= 0.0) last_rtt_s_ = delay;
  // Eq. 1 with the web-layer roles: the rate under our control is the
  // offered frame rate and the reference it must converge to is the
  // client's achieved frame rate — offering more than the client drains
  // lengthens the sleep, offering less shortens it, and the fixed point is
  // offered == achieved (serve at the client's pace).
  inner_->set_target(sample.achieved_fps);
  return inner_->update(RateFeedback{sample.offered_fps, sample.loss});
}

double RmsaPacingController::interval_s() const {
  return inner_->sleep_time();
}

ControllerTelemetry RmsaPacingController::telemetry() const {
  ControllerTelemetry t;
  t.last_rtt_s = last_rtt_s_;
  return t;
}

// -------------------------------------------------------- trendline (GCC) --

TrendlineController::TrendlineController() { reset(0.2, 0.2, 2.0); }

void TrendlineController::reset(double initial_interval_s,
                                double min_interval_s,
                                double max_interval_s) {
  min_interval_s_ = std::max(min_interval_s, 1e-6);
  max_interval_s_ = std::max(max_interval_s, min_interval_s_);
  rate_fps_ = 1.0 / std::clamp(initial_interval_s, min_interval_s_,
                               max_interval_s_);
  smoothed_delay_s_ = -1.0;
  last_rtt_s_ = -1.0;
  slope_ = 0.0;
  overusing_ = false;
  window_.clear();
}

double TrendlineController::clamp_rate(double rate_fps) const {
  return std::clamp(rate_fps, 1.0 / max_interval_s_, 1.0 / min_interval_s_);
}

double TrendlineController::update(const CongestionSample& sample) {
  const double delay = delay_signal(sample);
  if (sample.loss) {
    rate_fps_ = clamp_rate(rate_fps_ * kBeta);
    return 1.0 / rate_fps_;
  }
  if (delay < 0.0) return 1.0 / rate_fps_;
  last_rtt_s_ = delay;
  smoothed_delay_s_ =
      smoothed_delay_s_ < 0.0
          ? delay
          : kSmoothing * smoothed_delay_s_ + (1.0 - kSmoothing) * delay;
  window_.emplace_back(sample.now_s, smoothed_delay_s_);
  while (window_.size() > kWindow) window_.pop_front();
  if (window_.size() >= 3) {
    // Least-squares slope of smoothed delay over arrival time: positive
    // trend = the bottleneck queue is filling.
    double mean_t = 0.0, mean_d = 0.0;
    for (const auto& [t, d] : window_) {
      mean_t += t;
      mean_d += d;
    }
    mean_t /= static_cast<double>(window_.size());
    mean_d /= static_cast<double>(window_.size());
    double num = 0.0, den = 0.0;
    for (const auto& [t, d] : window_) {
      num += (t - mean_t) * (d - mean_d);
      den += (t - mean_t) * (t - mean_t);
    }
    slope_ = den > 0.0 ? num / den : 0.0;
  }
  if (overusing_ && window_.size() < 3) {
    // The window is rebuilding after a decrease and holds no trend yet:
    // hold the rate and keep the overuse verdict until a slope is fitted.
  } else if (slope_ > kSlopeThreshold) {
    overusing_ = true;
    // GCC's decrease acts on the *incoming-rate estimate*, not the target:
    // beta times what the path actually delivered. Decreasing the target
    // multiplicatively against itself ratchets to the floor whenever the
    // delay series stays noisy, regardless of real capacity.
    const double incoming =
        sample.achieved_fps > 0.0 ? sample.achieved_fps : rate_fps_;
    rate_fps_ = clamp_rate(std::min(rate_fps_, kBeta * incoming));
    // A decrease invalidates the trend it was computed from: rebuild the
    // regression window (and the fitted slope) before the next decrease so
    // one queue excursion costs one MD, not one per sample.
    window_.clear();
    slope_ = 0.0;
  } else if (slope_ < -kSlopeThreshold) {
    // Underuse: the queue is draining after an overuse episode. Hold and
    // let the drain finish.
    overusing_ = false;
  } else {
    overusing_ = false;
    rate_fps_ = clamp_rate(rate_fps_ + kAddStepFps);
  }
  if (sample.achieved_fps > 0.0) {
    // Cap the target relative to the incoming-rate estimate (GCC's
    // 1.5x-incoming ceiling): probing is allowed, runaway targets are not.
    rate_fps_ =
        clamp_rate(std::min(rate_fps_, sample.achieved_fps * kHeadroom));
  }
  return 1.0 / rate_fps_;
}

double TrendlineController::interval_s() const { return 1.0 / rate_fps_; }

ControllerTelemetry TrendlineController::telemetry() const {
  ControllerTelemetry t;
  t.last_rtt_s = last_rtt_s_;
  t.gradient = slope_;
  return t;
}

std::unique_ptr<CongestionController> make_controller(
    const ControllerConfig& config) {
  switch (config.kind) {
    case ControllerKind::kTrendline:
      return std::make_unique<TrendlineController>();
    case ControllerKind::kRmsa:
      break;
  }
  return std::make_unique<RmsaPacingController>(config);
}

}  // namespace ricsa::transport
