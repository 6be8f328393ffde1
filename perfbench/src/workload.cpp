#include "workload.hpp"

#include <array>

#include "util/prng.hpp"

namespace perfbench {

namespace {

using ricsa::cost::VizRequest;
using ricsa::hydro::HydroSimulation;

WorkloadSpec monitor_iso() {
  WorkloadSpec w;
  w.name = "monitor_iso";
  w.session.simulation = HydroSimulation::Kind::kBowshock;
  w.session.resolution = 40;
  w.session.viz.technique = VizRequest::Technique::kIsosurface;
  // Density 5 wraps the dense source and the compressed shock layer in
  // front of it: a non-empty, slowly evolving surface. (The default 0.5
  // lies below the ambient density, so its surface vanishes once the
  // start-up rarefaction has passed, leaving a blank frame.)
  w.session.viz.isovalue = 5.0f;
  w.frame_interval_s = 0.002;
  // Three times the dashboard's ~2/s: a 40 s window then holds ~240
  // steers, enough for steer_p90_ms to be a true p90 (at least ten samples
  // beyond it) rather than the lower percentile 80 steers would support.
  w.steer_rate_hz = 6.0;
  return w;
}

WorkloadSpec wire_relay() {
  WorkloadSpec w;
  w.name = "wire_relay";
  w.session.simulation = HydroSimulation::Kind::kBowshock;
  w.session.resolution = 16;
  w.session.viz.technique = VizRequest::Technique::kIsosurface;
  w.session.viz.isovalue = 5.0f;
  w.session.viz.image_width = 64;
  w.session.viz.image_height = 64;
  w.frame_interval_s = 0.010;
  w.relay_cadence_s = 0.05;
  w.warmup_frames = 300;
  w.wan_cadence_s = 0.0135;
  w.wan_tier_bytes = {2500.0, 900.0, 700.0};
  w.steer_rate_hz = 10.0;
  return w;
}

struct Knob {
  const char* name;
  double base;
};
/// Bowshock parameters with their defaults; steers perturb them by <1%.
/// Steers rotate through all five, so one parameter is steered again only
/// five steers later — never twice within one frame, which would let the
/// second value hide the first.
constexpr std::array<Knob, 5> kKnobs = {{{"gamma", 1.4},
                                          {"mach", 2.5},
                                          {"cfl", 0.4},
                                          {"source_density", 10.0},
                                          {"source_pressure", 2.5}}};

}  // namespace

std::optional<WorkloadSpec> workload_by_name(const std::string& name) {
  if (name == "monitor_iso") return monitor_iso();
  if (name == "wire_relay") return wire_relay();
  return std::nullopt;
}

std::vector<std::string> workload_names() {
  return {"monitor_iso", "wire_relay"};
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed, double seconds) {
  Inputs in;
  in.seed = seed;
  ricsa::util::Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ull + spec.name.size());
  const double mean_gap = 1.0 / spec.steer_rate_hz;
  const std::size_t first_knob =
      static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(kKnobs.size()) - 1));
  double t = mean_gap * rng.uniform(0.25, 0.75);
  for (std::size_t k = 0; t < seconds; ++k) {
    const Knob& knob = kKnobs[(first_knob + k) % kKnobs.size()];
    SteerSpec s;
    s.due_s = t;
    s.param = knob.name;
    // Unique per steer: the jitter draw, plus the index as a tie-breaker.
    s.value = knob.base * (1.0 + 0.008 * (rng.uniform() - 0.5)) +
              static_cast<double>(k) * 1e-9;
    in.steers.push_back(std::move(s));
    t += mean_gap * rng.uniform(0.5, 1.5);
  }
  in.wan_seed = rng.uniform_int(1, (std::int64_t{1} << 62));
  return in;
}

}  // namespace perfbench
