// The benchmark's workloads and the seeded inputs each run receives.
//
// Every live workload runs the same topology — an AjaxFrontEnd origin, one
// in-process RelayNode subscribed to it over SSE, and four client
// connections: a long-poll viewer and an SSE viewer on the origin, an SSE
// viewer on the relay, and a control connection that posts steers. They
// differ in what a frame costs and where that cost sits. README.md records
// why each exists.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "loadgen.hpp"
#include "steering/session.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  ricsa::steering::SessionConfig session;
  /// Monitor-loop sleep after each frame: short = work-bound loop.
  double frame_interval_s = 0.2;
  /// The relay's pacing cadence. RelayNode judges downstream promptness
  /// against this configured upstream rate, not a measured one, so it is
  /// set like a deployment would set it: at or above the origin's frame
  /// period. An origin slower than this makes the relay pace its prompt
  /// viewer into skipping frames, which the seq checks report.
  double relay_cadence_s = 0.5;
  /// Mean steers per second on the open-loop schedule.
  double steer_rate_hz = 2.0;
  /// Frames published before the window opens. The bowshock needs about
  /// 50 cycles to build the shock the workload watches, and the small grid
  /// several hundred frames to converge; the window then sees a steady
  /// per-frame cost instead of the start-up transient.
  std::uint64_t warmup_frames = 30;
  /// The WAN cohort's publish period and per-tier body bytes (full, half,
  /// state-only): this workload's frames as measured when the benchmark was
  /// added, fixed so the cohort measures the pacing decisions alone.
  double wan_cadence_s = 0.17;
  std::array<double, 3> wan_tier_bytes{62000.0, 19000.0, 900.0};
};

/// Frames the origin and relay retain (fills within a few seconds, so peak
/// memory does not depend on how far a run got).
inline constexpr std::size_t kFrameWindow = 64;

std::optional<WorkloadSpec> workload_by_name(const std::string& name);
std::vector<std::string> workload_names();

/// Everything a run derives from its seed. The program under test only
/// ever sees these values (steer posts, link parameters).
struct Inputs {
  std::uint64_t seed = 0;
  std::vector<SteerSpec> steers;
  std::uint64_t wan_seed = 0;
};

/// Steers land on `seconds` of window on a jittered open-loop schedule;
/// parameters rotate so two steers of one parameter never fall into the
/// same frame, and every value is unique within the run.
Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed, double seconds);

}  // namespace perfbench
