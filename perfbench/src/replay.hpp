// Producer replay for the traced run: a loop owned by the benchmark that
// runs the workload's session config with the same seeded steers and calls,
// in order, the public functions the monitor loop calls — next_frame, the
// codec and tile calls on the frame's image, FrameHub::publish, and the
// wait_async wake — timing each call as a span keyed by the frame's seq.
// The wake is timed from the start of publish: the hub hands satisfied
// waiters to its pool inside publish, so a callback often runs before
// publish returns.
//
// Some layers are reached through twins rather than inside next_frame: a
// second HydroSimulation advanced in lockstep (hydro.advance_ms) and the
// cost-model / DP-mapper chain on its snapshot (core.vrt_ms). The pipeline
// stage times are the program's own ExecuteResult figures.
//
// Every replayed frame is also checked: the hub's full PNG decodes to the
// rendered image, and the hub's sequential delta body composited onto the
// previous canvas equals that image.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "loadgen.hpp"
#include "steering/session.hpp"

namespace perfbench {

struct ReplayInputs {
  ricsa::steering::SessionConfig session;
  std::vector<SteerSpec> steers;
  /// Frames between consecutive steers (the live schedule's ratio).
  double frames_per_steer = 1.0;
  std::uint64_t warmup_frames = 0;
  double budget_s = 5.0;
};

struct ReplayResult {
  /// Per-layer samples, one per replayed frame, by metric name.
  std::map<std::string, std::vector<double>> samples;
  std::uint64_t frames = 0;
  std::uint64_t checked = 0;
  std::vector<std::string> failures;
  std::vector<Span> spans;
};

ReplayResult run_replay(const ReplayInputs& in);

}  // namespace perfbench
