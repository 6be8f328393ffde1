// The benchmark's load generator: one thread running an epoll loop over at
// most four keep-alive HTTP/1.1 connections, plus one verifier thread.
//
// Viewers are closed loops, as the dashboard is: a long-poll viewer sends
// its next /api/poll the moment the previous body arrives; an SSE viewer
// holds one /api/stream. Both ask for `delta=1`, and from the window's
// start carry a `client=` id (see attach_sessions in loadgen.cpp). The
// control connection posts steers on an open-loop schedule (each timed from
// when it was due, so a stalled server is charged for the wait it imposes).
// Viewer 0 also observes steers: a steer is done when viewer 0
// holds a frame whose merged `state.parameters` shows its value.
//
// Every body is checked as it arrives (seq strictly increasing without
// gaps, `base_seq` matching the previous seq) and handed to the verifier,
// which applies it to the viewer's canvas (full image or tile composite).
// After the timed window the origin viewers' newest frames are fetched as
// full frames and compared with their canvases, and the relay viewer's
// canvas is compared with the origin viewer's canvas of the same frame.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct ViewerSpec {
  std::string name;
  int port = 0;
  bool sse = false;
  bool via_relay = false;
  std::string client_id;
};

struct SteerSpec {
  double due_s = 0.0;  // offset from the start of the timed window
  std::string param;
  double value = 0.0;
};

struct LoadPlan {
  /// At most three: viewer 0 observes steers; the relay viewer's hop is
  /// measured against the origin SSE viewer.
  std::vector<ViewerSpec> viewers;
  int control_port = 0;
  std::vector<SteerSpec> steers;
  double seconds = 10.0;
  /// The window opens once viewer 0 holds a frame with at least this seq.
  std::uint64_t warmup_frames = 0;
  bool trace = false;
  /// Called on the generator thread at the window's start and end.
  std::function<void()> on_window_start;
  std::function<void()> on_window_end;
};

struct Span {
  std::string name;    // e.g. "poll.lp0", "sse.relay0", "steer"
  std::uint64_t key = 0;  // frame seq or steer index
  double start_ms = 0.0;  // steady ms since the window start
  double mid_ms = -1.0;   // headers received (requests), -1 when n/a
  double end_ms = 0.0;
};

struct ViewerResult {
  ViewerSpec spec;
  std::uint64_t frames = 0;  // delivered inside the window
  std::uint64_t wire_bytes = 0;
  std::uint64_t envelope_bytes = 0;
  std::vector<double> delivery_ms;  // receipt - state.published_ms
};

struct LoadResult {
  bool joined = false;
  double ready_s = 0.0;     // construct_start -> every viewer holds a frame
  double window_s = 0.0;    // measured window length
  std::vector<ViewerResult> viewers;
  std::vector<double> steer_ms;       // due -> observed by viewer 0
  std::vector<double> steer_rtt_ms;   // POST sent -> 200 received
  std::vector<double> late_ms;        // steer sent - due
  std::vector<double> hop_ms;         // relay receipt - origin SSE receipt
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t requests_sent = 0;
  std::vector<std::string> failures;  // first few reasons
  std::vector<Span> spans;            // trace only
  std::uint64_t frames_verified = 0;
  std::uint64_t samples_checked = 0;
};

/// Drive `plan` against running servers. With `setup_only` the run ends as
/// soon as every viewer holds a frame (set-up time measurement); otherwise
/// it continues through the timed window, the steer drain and the output
/// checks. `construct_start` is when the servers began construction.
LoadResult run_load(const LoadPlan& plan, Clock::time_point construct_start,
                    bool setup_only);

}  // namespace perfbench
