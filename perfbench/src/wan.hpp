// The WAN cohort: the production per-client pacing stack
// (web::ClientSession, default congestion law) driven through src/netsim
// links in virtual time.
//
// Four prompt viewers on loopback never engage pacing, so each workload
// also sends its own frames — its measured publish period and tier body
// sizes — to a fixed cohort of emulated browsers: slow clients sharing
// congested bottlenecks with on/off cross traffic, and fast clients on
// clean links. The serve loop mirrors the origin's: decide() when a poll
// arrives, note_dispatch() at wire hand-off, on_delivered() when the link
// delivers. Deterministic for a seed; costs well under a second.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace perfbench {

struct WanInputs {
  std::uint64_t seed = 1;
  double cadence_s = 0.1;
  /// Body bytes per tier (full, half, state-only).
  std::array<double, 3> tier_bytes{20000.0, 6000.0, 900.0};
};

struct WanResult {
  double goodput_kBps = 0.0;  // slow cohort frame bytes per virtual second
  std::uint64_t frames = 0;
  std::uint64_t skips = 0;
  std::uint64_t tier_flaps = 0;
  std::array<double, 3> tier_share{};  // delivered frames per tier
  double rtt_p50_ms = 0.0;             // dispatch -> link delivery
  double interval_ms = 0.0;            // mean slow-client pacing interval
  int slow_clients = 0;
};

/// One cohort run of 240 virtual seconds.
WanResult run_wan(const WanInputs& in);

/// `rounds` independent cohort runs (link and cross-traffic seeds derived
/// from `in.seed`), each field reported as its median over the rounds: one
/// round's cohort can settle into a different tier pattern, and a median
/// keeps that from swinging the result.
WanResult run_wan_rounds(const WanInputs& in, int rounds);

}  // namespace perfbench
