// Frame-path benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Runs the real AjaxFrontEnd and an in-process RelayNode, drives them from
// the epoll load generator for `--seconds`, checks every output, sends the
// workload's frames through the WAN cohort, and prints one line per metric
// followed by a JSON result line. `--trace 0` reports the end-to-end
// metrics; `--trace 1` repeats the live run with viewer spans, replays the
// producer with a span around each layer call, and reports the per-layer
// metrics next to its own end-to-end figures. Exit status is nonzero when
// any output check failed.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "loadgen.hpp"
#include "relay/relay.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "util/json.hpp"
#include "wan.hpp"
#include "web/frontend.hpp"
#include "workload.hpp"

namespace {

using perfbench::Clock;
using ricsa::util::Json;

/// Set-ups per run, before and after the live run (whose own set-up also
/// counts); set-up time is the median of all of them. Spreading them over
/// the run keeps a few slow seconds of the host from setting the figure.
constexpr int kSetupsBefore = 7;
constexpr int kSetupsAfter = 7;
/// WAN cohort rounds per run; its figures are medians over them.
constexpr int kWanRounds = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      args.trace = value == "1";
    } else if (arg == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0.0;
}

double cpu_ms() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

/// The system under test: origin front end plus one relay subscribed to it.
struct System {
  std::unique_ptr<ricsa::web::AjaxFrontEnd> origin;
  std::unique_ptr<ricsa::relay::RelayNode> relay;
  int origin_port = 0;
  int relay_port = 0;

  explicit System(const perfbench::WorkloadSpec& spec) {
    ricsa::web::FrontEndConfig fc;
    fc.session = spec.session;
    fc.frame_interval_s = spec.frame_interval_s;
    fc.frame_window = perfbench::kFrameWindow;
    fc.poll_timeout_s = 10.0;
    origin = std::make_unique<ricsa::web::AjaxFrontEnd>(fc);
    origin_port = origin->start();
    ricsa::relay::RelayNodeConfig rc;
    rc.subscriber.upstream_port = origin_port;
    rc.subscriber.relay_id = "relay0";
    rc.subscriber.transport = "sse";
    rc.subscriber.poll_timeout_s = 10.0;
    rc.frame_window = perfbench::kFrameWindow;
    rc.poll_timeout_s = 10.0;
    rc.pacing.frame_interval_s = spec.relay_cadence_s;
    relay = std::make_unique<ricsa::relay::RelayNode>(rc);
    relay_port = relay->start();
  }
  ~System() {
    relay->stop();
    origin->stop();
  }
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  ricsa::web::FrameHub::Stats relay_stats() const {
    const auto hub = relay->registry().find("main");
    return hub ? hub->stats() : ricsa::web::FrameHub::Stats{};
  }
};

perfbench::LoadPlan plan_for(const System& sys, const perfbench::Inputs& in,
                             double seconds, std::uint64_t warmup_frames, bool trace) {
  perfbench::LoadPlan plan;
  plan.viewers = {{"lp0", sys.origin_port, false, false, "lp0"},
                  {"sse0", sys.origin_port, true, false, "sse0"},
                  {"relay0", sys.relay_port, true, true, "relay0"}};
  plan.control_port = sys.origin_port;
  plan.steers = in.steers;
  plan.seconds = seconds;
  plan.warmup_frames = warmup_frames;
  plan.trace = trace;
  return plan;
}

/// Metrics in print order. Rows added with `info` are printed but left out
/// of the JSON result (figures too unsteady to bound, see README.md).
struct Metrics {
  struct Row {
    std::string name;
    double value;
    std::string unit;
    bool in_result;
  };
  std::vector<Row> rows;
  std::vector<std::string> notes;
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "", bool in_result = true) {
    rows.push_back({name, value, unit, in_result});
    if (!note.empty()) notes.push_back(name + ": " + note);
  }
  void info(const std::string& name, double value, const std::string& unit,
            const std::string& note = "") {
    add(name, value, unit, note, false);
  }
};

std::string tail_note(const perfbench::Tail& t, double want) {
  char buf[96];
  if (t.pct >= want) {
    std::snprintf(buf, sizeof(buf), "p%.4g of n=%zu", t.pct, t.n);
  } else {
    std::snprintf(buf, sizeof(buf), "p%.4g of n=%zu (p%.4g needs %zu samples beyond)",
                  t.pct, t.n, want, perfbench::kTailBeyond);
  }
  return buf;
}

struct Live {
  perfbench::LoadResult load;
  std::vector<double> setups_s;
  ricsa::web::FrameHub::Stats origin0, origin1, relay0, relay1;
  double cpu0 = 0.0, cpu1 = 0.0;
};

/// One set-up on its own: construct, wait until every viewer holds a frame,
/// tear down.
perfbench::LoadResult setup_once(const perfbench::WorkloadSpec& spec,
                                 const perfbench::Inputs& in) {
  const Clock::time_point construct = Clock::now();
  System sys(spec);
  return perfbench::run_load(plan_for(sys, in, 0.0, spec.warmup_frames, false), construct,
                             true);
}

/// The live run: set-up, warm-up, timed window, drain and checks, with the
/// hub counters and CPU time read at the window's edges.
perfbench::LoadResult run_window(const perfbench::WorkloadSpec& spec,
                                 const perfbench::Inputs& in, double seconds, bool trace,
                                 Live& live) {
  const Clock::time_point construct = Clock::now();
  System sys(spec);
  perfbench::LoadPlan plan = plan_for(sys, in, seconds, spec.warmup_frames, trace);
  plan.on_window_start = [&] {
    live.origin0 = sys.origin->hub().stats();
    live.relay0 = sys.relay_stats();
    live.cpu0 = cpu_ms();
  };
  plan.on_window_end = [&] {
    live.origin1 = sys.origin->hub().stats();
    live.relay1 = sys.relay_stats();
    live.cpu1 = cpu_ms();
  };
  return perfbench::run_load(plan, construct, false);
}

Live run_live(const perfbench::WorkloadSpec& spec, const perfbench::Inputs& in,
              double seconds, bool trace) {
  Live live;
  for (int k = 0; k < kSetupsBefore + 1 + kSetupsAfter; ++k) {
    const bool is_live = k == kSetupsBefore;
    perfbench::LoadResult r =
        is_live ? run_window(spec, in, seconds, trace, live) : setup_once(spec, in);
    if (!r.joined) {
      // Reported as the run's result: not joined, so not correct.
      live.load = std::move(r);
      break;
    }
    live.setups_s.push_back(r.ready_s);
    if (is_live) live.load = std::move(r);
  }
  return live;
}

void write_trace(const std::string& path, const std::string& source,
                 const std::vector<perfbench::Span>& spans, bool append) {
  std::ofstream out(path, append ? std::ios::app : std::ios::trunc);
  for (const auto& s : spans) {
    Json row;
    row["source"] = source;
    row["name"] = s.name;
    row["key"] = static_cast<double>(s.key);
    row["start_ms"] = s.start_ms;
    if (s.mid_ms >= 0.0) row["mid_ms"] = s.mid_ms;
    row["end_ms"] = s.end_ms;
    out << row.dump() << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  const auto spec = perfbench::workload_by_name(args.workload);
  if (!spec) {
    std::string known;
    for (const std::string& name : perfbench::workload_names()) known += " " + name;
    std::fprintf(stderr, "unknown workload '%s'; one of:%s\n", args.workload.c_str(),
                 known.c_str());
    return 2;
  }
  const perfbench::Inputs inputs = perfbench::make_inputs(*spec, args.seed, args.seconds);
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d steers=%zu\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, inputs.steers.size());

  Live live = run_live(*spec, inputs, args.seconds, args.trace);
  const perfbench::LoadResult& load = live.load;
  std::vector<std::string> failures = load.failures;
  std::uint64_t attempted = load.attempted;
  std::uint64_t failed = load.failed;

  // ---- end-to-end figures of the live run --------------------------------
  std::vector<double> origin_delivery, relay_delivery;
  double fps_sum = 0.0, bpf_sum = 0.0;
  const double window = std::max(load.window_s, 1e-9);
  for (const auto& v : load.viewers) {
    fps_sum += static_cast<double>(v.frames) / window;
    if (v.frames > 0) {
      bpf_sum += static_cast<double>(v.wire_bytes) / static_cast<double>(v.frames);
    }
    auto& sink = v.spec.via_relay ? relay_delivery : origin_delivery;
    sink.insert(sink.end(), v.delivery_ms.begin(), v.delivery_ms.end());
  }
  const double n_viewers = std::max<double>(1.0, static_cast<double>(load.viewers.size()));
  const perfbench::Tail steer_tail = perfbench::tail(load.steer_ms, 90.0);
  const perfbench::Tail delivery_tail = perfbench::tail(origin_delivery, 99.0);
  const perfbench::Tail relay_tail = perfbench::tail(relay_delivery, 99.0);
  const std::uint64_t relay_encodes = live.relay1.image_encodes - live.relay0.image_encodes;
  ++attempted;
  if (relay_encodes != 0) {
    ++failed;
    failures.push_back("relay performed " + std::to_string(relay_encodes) + " image encodes");
  }

  perfbench::WanInputs wan_in;
  wan_in.seed = inputs.wan_seed;
  wan_in.cadence_s = spec->wan_cadence_s;
  wan_in.tier_bytes = spec->wan_tier_bytes;
  const perfbench::WanResult wan = load.joined ? perfbench::run_wan_rounds(wan_in, kWanRounds)
                                               : perfbench::WanResult{};

  Metrics m;
  if (!args.trace) {
    m.add("steer_p50_ms", perfbench::median(load.steer_ms), "ms",
          "n=" + std::to_string(load.steer_ms.size()));
    m.add("steer_p90_ms", steer_tail.value, "ms", tail_note(steer_tail, 90.0));
    m.add("frames_per_s", fps_sum / n_viewers, "1/s");
    m.add("delivery_p50_ms", perfbench::median(origin_delivery), "ms",
          "n=" + std::to_string(origin_delivery.size()));
    m.info("delivery_p99_ms", delivery_tail.value, "ms", tail_note(delivery_tail, 99.0));
    m.add("relay_delivery_p50_ms", perfbench::median(relay_delivery), "ms",
          "n=" + std::to_string(relay_delivery.size()));
    m.info("relay_delivery_p99_ms", relay_tail.value, "ms", tail_note(relay_tail, 99.0));
    m.add("bytes_per_frame", bpf_sum / n_viewers, "B");
    m.add("goodput_kBps", wan.goodput_kBps, "kB/s",
          std::to_string(wan.slow_clients) + " slow WAN clients, virtual time");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
    std::string setups;
    for (const double s : live.setups_s) setups += (setups.empty() ? "" : " ") + std::to_string(s);
    m.add("setup_s", perfbench::median(live.setups_s), "s",
          "median of " + std::to_string(live.setups_s.size()) + " set-ups: " + setups);
  } else {
    // ---- per-layer figures: live counters, replay spans, WAN cohort ------
    perfbench::ReplayInputs rin;
    rin.session = spec->session;
    rin.steers = inputs.steers;
    const std::uint64_t published = live.origin1.published - live.origin0.published;
    rin.frames_per_steer =
        inputs.steers.empty()
            ? 1e9
            : static_cast<double>(std::max<std::uint64_t>(published, 1)) /
                  static_cast<double>(inputs.steers.size());
    rin.warmup_frames = spec->warmup_frames;
    rin.budget_s = std::clamp(args.seconds / 2.0, 3.0, 10.0);
    const perfbench::ReplayResult replay = perfbench::run_replay(rin);
    attempted += replay.checked;
    failed += replay.failures.size();
    failures.insert(failures.end(), replay.failures.begin(), replay.failures.end());
    const auto rmed = [&](const std::string& name) {
      const auto it = replay.samples.find(name);
      return it == replay.samples.end() ? 0.0 : perfbench::median(it->second);
    };
    for (const char* name :
         {"steering.next_frame_ms", "hydro.advance_ms", "core.vrt_ms", "viz.filter_ms",
          "viz.transform_ms", "viz.render_ms", "viz.encode_full_ms", "viz.encode_half_ms",
          "viz.downsample_ms", "viz.tile_diff_ms", "viz.coalesce_ms", "viz.rect_encode_ms",
          "util.base64_ms", "util.json_render_ms", "web.publish_ms", "web.wake_ms"}) {
      m.add(name, rmed(name), "ms", "median of " + std::to_string(replay.frames) + " replayed frames");
    }
    m.add("viz.png_ratio", rmed("viz.png_ratio"), "ratio");
    m.add("viz.dirty_frac", rmed("viz.dirty_frac"), "ratio");
    m.add("viz.rects_per_frame", rmed("viz.rects_per_frame"), "count");

    const auto& o0 = live.origin0;
    const auto& o1 = live.origin1;
    m.add("web.image_encodes_per_frame",
          published ? static_cast<double>(o1.image_encodes - o0.image_encodes) /
                          static_cast<double>(published)
                    : 0.0,
          "ratio");
    m.add("web.served", static_cast<double>(o1.served - o0.served), "count");
    m.add("web.timeouts", static_cast<double>(o1.timeouts - o0.timeouts), "count");
    m.add("web.waiting_peak", static_cast<double>(o1.waiting_peak), "count");

    const auto per_frame = [](std::uint64_t total, std::uint64_t frames) {
      return frames ? static_cast<double>(total) / static_cast<double>(frames) : 0.0;
    };
    const auto& lp = load.viewers[0];
    const auto& sse = load.viewers[1];
    m.add("net.poll_envelope_bytes", per_frame(lp.envelope_bytes, lp.frames), "B");
    m.add("net.sse_envelope_bytes", per_frame(sse.envelope_bytes, sse.frames), "B");
    m.add("net.steer_post_rtt_ms", perfbench::median(load.steer_rtt_ms), "ms");
    m.add("net.poll_delivery_p50_ms", perfbench::median(lp.delivery_ms), "ms");
    m.add("net.sse_delivery_p50_ms", perfbench::median(sse.delivery_ms), "ms");

    const perfbench::Tail hop_tail = perfbench::tail(load.hop_ms, 99.0);
    m.add("relay.hop_p50_ms", perfbench::median(load.hop_ms), "ms",
          "n=" + std::to_string(load.hop_ms.size()));
    m.add("relay.hop_p99_ms", hop_tail.value, "ms", tail_note(hop_tail, 99.0));
    m.add("relay.image_encodes", static_cast<double>(relay_encodes), "count");
    m.add("relay.preencoded_publishes",
          static_cast<double>(live.relay1.preencoded_publishes -
                              live.relay0.preencoded_publishes),
          "count");

    m.add("transport.tier_flaps", static_cast<double>(wan.tier_flaps), "count");
    m.add("transport.tier_share.full", wan.tier_share[0], "ratio");
    m.add("transport.tier_share.half", wan.tier_share[1], "ratio");
    m.add("transport.tier_share.state", wan.tier_share[2], "ratio");
    m.add("transport.rtt_p50_ms", wan.rtt_p50_ms, "ms", "virtual time");
    m.add("transport.interval_ms", wan.interval_ms, "ms", "slow-client mean");
    m.add("transport.skips", static_cast<double>(wan.skips), "count");

    m.add("proc.cpu_ms_per_frame",
          published ? (live.cpu1 - live.cpu0) / static_cast<double>(published) : 0.0, "ms");
    m.add("gen.late_p50_ms", perfbench::median(load.late_ms), "ms");
    m.add("gen.late_max_ms",
          load.late_ms.empty() ? 0.0
                               : *std::max_element(load.late_ms.begin(), load.late_ms.end()),
          "ms");

    // The traced run's own end-to-end figures beside the per-layer sums
    // that should explain them.
    const double steer_p50 = perfbench::median(load.steer_ms);
    const double delivery_p50 = perfbench::median(origin_delivery);
    m.add("traced.steer_p50_ms", steer_p50, "ms");
    m.add("traced.delivery_p50_ms", delivery_p50, "ms");
    m.add("traced.frames_per_s", fps_sum / n_viewers, "1/s");
    m.add("traced.delivery_p99_ms", delivery_tail.value, "ms", tail_note(delivery_tail, 99.0));
    m.add("traced.relay_delivery_p99_ms", relay_tail.value, "ms", tail_note(relay_tail, 99.0));
    // web.wake_ms runs from the start of publish to the callback, so it
    // already holds the part of publish that comes before the hand-off.
    m.add("traced.steer_stage_sum_ms", rmed("steering.next_frame_ms") + rmed("web.wake_ms"),
          "ms", "next_frame + publish-to-wake");
    m.add("traced.delivery_stage_sum_ms", rmed("web.wake_ms"), "ms", "publish-to-wake");

    if (!args.trace_out.empty()) {
      write_trace(args.trace_out, "live", load.spans, false);
      write_trace(args.trace_out, "replay", replay.spans, true);
    }
  }

  std::printf("# requests_sent=%llu attempted=%llu succeeded=%llu failed=%llu "
              "frames_verified=%llu samples_checked=%llu steers=%zu late_p50_ms=%.3f\n",
              static_cast<unsigned long long>(load.requests_sent),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(attempted - std::min(attempted, failed)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(load.frames_verified),
              static_cast<unsigned long long>(load.samples_checked), load.steer_ms.size(),
              perfbench::median(load.late_ms));
  std::printf("failed_frac %.6g ratio\n",
              attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 1.0);
  for (const auto& row : m.rows) {
    std::printf("%s %.6g %s\n", row.name.c_str(), row.value, row.unit.c_str());
  }
  for (const auto& note : m.notes) std::printf("# %s\n", note.c_str());
  for (const auto& why : failures) std::fprintf(stderr, "FAILED: %s\n", why.c_str());

  const bool correct = load.joined && failed == 0;
  Json metrics;
  for (const auto& row : m.rows) {
    if (!row.in_result) continue;
    Json entry;
    entry["value"] = row.value;
    entry["unit"] = row.unit;
    metrics[row.name] = entry;
  }
  Json result;
  result["correct"] = correct;
  result["attempted"] = static_cast<double>(std::max<std::uint64_t>(attempted, 1));
  result["failed"] = static_cast<double>(failed);
  result["metrics"] = metrics;
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
