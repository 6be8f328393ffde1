#include "replay.hpp"

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "canvas.hpp"
#include "core/mapper.hpp"
#include "cost/pipeline_builder.hpp"
#include "hydro/steerable.hpp"
#include "netsim/testbed.hpp"
#include "util/base64.hpp"
#include "util/json.hpp"
#include "viz/tiles.hpp"
#include "web/hub.hpp"

namespace perfbench {

namespace {

using ricsa::util::Json;
using ricsa::viz::Image;

/// The front end's default dirty-rect tile edge.
constexpr int kTileSize = 64;
/// Replayed frames even when the budget runs out sooner.
constexpr std::uint64_t kMinFrames = 8;

double wall_ms() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::microseconds>(
                                 std::chrono::system_clock::now().time_since_epoch())
                                 .count()) /
         1000.0;
}

/// Times calls into one layer and records each as a span of the frame.
class Tracer {
 public:
  Tracer(ReplayResult& out, Clock::time_point origin) : out_(out), origin_(origin) {}

  template <typename Fn>
  auto time(const char* name, std::uint64_t seq, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      record(name, seq, start, Clock::now());
    } else {
      auto value = fn();
      record(name, seq, start, Clock::now());
      return value;
    }
  }

  void record(const char* name, std::uint64_t seq, Clock::time_point start,
              Clock::time_point end) {
    const auto ms = [this](Clock::time_point t) {
      return std::chrono::duration<double, std::milli>(t - origin_).count();
    };
    out_.spans.push_back({name, seq, ms(start), -1.0, ms(end)});
    out_.samples[name].push_back(ms(end) - ms(start));
  }

  void sample(const char* name, double value) { out_.samples[name].push_back(value); }

 private:
  ReplayResult& out_;
  Clock::time_point origin_;
};

}  // namespace

ReplayResult run_replay(const ReplayInputs& in) {
  ReplayResult out;
  const Clock::time_point origin = Clock::now();
  Tracer tr(out, origin);

  ricsa::steering::SteeringSession session(in.session);
  ricsa::hydro::HydroSimulation twin(in.session.simulation, in.session.resolution);
  const ricsa::netsim::Testbed testbed = ricsa::netsim::make_testbed();
  const ricsa::core::DpMapper mapper;
  ricsa::web::FrameHub::Config hub_config;
  hub_config.tile_size = kTileSize;
  ricsa::web::FrameHub hub(hub_config);

  std::mutex mutex;
  std::condition_variable cv;
  ricsa::web::FramePtr woken;
  Clock::time_point woken_at{};

  Image prev;
  Image canvas;
  // Untimed, as in the live run: the window opens after the start-up
  // transient.
  for (std::uint64_t k = 0; k < in.warmup_frames; ++k) {
    prev = session.next_frame().image;
    twin.advance(in.session.cycles_per_frame);
  }
  std::size_t next_steer = 0;
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(in.budget_s));
  for (std::uint64_t seq = 1;
       seq <= kMinFrames || Clock::now() < deadline; ++seq) {
    // The live schedule's steers, at its steers-per-frame ratio.
    while (next_steer < in.steers.size() &&
           static_cast<double>(next_steer) * in.frames_per_steer <=
               static_cast<double>(seq - 1)) {
      const SteerSpec& s = in.steers[next_steer++];
      session.steer(s.param, s.value);
      twin.set_parameter(s.param, s.value);
    }

    const auto frame = tr.time("steering.next_frame_ms", seq, [&] { return session.next_frame(); });
    tr.time("hydro.advance_ms", seq, [&] { twin.advance(in.session.cycles_per_frame); });
    const ricsa::data::ScalarVolume snapshot = twin.snapshot(frame.variable);
    tr.time("core.vrt_ms", seq, [&] {
      const auto props = ricsa::cost::dataset_properties(
          snapshot, in.session.viz.isovalue, std::max(4, std::min(16, snapshot.nx() / 4)));
      const auto spec = ricsa::cost::build_pipeline(in.session.viz, props, session.models());
      const auto problem = ricsa::core::MappingProblem::from_pipeline(
          spec, session.profile(), testbed.gatech, testbed.ornl);
      return mapper.solve(session.profile(), problem).delay_s;
    });
    tr.sample("viz.filter_ms", frame.exec.filter_s * 1e3);
    tr.sample("viz.transform_ms", frame.exec.transform_s * 1e3);
    tr.sample("viz.render_ms", frame.exec.render_s * 1e3);

    const Image& image = frame.image;
    const auto png = tr.time("viz.encode_full_ms", seq, [&] { return image.encode_png(); });
    tr.sample("viz.png_ratio", static_cast<double>(image.bytes()) /
                                   static_cast<double>(std::max<std::size_t>(1, png.size())));
    const Image half = tr.time("viz.downsample_ms", seq,
                               [&] { return ricsa::viz::downsample(image, 2); });
    tr.time("viz.encode_half_ms", seq, [&] { return half.encode_png(); });
    if (prev.width() == image.width() && prev.height() == image.height()) {
      const ricsa::viz::TileGrid grid(image.width(), image.height(), kTileSize);
      const auto dirty = tr.time("viz.tile_diff_ms", seq, [&] { return grid.diff(prev, image); });
      const auto rects = tr.time("viz.coalesce_ms", seq, [&] { return grid.coalesce(dirty); });
      tr.time("viz.rect_encode_ms", seq, [&] {
        for (const auto& r : rects) ricsa::viz::TileGrid::extract(image, r).encode_png();
      });
      tr.sample("viz.dirty_frac", grid.dirty_fraction(dirty));
      tr.sample("viz.rects_per_frame", static_cast<double>(rects.size()));
    }
    const std::string b64 =
        tr.time("util.base64_ms", seq, [&] { return ricsa::util::base64_encode(png); });

    // The monitor loop's state object, then the full-tier body render.
    Json state;
    state["view"] = "main";
    state["cycle"] = frame.cycle;
    state["sim_time"] = frame.sim_time;
    state["variable"] = frame.variable;
    state["vrt"] = frame.vrt.to_string();
    state["predicted_delay_s"] = frame.vrt.predicted_delay_s;
    state["filter_s"] = frame.exec.filter_s;
    state["transform_s"] = frame.exec.transform_s;
    state["render_s"] = frame.exec.render_s;
    state["geometry_bytes"] = static_cast<double>(frame.exec.geometry_bytes);
    state["published_ms"] = wall_ms();
    ricsa::util::JsonObject params;
    for (const auto& [key, value] : session.parameters()) params[key] = Json(value);
    state["parameters"] = Json(params);
    tr.time("util.json_render_ms", seq, [&] {
      Json body;
      body["seq"] = static_cast<double>(seq);
      body["delta"] = false;
      body["tier"] = "full";
      body["state"] = state;
      body["image_b64"] = b64;
      return body.dump().size();
    });

    {
      std::lock_guard<std::mutex> lock(mutex);
      woken = nullptr;
    }
    hub.wait_async(seq - 1, 10.0, [&](ricsa::web::FramePtr f) {
      const Clock::time_point now = Clock::now();
      {
        std::lock_guard<std::mutex> lock(mutex);
        woken = std::move(f);
        woken_at = now;
      }
      cv.notify_all();
    });
    const Clock::time_point pub_start = Clock::now();
    hub.publish(state, image, false);
    const Clock::time_point pub_end = Clock::now();
    tr.record("web.publish_ms", seq, pub_start, pub_end);
    ricsa::web::FramePtr published;
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait_for(lock, std::chrono::seconds(10), [&] { return woken != nullptr; });
      published = woken;
      if (published) tr.record("web.wake_ms", seq, pub_start, woken_at);
    }

    // Output checks, outside the spans.
    ++out.frames;
    ++out.checked;
    if (!published || published->seq != seq) {
      out.failures.push_back("replay seq " + std::to_string(seq) + ": wake missing");
      continue;
    }
    std::string error;
    try {
      if (!same_pixels(Image::decode_png(published->png), image)) {
        out.failures.push_back("replay seq " + std::to_string(seq) +
                               ": full PNG does not match the frame");
      }
      const Json delta = Json::parse(published->body(ricsa::web::Tier::kFull, seq > 1));
      if (!apply_body(delta, canvas, &error)) {
        out.failures.push_back("replay seq " + std::to_string(seq) + ": " + error);
      } else if (!same_pixels(canvas, image)) {
        out.failures.push_back("replay seq " + std::to_string(seq) +
                               ": composited canvas differs from the frame");
      }
    } catch (const std::exception& e) {
      out.failures.push_back("replay seq " + std::to_string(seq) + ": " + e.what());
    }
    prev = image;
  }
  hub.shutdown();
  return out;
}

}  // namespace perfbench
