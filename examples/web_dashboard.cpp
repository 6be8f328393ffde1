// The Ajax web dashboard (Sections 2 & 5.1): a live stellar-wind bowshock
// simulation monitored and steered from any browser.
//
// Run:  ./web_dashboard [port] [seconds]
//
// Open http://localhost:<port>/ — the image and status panel update over a
// Server-Sent Events push stream (/api/stream; the dashboard falls back to
// XHR long-polling when EventSource is unavailable), and only the elements
// with new information refresh; steering posts apply on the next simulation
// cycle. With no arguments the demo also drives itself for 10 seconds with
// an emulated browser, so it is CI-safe.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "util/json.hpp"
#include "web/frontend.hpp"

using namespace ricsa;

int main(int argc, char** argv) {
  const int port = argc > 1 ? std::atoi(argv[1]) : 0;
  const double seconds = argc > 2 ? std::atof(argv[2]) : 10.0;

  web::FrontEndConfig config;
  config.session.simulation = hydro::HydroSimulation::Kind::kBowshock;
  config.session.resolution = 40;
  config.session.viz.technique = cost::VizRequest::Technique::kRayCast;
  config.session.viz.image_width = 192;
  config.session.viz.image_height = 192;
  config.session.cycles_per_frame = 1;
  config.frame_interval_s = 0.25;
  // Fine dirty-rect tiles for the 192x192 render: frame-to-frame changes
  // ship as a handful of tiles onto the dashboard's canvas instead of a
  // full PNG per frame.
  config.tile_size = 24;
  config.port = port;
  // A second published view: the same simulation step rendered as an
  // isosurface from another camera, into its own hub shard. The dashboard's
  // view selector (or ?view=density/iso on the API) switches streams.
  {
    web::ViewSpec iso;
    iso.name = "density/iso";
    iso.viz = config.session.viz;
    iso.viz.technique = cost::VizRequest::Technique::kIsosurface;
    iso.viz.isovalue = 1.1f;
    iso.camera.azimuth = 2.2f;
    iso.camera.elevation = 0.5f;
    config.views.push_back(iso);
  }

  web::AjaxFrontEnd frontend(config);
  const int bound = frontend.start();
  std::printf("RICSA Ajax front end listening on http://localhost:%d/\n", bound);
  std::printf("monitoring a %d^3 stellar-wind bowshock; steerable: gamma, "
              "cfl, mach, source_density, source_pressure\n", 40);
  std::printf("published views: main (raycast), density/iso (isosurface) — "
              "each its own hub shard\n");
  std::printf("browsers ride the SSE push stream (/api/stream) and fall back "
              "to long-poll (/api/poll) automatically\n\n");

  // Emulated browser: long-poll a few frames and steer the wind density, so
  // running the example headless still demonstrates the loop end-to-end.
  std::uint64_t since = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(seconds);
  int polls = 0;
  bool steered = false;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto response = web::http_get(
        bound, "/api/poll?since=" + std::to_string(since) + "&timeout=2");
    const auto body = util::Json::parse(response.body);
    const auto seq = static_cast<std::uint64_t>(body.at("seq").as_int());
    if (seq > since) {
      since = seq;
      ++polls;
      const auto& state = body.at("state");
      std::printf("frame %3llu  cycle %3lld  t=%.4f  mach=%.2f  vrt=%s\n",
                  static_cast<unsigned long long>(seq),
                  static_cast<long long>(state.at("cycle").as_int()),
                  state.at("sim_time").as_number(),
                  state.at("parameters").at("mach").as_number(),
                  state.at("vrt").as_string().substr(0, 40).c_str());
      if (polls == 5 && !steered) {
        web::http_post(bound, "/api/steer", "{\"mach\": 3.5}");
        std::printf(">>> steered inflow Mach number to 3.5 from the "
                    "'browser'\n");
        steered = true;
      }
      if (polls == 3) {
        // Peek at the second shard the way a second browser tab would.
        const auto iso = web::http_get(
            bound, "/api/poll?since=0&timeout=2&view=density%2Fiso");
        const auto iso_body = util::Json::parse(iso.body);
        std::printf(">>> view density/iso at frame %lld (own seq space)\n",
                    static_cast<long long>(iso_body.at("seq").as_int()));
      }
    }
  }

  std::printf("\nserved %llu HTTP requests; %d frames observed; steering %s\n",
              static_cast<unsigned long long>(polls + 1),
              polls, steered ? "applied" : "not applied");
  frontend.stop();
  return 0;
}
