// PNG encoder corpus: encode frames the system really renders and report,
// per image class, ms per image, MB/s of raw RGBA in, compressed bytes and
// ratio, plus a hash of every output byte (a bit-identical encoder change
// keeps it).
//
//   ./build/bench/png_corpus [--reps N]
//
// Classes, all rendered in-process by SteeringSession:
//   iso512_full / iso512_half / iso512_rects — perfbench monitor_iso's
//     session (bowshock 40^3, isovalue 5, 512^2) after 30 warm-up frames:
//     12 consecutive frame pairs, encoding each frame's full tier, its 2x
//     downsampled half tier, and the coalesced dirty 64^2-tile rects
//     against its predecessor (the encodes FrameHub::publish runs);
//   relay64_full — perfbench wire_relay's 64^2 frames (bowshock 16^3,
//     300 warm-up frames), 40 of them;
//   noise256 — one 256^2 image of random pixels, the stored-block path.
// "iso512_frame" sums the three iso512 classes per frame.
//
// Each pass encodes the whole class; the figures are from the median of
// --reps passes (default 5). One JSON object goes to stdout. Exit status 1
// when any output fails to decode back to exactly its pixels.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "steering/session.hpp"
#include "util/json.hpp"
#include "util/prng.hpp"
#include "viz/image.hpp"
#include "viz/tiles.hpp"

using namespace ricsa;

namespace {

struct ImageClass {
  std::string name;
  std::vector<viz::Image> images;
};

std::vector<viz::Image> render_frames(steering::SessionConfig config,
                                      int warmup, int frames) {
  steering::SteeringSession session(std::move(config));
  for (int i = 0; i < warmup; ++i) session.next_frame();
  std::vector<viz::Image> out;
  for (int i = 0; i < frames; ++i) out.push_back(session.next_frame().image);
  return out;
}

steering::SessionConfig iso_session(int resolution, int image_size) {
  steering::SessionConfig config;
  config.simulation = hydro::HydroSimulation::Kind::kBowshock;
  config.resolution = resolution;
  config.viz.technique = cost::VizRequest::Technique::kIsosurface;
  config.viz.isovalue = 5.0f;
  config.viz.image_width = image_size;
  config.viz.image_height = image_size;
  return config;
}

/// 64-bit FNV-1a, continued across calls through `h`.
std::uint64_t fnv1a(std::uint64_t h, const std::vector<std::uint8_t>& bytes) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001B3ull;
  }
  return h;
}

struct ClassResult {
  double pass_ms = 0.0;  // median over passes
  std::size_t raw_bytes = 0;
  std::size_t png_bytes = 0;
  std::uint64_t hash = 0xCBF29CE484222325ull;
  bool decodes = true;
};

ClassResult run_class(const ImageClass& c, int reps) {
  ClassResult r;
  // First pass: sizes, hash and the decode check (untimed).
  for (const viz::Image& img : c.images) {
    const auto png = img.encode_png();
    r.raw_bytes += img.bytes();
    r.png_bytes += png.size();
    r.hash = fnv1a(r.hash, png);
    const viz::Image back = viz::Image::decode_png(png);
    if (back.width() != img.width() || back.height() != img.height() ||
        back.pixels() != img.pixels()) {
      std::fprintf(stderr, "png_corpus: %s: an output does not decode back\n",
                   c.name.c_str());
      r.decodes = false;
    }
  }
  std::vector<double> passes;
  for (int k = 0; k < reps; ++k) {
    const auto t0 = std::chrono::steady_clock::now();
    for (const viz::Image& img : c.images) img.encode_png();
    passes.push_back(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
  }
  std::sort(passes.begin(), passes.end());
  r.pass_ms = passes[passes.size() / 2];
  return r;
}

util::Json class_json(const ImageClass& c, const ClassResult& r) {
  util::JsonObject o;
  const double n = static_cast<double>(std::max<std::size_t>(1, c.images.size()));
  o["images"] = c.images.size();
  o["ms_per_image"] = r.pass_ms / n;
  o["mb_per_s"] = static_cast<double>(r.raw_bytes) / 1e6 / (r.pass_ms / 1e3);
  o["bytes"] = r.png_bytes;
  o["bytes_per_image"] = static_cast<double>(r.png_bytes) / n;
  o["ratio"] = static_cast<double>(r.raw_bytes) /
               static_cast<double>(std::max<std::size_t>(1, r.png_bytes));
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(r.hash));
  o["hash"] = std::string(hex);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr, "usage: %s [--reps N]\n", argv[0]);
      return 2;
    }
  }

  constexpr int kPairs = 12;
  const std::vector<viz::Image> iso =
      render_frames(iso_session(40, 512), 30, kPairs + 1);
  ImageClass full{"iso512_full", {}}, half{"iso512_half", {}},
      rects{"iso512_rects", {}};
  for (int i = 1; i <= kPairs; ++i) {
    const viz::Image& prev = iso[static_cast<std::size_t>(i - 1)];
    const viz::Image& cur = iso[static_cast<std::size_t>(i)];
    full.images.push_back(cur);
    half.images.push_back(viz::downsample(cur, 2));
    const viz::TileGrid grid(cur.width(), cur.height(), 64);
    for (const viz::TileRect& r : grid.coalesce(grid.diff(prev, cur))) {
      rects.images.push_back(viz::TileGrid::extract(cur, r));
    }
  }
  ImageClass relay{"relay64_full", render_frames(iso_session(16, 64), 300, 40)};
  ImageClass noise{"noise256", {viz::Image(256, 256)}};
  util::Xoshiro256 rng(3);
  for (int y = 0; y < 256; ++y) {
    for (int x = 0; x < 256; ++x) {
      noise.images[0].at(x, y) = {static_cast<std::uint8_t>(rng() & 0xFF),
                                  static_cast<std::uint8_t>(rng() & 0xFF),
                                  static_cast<std::uint8_t>(rng() & 0xFF), 255};
    }
  }

  util::JsonObject classes;
  bool ok = true;
  double frame_ms = 0.0;
  std::size_t frame_bytes = 0;
  for (const ImageClass* c : {&full, &half, &rects, &relay, &noise}) {
    const ClassResult r = run_class(*c, reps);
    ok = ok && r.decodes;
    classes[c->name] = class_json(*c, r);
    if (c == &full || c == &half || c == &rects) {
      frame_ms += r.pass_ms;
      frame_bytes += r.png_bytes;
    }
  }
  util::JsonObject frame;
  frame["frames"] = kPairs;
  frame["ms_per_frame"] = frame_ms / kPairs;
  frame["bytes_per_frame"] = static_cast<double>(frame_bytes) / kPairs;
  classes["iso512_frame"] = frame;

  util::JsonObject report;
  report["bench"] = "png_corpus";
  report["reps"] = reps;
  report["decodes"] = ok;
  report["classes"] = classes;
  std::printf("%s\n", util::Json(report).dump(2).c_str());
  return ok ? 0 : 1;
}
