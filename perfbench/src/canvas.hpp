// A viewer's canvas: what a dashboard shows after applying each frame body
// it received — a full image, a set of dirty-rect tiles onto the previous
// canvas, or nothing (image unchanged / state-only body). The benchmark's
// output checks compare these canvases against full frames.
#pragma once

#include <string>

#include "util/json.hpp"
#include "viz/image.hpp"

namespace perfbench {

/// Apply one /api/poll or SSE body to `canvas`. Returns false and sets
/// `error` when the body's image payload does not decode, a tile does not
/// match its declared rectangle, or a tile falls outside the canvas.
bool apply_body(const ricsa::util::Json& body, ricsa::viz::Image& canvas,
                std::string* error);

/// Decode a base64(PNG) payload; throws std::runtime_error on bad input.
ricsa::viz::Image decode_b64_png(const std::string& b64);

/// Pixel-exact comparison.
bool same_pixels(const ricsa::viz::Image& a, const ricsa::viz::Image& b);

}  // namespace perfbench
