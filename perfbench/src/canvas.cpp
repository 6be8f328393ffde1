#include "canvas.hpp"

#include <stdexcept>

#include "util/base64.hpp"
#include "viz/tiles.hpp"

namespace perfbench {

using ricsa::util::Json;
using ricsa::viz::Image;

Image decode_b64_png(const std::string& b64) {
  return Image::decode_png(ricsa::util::base64_decode(b64));
}

bool same_pixels(const Image& a, const Image& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         a.pixels() == b.pixels();
}

bool apply_body(const Json& body, Image& canvas, std::string* error) {
  try {
    const Json& full = body.at("image_b64");
    if (full.is_string()) {
      canvas = decode_b64_png(full.as_string());
      return true;
    }
    const Json& tiles = body.at("tiles");
    if (!tiles.is_array()) return true;  // image unchanged or state-only
    const int w = static_cast<int>(body.at("img_w").as_int(-1));
    const int h = static_cast<int>(body.at("img_h").as_int(-1));
    if (w != canvas.width() || h != canvas.height()) {
      if (error) *error = "tile delta for a canvas of another size";
      return false;
    }
    for (const Json& t : tiles.as_array()) {
      const int x = static_cast<int>(t.at("x").as_int(-1));
      const int y = static_cast<int>(t.at("y").as_int(-1));
      const int tw = static_cast<int>(t.at("w").as_int(-1));
      const int th = static_cast<int>(t.at("h").as_int(-1));
      if (x < 0 || y < 0 || tw <= 0 || th <= 0 || x + tw > w || y + th > h) {
        if (error) *error = "tile outside the canvas";
        return false;
      }
      const Image tile = decode_b64_png(t.at("png_b64").as_string());
      if (tile.width() != tw || tile.height() != th) {
        if (error) *error = "tile size differs from its rectangle";
        return false;
      }
      ricsa::viz::TileGrid::composite(canvas, tile, x, y);
    }
    return true;
  } catch (const std::exception& e) {
    if (error) *error = std::string("image payload does not decode: ") + e.what();
    return false;
  }
}

}  // namespace perfbench
