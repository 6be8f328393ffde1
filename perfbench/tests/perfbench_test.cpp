// Self-tests of the benchmark's own machinery: percentile selection, the
// long-poll / chunked / SSE response reader on recorded bytes, and the tile
// compositor the output checks rely on.
#include <gtest/gtest.h>

#include <numeric>

#include "canvas.hpp"
#include "stats.hpp"
#include "util/base64.hpp"
#include "viz/tiles.hpp"
#include "wire.hpp"

namespace {

using perfbench::ResponseReader;
using perfbench::WireEvent;
using ricsa::util::Json;
using ricsa::viz::Image;
using ricsa::viz::Rgba;

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, MedianAndNearestRank) {
  EXPECT_DOUBLE_EQ(perfbench::median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(perfbench::median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(perfbench::median({}), 0.0);
  EXPECT_DOUBLE_EQ(perfbench::percentile(one_to(100), 90.0), 90.0);
  EXPECT_DOUBLE_EQ(perfbench::percentile(one_to(100), 99.0), 99.0);
  EXPECT_DOUBLE_EQ(perfbench::percentile(one_to(10), 95.0), 10.0);
}

TEST(Percentile, TailKeepsTenSamplesBeyondIt) {
  // 1000 samples support p99 exactly: rank 990 leaves 10 above it.
  const perfbench::Tail full = perfbench::tail(one_to(1000), 99.0);
  EXPECT_DOUBLE_EQ(full.pct, 99.0);
  EXPECT_DOUBLE_EQ(full.value, 990.0);
  EXPECT_EQ(full.n, 1000u);
  // 999 do not: the tail drops to the rank that leaves 10 beyond.
  const perfbench::Tail short_tail = perfbench::tail(one_to(999), 99.0);
  EXPECT_LT(short_tail.pct, 99.0);
  EXPECT_DOUBLE_EQ(short_tail.value, 989.0);
  // 100 samples support p90 but not p99.
  EXPECT_DOUBLE_EQ(perfbench::tail(one_to(100), 90.0).pct, 90.0);
  const perfbench::Tail p = perfbench::tail(one_to(100), 99.0);
  EXPECT_DOUBLE_EQ(p.pct, 90.0);
  EXPECT_DOUBLE_EQ(p.value, 90.0);
}

TEST(Percentile, TailNeverFallsBelowTheMedian) {
  const perfbench::Tail t = perfbench::tail(one_to(12), 99.0);
  EXPECT_DOUBLE_EQ(t.pct, 50.0);
  EXPECT_DOUBLE_EQ(t.value, 6.5);
  EXPECT_EQ(perfbench::tail({}, 99.0).n, 0u);
}

/// Feed `wire` split at every possible point; the events must not depend
/// on where the bytes were cut.
std::vector<WireEvent> feed_split(const std::string& wire, std::size_t cut) {
  ResponseReader reader;
  std::vector<WireEvent> out;
  reader.feed(std::string_view(wire).substr(0, cut), out);
  reader.feed(std::string_view(wire).substr(cut), out);
  return out;
}

TEST(WireReader, LongPollResponsesOnOneKeepAliveConnection) {
  const std::string a = "{\"seq\":7,\"delta\":true}";
  const std::string b = "{\"seq\":8}";
  const std::string head_a = "HTTP/1.1 200 OK\r\nContent-Length: " + std::to_string(a.size()) +
                             "\r\nConnection: keep-alive\r\nContent-Type: application/json\r\n\r\n";
  const std::string head_b = "HTTP/1.1 404 Not Found\r\ncontent-length: " +
                             std::to_string(b.size()) + "\r\n\r\n";
  const std::string wire = head_a + a + head_b + b;
  for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
    const auto events = feed_split(wire, cut);
    ASSERT_EQ(events.size(), 4u) << "cut " << cut;
    EXPECT_EQ(events[0].kind, WireEvent::Kind::kHeaders);
    EXPECT_EQ(events[1].kind, WireEvent::Kind::kBody);
    EXPECT_EQ(events[1].status, 200);
    EXPECT_EQ(events[1].data, a);
    EXPECT_EQ(events[1].envelope_bytes, head_a.size());
    EXPECT_EQ(events[3].status, 404);
    EXPECT_EQ(events[3].data, b);
    EXPECT_EQ(events[3].envelope_bytes, head_b.size());
  }
}

TEST(WireReader, ChunkedSseStreamYieldsEventsAndCountsFraming) {
  const std::string head =
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n"
      "Content-Type: text/event-stream\r\nCache-Control: no-cache\r\n\r\n";
  const auto chunk = [](const std::string& payload) {
    char size[16];
    std::snprintf(size, sizeof(size), "%zx\r\n", payload.size());
    return std::string(size) + payload + "\r\n";
  };
  const std::string e1 = "id: 41\ndata: {\"seq\":41}\n\n";
  const std::string keepalive = ": keepalive\n\n";
  const std::string e2 = "id: 42\ndata: {\"seq\":42,\"x\":\"" + std::string(300, 'a') + "\"}\n\n";
  const std::string wire = head + chunk(e1) + chunk(keepalive) + chunk(e2) + "0\r\n\r\n";
  for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
    const auto events = feed_split(wire, cut);
    ASSERT_EQ(events.size(), 3u) << "cut " << cut;
    EXPECT_EQ(events[0].kind, WireEvent::Kind::kHeaders);
    EXPECT_EQ(events[1].kind, WireEvent::Kind::kSse);
    EXPECT_EQ(events[1].id, 41u);
    EXPECT_EQ(events[1].data, "{\"seq\":41}");
    EXPECT_EQ(events[2].id, 42u);
    EXPECT_EQ(events[2].data.size(), 300u + 17u);
    // Every byte up to each event is payload or envelope.
    EXPECT_EQ(events[1].envelope_bytes + events[1].data.size() +
                  events[2].envelope_bytes + events[2].data.size(),
              head.size() + chunk(e1).size() + chunk(keepalive).size() + chunk(e2).size() - 2)
        << "cut " << cut;
  }
}

TEST(WireReader, RejectsMalformedFraming) {
  ResponseReader bad_status;
  std::vector<WireEvent> out;
  EXPECT_THROW(bad_status.feed("SPDY/9 200 OK\r\n\r\n", out), perfbench::WireError);
  ResponseReader bad_chunk;
  EXPECT_THROW(bad_chunk.feed("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n", out),
               perfbench::WireError);
  ResponseReader no_length;
  EXPECT_THROW(no_length.feed("HTTP/1.1 200 OK\r\n\r\n", out), perfbench::WireError);
}

Image gradient(int w, int h, int salt) {
  Image img(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      img.at(x, y) = Rgba{static_cast<std::uint8_t>(x * 3 + salt),
                          static_cast<std::uint8_t>(y * 5), static_cast<std::uint8_t>(salt), 255};
    }
  }
  return img;
}

std::string b64png(const Image& img) { return ricsa::util::base64_encode(img.encode_png()); }

TEST(Canvas, TileDeltaCompositesToTheNextFrame) {
  const Image before = gradient(150, 90, 1);
  Image after = before;
  for (int y = 10; y < 70; ++y) {
    for (int x = 64; x < 140; ++x) after.at(x, y) = Rgba{9, 9, 9, 255};
  }
  const ricsa::viz::TileGrid grid(150, 90, 64);
  const auto rects = grid.coalesce(grid.diff(before, after));
  ASSERT_FALSE(rects.empty());
  Json body;
  body["seq"] = 2;
  body["delta"] = true;
  body["img_w"] = 150;
  body["img_h"] = 90;
  ricsa::util::JsonArray tiles;
  for (const auto& r : rects) {
    Json t;
    t["x"] = r.x;
    t["y"] = r.y;
    t["w"] = r.w;
    t["h"] = r.h;
    t["png_b64"] = b64png(ricsa::viz::TileGrid::extract(after, r));
    tiles.push_back(t);
  }
  body["tiles"] = Json(tiles);

  Image canvas;
  Json first;
  first["image_b64"] = b64png(before);
  std::string error;
  ASSERT_TRUE(perfbench::apply_body(first, canvas, &error)) << error;
  ASSERT_TRUE(perfbench::same_pixels(canvas, before));
  ASSERT_TRUE(perfbench::apply_body(body, canvas, &error)) << error;
  EXPECT_TRUE(perfbench::same_pixels(canvas, after));
  // A body without image fields leaves the canvas as it is.
  Json state_only;
  state_only["seq"] = 3;
  ASSERT_TRUE(perfbench::apply_body(state_only, canvas, &error));
  EXPECT_TRUE(perfbench::same_pixels(canvas, after));
}

TEST(Canvas, RejectsTilesThatDoNotFit) {
  Image canvas = gradient(64, 64, 2);
  Json body;
  body["img_w"] = 64;
  body["img_h"] = 64;
  Json t;
  t["x"] = 32;
  t["y"] = 0;
  t["w"] = 64;
  t["h"] = 64;
  t["png_b64"] = b64png(gradient(64, 64, 3));
  body["tiles"] = Json(ricsa::util::JsonArray{t});
  std::string error;
  EXPECT_FALSE(perfbench::apply_body(body, canvas, &error));
  EXPECT_NE(error.find("outside"), std::string::npos);

  Json wrong_size = body;
  wrong_size["img_w"] = 128;
  EXPECT_FALSE(perfbench::apply_body(wrong_size, canvas, &error));

  Json garbage;
  garbage["image_b64"] = "bm90IGEgcG5n";
  EXPECT_FALSE(perfbench::apply_body(garbage, canvas, &error));
}

}  // namespace
