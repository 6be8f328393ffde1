// Tests for the self-contained DEFLATE/zlib codec (src/viz/deflate.*).
//
// Round-trips every small image size the tile path produces, checks the
// stored fallback on incompressible input, and decodes golden vectors
// produced by a reference zlib so the inflater is validated against real
// fixed- and dynamic-Huffman streams, not just our own compressor. The
// match finder compares eight bytes at a time, so matches ending at or
// just before the input's end, runs around the 258-byte match limit and
// short-period patterns are round-tripped from exactly sized buffers: an
// over-read lands in the allocation's redzone under AddressSanitizer.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/generators.hpp"
#include "util/prng.hpp"
#include "viz/deflate.hpp"
#include "viz/image.hpp"
#include "viz/isosurface.hpp"
#include "viz/rasterizer.hpp"

namespace v = ricsa::viz;

namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  ricsa::util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng() & 0xFF);
  return out;
}

/// Compress `data` from a heap buffer of exactly its size, then check that
/// both the raw stream and the zlib wrapping decode back to it.
::testing::AssertionResult round_trips(const std::vector<std::uint8_t>& data) {
  const std::size_t n = data.size();
  const auto exact = std::make_unique<std::uint8_t[]>(n);
  if (n > 0) std::memcpy(exact.get(), data.data(), n);
  if (v::inflate(v::deflate(exact.get(), n)) != data) {
    return ::testing::AssertionFailure() << "inflate mismatch, n=" << n;
  }
  const auto z = v::zlib_compress(exact.get(), n);
  if (v::zlib_decompress(z.data(), z.size()) != data) {
    return ::testing::AssertionFailure() << "zlib mismatch, n=" << n;
  }
  return ::testing::AssertionSuccess();
}

}  // namespace

TEST(Deflate, RoundTripsEmptyConstantAndRandomBuffers) {
  EXPECT_TRUE(v::inflate(v::deflate(nullptr, 0)).empty());

  const std::vector<std::uint8_t> constant(10000, 0x42);
  const auto constant_z = v::deflate(constant);
  EXPECT_EQ(v::inflate(constant_z), constant);
  // A constant run is the codec's best case: long LZ77 matches, tiny output.
  EXPECT_LT(constant_z.size(), constant.size() / 20);

  for (const std::size_t n : {1u, 2u, 3u, 255u, 4096u, 70000u, 200001u}) {
    EXPECT_TRUE(round_trips(random_bytes(n, n)));
  }
}

TEST(Deflate, RejectsInputsPastThirtyTwoBitPositions) {
  // Chain positions are int32_t: a longer input must fail loudly before
  // any byte is read, not wrap.
  const std::uint8_t byte = 0;
  EXPECT_THROW(v::deflate(&byte, std::size_t{0x80000000u}), std::length_error);
}

TEST(Deflate, RoundTripsMatchesEndingAtAndJustBeforeTheInputEnd) {
  // A repeat of an earlier span ends exactly at the last byte (tail 0) or
  // 1-8 bytes before it: the word compare's last full step and its byte
  // tail both meet the end of the buffer.
  for (const std::size_t len : {3u, 4u, 7u, 8u, 9u, 15u, 16u, 17u, 64u, 257u,
                                258u, 259u, 300u}) {
    for (std::size_t tail = 0; tail <= 8; ++tail) {
      auto data = random_bytes(400, 100 * len + tail);
      data.insert(data.end(), data.begin() + 50,
                  data.begin() + 50 + static_cast<std::ptrdiff_t>(len));
      const auto end = random_bytes(tail, 7 * len + tail);
      data.insert(data.end(), end.begin(), end.end());
      EXPECT_TRUE(round_trips(data)) << "len=" << len << " tail=" << tail;
    }
  }
}

TEST(Deflate, RoundTripsRunsAroundTheMaximumMatchLength) {
  // A run longer than 258 bytes needs a second match; each run is framed by
  // random bytes, and also placed at the very end of the input.
  for (const std::size_t run : {257u, 258u, 259u, 516u}) {
    auto data = random_bytes(64, run);
    data.insert(data.end(), run, 0xA5);
    EXPECT_TRUE(round_trips(data)) << "run at end, " << run;
    const auto after = random_bytes(64, run + 1);
    data.insert(data.end(), after.begin(), after.end());
    EXPECT_TRUE(round_trips(data)) << "run framed, " << run;
  }
}

TEST(Deflate, RoundTripsPeriodicPatternsOfEveryShortPeriodAndLength) {
  // Periods 1-9 give overlapping matches at distances shorter than the
  // eight-byte compare step; every length from 1 to 600 moves where the
  // last match ends against the input end.
  for (std::size_t period = 1; period <= 9; ++period) {
    const auto unit = random_bytes(period, 50 + period);
    for (std::size_t n = 1; n <= 600; ++n) {
      std::vector<std::uint8_t> data(n);
      for (std::size_t i = 0; i < n; ++i) data[i] = unit[i % period];
      ASSERT_TRUE(round_trips(data)) << "period=" << period;
    }
  }
}

TEST(Deflate, RenderedFrameStaysUnderItsSizeCeiling) {
  // One deterministic rendered frame: the jet isosurface at 512x512, flat
  // background around a shaded surface like the monitoring frames. Its PNG
  // was 34,486 bytes before the match finder's good_length budget and
  // 34,310 after; the ceiling is that + 1%, so a later speed-for-ratio
  // trade in the encoder fails here rather than only in a bench row.
  const auto vol = ricsa::data::make_jet(48, 48, 48);
  const auto iso = v::extract_isosurface(
      vol, ricsa::data::dataset_spec("jet").default_isovalue);
  v::RenderOptions opt;
  opt.width = 512;
  opt.height = 512;
  const v::Image img = v::render_mesh(iso.mesh, opt).image;
  const auto png = img.encode_png();
  EXPECT_LE(png.size(), 34653u);
  EXPECT_EQ(v::Image::decode_png(png).pixels(), img.pixels());
}

TEST(Deflate, StoredFallbackBoundsIncompressibleExpansion) {
  // Random bytes have no matches and near-uniform literals: entropy coding
  // would expand them, so every block must fall back to stored. Overhead is
  // then the 5-byte header per <=64 KiB block — never a material blowup.
  for (const std::size_t n : {300u, 65535u, 100000u}) {
    const auto data = random_bytes(n, 7000 + n);
    const auto z = v::deflate(data);
    EXPECT_EQ(v::inflate(z), data);
    EXPECT_LE(z.size(), n + 5 * (n / 65535 + 1) + 5) << "n=" << n;
    // First block really is stored: BFINAL/BTYPE live in the low bits.
    EXPECT_EQ((z[0] >> 1) & 0x3, 0u);
  }
}

TEST(Deflate, StoredFallbackSplitsSpansPastSixtyFourK) {
  // A match appended just before the 65535-byte block boundary carries the
  // block's span past the 16-bit stored LEN limit; the stored fallback
  // (which random data always takes) must split the span into multiple
  // blocks rather than truncate LEN. Cover several alignments of the
  // match against the boundary, including a span of exactly 65536.
  for (const std::size_t start : {65278u, 65300u, 65400u, 65500u, 65534u}) {
    auto data = random_bytes(70000, 9000 + start);
    // Plant a max-length (258) match whose source is inside the 32 KiB
    // window so the LZ77 search finds it and straddles the boundary.
    std::copy(data.begin() + static_cast<std::ptrdiff_t>(start - 20000),
              data.begin() + static_cast<std::ptrdiff_t>(start - 20000 + 258),
              data.begin() + static_cast<std::ptrdiff_t>(start));
    const auto z = v::deflate(data);
    EXPECT_EQ(v::inflate(z), data) << "match at " << start;
  }
}

TEST(Deflate, CompressesRepetitiveText) {
  std::string text;
  for (int i = 0; i < 50; ++i) {
    text += "the quick brown fox jumps over the lazy dog. ";
  }
  const auto* p = reinterpret_cast<const std::uint8_t*>(text.data());
  const auto z = v::deflate(p, text.size());
  EXPECT_LT(z.size(), text.size() / 10);
  const auto back = v::inflate(z);
  EXPECT_EQ(std::string(back.begin(), back.end()), text);
  // And the block is entropy-coded (fixed Huffman), not stored.
  EXPECT_EQ((z[0] >> 1) & 0x3, 1u);
}

TEST(Deflate, DecodesFixedHuffmanGoldenVector) {
  // zlib.compressobj(6, DEFLATED, -15) over the plaintext below — a real
  // fixed-Huffman stream with back-references, produced by reference zlib.
  static const std::uint8_t kStream[] = {
      0x2b, 0xc9, 0x48, 0x55, 0x28, 0x2c, 0xcd, 0x4c, 0xce, 0x56, 0x48, 0x2a,
      0xca, 0x2f, 0xcf, 0x53, 0x48, 0xcb, 0xaf, 0x50, 0xc8, 0x2a, 0xcd, 0x2d,
      0x28, 0x56, 0xc8, 0x2f, 0x4b, 0x2d, 0x52, 0x28, 0x01, 0x4a, 0xe7, 0x24,
      0x56, 0x55, 0x2a, 0xa4, 0xe4, 0xa7, 0xeb, 0x81, 0x79, 0x83, 0x40, 0x31,
      0x00};
  std::string expect;
  for (int i = 0; i < 4; ++i) {
    expect += "the quick brown fox jumps over the lazy dog. ";
  }
  const auto out = v::inflate(kStream, sizeof(kStream));
  EXPECT_EQ(std::string(out.begin(), out.end()), expect);
}

TEST(Deflate, DecodesDynamicHuffmanGoldenVector) {
  // zlib.compressobj(9, DEFLATED, -15) over 600 bytes of a skewed
  // 8-symbol alphabet (Python random.seed(7),
  // random.choice(b"aaaaabbbcddeefg h")) — level 9 emits a dynamic-Huffman
  // (BTYPE=2) block, exercising the code-length alphabet, repeat codes,
  // and canonical table construction.
  static const std::uint8_t kRaw[] = {
      0x64, 0x61, 0x65, 0x61, 0x61, 0x61, 0x65, 0x61, 0x68, 0x62, 0x61, 0x61,
      0x66, 0x66, 0x61, 0x62, 0x61, 0x66, 0x61, 0x61, 0x62, 0x61, 0x65, 0x61,
      0x62, 0x61, 0x61, 0x64, 0x66, 0x61, 0x61, 0x64, 0x62, 0x61, 0x62, 0x65,
      0x61, 0x61, 0x61, 0x62, 0x20, 0x66, 0x64, 0x67, 0x67, 0x65, 0x64, 0x62,
      0x62, 0x62, 0x61, 0x64, 0x68, 0x20, 0x64, 0x67, 0x64, 0x61, 0x61, 0x68,
      0x66, 0x62, 0x64, 0x61, 0x20, 0x66, 0x61, 0x61, 0x64, 0x64, 0x65, 0x20,
      0x67, 0x61, 0x61, 0x63, 0x20, 0x61, 0x61, 0x64, 0x67, 0x64, 0x65, 0x65,
      0x61, 0x67, 0x65, 0x62, 0x61, 0x20, 0x61, 0x62, 0x64, 0x61, 0x62, 0x65,
      0x65, 0x20, 0x61, 0x62, 0x67, 0x65, 0x63, 0x61, 0x66, 0x63, 0x66, 0x65,
      0x65, 0x62, 0x61, 0x61, 0x62, 0x61, 0x62, 0x62, 0x61, 0x20, 0x62, 0x63,
      0x64, 0x61, 0x61, 0x66, 0x65, 0x64, 0x61, 0x68, 0x61, 0x67, 0x65, 0x65,
      0x65, 0x65, 0x61, 0x20, 0x65, 0x61, 0x62, 0x61, 0x62, 0x67, 0x62, 0x61,
      0x64, 0x61, 0x61, 0x61, 0x61, 0x61, 0x65, 0x61, 0x61, 0x62, 0x65, 0x61,
      0x63, 0x65, 0x65, 0x20, 0x61, 0x61, 0x20, 0x67, 0x20, 0x20, 0x64, 0x61,
      0x61, 0x61, 0x64, 0x63, 0x20, 0x62, 0x68, 0x61, 0x62, 0x68, 0x65, 0x61,
      0x61, 0x68, 0x64, 0x61, 0x63, 0x68, 0x65, 0x62, 0x65, 0x62, 0x68, 0x64,
      0x62, 0x62, 0x62, 0x65, 0x62, 0x62, 0x68, 0x20, 0x65, 0x61, 0x61, 0x63,
      0x20, 0x63, 0x62, 0x65, 0x67, 0x65, 0x65, 0x61, 0x62, 0x61, 0x62, 0x20,
      0x62, 0x64, 0x62, 0x20, 0x61, 0x20, 0x65, 0x61, 0x61, 0x65, 0x62, 0x20,
      0x62, 0x66, 0x64, 0x61, 0x65, 0x67, 0x65, 0x61, 0x62, 0x62, 0x61, 0x61,
      0x61, 0x67, 0x61, 0x20, 0x65, 0x61, 0x61, 0x61, 0x61, 0x61, 0x68, 0x61,
      0x66, 0x62, 0x62, 0x61, 0x63, 0x62, 0x64, 0x68, 0x62, 0x64, 0x63, 0x66,
      0x61, 0x61, 0x65, 0x67, 0x68, 0x66, 0x68, 0x61, 0x61, 0x68, 0x68, 0x61,
      0x67, 0x62, 0x61, 0x61, 0x62, 0x61, 0x20, 0x61, 0x61, 0x64, 0x68, 0x68,
      0x20, 0x61, 0x61, 0x62, 0x62, 0x63, 0x61, 0x61, 0x68, 0x67, 0x61, 0x61,
      0x67, 0x64, 0x68, 0x68, 0x62, 0x63, 0x67, 0x68, 0x20, 0x68, 0x62, 0x68,
      0x63, 0x62, 0x67, 0x61, 0x66, 0x61, 0x65, 0x67, 0x64, 0x61, 0x62, 0x66,
      0x61, 0x62, 0x64, 0x61, 0x61, 0x65, 0x61, 0x63, 0x61, 0x67, 0x62, 0x61,
      0x65, 0x20, 0x62, 0x62, 0x62, 0x66, 0x68, 0x65, 0x64, 0x66, 0x62, 0x65,
      0x64, 0x61, 0x65, 0x61, 0x64, 0x67, 0x67, 0x61, 0x65, 0x64, 0x68, 0x64,
      0x68, 0x61, 0x61, 0x62, 0x61, 0x61, 0x63, 0x63, 0x61, 0x62, 0x63, 0x61,
      0x66, 0x63, 0x65, 0x61, 0x68, 0x20, 0x64, 0x61, 0x63, 0x61, 0x62, 0x66,
      0x61, 0x63, 0x61, 0x61, 0x63, 0x61, 0x62, 0x61, 0x63, 0x61, 0x67, 0x61,
      0x64, 0x66, 0x63, 0x61, 0x61, 0x68, 0x62, 0x61, 0x62, 0x63, 0x61, 0x62,
      0x62, 0x64, 0x64, 0x68, 0x62, 0x64, 0x67, 0x68, 0x62, 0x63, 0x65, 0x61,
      0x63, 0x61, 0x61, 0x61, 0x68, 0x62, 0x68, 0x20, 0x62, 0x67, 0x61, 0x66,
      0x20, 0x65, 0x68, 0x64, 0x62, 0x62, 0x64, 0x62, 0x61, 0x65, 0x65, 0x61,
      0x61, 0x61, 0x61, 0x63, 0x66, 0x62, 0x61, 0x61, 0x65, 0x68, 0x64, 0x62,
      0x64, 0x61, 0x67, 0x62, 0x62, 0x63, 0x67, 0x61, 0x63, 0x65, 0x64, 0x64,
      0x62, 0x61, 0x64, 0x62, 0x65, 0x62, 0x61, 0x64, 0x65, 0x61, 0x20, 0x63,
      0x68, 0x62, 0x62, 0x68, 0x61, 0x61, 0x63, 0x61, 0x61, 0x65, 0x61, 0x65,
      0x61, 0x64, 0x64, 0x62, 0x61, 0x68, 0x61, 0x65, 0x64, 0x20, 0x61, 0x64,
      0x61, 0x61, 0x68, 0x66, 0x68, 0x61, 0x68, 0x68, 0x61, 0x62, 0x61, 0x61,
      0x61, 0x61, 0x65, 0x61, 0x65, 0x67, 0x61, 0x61, 0x62, 0x20, 0x63, 0x61,
      0x67, 0x61, 0x68, 0x61, 0x68, 0x61, 0x20, 0x63, 0x61, 0x63, 0x62, 0x62,
      0x62, 0x67, 0x20, 0x65, 0x61, 0x20, 0x64, 0x61, 0x62, 0x61, 0x61, 0x64,
      0x63, 0x64, 0x61, 0x61, 0x20, 0x61, 0x20, 0x63, 0x61, 0x62, 0x20, 0x64,
      0x68, 0x64, 0x67, 0x67, 0x67, 0x61, 0x62, 0x64, 0x61, 0x20, 0x61, 0x64,
      0x67, 0x61, 0x68, 0x67, 0x63, 0x65, 0x62, 0x62, 0x61, 0x61, 0x61, 0x68,
      0x63, 0x65, 0x61, 0x68, 0x63, 0x61, 0x65, 0x62, 0x20, 0x20, 0x65, 0x61};
  static const std::uint8_t kStream[] = {
      0x25, 0x92, 0x81, 0x11, 0x85, 0x30, 0x08, 0x43, 0x57, 0x61, 0xb5, 0x04,
      0x28, 0xec, 0x3f, 0xc1, 0x7f, 0xf8, 0xbd, 0x53, 0x6b, 0x28, 0x21, 0x49,
      0x2d, 0xb5, 0xc4, 0xbd, 0x96, 0xde, 0x93, 0xf5, 0xc4, 0xa3, 0xb9, 0x55,
      0x2c, 0xcb, 0xf2, 0x6d, 0x70, 0xbc, 0x9a, 0xe9, 0xb2, 0xad, 0xda, 0xa8,
      0x29, 0x69, 0x9f, 0x4b, 0x71, 0x9b, 0xaa, 0x63, 0xa4, 0x0c, 0x96, 0x53,
      0xdd, 0x9a, 0xb6, 0x42, 0x54, 0xdd, 0xcd, 0x7b, 0x3a, 0xf5, 0xf2, 0x35,
      0x28, 0xbc, 0x30, 0x84, 0x93, 0xfe, 0xd7, 0xa5, 0x65, 0x2f, 0x97, 0xe2,
      0x26, 0x7a, 0x20, 0x97, 0x3e, 0x3d, 0x37, 0x36, 0xaf, 0x5b, 0x31, 0x11,
      0x87, 0x56, 0x86, 0x57, 0x5e, 0x6a, 0x5b, 0xca, 0x6d, 0xb7, 0xf7, 0x04,
      0xb5, 0xbd, 0xf4, 0x33, 0x3f, 0xdd, 0xd0, 0x1d, 0x53, 0xb8, 0x1c, 0xc7,
      0xaa, 0x66, 0xfd, 0x4a, 0x14, 0x6e, 0xb2, 0x34, 0x1f, 0xca, 0xb5, 0x7a,
      0x00, 0xe9, 0x5a, 0x57, 0xe2, 0xa2, 0x67, 0xdf, 0x02, 0x23, 0xe9, 0xd3,
      0x79, 0x6e, 0x76, 0x79, 0xda, 0x09, 0x8c, 0xc1, 0xe1, 0xdb, 0x39, 0x1b,
      0xeb, 0x4d, 0x0f, 0x51, 0x35, 0x39, 0xf8, 0x9d, 0x53, 0x24, 0xe7, 0x35,
      0x76, 0xa0, 0xe8, 0x6d, 0xd7, 0x33, 0xf6, 0x9a, 0x40, 0x46, 0x5d, 0x5b,
      0x7b, 0x94, 0xca, 0x94, 0x2f, 0x0b, 0xf2, 0xc6, 0x53, 0x5e, 0x2f, 0xdc,
      0xbc, 0xaf, 0x99, 0xc0, 0x6f, 0x90, 0x6f, 0x8b, 0x5d, 0xa7, 0x6b, 0x98,
      0x77, 0xc4, 0x07, 0x6f, 0xdc, 0xc8, 0xe8, 0xf3, 0xcc, 0xb1, 0xf4, 0xe7,
      0x22, 0x1f, 0xac, 0x07, 0x15, 0xc3, 0xd1, 0x46, 0x66, 0x45, 0xb1, 0x08,
      0x45, 0x45, 0xac, 0xb9, 0x84, 0x73, 0x13, 0x90, 0x82, 0x18, 0x4a, 0x8b,
      0x9c, 0xd0, 0x77, 0x7c, 0x7b, 0x66, 0xfd, 0xcf, 0xbb, 0xe7, 0x0e, 0xf9,
      0x54, 0x80, 0xd2, 0x47, 0x30, 0xf6, 0x10, 0x15, 0x3a, 0xef, 0x5f, 0xb8,
      0x03, 0x8b, 0xc3, 0x1d, 0xb8, 0x19, 0x5c, 0xdd, 0xe1, 0x63, 0x8f, 0x64,
      0xb2, 0xbf, 0x64, 0xf7, 0x6c, 0xe5, 0x05, 0x4e, 0xdb, 0x0f};
  ASSERT_EQ((kStream[0] >> 1) & 0x3, 2u);  // really a dynamic block
  const auto out = v::inflate(kStream, sizeof(kStream));
  EXPECT_EQ(out, std::vector<std::uint8_t>(kRaw, kRaw + sizeof(kRaw)));
}

namespace {

/// Minimal LSB-first bit packer for hand-building DEFLATE streams in tests.
struct BitSink {
  std::vector<std::uint8_t> bytes;
  std::uint32_t acc = 0;
  int nbits = 0;
  void put(std::uint32_t v, int n) {
    acc |= v << nbits;
    nbits += n;
    while (nbits >= 8) {
      bytes.push_back(static_cast<std::uint8_t>(acc & 0xFF));
      acc >>= 8;
      nbits -= 8;
    }
  }
  void put_huff(std::uint32_t code, int n) {  // codes go MSB-first
    std::uint32_t rev = 0;
    for (int i = 0; i < n; ++i) rev = (rev << 1) | ((code >> i) & 1);
    put(rev, n);
  }
  void flush() {
    if (nbits > 0) bytes.push_back(static_cast<std::uint8_t>(acc & 0xFF));
  }
};

}  // namespace

TEST(Deflate, AcceptsDynamicBlockWithZeroDistanceCodes) {
  // A literal-only dynamic block may legally transmit HDIST=1 with a single
  // zero distance length (RFC 1951 permits it; zlib never emits it but
  // other encoders can). The inflater must accept it as long as no
  // distance code is actually referenced. Stream below encodes "AB":
  // litlen lengths 'A'=1, 'B'=2, EOB=2; distance alphabet empty.
  BitSink s;
  s.put(1, 1);   // BFINAL
  s.put(2, 2);   // BTYPE=10: dynamic
  s.put(0, 5);   // HLIT  = 257
  s.put(0, 5);   // HDIST = 1
  s.put(14, 4);  // HCLEN = 18 (covers CL symbols 18,0,2,1 in kClOrder)
  // Code-length code lengths, in the 16,17,18,0,8,7,... transmit order:
  // symbols {0,1,2,18} each get length 2 -> canonical codes 00,01,10,11.
  const int cl_lens[18] = {0, 0, 2, 2, 0, 0, 0, 0, 0,
                           0, 0, 0, 0, 0, 0, 2, 0, 2};
  for (const int l : cl_lens) s.put(static_cast<std::uint32_t>(l), 3);
  const auto cl = [&s](int sym) {  // emit a code-length symbol
    s.put_huff(sym == 18 ? 3u : static_cast<std::uint32_t>(sym), 2);
  };
  cl(18); s.put(54, 7);   // 65 zeros (symbols 0..64)
  cl(1);                  // 'A' (65): length 1
  cl(2);                  // 'B' (66): length 2
  cl(18); s.put(127, 7);  // 138 zeros
  cl(18); s.put(40, 7);   // 51 more zeros (symbols 67..255)
  cl(2);                  // EOB (256): length 2
  cl(0);                  // the single distance length: 0 (empty alphabet)
  // Payload: canonical codes 'A'=0 (1 bit), 'B'=10, EOB=11.
  s.put_huff(0, 1);
  s.put_huff(2, 2);
  s.put_huff(3, 2);
  s.flush();
  const auto out = v::inflate(s.bytes.data(), s.bytes.size());
  EXPECT_EQ(std::string(out.begin(), out.end()), "AB");
}

TEST(Deflate, RejectsLengthCodeWithEmptyDistanceTable) {
  // Same stream shape as above, but the payload references a match: the
  // empty distance table must make decoding fail rather than misbehave.
  BitSink s;
  s.put(1, 1);
  s.put(2, 2);
  s.put(1, 5);   // HLIT = 258: covers length code 257
  s.put(0, 5);   // HDIST = 1
  s.put(14, 4);
  // Give 'A' length 1 and symbols 257 (a length code) and EOB length 2.
  const int cl_lens[18] = {0, 0, 2, 2, 0, 0, 0, 0, 0,
                           0, 0, 0, 0, 0, 0, 2, 0, 2};
  for (const int l : cl_lens) s.put(static_cast<std::uint32_t>(l), 3);
  const auto cl = [&s](int sym) {
    s.put_huff(sym == 18 ? 3u : static_cast<std::uint32_t>(sym), 2);
  };
  cl(18); s.put(54, 7);   // 65 zeros
  cl(1);                  // 'A' (65): length 1
  cl(18); s.put(127, 7);  // 138 zeros
  cl(18); s.put(41, 7);   // 52 more zeros (symbols 66..255)
  cl(2);                  // EOB (256): length 2
  cl(2);                  // length code 257: length 2
  cl(0);                  // empty distance alphabet
  s.put_huff(0, 1);       // 'A'
  s.put_huff(3, 2);       // symbol 257: needs a distance -> must throw
  s.flush();
  EXPECT_THROW(v::inflate(s.bytes.data(), s.bytes.size()),
               std::runtime_error);
}

TEST(Deflate, RejectsMalformedStreams) {
  EXPECT_THROW(v::inflate(nullptr, 0), std::runtime_error);  // truncated
  const std::uint8_t reserved[] = {0x07};                    // BTYPE=3
  EXPECT_THROW(v::inflate(reserved, 1), std::runtime_error);
  // Distance pointing before the output start.
  const std::vector<std::uint8_t> data(100, 0x55);
  auto z = v::deflate(data);
  z.resize(z.size() / 2);  // truncate mid-stream
  EXPECT_THROW(v::inflate(z), std::runtime_error);
  // max_output enforcement.
  const auto full = v::deflate(data);
  EXPECT_THROW(v::inflate(full.data(), full.size(), nullptr, 10),
               std::runtime_error);
}

TEST(Zlib, RoundTripsAndVerifiesChecksums) {
  const auto data = random_bytes(5000, 11);
  auto z = v::zlib_compress(data.data(), data.size());
  EXPECT_EQ(z[0], 0x78);
  EXPECT_EQ((static_cast<unsigned>(z[0]) * 256 + z[1]) % 31, 0u);
  EXPECT_EQ(v::zlib_decompress(z.data(), z.size()), data);
  // A corrupted trailer is a checksum error, not silent garbage.
  z.back() ^= 0xFF;
  EXPECT_THROW(v::zlib_decompress(z.data(), z.size()), std::runtime_error);
  EXPECT_THROW(v::zlib_decompress(nullptr, 0), std::runtime_error);
}

TEST(Zlib, Adler32MatchesReference) {
  // Reference values from python zlib.adler32.
  const std::string abc = "abc";
  EXPECT_EQ(v::adler32(reinterpret_cast<const std::uint8_t*>(abc.data()),
                       abc.size()),
            0x024D0127u);
  const std::vector<std::uint8_t> zeros(1 << 20, 0);  // exercises run split
  EXPECT_EQ(v::adler32(zeros.data(), zeros.size()), 0x00F00001u);
}

TEST(PngCodec, RoundTripsEverySizeOneThroughSixtyFive) {
  // Every encoder output must decode bit-identically — random pixels
  // (stored-heavy), constant fill (filter + LZ77 best case), and a
  // gradient (filter residuals) across all sizes 1x1..65x65 stepped to
  // keep runtime sane while still covering the 64/65 tile-boundary edges.
  ricsa::util::Xoshiro256 rng(31);
  const int sizes[] = {1, 2, 3, 5, 8, 16, 31, 32, 33, 63, 64, 65};
  for (const int w : sizes) {
    for (const int h : sizes) {
      v::Image random_img(w, h);
      v::Image gradient(w, h);
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
          random_img.at(x, y) = {static_cast<std::uint8_t>(rng() & 0xFF),
                                 static_cast<std::uint8_t>(rng() & 0xFF),
                                 static_cast<std::uint8_t>(rng() & 0xFF),
                                 static_cast<std::uint8_t>(rng() & 0xFF)};
          gradient.at(x, y) = {static_cast<std::uint8_t>(x * 3),
                               static_cast<std::uint8_t>(y * 5),
                               static_cast<std::uint8_t>(x + y), 255};
        }
      }
      const v::Image constant(w, h, {12, 34, 56, 255});
      const v::Image* cases[] = {&random_img, &gradient, &constant};
      for (const v::Image* img : cases) {
        const v::Image back = v::Image::decode_png(img->encode_png());
        ASSERT_EQ(back.width(), w);
        ASSERT_EQ(back.height(), h);
        ASSERT_EQ(back.pixels(), img->pixels())
            << "size " << w << "x" << h;
      }
    }
  }
}

TEST(PngCodec, CompressesStructuredContentWell) {
  // A flat-shaded frame (what the renderer actually emits between isoline
  // edges) must shrink dramatically vs the raw RGBA bytes — this is the
  // whole point of replacing stored blocks.
  v::Image img(192, 192, {30, 40, 50, 255});
  for (int y = 60; y < 90; ++y) {
    for (int x = 60; x < 90; ++x) img.at(x, y) = {200, 220, 240, 255};
  }
  const auto png = img.encode_png();
  EXPECT_LT(png.size(), img.bytes() / 20);
  EXPECT_EQ(v::Image::decode_png(png).pixels(), img.pixels());
}
