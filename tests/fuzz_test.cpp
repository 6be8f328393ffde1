// Seeded mutation fuzzing of the byte parsers that read a peer's bytes.
//
// web::ResponseDecoder is the one reader of HTTP response framing, and a
// relay feeds it whatever its upstream sends; the relay then parses each
// frame body with util::Json to keep its /api/state. The seed corpus in
// tests/corpus/response_decoder is wire captured from a real origin: a
// long-poll response, three responses pipelined on one keep-alive
// connection, and an SSE stream with frames, keepalive comments and the
// terminal chunk. Regenerate it with
//
//   fuzz_test --gtest_also_run_disabled_tests --gtest_filter='FuzzCorpus.*'
//
// The unmutated corpus must decode identically at every split offset.
// Mutated copies (byte flips and overwrites, inserted bytes and framing
// tokens, deleted ranges, truncations) fed in random pieces must keep the
// decoder's contract (see decoder_transcript.hpp): every outcome is a
// well-ordered item sequence or a clean error, nothing beyond the caps is
// held, and the pieces decode exactly as the whole mutated wire does.
// util::Json is seeded with the JSON bodies and SSE event payloads of the
// same corpus: a mutant either fails to parse with a clean error, or its
// value survives dump and parse again unchanged.
// The generator's seed is fixed, so a failure reproduces run to run; the
// failing iteration and its wire are printed.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "decoder_transcript.hpp"
#include "util/json.hpp"
#include "web/frontend.hpp"
#include "web/http.hpp"

namespace w = ricsa::web;
using ricsa::util::Json;
using ricsa_test::transcript;

namespace {

const std::array<const char*, 3> kCorpus = {"poll.http", "pipelined.http",
                                            "sse.http"};

std::string corpus_path(const char* name) {
  return std::string(RICSA_CORPUS_DIR) + "/response_decoder/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

std::vector<std::string> load_corpus() {
  std::vector<std::string> corpus;
  for (const char* name : kCorpus) {
    corpus.push_back(read_file(corpus_path(name)));
    EXPECT_FALSE(corpus.back().empty()) << "missing " << corpus_path(name);
  }
  return corpus;
}

std::size_t count(const std::string& text, const std::string& token) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(token); pos != std::string::npos;
       pos = text.find(token, pos + 1)) {
    ++n;
  }
  return n;
}

/// Framing fragments worth splicing in: they steer mutants into the
/// decoder's branches instead of failing at the first byte.
const std::array<std::string, 12> kTokens = {
    "\r\n", "\n\n", "\r\n\r\n", "0\r\n\r\n", "ffffffffffffffff\r\n",
    "Content-Length: 99\r\n", "Transfer-Encoding: chunked\r\n",
    "HTTP/1.1 200 OK\r\n", "id: 18446744073709551616\n", "data: ", ": k\n\n",
    "5\r\nab\n\nc\r\n"};

/// JSON fragments for the util::Json target: structure, escapes, number
/// edge cases and a deep nesting run.
const std::array<std::string, 16> kJsonTokens = {
    "{", "}", "[", "]", "\"", ":", ",", "\\u00", "\\ud83d", "\\",
    "-0", "1e308", "1e999", "0.1e-400", "null", std::string(100000, '[')};

void mutate(std::string& wire, std::mt19937_64& rng,
            std::span<const std::string> tokens = kTokens) {
  const auto below = [&rng](std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng() % n);
  };
  const std::size_t edits = 1 + below(4);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t pos = below(wire.size() + 1);
    switch (below(6)) {
      case 0:  // flip one bit
        if (pos < wire.size()) wire[pos] ^= static_cast<char>(1u << below(8));
        break;
      case 1:  // overwrite with a framing byte or any byte
        if (pos < wire.size()) {
          static const char kBytes[] = {'\r', '\n', ':', ' ', '0', 'f', 'z'};
          wire[pos] = below(2) == 0 ? kBytes[below(sizeof(kBytes))]
                                    : static_cast<char>(rng());
        }
        break;
      case 2:  // insert random bytes
        wire.insert(pos, 1 + below(8), static_cast<char>(rng()));
        break;
      case 3:  // insert a framing token
        wire.insert(pos, tokens[below(tokens.size())]);
        break;
      case 4:  // delete a range
        wire.erase(pos, 1 + below(16));
        break;
      default:  // truncate
        wire.resize(pos);
        break;
    }
  }
}

}  // namespace

TEST(ResponseDecoderFuzz, CorpusDecodesIdenticallyAtEverySplit) {
  const std::vector<std::string> corpus = load_corpus();
  const std::array<std::size_t, 3> want_bodies = {1, 3, 0};
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const std::string& wire = corpus[i];
    const std::string whole = transcript(wire);
    EXPECT_EQ(count(whole, "error"), 0u) << kCorpus[i] << "\n" << whole;
    EXPECT_EQ(count(whole, "\nbody "), want_bodies[i]) << kCorpus[i];
    if (i == 2) {  // the stream: frames, keepalives, then the terminal chunk
      EXPECT_GE(count(whole, "\nevent id="), 2u) << whole;
      EXPECT_GE(count(whole, "\nevent keepalive"), 1u) << whole;
      EXPECT_EQ(whole.substr(whole.size() - 4), "end\n");
    }
    for (std::size_t split = 1; split < wire.size(); ++split) {
      ASSERT_EQ(ricsa_test::transcript_split(wire, split), whole)
          << kCorpus[i] << " split at " << split;
    }
  }
}

TEST(ResponseDecoderFuzz, MutatedWireYieldsItemsOrACleanError) {
  constexpr int kIterations = 100000;
  const std::vector<std::string> corpus = load_corpus();
  std::mt19937_64 rng(0x5eedf00dULL);
  std::size_t errors = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    std::string wire = corpus[rng() % corpus.size()];
    mutate(wire, rng);
    // The same bytes in up to four random pieces.
    std::vector<std::size_t> cuts = {0, wire.size()};
    for (std::size_t c = rng() % 4; c > 0; --c) {
      cuts.push_back(wire.empty() ? 0 : rng() % wire.size());
    }
    std::sort(cuts.begin(), cuts.end());
    std::vector<std::string_view> pieces;
    for (std::size_t c = 1; c < cuts.size(); ++c) {
      pieces.push_back(std::string_view(wire).substr(cuts[c - 1],
                                                     cuts[c] - cuts[c - 1]));
    }
    const std::string in_pieces = transcript(pieces);
    const std::string whole = transcript(wire);
    if (in_pieces != whole || HasFailure()) {
      ADD_FAILURE() << "iteration " << iteration << " wire:\n"
                    << wire << "\npieces:\n" << in_pieces << "\nwhole:\n"
                    << whole;
      return;
    }
    errors += whole.find("error ") != std::string::npos;
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  std::cout << "[fuzz] " << kIterations << " mutants, " << errors
            << " decoded to a clean error, " << seconds << " s\n";
  // Most mutants should still reach deep into the framing, not all die at
  // the status line.
  EXPECT_LT(errors, static_cast<std::size_t>(kIterations) * 9 / 10);
}

// --------------------------------------------------------- util::Json ----

namespace {

/// The corpus's JSON documents: every response body and SSE event payload.
std::vector<std::string> json_seeds() {
  using Item = w::ResponseDecoder::Item;
  std::vector<std::string> seeds;
  for (const std::string& wire : load_corpus()) {
    w::ResponseDecoder decoder;
    decoder.feed(wire);
    for (Item item = decoder.next();
         item != Item::kNeedMore && item != Item::kError;
         item = decoder.next()) {
      if (item == Item::kBody) seeds.push_back(decoder.body());
      if (item == Item::kEvent && decoder.event().has_data) {
        seeds.push_back(decoder.event().data);
      }
    }
  }
  return seeds;
}

}  // namespace

TEST(JsonFuzz, MutatedBodiesParseCleanlyOrRoundTrip) {
  constexpr int kIterations = 100000;
  const std::vector<std::string> seeds = json_seeds();
  ASSERT_GE(seeds.size(), 5u);
  for (const std::string& seed : seeds) {
    ASSERT_NO_THROW(Json::parse(seed)) << seed;
  }
  std::mt19937_64 rng(0x150bf00dULL);
  std::size_t errors = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    std::string text = seeds[rng() % seeds.size()];
    mutate(text, rng, kJsonTokens);
    Json value;
    try {
      value = Json::parse(text);
    } catch (const std::runtime_error&) {
      ++errors;
      continue;
    }
    const std::string dumped = value.dump();
    Json again;
    try {
      again = Json::parse(dumped);
    } catch (const std::runtime_error& e) {
      ADD_FAILURE() << "iteration " << iteration << ": dump does not parse ("
                    << e.what() << ")\ninput:\n" << text << "\ndump:\n"
                    << dumped;
      return;
    }
    if (!(again == value)) {
      ADD_FAILURE() << "iteration " << iteration
                    << ": value changed across dump and parse\ninput:\n"
                    << text << "\ndump:\n" << dumped;
      return;
    }
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  std::cout << "[fuzz] " << kIterations << " Json mutants, " << errors
            << " failed to parse cleanly, " << seconds << " s\n";
  // Most mutants must still parse, so the round trip is really exercised.
  EXPECT_LT(errors, static_cast<std::size_t>(kIterations) * 9 / 10);
}

// -------------------------------------------------- corpus regeneration ----

namespace {

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  timeval tv{2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

/// Send `requests`, then record the raw reply bytes until `done` says the
/// transcript so far is complete (or the peer closes).
std::string capture(int port, const std::string& requests,
                    const std::function<bool(const std::string&)>& done) {
  const int fd = connect_loopback(port);
  EXPECT_GE(fd, 0);
  EXPECT_TRUE(w::detail::write_all(fd, requests.data(), requests.size()));
  std::string wire;
  char chunk[4096];
  while (!done(transcript(wire))) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) break;
    wire.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(fd);
  return wire;
}

void write_file(const char* name, const std::string& bytes) {
  std::ofstream out(corpus_path(name), std::ios::binary);
  out << bytes;
  EXPECT_TRUE(out.good()) << corpus_path(name);
}

}  // namespace

TEST(FuzzCorpus, DISABLED_CaptureResponseDecoderCorpus) {
  // A small origin: 32x32 frames keep the corpus a few KiB, so a mutant
  // costs microseconds; 16 px tiles give the delta bodies several tiles.
  w::FrontEndConfig config;
  config.session.resolution = 12;
  config.session.cycles_per_frame = 1;
  config.session.viz.image_width = 32;
  config.session.viz.image_height = 32;
  config.tile_size = 16;
  config.frame_interval_s = 0.15;
  w::AjaxFrontEnd fe(config);
  const int port = fe.start();
  while (fe.frame_seq() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const std::string get = " HTTP/1.1\r\nHost: corpus\r\n\r\n";
  const auto bodies = [](std::size_t n) {
    return [n](const std::string& t) { return count(t, "\nbody ") >= n; };
  };

  const std::uint64_t head = fe.frame_seq();
  write_file("poll.http",
             capture(port,
                     "GET /api/poll?since=" + std::to_string(head - 1) +
                         "&delta=1&timeout=1" + get,
                     bodies(1)));
  // Join, wait for the next frame as a delta, then a future cursor with no
  // wait: state, frame and timeout bodies back to back.
  write_file("pipelined.http",
             capture(port,
                     "GET /api/state" + get + "GET /api/poll?since=" +
                         std::to_string(fe.frame_seq()) + "&delta=1&timeout=1" +
                         get + "GET /api/poll?since=999999&timeout=0" + get,
                     bodies(3)));
  // A stream that waits 50 ms at most, so keepalives fall between the
  // 150 ms frames; the registry shutdown ends it with the terminal chunk.
  std::thread stop([&fe] {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    fe.registry().shutdown();
  });
  write_file("sse.http",
             capture(port,
                     "GET /api/stream?since=" + std::to_string(fe.frame_seq() - 1) +
                         "&delta=1&timeout=0.05" + get,
                     [](const std::string& t) {
                       return t.size() >= 4 && t.substr(t.size() - 4) == "end\n";
                     }));
  stop.join();
  fe.stop();
}
