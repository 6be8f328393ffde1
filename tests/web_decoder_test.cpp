// web::ResponseDecoder, the one reader of HTTP/1.1 response framing:
//  * split-at-every-byte decoding of a Content-Length response, two
//    pipelined responses, and an SSE stream (id/data events, keepalive
//    comments, an event spanning chunks, the terminal chunk)
//  * each malformed input the decoder must refuse with an error instead
//    of guessing: non-hex chunk size, missing CRLF after chunk data,
//    non-numeric Content-Length, oversized header block, oversized
//    unterminated event, and more
//  * HttpClient on top of it: a streaming answer returns its head and
//    drops the connection; a malformed answer is a protocol error.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

#include "decoder_transcript.hpp"
#include "web/http.hpp"

namespace w = ricsa::web;
using Item = w::ResponseDecoder::Item;
using ricsa_test::transcript;
using ricsa_test::transcript_split;

namespace {

const std::string kPoll =
    "HTTP/1.1 200 OK\r\nContent-Length: 24\r\nConnection: keep-alive\r\n"
    "Content-Type: application/json\r\n\r\n"
    "{\"seq\":42,\"delta\":false}";

const std::string kBusy =
    "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 4\r\n"
    "Connection: close\r\nRetry-After: 1\r\n\r\nbusy";

std::string sse_head() {
  return "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n"
         "Content-Type: text/event-stream\r\nConnection: close\r\n\r\n";
}

/// A chunked SSE response, one chunk per payload, with the terminal chunk.
std::string sse_wire(const std::vector<std::string>& payloads) {
  std::string wire = sse_head();
  for (const std::string& payload : payloads) {
    w::detail::append_chunk(wire, payload);
  }
  w::detail::append_last_chunk(wire);
  return wire;
}

/// Every split offset and a byte-at-a-time feed decode like one feed.
void expect_seam_independent(const std::string& wire) {
  const std::string whole = transcript(wire);
  for (std::size_t split = 1; split < wire.size(); ++split) {
    ASSERT_EQ(transcript_split(wire, split), whole) << "split at " << split;
  }
  std::vector<std::string_view> bytes;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    bytes.push_back(std::string_view(wire).substr(i, 1));
  }
  EXPECT_EQ(transcript(bytes), whole);
}

std::string error_of(const std::string& wire) {
  w::ResponseDecoder decoder;
  decoder.feed(wire);
  Item item;
  while ((item = decoder.next()) != Item::kNeedMore && item != Item::kError) {
  }
  return item == Item::kError ? decoder.error() : std::string();
}

}  // namespace

TEST(ResponseDecoder, ContentLengthResponseAtEverySplit) {
  EXPECT_EQ(transcript(kPoll),
            "head 200 length=24 [content-length=24] [connection=keep-alive] "
            "[content-type=application/json]\n"
            "body {\"seq\":42,\"delta\":false}\n");
  expect_seam_independent(kPoll);

  w::ResponseDecoder decoder;
  decoder.feed(kPoll);
  ASSERT_EQ(decoder.next(), Item::kHead);
  ASSERT_NE(decoder.head().find("content-type"), nullptr);
  EXPECT_EQ(*decoder.head().find("content-type"), "application/json");
  EXPECT_EQ(decoder.head().find("x-relay-path"), nullptr);
  ASSERT_EQ(decoder.next(), Item::kBody);
  EXPECT_EQ(decoder.next(), Item::kNeedMore);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(ResponseDecoder, PipelinedResponsesAtEverySplit) {
  const std::string wire = kPoll + kBusy;
  EXPECT_EQ(transcript(wire),
            transcript(kPoll) +
                "head 503 length=4 close [content-length=4] "
                "[connection=close] [retry-after=1]\nbody busy\n");
  expect_seam_independent(wire);
  // No Content-Length and not chunked: an empty body, and the next
  // response follows at once.
  const std::string empty = "HTTP/1.1 204 No Content\r\n\r\n";
  EXPECT_EQ(transcript(empty + kPoll), "head 204\nbody \n" + transcript(kPoll));
}

TEST(ResponseDecoder, SseStreamAtEverySplit) {
  // Two events in one chunk, an event spread over two chunks, keepalive
  // comments, a partial event cut off by the terminal chunk, and a
  // response pipelined behind the stream.
  const std::string wire =
      sse_wire({"id: 7\ndata: {\"seq\":7}\n\n: keepalive\n\n",
                "id: 8\nda", "ta: {\"seq\":8}\n\n", ": keepalive\n\n",
                "data:no-space\n\n", "id: 9\ndata: cut off"}) +
      kPoll;
  EXPECT_EQ(transcript(wire),
            "head 200 chunked close [transfer-encoding=chunked] "
            "[content-type=text/event-stream] [connection=close]\n"
            "event id=7 data={\"seq\":7}\n"
            "event keepalive\n"
            "event id=8 data={\"seq\":8}\n"
            "event keepalive\n"
            "event data=no-space\n"
            "end\n" +
                transcript(kPoll));
  expect_seam_independent(wire);
  // The last data line of an event wins.
  EXPECT_EQ(transcript(sse_wire({"data: a\ndata: b\n\n"})),
            transcript(sse_head()) + "event data=b\nend\n");
}

TEST(ResponseDecoder, MalformedFramingIsAnError) {
  const std::string head = sse_head();
  // Chunk-size lines are bare hex: no junk, no extensions, no sign.
  EXPECT_EQ(error_of(head + "zz\r\n"), "chunk size is not hex");
  EXPECT_EQ(error_of(head + "5;ext=1\r\nhello\r\n"), "chunk size is not hex");
  EXPECT_EQ(error_of(head + "-5\r\n"), "chunk size is not hex");
  EXPECT_EQ(error_of(head + "\r\n"), "chunk size is not hex");
  EXPECT_EQ(error_of(head + std::string(64, '0')), "chunk-size line too long");
  // The CRLF after chunk data is checked, for data and terminal chunks.
  EXPECT_EQ(error_of(head + "5\r\nhelloXY"), "chunk not followed by CRLF");
  EXPECT_EQ(error_of(head + "0\r\nXY"), "chunk not followed by CRLF");
  // Content-Length is digits only, once.
  for (const char* bad : {"12a", "-1", "", "0x10", "1 2", "1234567890123"}) {
    EXPECT_EQ(error_of(std::string("HTTP/1.1 200 OK\r\nContent-Length: ") +
                       bad + "\r\n\r\n"),
              "bad content-length")
        << bad;
  }
  EXPECT_EQ(error_of("HTTP/1.1 200 OK\r\nContent-Length: 1\r\n"
                     "Content-Length: 1\r\n\r\nx"),
            "bad content-length");
  EXPECT_EQ(error_of("HTTP/1.1 200 OK\r\nContent-Length: 1\r\n"
                     "Transfer-Encoding: chunked\r\n\r\n"),
            "both content-length and chunked");
  EXPECT_EQ(error_of("HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n"),
            "unsupported transfer-encoding");
  // Status line and header lines.
  for (const char* bad : {"HTTP/1.1 20 OK", "HTTP/2 200 OK", "ICY 200 OK",
                          "HTTP/1.1 200OK", "HTTP/1.1 099 Low", ""}) {
    EXPECT_EQ(error_of(std::string(bad) + "\r\n\r\n"), "bad status line")
        << bad;
  }
  EXPECT_EQ(error_of("HTTP/1.1 200 OK\r\nno colon\r\n\r\n"), "bad header line");
  EXPECT_EQ(error_of("HTTP/1.1 200 OK\r\nBad Name: x\r\n\r\n"),
            "bad header line");
  // SSE ids are seqs.
  EXPECT_EQ(error_of(sse_wire({"id: seven\ndata: x\n\n"})), "bad event id");
  EXPECT_EQ(error_of(sse_wire({"id: 99999999999999999999\n\n"})),
            "bad event id");
}

TEST(ResponseDecoder, CapsBoundWhatItHolds) {
  using D = w::ResponseDecoder;
  // A header block that never terminates, and one that terminates too late.
  EXPECT_EQ(error_of(std::string(D::kMaxHeaderBytes + 1, 'x')),
            "header block too large");
  EXPECT_EQ(error_of("HTTP/1.1 200 OK\r\nX: " +
                     std::string(D::kMaxHeaderBytes, 'x') + "\r\n\r\n"),
            "header block too large");
  // A body announced over the cap is refused before any of it arrives.
  EXPECT_EQ(error_of("HTTP/1.1 200 OK\r\nContent-Length: " +
                     std::to_string(D::kMaxBodyBytes + 1) + "\r\n\r\n"),
            "body too large");
  // An event that never reaches its blank line, whether it arrives in one
  // chunk or many small ones.
  std::string big = sse_head();
  w::detail::append_chunk(big, "data: " + std::string(D::kMaxBodyBytes, 'x'));
  EXPECT_EQ(error_of(big), "event too large");
  w::ResponseDecoder trickle;
  trickle.feed(sse_head());
  ASSERT_EQ(trickle.next(), Item::kHead);
  std::string piece;
  w::detail::append_chunk(piece, std::string(1u << 16, 'x'));
  Item item = Item::kNeedMore;
  for (std::size_t fed = 0; item == Item::kNeedMore; fed += 1u << 16) {
    ASSERT_LE(trickle.buffered(), D::kMaxBodyBytes + piece.size());
    trickle.feed(piece);
    item = trickle.next();
    ASSERT_LE(fed, D::kMaxBodyBytes + (1u << 16));
  }
  EXPECT_EQ(item, Item::kError);
  EXPECT_EQ(trickle.error(), "event too large");
  // An error is sticky and holds no bytes until reset().
  EXPECT_EQ(trickle.buffered(), 0u);
  trickle.feed(kPoll);
  EXPECT_EQ(trickle.next(), Item::kError);
  EXPECT_EQ(trickle.buffered(), 0u);
  trickle.reset();
  trickle.feed(kPoll);
  EXPECT_EQ(trickle.next(), Item::kHead);
  EXPECT_EQ(trickle.next(), Item::kBody);
}

// ------------------------------------------------- HttpClient on top ----

TEST(ResponseDecoder, HttpClientAnswersAStreamWithItsHeadAndReconnects) {
  w::HttpServer server;
  server.route_stream("GET", "/s",
                      [](const w::HttpRequest&, w::HttpServer::StreamSink sink) {
                        sink.begin({{"Content-Type", "text/event-stream"}});
                        if (sink.head_only()) return;
                        sink.chunk("data: x\n\n");
                      });
  server.route("GET", "/plain", [](const w::HttpRequest&) {
    return w::HttpResponse::text("plain");
  });
  const int port = server.start();
  w::HttpClient client(port);
  const auto stream = client.get("/s", 5.0);
  EXPECT_EQ(stream.status, 200);
  EXPECT_EQ(stream.headers.at("transfer-encoding"), "chunked");
  EXPECT_TRUE(stream.body.empty());
  // The converted connection was dropped; the next request uses a new one.
  EXPECT_EQ(client.get("/plain", 5.0).body, "plain");
  EXPECT_EQ(client.reconnects(), 1);
  server.stop();
}

TEST(ResponseDecoder, HttpClientReportsMalformedResponsesAsProtocolErrors) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  std::thread peer([listener] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    char request[1024];
    [[maybe_unused]] const ssize_t got = ::recv(fd, request, sizeof(request), 0);
    const std::string reply = "HTTP/1.1 200 OK\r\nContent-Length: 1x\r\n\r\nx";
    w::detail::write_all(fd, reply.data(), reply.size());
    ::close(fd);
  });
  w::HttpClient client(ntohs(addr.sin_port));
  try {
    client.get("/", 5.0);
    ADD_FAILURE() << "a malformed Content-Length was accepted";
  } catch (const w::HttpError& error) {
    EXPECT_EQ(error.kind(), w::HttpError::Kind::kProtocol);
    EXPECT_NE(std::string(error.what()).find("bad content-length"),
              std::string::npos);
  }
  peer.join();
  ::close(listener);
}
