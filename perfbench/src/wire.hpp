// Incremental HTTP/1.1 response reader for the benchmark's viewers.
//
// One reader per keep-alive connection. It understands exactly what the
// RICSA servers send: Content-Length responses (long-poll, control POSTs),
// chunked responses, and a chunked text/event-stream whose chunks carry
// Server-Sent Events (`id:` / `data:` lines, `:` comments). Bytes are fed
// as they arrive, split anywhere; completed units come out as events. Every
// wire byte is attributed to a delivered payload or to its envelope
// (status line, headers, chunk framing, SSE framing, keepalives), which is
// what the bytes-per-frame metrics count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct WireError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct WireEvent {
  enum class Kind {
    kHeaders,  // status line + headers parsed (span stamp)
    kBody,     // a complete non-stream response body
    kSse,      // one SSE event with a data field
  };
  Kind kind = Kind::kBody;
  int status = 0;
  /// kSse: the `id:` field (0 when absent).
  std::uint64_t id = 0;
  /// kBody: the response body; kSse: the event's data field.
  std::string data;
  /// Wire bytes consumed since the previous kBody/kSse event that are not
  /// `data` — headers, chunk and SSE framing, keepalive comments.
  std::size_t envelope_bytes = 0;
};

class ResponseReader {
 public:
  /// Consume `bytes`, appending completed events to `out`. Throws WireError
  /// on malformed framing.
  void feed(std::string_view bytes, std::vector<WireEvent>& out);

 private:
  enum class State { kStatus, kBodyLength, kChunkSize, kChunkData, kChunkEnd,
                     kTrailer };

  bool step(std::vector<WireEvent>& out);  // false: need more bytes
  void parse_headers(std::string_view head, std::vector<WireEvent>& out);
  void deliver_chunk(std::string_view payload, std::vector<WireEvent>& out);
  void finish_response(std::vector<WireEvent>& out);
  void emit(WireEvent::Kind kind, std::uint64_t id, std::string data,
            std::vector<WireEvent>& out);

  State state_ = State::kStatus;
  std::string buf_;  // unconsumed wire bytes
  std::size_t pos_ = 0;
  int status_ = 0;
  bool sse_ = false;
  std::size_t remaining_ = 0;  // body or chunk bytes still expected
  std::string body_;           // non-stream body under assembly
  std::string sse_text_;       // stream text not yet split into events
  std::size_t wire_since_emit_ = 0;
};

/// Split complete SSE events (terminated by a blank line) off the front of
/// `text`. Each returned pair is (id, data) for events carrying data;
/// comment-only blocks are dropped. Consumed text is erased from `text`.
std::vector<std::pair<std::uint64_t, std::string>> take_sse_events(
    std::string& text);

}  // namespace perfbench
