// Renders every item a web::ResponseDecoder yields as one string, so two
// feeds of the same bytes (whole, split, byte by byte, mutated) compare
// with a single EXPECT_EQ and a failure prints what was decoded. Every
// item is also checked against the decoder's contract: items in response
// order (a head, then one body or events and an end), a body exactly its
// Content-Length, no more bytes held than were fed, and an error that
// stays put and holds nothing.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "web/http.hpp"

namespace ricsa_test {

class Transcriber {
 public:
  using Decoder = ricsa::web::ResponseDecoder;

  void feed(std::string_view piece) {
    fed_ += piece.size();
    decoder_.feed(piece);
    drain();
  }

  const std::string& text() const noexcept { return text_; }

 private:
  enum class Expect { kHead, kBody, kStream, kNothing };

  void violated(const char* what) {
    ADD_FAILURE() << "decoder contract: " << what << "\nafter:\n" << text_;
    expect_ = Expect::kNothing;
  }

  void drain() {
    using Item = Decoder::Item;
    while (expect_ != Expect::kNothing) {
      const Item item = decoder_.next();
      if (decoder_.buffered() > fed_ ||
          decoder_.buffered() > Decoder::kMaxHeaderBytes + Decoder::kMaxBodyBytes) {
        violated("holds more than it was fed or than its caps");
      }
      if (item == Item::kNeedMore) return;
      if (item == Item::kError) {
        text_ += "error " + decoder_.error() + "\n";
        if (decoder_.error().empty() || decoder_.buffered() != 0 ||
            decoder_.next() != Item::kError) {
          violated("error without a reason, holding bytes, or not sticky");
        }
        expect_ = Expect::kNothing;
        return;
      }
      if (item == Item::kHead) {
        if (expect_ != Expect::kHead) violated("head inside a response");
        const auto& head = decoder_.head();
        text_ += "head " + std::to_string(head.status);
        if (head.has_content_length) {
          text_ += " length=" + std::to_string(head.content_length);
        }
        if (head.chunked) text_ += " chunked";
        if (head.close) text_ += " close";
        for (const auto& [name, value] : head.headers) {
          text_ += " [" + name + "=" + value + "]";
        }
        text_ += "\n";
        expect_ = head.chunked ? Expect::kStream : Expect::kBody;
      } else if (item == Item::kBody) {
        if (expect_ != Expect::kBody ||
            decoder_.body().size() != decoder_.head().content_length) {
          violated("body outside a response or not its Content-Length");
        }
        text_ += "body " + decoder_.body() + "\n";
        if (expect_ != Expect::kNothing) expect_ = Expect::kHead;
      } else if (item == Item::kEvent) {
        if (expect_ != Expect::kStream) violated("event outside a stream");
        const auto& event = decoder_.event();
        text_ += "event";
        if (event.has_id) text_ += " id=" + std::to_string(event.id);
        if (event.keepalive) text_ += " keepalive";
        if (event.has_data) text_ += " data=" + event.data;
        text_ += "\n";
      } else {
        if (expect_ != Expect::kStream) violated("end outside a stream");
        text_ += "end\n";
        if (expect_ != Expect::kNothing) expect_ = Expect::kHead;
      }
    }
  }

  Decoder decoder_;
  std::string text_;
  std::size_t fed_ = 0;
  Expect expect_ = Expect::kHead;
};

/// Feed `pieces` in order to a fresh decoder, draining after each.
inline std::string transcript(const std::vector<std::string_view>& pieces) {
  Transcriber transcriber;
  for (const std::string_view piece : pieces) transcriber.feed(piece);
  return transcriber.text();
}

inline std::string transcript(std::string_view wire) {
  return transcript(std::vector<std::string_view>{wire});
}

/// `wire` split in two at `offset`.
inline std::string transcript_split(std::string_view wire,
                                    std::size_t offset) {
  return transcript({wire.substr(0, offset), wire.substr(offset)});
}

}  // namespace ricsa_test
