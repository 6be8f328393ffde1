#include "wire.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace perfbench {

namespace {

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

std::vector<std::pair<std::uint64_t, std::string>> take_sse_events(
    std::string& text) {
  std::vector<std::pair<std::uint64_t, std::string>> events;
  std::size_t start = 0;
  for (;;) {
    const std::size_t end = text.find("\n\n", start);
    if (end == std::string::npos) break;
    std::string_view block(text.data() + start, end - start);
    std::uint64_t id = 0;
    std::string data;
    bool has_data = false;
    while (!block.empty()) {
      const std::size_t nl = block.find('\n');
      std::string_view line = block.substr(0, nl);
      block = nl == std::string_view::npos ? std::string_view() : block.substr(nl + 1);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (line.empty() || line.front() == ':') continue;
      const std::size_t colon = line.find(':');
      const std::string_view field = line.substr(0, colon);
      std::string_view value =
          colon == std::string_view::npos ? std::string_view() : line.substr(colon + 1);
      if (!value.empty() && value.front() == ' ') value.remove_prefix(1);
      if (field == "id") {
        std::from_chars(value.data(), value.data() + value.size(), id);
      } else if (field == "data") {
        if (has_data) data.push_back('\n');
        data.append(value);
        has_data = true;
      }
    }
    if (has_data) events.emplace_back(id, std::move(data));
    start = end + 2;
  }
  text.erase(0, start);
  return events;
}

void ResponseReader::feed(std::string_view bytes, std::vector<WireEvent>& out) {
  buf_.append(bytes);
  while (step(out)) {
  }
  wire_since_emit_ += pos_;
  buf_.erase(0, pos_);
  pos_ = 0;
}

void ResponseReader::emit(WireEvent::Kind kind, std::uint64_t id,
                          std::string data, std::vector<WireEvent>& out) {
  // Everything consumed up to here that is not payload is envelope.
  wire_since_emit_ += pos_;
  buf_.erase(0, pos_);
  pos_ = 0;
  WireEvent e;
  e.kind = kind;
  e.status = status_;
  e.id = id;
  e.envelope_bytes =
      kind == WireEvent::Kind::kHeaders
          ? 0
          : (wire_since_emit_ > data.size() ? wire_since_emit_ - data.size() : 0);
  if (kind != WireEvent::Kind::kHeaders) wire_since_emit_ = 0;
  e.data = std::move(data);
  out.push_back(std::move(e));
}

void ResponseReader::parse_headers(std::string_view head,
                                   std::vector<WireEvent>& out) {
  const std::size_t eol = head.find("\r\n");
  const std::string_view status_line = head.substr(0, eol);
  if (status_line.substr(0, 5) != "HTTP/") {
    throw WireError("bad status line");
  }
  const std::size_t sp = status_line.find(' ');
  if (sp == std::string_view::npos) throw WireError("bad status line");
  int status = 0;
  const auto res = std::from_chars(status_line.data() + sp + 1,
                                   status_line.data() + status_line.size(), status);
  if (res.ec != std::errc() || status < 100 || status > 599) {
    throw WireError("bad status code");
  }
  status_ = status;
  bool chunked = false;
  bool has_length = false;
  std::size_t length = 0;
  sse_ = false;
  std::string_view rest = eol == std::string_view::npos ? std::string_view()
                                                         : head.substr(eol + 2);
  while (!rest.empty()) {
    const std::size_t nl = rest.find("\r\n");
    const std::string_view line = rest.substr(0, nl);
    rest = nl == std::string_view::npos ? std::string_view() : rest.substr(nl + 2);
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) throw WireError("bad header line");
    const std::string name = lower(trim(line.substr(0, colon)));
    const std::string value = lower(trim(line.substr(colon + 1)));
    if (name == "content-length") {
      const auto r = std::from_chars(value.data(), value.data() + value.size(), length);
      if (r.ec != std::errc() || r.ptr != value.data() + value.size()) {
        throw WireError("bad content-length");
      }
      has_length = true;
    } else if (name == "transfer-encoding") {
      chunked = value.find("chunked") != std::string::npos;
    } else if (name == "content-type") {
      sse_ = value.find("text/event-stream") != std::string::npos;
    }
  }
  emit(WireEvent::Kind::kHeaders, 0, {}, out);
  body_.clear();
  sse_text_.clear();
  if (chunked) {
    state_ = State::kChunkSize;
  } else if (has_length) {
    sse_ = false;
    remaining_ = length;
    state_ = State::kBodyLength;
  } else {
    throw WireError("response without length or chunking");
  }
}

void ResponseReader::deliver_chunk(std::string_view payload,
                                   std::vector<WireEvent>& out) {
  if (!sse_) {
    body_.append(payload);
    return;
  }
  sse_text_.append(payload);
  for (auto& [id, data] : take_sse_events(sse_text_)) {
    emit(WireEvent::Kind::kSse, id, std::move(data), out);
  }
}

void ResponseReader::finish_response(std::vector<WireEvent>& out) {
  if (!sse_) emit(WireEvent::Kind::kBody, 0, std::move(body_), out);
  body_.clear();
  sse_text_.clear();
  sse_ = false;
  state_ = State::kStatus;
}

bool ResponseReader::step(std::vector<WireEvent>& out) {
  const std::string_view avail(buf_.data() + pos_, buf_.size() - pos_);
  switch (state_) {
    case State::kStatus: {
      const std::size_t end = avail.find("\r\n\r\n");
      if (end == std::string_view::npos) {
        if (avail.size() > 64 * 1024) throw WireError("header block too large");
        return false;
      }
      const std::string head(avail.substr(0, end));
      pos_ += end + 4;
      parse_headers(head, out);
      if (state_ == State::kBodyLength && remaining_ == 0) finish_response(out);
      return true;
    }
    case State::kBodyLength: {
      if (avail.empty()) return false;
      const std::size_t take = std::min(avail.size(), remaining_);
      body_.append(avail.substr(0, take));
      pos_ += take;
      remaining_ -= take;
      if (remaining_ == 0) finish_response(out);
      return true;
    }
    case State::kChunkSize: {
      const std::size_t eol = avail.find("\r\n");
      if (eol == std::string_view::npos) {
        if (avail.size() > 1024) throw WireError("chunk size line too long");
        return false;
      }
      std::string_view line = avail.substr(0, eol);
      line = line.substr(0, line.find(';'));
      line = trim(line);
      std::size_t size = 0;
      const auto r = std::from_chars(line.data(), line.data() + line.size(), size, 16);
      if (line.empty() || r.ec != std::errc() || r.ptr != line.data() + line.size()) {
        throw WireError("bad chunk size");
      }
      pos_ += eol + 2;
      remaining_ = size;
      state_ = size == 0 ? State::kTrailer : State::kChunkData;
      return true;
    }
    case State::kChunkData: {
      if (avail.empty()) return false;
      const std::size_t take = std::min(avail.size(), remaining_);
      const std::string piece(avail.substr(0, take));
      pos_ += take;
      remaining_ -= take;
      if (remaining_ == 0) state_ = State::kChunkEnd;
      deliver_chunk(piece, out);
      return true;
    }
    case State::kChunkEnd: {
      if (avail.size() < 2) return false;
      if (avail.substr(0, 2) != "\r\n") throw WireError("missing chunk CRLF");
      pos_ += 2;
      state_ = State::kChunkSize;
      return true;
    }
    case State::kTrailer: {
      const std::size_t eol = avail.find("\r\n");
      if (eol == std::string_view::npos) return false;
      pos_ += eol + 2;
      if (eol == 0) finish_response(out);  // blank line ends the trailers
      return true;
    }
  }
  return false;
}

}  // namespace perfbench
