#include "web/hub.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "net/reactor.hpp"
#include "net/reactor_pool.hpp"
#include "util/base64.hpp"

namespace ricsa::web {

namespace {

/// Render a poll response body. `state` is embedded as-is; the image rides
/// along base64-encoded exactly once per frame per image tier (the
/// pre-encoded string is shared by full and delta bodies).
std::string render_body(std::uint64_t seq, Tier tier, const util::Json& state,
                        const std::string& image_b64, bool delta) {
  util::Json out;
  out["seq"] = static_cast<double>(seq);
  out["delta"] = delta;
  out["tier"] = tier_name(tier);
  out["state"] = state;
  if (!image_b64.empty()) out["image_b64"] = image_b64;
  return out.dump();
}

/// One dirty tile of an image delta: its rectangle plus a pointer to the
/// publish-time base64(PNG) encode (shared, never copied until the final
/// body render).
struct TileRef {
  viz::TileRect rect;
  const std::string* b64 = nullptr;
};

/// Render a tile-delta poll body: the state as given (key-delta for the
/// publish-time sequential body, full state for cursor-anchored skips — a
/// skipping client cannot merge key deltas across frames it never saw), the
/// base seq the tiles patch, the canvas dimensions, and the dirty tiles.
std::string render_tiles_body(std::uint64_t seq, Tier tier,
                              const util::Json& state, std::uint64_t base_seq,
                              int width, int height,
                              const std::vector<TileRef>& tiles) {
  util::Json out;
  out["seq"] = static_cast<double>(seq);
  out["delta"] = true;
  out["tier"] = tier_name(tier);
  out["state"] = state;
  out["base_seq"] = static_cast<double>(base_seq);
  out["img_w"] = width;
  out["img_h"] = height;
  util::JsonArray arr;
  arr.reserve(tiles.size());
  for (const TileRef& t : tiles) {
    util::Json tile;
    tile["x"] = t.rect.x;
    tile["y"] = t.rect.y;
    tile["w"] = t.rect.w;
    tile["h"] = t.rect.h;
    tile["png_b64"] = *t.b64;
    arr.push_back(std::move(tile));
  }
  out["tiles"] = util::Json(std::move(arr));
  return out.dump();
}

/// Dirty-pixel fraction at or above which an image delta falls back to the
/// full image: when most of the frame changed, per-tile bookkeeping costs
/// more than it saves.
constexpr double kFullTileFraction = 0.85;

/// Timeouts from the network are untrusted input: NaN must not reach the
/// deadline arithmetic and a negative wait means "do not wait".
double sanitize_timeout(double timeout_s, double max_wait_s) {
  if (!std::isfinite(timeout_s) || timeout_s < 0.0) return 0.0;
  return std::min(timeout_s, max_wait_s);
}

}  // namespace

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kFull: return "full";
    case Tier::kHalf: return "half";
    case Tier::kStateOnly: return "state";
  }
  return "full";
}

FrameHub::FrameHub() : FrameHub(Config()) {}

FrameHub::FrameHub(Config config) : config_(config) {
  if (config_.window == 0) config_.window = 1;
  pool_ = std::make_unique<util::ThreadPool>(config_.workers);
  if (config_.reactor == nullptr) {
    own_loop_ = std::make_unique<net::ReactorPool>(1);
    own_loop_->start();
    config_.reactor = &own_loop_->reactor(0);
  }
  link_ = std::make_shared<ReactorLink>();
  link_->hub = this;
}

FrameHub::~FrameHub() { shutdown(); }

std::uint64_t FrameHub::publish(util::Json state, const viz::Image& image,
                                bool build_half) {
  // An empty image publishes an image-less frame: no pixels, no PNGs.
  // raws[t] stays empty for a tier without pixels this frame.
  std::array<viz::Image, kImageTierCount> raws;
  std::vector<std::uint8_t> png;
  std::vector<std::uint8_t> png_half;
  EncodeCost cost;
  if (image.width() > 0 && image.height() > 0) {
    raws[0] = image;
    png = image.encode_png();
    cost.bytes_in += image.bytes();
    cost.bytes_out += png.size();
    if (build_half) {
      raws[1] = viz::downsample(image, 2);
      png_half = raws[1].encode_png();
      cost.bytes_in += raws[1].bytes();
      cost.bytes_out += png_half.size();
    }
  }

  // Publishers serialize here, which lets the expensive work — delta
  // encoding, one base64 per image tier, rendering the per-tier response
  // bodies — happen without holding mutex_, so concurrent polls never stall
  // behind a frame build. Readers see seq_ and window_ change together below.
  std::lock_guard<std::mutex> publishing(publish_mutex_);
  FramePtr prev = latest();

  auto frame = std::make_shared<Frame>();
  frame->seq = (prev ? prev->seq : 0) + 1;
  frame->state = std::move(state);
  frame->png = std::move(png);
  frame->png_half = std::move(png_half);
  frame->image_changed = !prev || frame->png != prev->png;

  util::Json delta_state;
  if (prev && frame->state.is_object() && prev->state.is_object()) {
    const util::JsonObject& now = frame->state.as_object();
    const util::JsonObject& before = prev->state.as_object();
    for (const auto& [key, value] : now) {
      const auto it = before.find(key);
      if (it == before.end() || !(it->second == value)) {
        delta_state[key] = value;
        ++frame->delta_keys;
      }
    }
  } else {
    delta_state = frame->state;
    frame->delta_keys =
        frame->state.is_object() ? frame->state.as_object().size() : 0;
  }

  // Tile-delta pass, per image tier: diff the raw image against the
  // tier's reference (the previous frame's pixels) on a fixed tile grid and
  // PNG-encode only the dirty tiles — once per frame per tier, shared by
  // every client whose delta includes the tile (sequential *and*
  // cursor-anchored skippers). The image then becomes the next reference.
  for (std::size_t t = 0; t < kImageTierCount; ++t) {
    Frame::TileData& td = frame->tiles[t];
    const viz::Image ref = std::exchange(diff_ref_[t], std::move(raws[t]));
    const viz::Image& raw = diff_ref_[t];
    td.width = raw.width();
    td.height = raw.height();
    if (raw.width() == 0 || ref.width() != raw.width() ||
        ref.height() != raw.height()) {
      continue;  // no reference: stays full_change
    }
    const viz::TileGrid grid(raw.width(), raw.height(), config_.tile_size);
    td.dirty = grid.diff(ref, raw);
    if (grid.dirty_fraction(td.dirty) >= kFullTileFraction) {
      td.dirty.clear();
      continue;  // most of the frame changed: full image is the delta
    }
    td.full_change = false;
    if (grid.dirty_count(td.dirty) == 0) continue;  // image unchanged
    // Coalesce adjacent dirty tiles into maximal rectangles and encode
    // each rect once — fewer, larger PNGs amortize the per-payload
    // PNG/base64/JSON overhead and give DEFLATE longer runs to bite on.
    td.rects = grid.coalesce(td.dirty);
    td.rect_b64.resize(td.rects.size());
    td.tile_rect.assign(grid.count(), -1);
    for (std::size_t r = 0; r < td.rects.size(); ++r) {
      const viz::TileRect& rc = td.rects[r];
      const viz::Image patch = viz::TileGrid::extract(raw, rc);
      const std::vector<std::uint8_t> png_bytes = patch.encode_png();
      cost.bytes_in += patch.bytes();
      cost.bytes_out += png_bytes.size();
      td.rect_b64[r] = util::base64_encode(png_bytes);
      ++cost.encodes;
      const int col0 = rc.x / config_.tile_size;
      const int col1 = (rc.x + rc.w - 1) / config_.tile_size;
      const int row0 = rc.y / config_.tile_size;
      const int row1 = (rc.y + rc.h - 1) / config_.tile_size;
      for (int row = row0; row <= row1; ++row) {
        for (int col = col0; col <= col1; ++col) {
          td.tile_rect[static_cast<std::size_t>(row) *
                           static_cast<std::size_t>(grid.cols()) +
                       static_cast<std::size_t>(col)] =
              static_cast<std::int32_t>(r);
        }
      }
    }
  }

  const std::string b64_full =
      frame->png.empty() ? std::string() : util::base64_encode(frame->png);
  const std::string b64_half =
      frame->png_half.empty() ? std::string()
                              : util::base64_encode(frame->png_half);
  cost.encodes += (b64_full.empty() ? 0 : 1) + (b64_half.empty() ? 0 : 1);
  const std::string none;
  for (std::size_t t = 0; t < kTierCount; ++t) {
    const Tier tier = static_cast<Tier>(t);
    if (tier == Tier::kHalf && frame->png_half.empty()) {
      // Half tier not built this frame: Frame::body() falls back to the
      // full tier's bodies, so rendering duplicates here buys nothing.
      continue;
    }
    const std::string& image_b64 = tier == Tier::kFull   ? b64_full
                                   : tier == Tier::kHalf ? b64_half
                                                         : none;
    frame->bodies[t].full =
        render_body(frame->seq, tier, frame->state, image_b64, false);
    // The sequential delta body (cursor exactly one frame behind): dirty
    // tiles when a tile delta exists, the whole image only as fallback.
    const bool tiled = t < kImageTierCount && !frame->tiles[t].full_change &&
                       frame->image_changed;
    if (tiled) {
      const Frame::TileData& td = frame->tiles[t];
      std::vector<TileRef> tiles;
      tiles.reserve(td.rects.size());
      for (std::size_t i = 0; i < td.rects.size(); ++i) {
        tiles.push_back({td.rects[i], &td.rect_b64[i]});
      }
      frame->bodies[t].delta =
          render_tiles_body(frame->seq, tier, delta_state, frame->seq - 1,
                            td.width, td.height, tiles);
    } else {
      frame->bodies[t].delta =
          render_body(frame->seq, tier, delta_state,
                      frame->image_changed ? image_b64 : none, true);
    }
  }

  return commit_frame(std::move(frame), cost);
}

std::uint64_t FrameHub::publish_encoded(PreEncoded pre) {
  // The relay's forwarding path: no pixels, no PNG, no base64 — the wire
  // bodies the caller received upstream become this frame's serve-time
  // bodies. The frame carries no tile data, so cursor-anchored deltas
  // decline (delta_body_for returns empty) and skipping clients fall back
  // to the full body — or, when this frame has none, to the relay's
  // resync-escalation path. No pixels were published: the next frame on
  // each image tier has no diff reference.
  std::lock_guard<std::mutex> publishing(publish_mutex_);
  FramePtr prev = latest();
  for (viz::Image& ref : diff_ref_) ref = viz::Image();

  auto frame = std::make_shared<Frame>();
  frame->seq = (prev ? prev->seq : 0) + 1;
  frame->state = std::move(pre.state);
  frame->preencoded = true;
  frame->bodies[static_cast<std::size_t>(Tier::kFull)].full =
      std::move(pre.full_body);
  frame->bodies[static_cast<std::size_t>(Tier::kFull)].delta =
      std::move(pre.delta_body);
  return commit_frame(std::move(frame), {});
}

std::uint64_t FrameHub::commit_frame(std::shared_ptr<Frame> frame,
                                     const EncodeCost& cost) {
  bool waiters_remain = false;
  auto remain_hint = std::chrono::steady_clock::time_point::max();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return seq_;
    seq_ = frame->seq;
    window_.push_back(frame);
    while (window_.size() > config_.window) window_.pop_front();

    const auto now = std::chrono::steady_clock::now();
    std::vector<std::pair<std::function<void(FramePtr)>, FramePtr>> satisfied;
    auto it = waiters_.begin();
    while (it != waiters_.end()) {
      // A paced waiter whose inter-frame interval has not yet elapsed stays
      // parked; the timer sweeper serves it at not_before.
      if (it->since < frame->seq && now >= it->not_before) {
        // frame_for_locked, not `frame`: a sequential waiter that sat out
        // earlier publishes behind its not_before must resume at its own
        // cursor, not jump to the newest frame.
        satisfied.emplace_back(std::move(it->done), frame_for_locked(*it));
        it = waiters_.erase(it);
      } else {
        // Cursor from the future (stale client) or paced; keep waiting.
        // Its next actionable instant feeds the reschedule hint below.
        auto event = it->deadline;
        if (it->since < frame->seq) event = std::min(event, it->not_before);
        remain_hint = std::min(remain_hint, event);
        ++it;
      }
    }
    stats_.published++;
    stats_.image_encodes += cost.encodes;
    stats_.image_bytes_in += cost.bytes_in;
    stats_.image_bytes_out += cost.bytes_out;
    if (frame->preencoded) stats_.preencoded_publishes++;
    stats_.served += satisfied.size();
    stats_.waiting = waiters_.size();

    // Fan out on the pool — the monitor thread returns to simulating
    // immediately instead of writing N responses. Dispatching under mutex_
    // keeps the shutdown_ check and the pool_ access atomic against
    // shutdown() destroying the pool.
    for (auto& [done, served] : satisfied) {
      pool_->submit([done = std::move(done), served = std::move(served)] {
        done(served);
      });
    }
    waiters_remain = !waiters_.empty();
  }
  // Waiters held back by pacing (not_before) now have a frame: the reactor
  // sweep timer must move up to the earliest such instant.
  if (waiters_remain) request_reschedule(remain_hint);
  return frame->seq;
}

FramePtr FrameHub::latest() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return window_.empty() ? nullptr : window_.back();
}

FramePtr FrameHub::next_after_locked(std::uint64_t since) const {
  if (window_.empty() || seq_ <= since) return nullptr;
  // window_ holds consecutive seqs [seq_ - size + 1, seq_].
  const std::uint64_t oldest = window_.front()->seq;
  const std::uint64_t want = std::max(since + 1, oldest);
  return window_[static_cast<std::size_t>(want - oldest)];
}

FramePtr FrameHub::frame_for_locked(const Waiter& waiter) const {
  if (waiter.latest_only && !window_.empty() && seq_ > waiter.since) {
    return window_.back();
  }
  return next_after_locked(waiter.since);
}

FramePtr FrameHub::next_after(std::uint64_t since) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_after_locked(since);
}

std::string FrameHub::delta_body_for(const FramePtr& frame,
                                     std::uint64_t since, Tier tier) const {
  if (!frame || tier == Tier::kStateOnly || frame->seq <= since) return {};
  const std::size_t t = static_cast<std::size_t>(tier);
  // Snapshot the frame chain [since, frame->seq] out of the window. The
  // window holds a contiguous seq range, so retaining the cursor frame
  // means every intermediate frame is retained too.
  std::vector<FramePtr> chain;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (window_.empty()) return {};
    const std::uint64_t oldest = window_.front()->seq;
    if (since < oldest || frame->seq > seq_) return {};  // cursor aged out
    chain.reserve(static_cast<std::size_t>(frame->seq - since) + 1);
    for (std::uint64_t s = since; s <= frame->seq; ++s) {
      chain.push_back(window_[static_cast<std::size_t>(s - oldest)]);
    }
  }
  // A full-change frame anywhere in the skipped range means tiles changed
  // there are unaccounted for — the newest-dirty-wins lookup below would
  // hand out stale tile content. That includes a cursor frame that never
  // carried this tier's pixels (the half image was not built then, or the
  // client's last body was a tier fallback) and a resized canvas: the
  // frame after it had no same-size reference.
  for (std::size_t i = 1; i < chain.size(); ++i) {
    if (chain[i]->tiles[t].full_change) return {};
  }
  const Frame::TileData& cur = frame->tiles[t];
  const viz::TileGrid grid(cur.width, cur.height, config_.tile_size);
  // The cursor-anchored dirty set is the union of the per-frame dirty sets
  // over the skipped range: a tile outside it never changed after the
  // cursor frame, so the client's canvas already holds it. Per tile, the
  // newest changer's rect holds the tile's current content (nothing newer
  // touched it) — and its publish-time encode.
  viz::TileSet dirty(grid.count(), 0);
  std::vector<std::size_t> newest(grid.count(), 0);  // 0 = no changer
  for (std::size_t j = 1; j < chain.size(); ++j) {
    const Frame::TileData& td = chain[j]->tiles[t];
    const std::size_t lim = std::min(td.dirty.size(), grid.count());
    for (std::size_t i = 0; i < lim; ++i) {
      if (td.dirty[i] != 0) {
        dirty[i] = 1;
        newest[i] = j;
      }
    }
  }
  if (grid.dirty_fraction(dirty) >= kFullTileFraction) return {};

  // Coalesced rects cover whole groups of tiles, so shipping the newest
  // changer's rect for each dirty tile can drag in neighbor tiles
  // whose content moved on in a later frame. Close over coverage: whenever
  // an included rect covers a tile whose newest changer is a *newer*
  // frame, that frame's rect ships too — composited afterwards (ascending
  // frame order below), it overwrites the stale neighbor content, so every
  // covered tile ends at its current pixels.
  std::vector<std::vector<char>> included(chain.size());
  std::vector<std::pair<std::size_t, std::size_t>> work;
  const auto include = [&](std::size_t tile_idx) -> bool {
    const std::size_t j = newest[tile_idx];
    const Frame::TileData& td = chain[j]->tiles[t];
    if (tile_idx >= td.tile_rect.size() || td.tile_rect[tile_idx] < 0) {
      return false;
    }
    const std::size_t r = static_cast<std::size_t>(td.tile_rect[tile_idx]);
    if (r >= td.rect_b64.size() || td.rect_b64[r].empty()) return false;
    if (included[j].empty()) included[j].assign(td.rects.size(), 0);
    if (included[j][r] == 0) {
      included[j][r] = 1;
      work.emplace_back(j, r);
    }
    return true;
  };
  for (std::size_t i = 0; i < grid.count(); ++i) {
    if (dirty[i] != 0 && !include(i)) return {};
  }
  while (!work.empty()) {
    const auto [j, r] = work.back();
    work.pop_back();
    const viz::TileRect rc = chain[j]->tiles[t].rects[r];
    const int col0 = rc.x / config_.tile_size;
    const int col1 = (rc.x + rc.w - 1) / config_.tile_size;
    const int row0 = rc.y / config_.tile_size;
    const int row1 = (rc.y + rc.h - 1) / config_.tile_size;
    for (int row = row0; row <= row1; ++row) {
      for (int col = col0; col <= col1; ++col) {
        const std::size_t k = static_cast<std::size_t>(row) *
                                  static_cast<std::size_t>(grid.cols()) +
                              static_cast<std::size_t>(col);
        if (newest[k] > j && !include(k)) return {};
      }
    }
  }
  std::vector<TileRef> tiles;
  for (std::size_t j = 1; j < chain.size(); ++j) {
    if (included[j].empty()) continue;
    const Frame::TileData& td = chain[j]->tiles[t];
    for (std::size_t r = 0; r < included[j].size(); ++r) {
      if (included[j][r] != 0) tiles.push_back({td.rects[r], &td.rect_b64[r]});
    }
  }
  // Full state, not a key delta: the client skipped the intermediate frames
  // and has nothing valid to merge into.
  return render_tiles_body(frame->seq, tier, frame->state, since, cur.width,
                           cur.height, tiles);
}

std::uint64_t FrameHub::seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return seq_;
}

std::uint64_t FrameHub::oldest_retained() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return window_.empty() ? 0 : window_.front()->seq;
}

FrameHub::Stats FrameHub::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

bool FrameHub::is_shutdown() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shutdown_;
}

void FrameHub::wait_async(std::uint64_t since, double timeout_s,
                          std::function<void(FramePtr)> done) {
  WaitOptions options;
  options.timeout_s = timeout_s;
  wait_async(since, options, std::move(done));
}

void FrameHub::wait_async(std::uint64_t since, const WaitOptions& options,
                          std::function<void(FramePtr)> done) {
  const double timeout_s =
      sanitize_timeout(options.timeout_s, config_.max_wait_s);
  const auto now = std::chrono::steady_clock::now();
  FramePtr ready;
  bool registered = false;
  auto new_event = std::chrono::steady_clock::time_point::max();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // A cursor ahead of the newest seq cannot be satisfied in this epoch —
    // a stale client whose server restarted (seq counting re-began at 1).
    // Clamp it to the head so the *next publish* serves it a full-frame
    // resync instead of parking forever against a seq that will never
    // arrive. Deliberately not served instantly: pre-resync dashboards
    // ignore frames with seq <= their cursor and re-poll immediately, so an
    // instant response would turn every such straggler into a wire-speed
    // poll loop — parking until the next frame rate-limits them to the
    // publish cadence.
    if (since > seq_) since = seq_;
    if (shutdown_) {
      // fall through; completed below without registering
    } else if (seq_ > since && now >= options.not_before) {
      Waiter probe;
      probe.since = since;
      probe.latest_only = options.latest_only;
      ready = frame_for_locked(probe);
      stats_.served++;
    } else if (timeout_s <= 0.0) {
      // Nothing to serve and no time to wait: time out now. Parking with
      // deadline = now would let a publish landing before the sweep serve
      // a frame to a wait that had already expired.
      stats_.timeouts++;
    } else {
      Waiter w;
      w.since = since;
      w.deadline = now +
                   std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(timeout_s));
      w.not_before = options.not_before;
      w.latest_only = options.latest_only;
      w.done = std::move(done);
      // This waiter's own next actionable instant — the reschedule hint.
      new_event = w.deadline;
      if (seq_ > since) new_event = std::min(new_event, w.not_before);
      waiters_.push_back(std::move(w));
      stats_.waiting = waiters_.size();
      stats_.waiting_peak = std::max(stats_.waiting_peak, stats_.waiting);
      registered = true;
    }
  }
  if (registered) {
    // The new waiter's deadline (or pacing instant) may be the nearest
    // event: the reactor re-derives its sweep timer.
    request_reschedule(new_event);
    return;
  }
  // Caller's thread completes immediately — no pool round-trip when the
  // frame already exists (the catch-up path).
  done(ready);
}

std::chrono::steady_clock::time_point FrameHub::next_event_locked() const {
  // Next actionable instant: a timeout deadline, or the not_before of a
  // paced waiter whose frame is already available.
  auto next = waiters_.front().deadline;
  for (const Waiter& w : waiters_) {
    next = std::min(next, w.deadline);
    if (seq_ > w.since) next = std::min(next, w.not_before);
  }
  return next;
}

void FrameHub::sweep_due_locked(std::chrono::steady_clock::time_point now) {
  std::vector<std::pair<std::function<void(FramePtr)>, FramePtr>> fire;
  auto it = waiters_.begin();
  while (it != waiters_.end()) {
    if (it->deadline <= now) {
      stats_.timeouts++;
      fire.emplace_back(std::move(it->done), nullptr);
      it = waiters_.erase(it);
    } else if (seq_ > it->since && it->not_before <= now) {
      // Paced waiter whose inter-frame interval elapsed after the frame
      // arrived: serve it now (newest frame for latest_only skippers).
      stats_.served++;
      fire.emplace_back(std::move(it->done), frame_for_locked(*it));
      it = waiters_.erase(it);
    } else {
      ++it;
    }
  }
  if (fire.empty()) return;
  stats_.waiting = waiters_.size();
  // Dispatch while still holding mutex_ (same shutdown-vs-pool atomicity
  // as publish); submit only queues a task, so the hold stays short.
  for (auto& [done, frame] : fire) {
    pool_->submit([done = std::move(done), frame = std::move(frame)] {
      done(frame);
    });
  }
}

void FrameHub::request_reschedule(std::chrono::steady_clock::time_point hint) {
  // Posted closures capture the link, never the hub: after shutdown() nulls
  // link_->hub, a straggler is a locked no-op instead of a dangling call.
  config_.reactor->post([link = link_, hint] {
    std::lock_guard<std::mutex> guard(link->mutex);
    if (link->hub != nullptr) link->hub->reschedule_on_reactor(hint);
  });
}

void FrameHub::reschedule_on_reactor(
    std::chrono::steady_clock::time_point hint) {
  // The armed timer already fires by the prompting event's instant: done.
  // This is the hot path — every new waiter whose deadline lies beyond
  // the earliest one (i.e. almost all of them) stops here instead of
  // paying an O(waiters) rescan.
  if (reactor_timer_ != 0 && armed_at_ <= hint) return;
  if (reactor_timer_ != 0) {
    config_.reactor->cancel(reactor_timer_);
    reactor_timer_ = 0;
  }
  std::chrono::steady_clock::time_point earliest;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_ || waiters_.empty()) return;
    earliest = next_event_locked();
  }
  // One timer registration covers the whole waiter list — pacing instants
  // and poll timeouts alike become wheel entries on the shared loop.
  reactor_timer_ = config_.reactor->run_at(earliest, [link = link_] {
    std::lock_guard<std::mutex> guard(link->mutex);
    if (link->hub == nullptr) return;
    link->hub->reactor_timer_ = 0;
    {
      std::lock_guard<std::mutex> lock(link->hub->mutex_);
      if (!link->hub->shutdown_) {
        link->hub->sweep_due_locked(std::chrono::steady_clock::now());
      }
    }
    link->hub->reschedule_on_reactor(
        std::chrono::steady_clock::time_point::min());
  });
  armed_at_ = earliest;
}

void FrameHub::shutdown() {
  std::vector<Waiter> orphans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return;
    shutdown_ = true;
    orphans.swap(waiters_);
    stats_.timeouts += orphans.size();
    stats_.waiting = 0;
  }
  {
    // Sever the reactor link: timers/tasks already queued find a null hub.
    std::lock_guard<std::mutex> guard(link_->mutex);
    link_->hub = nullptr;
  }
  if (own_loop_) own_loop_->stop();
  for (auto& w : orphans) {
    pool_->submit([done = std::move(w.done)] { done(nullptr); });
  }
  // Drains queued fan-out tasks, then joins the workers: after shutdown()
  // returns, no hub thread will ever run another callback.
  pool_.reset();
}

}  // namespace ricsa::web
