#include "web/frontend.hpp"

#include <chrono>
#include <string>

#include "util/strings.hpp"

namespace ricsa::web {

namespace {

/// The embedded dashboard: no frameworks. Prefers the SSE push channel
/// (/api/stream — one request, events forever) and falls back to plain XHR
/// long-polling when EventSource is missing or the stream fails before its
/// first event. Both transports ask for delta=1 and merge partial state
/// updates client-side — only the UI elements that contain new information
/// change, the partial-update behaviour the paper highlights about Ajax
/// UIs.
constexpr const char* kDashboardHtml = R"HTML(<!doctype html>
<html><head><meta charset="utf-8"><title>RICSA monitor</title>
<style>
 body{font-family:sans-serif;background:#101018;color:#dde;margin:20px}
 #frame{border:1px solid #446;image-rendering:pixelated;width:384px;height:384px}
 .row{margin:6px 0} label{display:inline-block;width:120px}
 input{width:80px} button{margin-left:4px}
 #status{white-space:pre;font-family:monospace;font-size:12px;color:#9fb}
</style></head><body>
<h2>RICSA &mdash; computational monitoring &amp; steering</h2>
<div style="display:flex;gap:24px">
 <div><canvas id="frame" width="384" height="384"></canvas></div>
 <div>
  <div class="row"><label>watch view</label>
   <select id="viewsel"><option>main</option></select></div>
  <div class="row"><label>variable</label>
   <select id="variable"><option>density</option><option>pressure</option>
   <option>velocity</option><option>energy</option></select></div>
  <div class="row"><label>isovalue</label><input id="isovalue" value="0.5"/></div>
  <div class="row"><label>azimuth</label><input id="azimuth" value="0.7"/></div>
  <div class="row"><label>zoom</label><input id="zoom" value="1.0"/></div>
  <div class="row"><label>octant</label><input id="octant" value="-1"/></div>
  <div class="row"><button onclick="postView()">apply view</button></div>
  <hr/>
  <div class="row"><label>parameter</label><input id="pname" value="gamma"/></div>
  <div class="row"><label>value</label><input id="pvalue" value="1.4"/></div>
  <div class="row"><button onclick="steer()">steer</button></div>
 </div>
</div>
<div id="status">connecting...</div>
<script>
// Sharded hubs: every published view is its own server-side stream with
// its own seq space and tile-delta chain, so the dashboard keeps one
// cursor record per view — switching back to a view resumes its stream
// instead of restarting it.
//   since      last seq received (the poll cursor)
//   composited seq of the frame last painted for this view (what tile
//              deltas patch)
//   needFull   resync escape hatch: when a delta cannot be composited, the
//              next poll asks for a complete frame with full=1
let currentView = 'main';
const viewRecs = {};
function rec(name){
  if (!viewRecs[name]) {
    viewRecs[name] = {since: 0, composited: 0, needFull: true, state: {},
                      tier: 'full'};
  }
  return viewRecs[name];
}
let tier = 'full';
// Frame generation: image decodes are async, so a slow decode from frame N
// must never paint over a frame accepted after it — stale generations are
// dropped on decode completion. A view switch also bumps it, so decodes of
// the previous view never paint over the new one. Within the surviving
// generation the composite cursor is assigned *unconditionally* (never
// max()-guarded): after a server restart the resync frame carries a
// smaller seq than the stale cursor, and refusing to move backwards would
// wedge the client out of tile deltas forever.
let frameGen = 0;
// Poll epoch: a view switch aborts the in-flight long-poll and starts a
// fresh loop; the aborted handler sees a stale epoch and exits instead of
// double-looping.
let pollEpoch = 0;
let pollXhr = null;
// Preferred transport: the SSE push channel when the browser has
// EventSource; demoted to 'poll' the moment a stream fails before its
// first event (startStream's negotiation).
let transport = (typeof EventSource !== 'undefined') ? 'sse' : 'poll';
let es = null;
const canvas = document.getElementById('frame');
const ctx = canvas.getContext('2d');
// Per-client session identity: the server meters this client's goodput and
// adapts its quality tier / frame rate (the paper's network optimization,
// applied per browser). One identity across every view this browser
// watches — the server paces the client, not each stream.
const client = 'c' + Math.random().toString(36).slice(2, 10) +
               Date.now().toString(36);
function drawFull(v, b64, seq){
  const gen = ++frameGen;
  const im = new Image();
  im.onload = function(){
    if (gen !== frameGen) return;  // a newer frame superseded this decode
    if (canvas.width !== im.width || canvas.height !== im.height) {
      canvas.width = im.width; canvas.height = im.height;
    }
    ctx.drawImage(im, 0, 0);
    v.composited = seq;
    v.needFull = false;
  };
  im.onerror = function(){ v.needFull = true; };
  im.src = 'data:image/png;base64,' + b64;
}
function drawTiles(v, r){
  // Decode every tile first, then paint all of them in one synchronous
  // pass: the visible canvas never shows a partially patched frame, and
  // the composite cursor advances atomically with the paint. Any decode
  // failure falls back to full=1.
  const gen = ++frameGen;
  let pending = r.tiles.length;
  if (pending === 0) { v.composited = r.seq; return; }
  const decoded = new Array(pending);
  r.tiles.forEach(function(t, i){
    const im = new Image();
    im.onload = function(){
      if (gen !== frameGen) return;
      decoded[i] = im;
      if (--pending === 0) {
        r.tiles.forEach(function(t2, j){
          ctx.drawImage(decoded[j], t2.x, t2.y);
        });
        v.composited = r.seq;
      }
    };
    im.onerror = function(){ v.needFull = true; };
    im.src = 'data:image/png;base64,' + t.png_b64;
  });
}
// One frame body — the transports carry identical JSON, so SSE events and
// poll responses land in the same handler.
function handleFrame(v, view, r){
  // Accept any non-timeout frame — including a resync whose seq is
  // *below* a stale cursor (server restarted — or the idle shard was
  // reaped and revived — and its seq re-counts from 1).
  if (!r.seq || r.timeout) return;
  // Delta responses carry only the changed keys; merge them.
  if (r.delta && r.seq === v.since + 1) Object.assign(v.state, r.state);
  else v.state = r.state;
  v.since = r.seq;
  if (r.tier) { tier = r.tier; v.tier = r.tier; }
  if (r.tiles) {
    // Tiles patch the frame named by base_seq; anything else on the
    // canvas would yield a franken-frame — resync instead.
    if (r.base_seq === v.composited) drawTiles(v, r);
    else v.needFull = true;
  } else if (r.image_b64) {
    drawFull(v, r.image_b64, r.seq);
  } else {
    // No tiles and no image: the frame's pixels are byte-identical
    // to what the canvas already shows (or this is a state-only
    // tier, where a later tier switch forces a full frame anyway) —
    // advance the composite cursor so the tile chain survives idle
    // frames instead of forcing a needless full resync. A decode
    // still in flight may re-assign its own (older) seq afterwards;
    // that costs at most one transient full resync.
    v.composited = r.seq;
  }
  document.getElementById('status').textContent =
      'view: ' + view + '  tier: ' + tier + ' (' + transport + ')\n' +
      JSON.stringify(v.state, null, 1);
}
function poll(){
  const epoch = pollEpoch;
  const view = currentView;
  const v = rec(view);
  const xhr = new XMLHttpRequest();
  pollXhr = xhr;
  // The cursor echoes the seq last *composited* for this view: the server
  // anchors tile deltas at the frame this client actually shows.
  xhr.open('GET', '/api/poll?since=' + v.since + '&delta=1&client=' + client +
           '&view=' + encodeURIComponent(view) +
           (v.needFull ? '&full=1' : ''), true);
  xhr.onload = function(){
    if (epoch !== pollEpoch) return;  // superseded by a view switch
    try { handleFrame(v, view, JSON.parse(xhr.responseText)); } catch(e) {}
    poll();
  };
  xhr.onerror = function(){
    if (epoch !== pollEpoch) return;
    setTimeout(function(){ if (epoch === pollEpoch) poll(); }, 1000);
  };
  xhr.send();
}
// Transport negotiation: one EventSource replaces the whole poll loop —
// same query contract, same bodies, one `data:` event per frame. Any
// failure before the first event means no server-side stream support (or a
// proxy eating chunked responses): fall back to long-poll for good. A
// failure *after* events flowed is a reap/restart; reconnect over SSE and
// take the stale-cursor resync.
function startStream(){
  const epoch = pollEpoch;
  const view = currentView;
  const v = rec(view);
  let gotEvent = false;
  es = new EventSource('/api/stream?since=' + v.since + '&delta=1&client=' +
                       client + '&view=' + encodeURIComponent(view) +
                       (v.needFull ? '&full=1' : ''));
  es.onmessage = function(e){
    if (epoch !== pollEpoch) return;
    gotEvent = true;
    try { handleFrame(v, view, JSON.parse(e.data)); } catch(err) {}
    if (v.needFull) {
      // A delta could not be composited mid-stream: reconnect asking the
      // first event to be a complete frame (the stream's full=1 resync).
      ++pollEpoch;
      es.close(); es = null;
      startTransport();
    }
  };
  es.onerror = function(){
    if (epoch !== pollEpoch) return;
    ++pollEpoch;
    es.close(); es = null;
    if (!gotEvent) transport = 'poll';
    setTimeout(function(){ startTransport(); }, gotEvent ? 250 : 0);
  };
}
function startTransport(){
  if (transport === 'sse') startStream(); else poll();
}
function switchView(){
  currentView = document.getElementById('viewsel').value;
  // The canvas holds another view's pixels: tile deltas must not patch
  // them. Ask for a complete frame and invalidate in-flight decodes.
  rec(currentView).needFull = true;
  ++frameGen;
  ++pollEpoch;
  if (pollXhr) pollXhr.abort();
  if (es) { es.close(); es = null; }
  startTransport();
}
function refreshViews(){
  // The registry's live shards populate the selector: what the publisher
  // declares is what a browser can watch.
  const xhr = new XMLHttpRequest();
  xhr.open('GET', '/api/stats', true);
  xhr.onload = function(){
    try {
      const names = Object.keys(JSON.parse(xhr.responseText).views || {});
      const sel = document.getElementById('viewsel');
      const have = {};
      for (let i = 0; i < sel.options.length; i++) {
        have[sel.options[i].value] = true;
      }
      names.forEach(function(n){
        if (!have[n]) {
          const opt = document.createElement('option');
          opt.value = n; opt.textContent = n;
          sel.appendChild(opt);
        }
      });
    } catch(e) {}
    setTimeout(refreshViews, 5000);
  };
  xhr.onerror = function(){ setTimeout(refreshViews, 5000); };
  xhr.send();
}
document.getElementById('viewsel').onchange = switchView;
refreshViews();
function steer(){
  const body = {};
  body[document.getElementById('pname').value] =
      parseFloat(document.getElementById('pvalue').value);
  const xhr = new XMLHttpRequest();
  xhr.open('POST', '/api/steer', true);
  xhr.send(JSON.stringify(body));
}
function postView(){
  const body = {
    variable: document.getElementById('variable').value,
    isovalue: parseFloat(document.getElementById('isovalue').value),
    azimuth: parseFloat(document.getElementById('azimuth').value),
    zoom: parseFloat(document.getElementById('zoom').value),
    octant: parseInt(document.getElementById('octant').value)
  };
  const xhr = new XMLHttpRequest();
  xhr.open('POST', '/api/view', true);
  xhr.send(JSON.stringify(body));
}
startTransport();
</script></body></html>)HTML";

}  // namespace

namespace {

HubRegistry::Config registry_config_of(const FrontEndConfig& config,
                                       net::Reactor* reactor) {
  HubRegistry::Config registry;
  registry.hub.window = config.frame_window;
  registry.hub.workers = config.hub_workers;
  registry.hub.max_wait_s = config.poll_timeout_s;
  registry.hub.tile_size = config.tile_size;
  registry.hub.reactor = reactor;
  registry.pacing = config.pacing;
  registry.pacing.frame_interval_s = config.frame_interval_s;
  return registry;
}

/// The monitoring state every view publishes: the simulation step, the
/// view's own render timings, and a wall-clock publish stamp so clients
/// (and the fan-out bench) can measure publish-to-delivery latency against
/// the instant THIS shard's frame became available.
util::Json view_state(const std::string& view,
                      const steering::SteeringSession::FrameResult& frame,
                      const steering::ExecuteResult& exec) {
  util::Json state;
  state["view"] = view;
  state["cycle"] = frame.cycle;
  state["sim_time"] = frame.sim_time;
  state["variable"] = frame.variable;
  state["filter_s"] = exec.filter_s;
  state["transform_s"] = exec.transform_s;
  state["render_s"] = exec.render_s;
  state["geometry_bytes"] = static_cast<double>(exec.geometry_bytes);
  state["published_ms"] = static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count()) / 1000.0;
  return state;
}

}  // namespace

AjaxFrontEnd::AjaxFrontEnd(FrontEndConfig config)
    : config_(config),
      session_(config.session),
      registry_(registry_config_of(config, &server_.reactor())),
      main_hub_(registry_.pin(registry_.default_view_name())),
      frames_(registry_, config.poll_timeout_s,
              {[this] { return frame_period_s_.load(); }, {}, {}}) {
  // The connection idle-read timeout must exceed the longest long-poll wait
  // any route can hand out (poll timeout == hub max wait here), else a
  // legal configuration silently kills keep-alive connections mid-poll.
  server_.set_idle_read_timeout(config_.poll_timeout_s + 15.0);
  server_.set_workers(config_.http_workers);
  server_.set_max_connections(config_.max_connections);
  server_.set_sndbuf(config_.sndbuf);
  // set_reactors keeps reactor(0)'s identity, so the hub sweeps the
  // registry registered on it above stay valid.
  server_.set_reactors(config_.reactors);
  register_routes();
}

AjaxFrontEnd::~AjaxFrontEnd() { stop(); }

int AjaxFrontEnd::start() {
  const int port = server_.start(config_.port);
  running_ = true;
  loop_thread_ = std::thread([this] { frame_loop(); });
  return port;
}

void AjaxFrontEnd::stop() {
  if (!running_.exchange(false)) return;
  if (loop_thread_.joinable()) loop_thread_.join();
  // Order matters: close every connection first so hub callbacks flushed by
  // shutdown() hit dead sockets instead of re-entering live poll loops.
  server_.stop();
  registry_.shutdown();
}

void AjaxFrontEnd::register_routes() {
  server_.route("GET", "/", [](const HttpRequest&) { return HttpResponse::html(kDashboardHtml); });
  server_.route("GET", "/api/state", [this](const HttpRequest& r) { return frames_.state(r); });
  server_.route("GET", "/api/stats", [this](const HttpRequest& r) { return handle_stats(r); });
  server_.route("GET", "/api/image", [this](const HttpRequest& r) { return handle_image(r); });
  server_.route("POST", "/api/steer", [this](const HttpRequest& r) { return handle_steer(r); });
  server_.route("POST", "/api/view", [this](const HttpRequest& r) { return handle_view(r); });
  server_.route_async("GET", "/api/poll",
                      [this](const HttpRequest& r, HttpServer::ResponseSink s) {
                        frames_.poll(r, std::move(s));
                      });
  server_.route_stream("GET", "/api/stream",
                       [this](const HttpRequest& r, HttpServer::StreamSink s) {
                         frames_.stream(r, std::move(s));
                       });
}

void AjaxFrontEnd::frame_loop() {
  frame_period_s_.store(config_.frame_interval_s);
  auto last_publish = std::chrono::steady_clock::now();
  while (running_.load()) {
    // Apply client-posted view/viz changes on the session's thread.
    {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      while (!pending_view_.empty()) {
        const util::Json op = pending_view_.front();
        pending_view_.pop_front();
        if (op.contains("variable")) {
          session_.set_variable(op.at("variable").as_string());
        }
        if (op.contains("isovalue")) {
          session_.viz_request().isovalue =
              static_cast<float>(op.at("isovalue").as_number(0.5));
        }
        if (op.contains("azimuth")) {
          session_.view().azimuth =
              static_cast<float>(op.at("azimuth").as_number(0.7));
        }
        if (op.contains("elevation")) {
          session_.view().elevation =
              static_cast<float>(op.at("elevation").as_number(0.35));
        }
        if (op.contains("zoom")) {
          session_.view().zoom =
              static_cast<float>(op.at("zoom").as_number(1.0));
        }
        if (op.contains("octant")) {
          session_.view().octant =
              static_cast<int>(op.at("octant").as_int(-1));
        }
        if (op.contains("technique")) {
          const std::string t = op.at("technique").as_string();
          auto& technique = session_.viz_request().technique;
          if (t == "isosurface") technique = cost::VizRequest::Technique::kIsosurface;
          if (t == "raycast") technique = cost::VizRequest::Technique::kRayCast;
          if (t == "streamline") technique = cost::VizRequest::Technique::kStreamline;
        }
      }
    }

    const auto frame = session_.next_frame();

    util::Json state =
        view_state(registry_.default_view_name(), frame, frame.exec);
    state["vrt"] = frame.vrt.to_string();
    state["predicted_delay_s"] = frame.vrt.predicted_delay_s;
    util::JsonObject params;
    for (const auto& [key, value] : session_.parameters()) {
      params[key] = util::Json(value);
    }
    state["parameters"] = util::Json(params);

    // One snapshot, one encode per quality tier, one base64 per image tier,
    // one JSON render per tier body — per *view*, however many clients are
    // watching it. Each view publishes into its own hub shard, which fans
    // out to that shard's parked pollers. The reduced image is only built
    // while some client actually occupies the half tier (session-global:
    // tiers are per client, not per view).
    const bool build_half = registry_.sessions().wants_half_tier();
    registry_.publish(registry_.default_view_name(), std::move(state),
                      frame.image, build_half);
    for (const ViewSpec& spec : config_.views) {
      const auto exec = session_.render_view(spec.viz, spec.camera);
      if (!exec) continue;
      registry_.publish(spec.name, view_state(spec.name, frame, *exec),
                        exec->image, build_half);
    }

    const auto now = std::chrono::steady_clock::now();
    const double period =
        std::chrono::duration<double>(now - last_publish).count();
    last_publish = now;
    // EWMA of the real publish period (sim + render + sleep): pacing must
    // judge clients against what is actually published, not the nominal
    // cadence.
    frame_period_s_.store(0.8 * frame_period_s_.load() + 0.2 * period);

    std::this_thread::sleep_for(
        std::chrono::duration<double>(config_.frame_interval_s));
  }
}

HttpResponse AjaxFrontEnd::handle_stats(const HttpRequest& request) {
  // Monitoring must observe, not revive: hub_for()'s subscribe() would
  // refresh a reaped shard's idle clock and rebuild its hub, so a stats
  // scraper alone could keep an unwatched view alive forever. Look up
  // without revival instead; a known-but-reaped view reports live=false
  // with zeroed hub counters, only unknown names are a 404.
  std::string view = request.query_param("view");
  if (view.empty()) view = registry_.default_view_name();
  if (!registry_.known(view)) return HttpResponse::not_found();
  const std::shared_ptr<FrameHub> hub = registry_.find(view);
  // Top level keeps the pre-sharding shape, describing the requested (or
  // default) view's shard; the `views` block carries every *live* shard so
  // dashboards can enumerate what is watchable, and `registry` the shard
  // lifecycle counters.
  util::Json out = hub ? hub_stats_json(*hub) : util::Json();
  out["view"] = view;
  out["live"] = hub != nullptr;
  out["steers"] = static_cast<double>(steers_.load());
  add_node_stats(out, server_, registry_);
  {
    const HubRegistry::Stats rs = registry_.stats();
    util::Json registry;
    registry["live"] = static_cast<double>(rs.live);
    registry["known"] = static_cast<double>(rs.known);
    registry["created"] = static_cast<double>(rs.created);
    registry["reaped"] = static_cast<double>(rs.reaped);
    out["registry"] = registry;
  }
  return HttpResponse::json(out.dump());
}

namespace {

enum class RangeParse { kNone, kOk, kUnsatisfiable };

/// RFC 7233 single byte-range parser for `Range: bytes=a-b` / `a-` / `-N`.
/// kNone means "serve the full 200": absent, malformed, or multi-range
/// headers are all legally ignorable; only a parsable-but-out-of-bounds
/// range earns the 416.
RangeParse parse_byte_range(const std::string& header, std::size_t total,
                            std::size_t* first, std::size_t* last) {
  if (!util::starts_with(header, "bytes=")) return RangeParse::kNone;
  const std::string spec = header.substr(6);
  if (spec.empty() || spec.find(',') != std::string::npos) {
    return RangeParse::kNone;  // multi-range: out of scope, full body
  }
  const std::size_t dash = spec.find('-');
  if (dash == std::string::npos) return RangeParse::kNone;
  const std::string a = spec.substr(0, dash);
  const std::string b = spec.substr(dash + 1);
  const auto digits = [](const std::string& str) {
    return !str.empty() &&
           str.find_first_not_of("0123456789") == std::string::npos;
  };
  if (a.empty()) {
    // Suffix form `-N`: the final N bytes.
    if (!digits(b)) return RangeParse::kNone;
    const std::size_t n = std::stoull(b);
    if (n == 0) return RangeParse::kUnsatisfiable;
    *first = n >= total ? 0 : total - n;
    *last = total - 1;
    return RangeParse::kOk;
  }
  if (!digits(a) || (!b.empty() && !digits(b))) return RangeParse::kNone;
  *first = std::stoull(a);
  if (*first >= total) return RangeParse::kUnsatisfiable;
  *last = b.empty() ? total - 1 : std::stoull(b);
  if (*last < *first) return RangeParse::kNone;  // malformed, not a miss
  if (*last >= total) *last = total - 1;
  return RangeParse::kOk;
}

}  // namespace

HttpResponse AjaxFrontEnd::handle_image(const HttpRequest& request) {
  const std::shared_ptr<FrameHub> hub = frames_.hub_for(request);
  if (!hub) return HttpResponse::not_found();
  const FramePtr frame = hub->latest();
  if (!frame || frame->png.empty()) return HttpResponse::not_found();
  HttpResponse response = HttpResponse::binary(frame->png, "image/png");
  response.headers["Accept-Ranges"] = "bytes";
  const auto range = request.headers.find("range");
  if (range == request.headers.end()) return response;
  const std::size_t total = response.body.size();
  std::size_t first = 0;
  std::size_t last = 0;
  switch (parse_byte_range(range->second, total, &first, &last)) {
    case RangeParse::kNone:
      return response;
    case RangeParse::kUnsatisfiable: {
      HttpResponse miss = HttpResponse::text("range not satisfiable", 416);
      miss.headers["Content-Range"] = "bytes */" + std::to_string(total);
      miss.headers["Accept-Ranges"] = "bytes";
      return miss;
    }
    case RangeParse::kOk:
      break;
  }
  response.status = 206;
  response.headers["Content-Range"] = "bytes " + std::to_string(first) + "-" +
                                      std::to_string(last) + "/" +
                                      std::to_string(total);
  response.body = response.body.substr(first, last - first + 1);
  return response;
}

HttpResponse AjaxFrontEnd::handle_steer(const HttpRequest& request) {
  util::Json body;
  try {
    body = util::Json::parse(request.body);
  } catch (const std::exception& e) {
    return HttpResponse::bad_request(e.what());
  }
  if (!body.is_object()) return HttpResponse::bad_request("expected object");
  util::JsonArray applied;
  for (const auto& [name, value] : body.as_object()) {
    if (!value.is_number()) continue;
    session_.steer(name, value.as_number());  // thread-safe mailbox post
    applied.push_back(util::Json(name));
    ++steers_;
  }
  util::Json out;
  out["posted"] = util::Json(applied);
  return HttpResponse::json(out.dump());
}

HttpResponse AjaxFrontEnd::handle_view(const HttpRequest& request) {
  util::Json body;
  try {
    body = util::Json::parse(request.body);
  } catch (const std::exception& e) {
    return HttpResponse::bad_request(e.what());
  }
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    pending_view_.push_back(std::move(body));
  }
  return HttpResponse::json("{\"ok\":true}");
}

}  // namespace ricsa::web
