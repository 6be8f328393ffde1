#include "wan.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "netsim/cross_traffic.hpp"
#include "netsim/link.hpp"
#include "netsim/simulator.hpp"
#include "stats.hpp"
#include "web/session.hpp"

namespace perfbench {

namespace {

namespace ns = ricsa::netsim;
using ricsa::web::ClientSession;
using ricsa::web::Tier;

constexpr int kSlowGroups = 3;
constexpr int kSlowPerGroup = 4;
constexpr int kFast = 4;
/// Virtual seconds per cohort run.
constexpr double kDurationS = 240.0;
/// HTTP envelope bytes added to every body.
constexpr std::size_t kEnvelopeBytes = 160;

struct WanClient {
  std::unique_ptr<ClientSession> session;
  ns::Link* link = nullptr;
  bool slow = false;
  std::uint64_t since = 0;
  std::uint64_t bytes = 0;
  Tier last_tier = Tier::kFull;
};

}  // namespace

WanResult run_wan(const WanInputs& in) {
  ns::Simulator sim;
  ricsa::web::PacingConfig pacing;
  pacing.frame_interval_s = in.cadence_s;
  const double cadence = in.cadence_s;

  std::vector<std::unique_ptr<ns::Link>> links;
  std::vector<std::unique_ptr<ns::CrossTraffic>> crosses;
  std::vector<std::unique_ptr<WanClient>> clients;
  std::uint64_t salt = in.seed;
  const auto next_seed = [&salt] {
    salt = salt * 6364136223846793005ull + 1442695040888963407ull;
    return salt;
  };
  const auto make_link = [&](bool slow) {
    ns::LinkConfig lc;
    // Deep queue, no random loss: congestion shows as queueing delay and
    // collapsed utilization, the signals the pacing laws steer on.
    lc.queue_capacity_bytes = 1 << 20;
    lc.bandwidth_Bps = slow ? 2.5e5 : 2.5e6;
    lc.prop_delay_s = slow ? 0.02 : 0.005;
    links.push_back(std::make_unique<ns::Link>(sim, lc, next_seed()));
    ns::Link* link = links.back().get();
    if (slow) {
      ns::CrossTrafficConfig ct;
      ct.on_load = 0.5;
      ct.mean_on_s = 1.0;
      ct.mean_off_s = 1.0;
      crosses.push_back(std::make_unique<ns::CrossTraffic>(sim, *link, ct, next_seed()));
      crosses.back()->start();
    }
    return link;
  };
  for (int g = 0; g < kSlowGroups; ++g) {
    ns::Link* shared = make_link(true);
    for (int k = 0; k < kSlowPerGroup; ++k) {
      auto c = std::make_unique<WanClient>();
      c->slow = true;
      c->link = shared;
      clients.push_back(std::move(c));
    }
  }
  for (int k = 0; k < kFast; ++k) {
    auto c = std::make_unique<WanClient>();
    c->link = make_link(false);
    clients.push_back(std::move(c));
  }
  for (std::size_t i = 0; i < clients.size(); ++i) {
    clients[i]->session = std::make_unique<ClientSession>(
        pacing, "wan-" + std::to_string(i), "netsim", 0.0);
  }

  WanResult out;
  out.slow_clients = kSlowGroups * kSlowPerGroup;
  std::array<std::uint64_t, 3> tier_frames{};
  std::vector<double> rtt_ms;
  const auto latest_at = [cadence](double t) {
    return static_cast<std::uint64_t>(std::floor(t / cadence));
  };

  // The ideal publisher: frame s exists from s * cadence on.
  std::function<void(WanClient*)> poll = [&](WanClient* c) {
    if (sim.now() >= kDurationS) return;
    const ClientSession::Decision d = c->session->decide(sim.now(), cadence);
    const double avail = static_cast<double>(c->since + 1) * cadence;
    const double serve_t = std::max({sim.now(), d.not_before_s, avail});
    sim.at(serve_t, [&, c, d] {
      if (sim.now() >= kDurationS) return;
      std::uint64_t seq = c->since + 1;
      if (d.skip_to_latest) seq = std::max(seq, latest_at(sim.now()));
      const std::uint64_t skipped =
          (c->since != 0 && seq > c->since + 1) ? seq - c->since - 1 : 0;
      const std::size_t body = static_cast<std::size_t>(
          in.tier_bytes[static_cast<std::size_t>(d.tier)]);
      const double dispatched = sim.now();
      c->session->note_dispatch(dispatched);
      ns::Packet p;
      p.seq = seq;
      p.wire_bytes = body + kEnvelopeBytes;
      c->link->send(p, [&, c, seq, skipped, body, dispatched, tier = d.tier](const ns::Packet&) {
        c->since = seq;
        ++out.frames;
        out.skips += skipped;
        ++tier_frames[static_cast<std::size_t>(tier)];
        if (c->slow) c->bytes += body;
        rtt_ms.push_back((sim.now() - dispatched) * 1e3);
        c->session->on_delivered(sim.now(), body, skipped, tier, cadence);
        const Tier now_tier = c->session->tier();
        if (now_tier != c->last_tier) ++out.tier_flaps;
        c->last_tier = now_tier;
        poll(c);
      });
    });
  };
  for (auto& c : clients) poll(c.get());
  // The cross-traffic sources reschedule themselves forever: the horizon
  // ends the run.
  sim.run_until(kDurationS);
  for (auto& ct : crosses) ct->stop();

  std::uint64_t slow_bytes = 0;
  double interval_sum = 0.0;
  for (const auto& c : clients) {
    if (!c->slow) continue;
    slow_bytes += c->bytes;
    interval_sum += c->session->interval_s();
  }
  out.goodput_kBps = static_cast<double>(slow_bytes) / kDurationS / 1000.0;
  out.interval_ms = 1e3 * interval_sum / out.slow_clients;
  out.rtt_p50_ms = median(rtt_ms);
  for (std::size_t t = 0; t < 3; ++t) {
    out.tier_share[t] = out.frames ? static_cast<double>(tier_frames[t]) /
                                         static_cast<double>(out.frames)
                                   : 0.0;
  }
  return out;
}

WanResult run_wan_rounds(const WanInputs& in, int rounds) {
  std::vector<WanResult> runs;
  for (int r = 0; r < rounds; ++r) {
    WanInputs round = in;
    round.seed = in.seed + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(r);
    runs.push_back(run_wan(round));
  }
  const auto med = [&runs](auto field) {
    std::vector<double> values;
    for (const WanResult& w : runs) values.push_back(static_cast<double>(field(w)));
    return median(values);
  };
  WanResult out = runs.front();
  out.goodput_kBps = med([](const WanResult& w) { return w.goodput_kBps; });
  out.frames = static_cast<std::uint64_t>(med([](const WanResult& w) { return w.frames; }));
  out.skips = static_cast<std::uint64_t>(med([](const WanResult& w) { return w.skips; }));
  out.tier_flaps =
      static_cast<std::uint64_t>(med([](const WanResult& w) { return w.tier_flaps; }));
  for (std::size_t t = 0; t < 3; ++t) {
    out.tier_share[t] = med([t](const WanResult& w) { return w.tier_share[t]; });
  }
  out.rtt_p50_ms = med([](const WanResult& w) { return w.rtt_p50_ms; });
  out.interval_ms = med([](const WanResult& w) { return w.interval_ms; });
  return out;
}

}  // namespace perfbench
