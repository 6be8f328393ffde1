#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// 1-based nearest rank of percentile `pct` among `n` samples.
std::size_t nearest_rank(double pct, std::size_t n) {
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(rank, 1.0)),
                                 1, n);
}

}  // namespace

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower = *std::max_element(samples.begin(), samples.begin() + mid);
  return 0.5 * (lower + upper);
}

double percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  const std::size_t k = nearest_rank(pct, samples.size()) - 1;
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

Tail tail(const std::vector<double>& samples, double want) {
  Tail out;
  out.n = samples.size();
  if (samples.empty()) return out;
  const std::size_t n = samples.size();
  double pct = want;
  if (n - nearest_rank(pct, n) < kTailBeyond) {
    // Highest percentile whose nearest rank is n - kTailBeyond.
    pct = n > kTailBeyond ? 100.0 * static_cast<double>(n - kTailBeyond) /
                                static_cast<double>(n)
                          : 0.0;
  }
  if (pct <= 50.0) {
    out.pct = 50.0;
    out.value = median(samples);
    return out;
  }
  out.pct = pct;
  out.value = percentile(samples, pct);
  return out;
}

}  // namespace perfbench
