// Sample statistics for the benchmark's reports.
//
// A timing is reported as its median and a tail percentile. The tail is
// only as high as the sample supports: a nearest-rank percentile counts
// when at least `kTailBeyond` samples lie above its rank, so a run with 240
// deliveries reports its "p99" as p95.8 and says so, instead of quoting the
// second-largest sample.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a reported tail percentile.
inline constexpr std::size_t kTailBeyond = 10;

/// Median (mean of the two middle samples for even counts); 0 when empty.
double median(std::vector<double> samples);

/// Nearest-rank percentile `pct` in (0, 100]: the smallest sample with at
/// least pct% of the samples at or below it. 0 when empty.
double percentile(std::vector<double> samples, double pct);

struct Tail {
  double pct = 0.0;    // the percentile actually reported
  double value = 0.0;  // its value
  std::size_t n = 0;   // sample count
};

/// The highest percentile at or below `want` that leaves at least
/// `kTailBeyond` samples above its nearest rank; never below the median.
/// An empty input gives {0, 0, 0}.
Tail tail(const std::vector<double>& samples, double want);

}  // namespace perfbench
