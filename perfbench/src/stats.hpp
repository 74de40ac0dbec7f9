/// \file stats.hpp
/// \brief Sample statistics of the benchmark: median, quartiles, and the
/// highest percentile the sample count supports.
///
/// Quantiles interpolate linearly between order statistics (the
/// "inclusive" method: q = 0 is the minimum, q = 1 the maximum), so a
/// summary of one sample is that sample everywhere.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace perfbench {

/// Quantile `q` in [0, 1] of ascending `sorted` samples; 0 when empty.
inline double quantile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Number of samples strictly above the `pct` percentile's rank, i.e.
/// `count - ceil(count * pct / 100)`.
inline std::size_t samples_beyond(std::size_t count, double pct) {
  const double at = std::ceil(static_cast<double>(count) * pct / 100.0 - 1e-9);
  const std::size_t rank = static_cast<std::size_t>(std::max(0.0, at));
  return rank >= count ? 0 : count - rank;
}

/// The highest of the percentiles 50, 90, 95, 99 and 99.9 that leaves at
/// least `min_beyond` samples beyond it; 0 when even the median does not.
inline double highest_supported_percentile(std::size_t count,
                                           std::size_t min_beyond = 10) {
  constexpr double kGrid[] = {99.9, 99.0, 95.0, 90.0, 50.0};
  for (const double pct : kGrid) {
    if (samples_beyond(count, pct) >= min_beyond) return pct;
  }
  return 0.0;
}

struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  /// Highest percentile with at least ten samples beyond it (0 = none),
  /// and the sample value there.
  double tail_pct = 0.0;
  double tail = 0.0;
};

inline Summary summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.min = samples.front();
  s.max = samples.back();
  s.q1 = quantile_sorted(samples, 0.25);
  s.median = quantile_sorted(samples, 0.5);
  s.q3 = quantile_sorted(samples, 0.75);
  s.p99 = quantile_sorted(samples, 0.99);
  s.tail_pct = highest_supported_percentile(s.count);
  s.tail = s.tail_pct > 0.0 ? quantile_sorted(samples, s.tail_pct / 100.0)
                            : 0.0;
  return s;
}

}  // namespace perfbench
