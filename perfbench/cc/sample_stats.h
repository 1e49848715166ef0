#pragma once

// Order statistics over a run's per-pass samples.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Median; the mean of the two middle values for an even count. 0 if empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

/// Nearest-rank percentile: the smallest sample with at least p % of the
/// samples at or below it.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// The highest whole percentile that still has at least ten samples above
/// it among `n` (nearest rank), or 0 when none does.
inline int highest_supported_percentile(std::size_t n) {
  constexpr std::size_t kBeyond = 10;
  if (n <= kBeyond) return 0;
  return static_cast<int>(100 * (n - kBeyond) / n);
}

}  // namespace perfbench
