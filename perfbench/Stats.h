//===- perfbench/Stats.h - Percentiles for the benchmark ledger -*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Order statistics used by every reported timing: the median, a linear-
/// interpolated quantile, and the rule that picks the highest tail
/// percentile a sample set can support (at least ten samples beyond it).
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_PERFBENCH_STATS_H
#define REGMON_PERFBENCH_STATS_H

#include <algorithm>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Quantile \p Q in [0, 1] of \p V by linear interpolation between order
/// statistics (rank Q * (n - 1)). 0 for an empty vector.
inline double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const double Rank = Q * static_cast<double>(V.size() - 1);
  const auto Lo = static_cast<std::size_t>(Rank);
  const std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  const double Frac = Rank - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

inline double mean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return Sum / static_cast<double>(V.size());
}

/// The highest of p99.9, p99, p90 and p50 that leaves at least ten of
/// \p N samples beyond it, as a percentage; 0 when even the median does
/// not (fewer than 20 samples).
inline double tailPercentile(std::size_t N) {
  // Samples beyond percentile P are N * (100 - P) / 100; compare in
  // tenths of a percent to stay in integers.
  for (const unsigned Tenths : {999U, 990U, 900U, 500U})
    if (N * (1000 - Tenths) >= 10 * 1000)
      return Tenths / 10.0;
  return 0.0;
}

} // namespace perfbench

#endif // REGMON_PERFBENCH_STATS_H
