//===- support/Statistics.cpp - Streaming and batch statistics ------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Statistics.h"

#include "support/HotpathKernels.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

using namespace regmon;

double RunningStats::stddev() const { return std::sqrt(variance()); }

WindowedStats::WindowedStats(std::size_t Capacity) : Cap(Capacity) {
  assert(Capacity > 0 && "window capacity must be positive");
  Buffer.reserve(Capacity);
}

void WindowedStats::add(double X) {
  if (Buffer.size() < Cap) {
    Buffer.push_back(X);
    Sum += X;
    return;
  }
  Sum += X - Buffer[Head];
  Buffer[Head] = X;
  Head = (Head + 1) % Cap;
}

void WindowedStats::clear() {
  Buffer.clear();
  Head = 0;
  Sum = 0;
}

void WindowedStats::resize(std::size_t NewCapacity) {
  assert(NewCapacity > 0 && "window capacity must be positive");
  if (NewCapacity == Cap)
    return;
  // Unroll the ring into chronological order, keep the newest entries.
  std::vector<double> Ordered;
  Ordered.reserve(Buffer.size());
  if (Buffer.size() < Cap) {
    Ordered = Buffer; // not yet wrapped: already chronological
  } else {
    for (std::size_t I = 0; I < Buffer.size(); ++I)
      Ordered.push_back(Buffer[(Head + I) % Cap]);
  }
  if (Ordered.size() > NewCapacity)
    Ordered.erase(Ordered.begin(),
                  Ordered.end() - static_cast<std::ptrdiff_t>(NewCapacity));
  Cap = NewCapacity;
  Buffer = std::move(Ordered);
  Head = 0;
  Sum = 0;
  for (double V : Buffer)
    Sum += V;
}

double WindowedStats::mean() const {
  if (Buffer.empty())
    return 0;
  return Sum / static_cast<double>(Buffer.size());
}

double WindowedStats::stddev() const {
  // Two-pass over the (small) window: exact and immune to the cancellation
  // that plagues the sum-of-squares shortcut when values are large
  // addresses with small spread.
  if (Buffer.size() < 2)
    return 0;
  const double Mean = mean();
  double Acc = 0;
  for (double V : Buffer) {
    const double D = V - Mean;
    Acc += D * D;
  }
  return std::sqrt(Acc / static_cast<double>(Buffer.size()));
}

/// Shared implementation over any arithmetic element type.
///
/// Release-hardened contract (no asserts, no NaN): vectors of different
/// lengths -- including one empty against one non-empty -- cannot agree in
/// shape, so r = 0.0; two empty vectors are identically flat, so r = 1.0.
/// A NaN result would silently fail every `r >= rt` comparison and wedge
/// the LPD state machine in Unstable, so the final value is clamped to a
/// finite number.
template <typename T>
static double pearsonImpl(std::span<const T> X, std::span<const T> Y) {
  if (X.size() != Y.size())
    return 0.0;
  if (X.empty())
    return 1.0;
  const auto N = static_cast<double>(X.size());

  double SumX = 0, SumY = 0;
  for (std::size_t I = 0, E = X.size(); I != E; ++I) {
    SumX += static_cast<double>(X[I]);
    SumY += static_cast<double>(Y[I]);
  }
  const double MeanX = SumX / N, MeanY = SumY / N;

  double Sxy = 0, Sxx = 0, Syy = 0;
  for (std::size_t I = 0, E = X.size(); I != E; ++I) {
    const double Dx = static_cast<double>(X[I]) - MeanX;
    const double Dy = static_cast<double>(Y[I]) - MeanY;
    Sxy += Dx * Dy;
    Sxx += Dx * Dx;
    Syy += Dy * Dy;
  }

  if (Sxx == 0 || Syy == 0) {
    // Degenerate: at least one vector is constant, so r is undefined. Two
    // constant vectors have identical flat shape (no behaviour change);
    // one constant against one varying is a shape change.
    return (Sxx == 0 && Syy == 0) ? 1.0 : 0.0;
  }
  const double R = Sxy / (std::sqrt(Sxx) * std::sqrt(Syy));
  return std::isfinite(R) ? R : 0.0;
}

double regmon::pearson(std::span<const double> X, std::span<const double> Y) {
  return pearsonImpl(X, Y);
}

double regmon::pearson(std::span<const std::uint32_t> X,
                       std::span<const std::uint32_t> Y) {
  // Histogram bins take the exact integer-moment path: integer sums do
  // not depend on summation order, so r is the same whichever way the
  // kernel splits the loop (support/HotpathKernels.h).
  if (X.size() != Y.size())
    return 0.0;
  return pearsonFromMoments(X.size(), recomputeMoments(X, Y));
}

double regmon::median(std::span<const double> Values) {
  return quantile(Values, 0.5);
}

double regmon::quantile(std::span<const double> Values, double Q) {
  assert(Q >= 0 && Q <= 1 && "quantile fraction out of range");
  if (Values.empty())
    return 0;
  std::vector<double> Sorted(Values.begin(), Values.end());
  std::sort(Sorted.begin(), Sorted.end());
  const double Rank = Q * static_cast<double>(Sorted.size() - 1);
  const auto Lo = static_cast<std::size_t>(Rank);
  const std::size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  const double Frac = Rank - static_cast<double>(Lo);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * Frac;
}
