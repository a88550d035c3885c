//===- support/HotpathKernels.h - Flat sampling hot-path kernels -*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sampling hot path's inner kernels. Interval-end similarity is one
/// path: at each interval end a region's detector compares its stable
/// histogram with its current one, and Pearson and cosine both reduce the
/// pair to integer moments here and combine them here.
///
/// Every moment Pearson and cosine need over histogram bins
///
///     SumX  = sum x_i        SumY  = sum y_i
///     Sxx   = sum x_i^2      Syy   = sum y_i^2      Sxy = sum x_i * y_i
///
/// is an *integer* and is accumulated in uint64_t. Unsigned 64-bit
/// addition is associative and commutative (mod 2^64), so a sequential
/// loop and the unrolled multi-accumulator kernel below produce the same
/// uint64_t values -- regardless of summation order, unroll factor, or
/// how the compiler vectorizes the loop. The lossy step -- converting to
/// double and combining into r -- happens exactly once, in
/// pearsonFromMoments / cosineFromMoments. Identical integer moments
/// through identical double arithmetic yield identical bits, so r does
/// not depend on how the moments were summed.
///
/// ULP envelope: the conversions double(A - B) and sqrt() round when a
/// moment difference exceeds 2^53 (DESIGN.md §12 documents the envelope);
/// the roundings are still deterministic, so the exported bytes never
/// depend on the kernel's lane split.
///
/// The kernels split the accumulation across four independent lanes --
/// breaking the loop-carried dependency chain so the compiler's
/// auto-vectorizer can keep the SoA bin arrays streaming. Integer
/// associativity makes the lane split invisible in the results.
///
/// REGMON_HOT (support/Contracts.h) tags a function as per-sample /
/// per-bin hot-path code. The macro expands to nothing; it exists so
/// regmon-lint's `hotpath` and `purity-hot` rules can mechanically forbid
/// heap allocation and indirect dispatch in tagged functions and
/// everything they transitively call (DESIGN.md §8, §13).
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_SUPPORT_HOTPATHKERNELS_H
#define REGMON_SUPPORT_HOTPATHKERNELS_H

#include "support/Contracts.h"
#include "support/Types.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <span>

namespace regmon {

/// The integer moments of one (stable, current) histogram pair. SumX/Sxx
/// describe the stable set, SumY/Syy the current set, Sxy their cross
/// moment. All five are exact uint64_t sums (mod 2^64).
struct HistMoments {
  std::uint64_t SumX = 0;
  std::uint64_t SumY = 0;
  std::uint64_t Sxx = 0;
  std::uint64_t Syy = 0;
  std::uint64_t Sxy = 0;
};

/// Numeric id of the hot-path kernel for the monitor_hotpath_kernel
/// gauge. Only the four-lane kernel exists; it keeps its historical id 1
/// ("auto") so exports stay byte-stable.
inline int hotpathKernelId() { return 1; }

/// Computes all five moments of (\p X, \p Y) in one pass over the bins.
/// Spans must be equal length.
REGMON_HOT inline HistMoments
recomputeMoments(std::span<const std::uint32_t> X,
                 std::span<const std::uint32_t> Y) {
  assert(X.size() == Y.size() && "histograms must match");
  HistMoments M;
  const std::size_t E = X.size();
  // Four independent accumulator lanes: the loop-carried dependency is per
  // lane, so the vectorizer can turn this into wide integer adds over the
  // flat bin arrays. Folding lanes in fixed order keeps the result equal
  // to a sequential sum (unsigned addition is associative).
  std::uint64_t SumX[4] = {0, 0, 0, 0}, SumY[4] = {0, 0, 0, 0};
  std::uint64_t Sxx[4] = {0, 0, 0, 0}, Syy[4] = {0, 0, 0, 0};
  std::uint64_t Sxy[4] = {0, 0, 0, 0};
  std::size_t I = 0;
  for (const std::size_t E4 = E & ~std::size_t{3}; I != E4; I += 4) {
    for (std::size_t L = 0; L != 4; ++L) {
      const std::uint64_t Xi = X[I + L], Yi = Y[I + L];
      SumX[L] += Xi;
      SumY[L] += Yi;
      Sxx[L] += Xi * Xi;
      Syy[L] += Yi * Yi;
      Sxy[L] += Xi * Yi;
    }
  }
  for (; I != E; ++I) {
    const std::uint64_t Xi = X[I], Yi = Y[I];
    SumX[0] += Xi;
    SumY[0] += Yi;
    Sxx[0] += Xi * Xi;
    Syy[0] += Yi * Yi;
    Sxy[0] += Xi * Yi;
  }
  for (std::size_t L = 0; L != 4; ++L) {
    M.SumX += SumX[L];
    M.SumY += SumY[L];
    M.Sxx += Sxx[L];
    M.Syy += Syy[L];
    M.Sxy += Sxy[L];
  }
  return M;
}

/// Combines integer moments into Pearson's r over \p N bins. The single
/// lossy (integer -> double) step of the pipeline: pearson() on histogram
/// bins and the Pearson metric both funnel through it.
///
/// Release-hardened contract (mirrors the historical pearson() float
/// path): N == 0 compares two empty histograms, identically flat, r = 1;
/// two zero-variance vectors are identical in shape, r = 1; one
/// zero-variance vector against a varying one is a shape change, r = 0.
/// The result is clamped finite and into [-1, 1] so a degenerate value can
/// never wedge the `r >= rt` comparisons of the LPD state machine.
REGMON_PURE inline double pearsonFromMoments(std::uint64_t N,
                                             const HistMoments &M) {
  if (N == 0)
    return 1.0;
  // N*Sxx - SumX^2 = N * sum (x_i - mean)^2 >= 0 by Cauchy-Schwarz, so the
  // unsigned subtraction cannot underflow (within the documented moment
  // envelope). The numerator can be negative, so it is computed in
  // signed-magnitude form before the conversion to double.
  const std::uint64_t VarX = N * M.Sxx - M.SumX * M.SumX;
  const std::uint64_t VarY = N * M.Syy - M.SumY * M.SumY;
  if (VarX == 0 || VarY == 0)
    return (VarX == 0 && VarY == 0) ? 1.0 : 0.0;
  const std::uint64_t Cross = N * M.Sxy;
  const std::uint64_t Product = M.SumX * M.SumY;
  const double Num = Cross >= Product
                         ? static_cast<double>(Cross - Product)
                         : -static_cast<double>(Product - Cross);
  const double R = Num / (std::sqrt(static_cast<double>(VarX)) *
                          std::sqrt(static_cast<double>(VarY)));
  return std::isfinite(R) ? std::clamp(R, -1.0, 1.0) : 0.0;
}

/// Combines integer moments into the cosine of the raw count vectors.
/// Same contract as \ref pearsonFromMoments: both-zero norms (two empty
/// histograms) are identical, cos = 1; one zero norm is a shape change,
/// cos = 0; the result is clamped finite and into [-1, 1].
REGMON_PURE inline double cosineFromMoments(const HistMoments &M) {
  if (M.Sxx == 0 || M.Syy == 0)
    return (M.Sxx == 0 && M.Syy == 0) ? 1.0 : 0.0;
  const double C = static_cast<double>(M.Sxy) /
                   (std::sqrt(static_cast<double>(M.Sxx)) *
                    std::sqrt(static_cast<double>(M.Syy)));
  return std::isfinite(C) ? std::clamp(C, -1.0, 1.0) : 0.0;
}

/// Sums \p N program counters from a flat SoA lane. Feeds the centroid
/// GPD: realistic PC sums stay far below 2^53, so double(pcSum)/N equals
/// the historical sequential double accumulation bit for bit while the
/// integer loop vectorizes.
REGMON_HOT inline std::uint64_t pcSum(const Addr *Pcs, std::size_t N) {
  std::uint64_t Lane[4] = {0, 0, 0, 0};
  std::size_t I = 0;
  for (const std::size_t N4 = N & ~std::size_t{3}; I != N4; I += 4) {
    Lane[0] += Pcs[I];
    Lane[1] += Pcs[I + 1];
    Lane[2] += Pcs[I + 2];
    Lane[3] += Pcs[I + 3];
  }
  for (; I != N; ++I)
    Lane[0] += Pcs[I];
  return Lane[0] + Lane[1] + Lane[2] + Lane[3];
}

/// Sums a span of per-instruction counts: a region's interval total from
/// its span of the monitor's count slab. Same four-lane shape as pcSum.
REGMON_HOT inline std::uint64_t countSum(std::span<const std::uint32_t> Counts) {
  std::uint64_t Lane[4] = {0, 0, 0, 0};
  const std::size_t N = Counts.size();
  std::size_t I = 0;
  for (const std::size_t N4 = N & ~std::size_t{3}; I != N4; I += 4) {
    Lane[0] += Counts[I];
    Lane[1] += Counts[I + 1];
    Lane[2] += Counts[I + 2];
    Lane[3] += Counts[I + 3];
  }
  for (; I != N; ++I)
    Lane[0] += Counts[I];
  return Lane[0] + Lane[1] + Lane[2] + Lane[3];
}

} // namespace regmon

#endif // REGMON_SUPPORT_HOTPATHKERNELS_H
