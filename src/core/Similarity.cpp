//===- core/Similarity.cpp - Histogram similarity metrics -----------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Similarity.h"

#include "support/HotpathKernels.h"
#include "support/Statistics.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace regmon;
using namespace regmon::core;

SimilarityMetric::~SimilarityMetric() = default;

REGMON_PURE double
PearsonSimilarity::compare(std::span<const std::uint32_t> Stable,
                           std::span<const std::uint32_t> Current) const {
  return pearson(Stable, Current);
}

REGMON_PURE double
CosineSimilarity::compare(std::span<const std::uint32_t> Stable,
                          std::span<const std::uint32_t> Current) const {
  assert(Stable.size() == Current.size() && "histograms must match");
  // Exact integer moments, like Pearson, combined by the shared kernel
  // (support/HotpathKernels.h).
  return cosineFromMoments(recomputeMoments(Stable, Current));
}

REGMON_PURE double
OverlapSimilarity::compare(std::span<const std::uint32_t> Stable,
                           std::span<const std::uint32_t> Current) const {
  assert(Stable.size() == Current.size() && "histograms must match");
  std::uint64_t TotalS = 0, TotalC = 0;
  for (std::size_t I = 0, E = Stable.size(); I != E; ++I) {
    TotalS += Stable[I];
    TotalC += Current[I];
  }
  if (TotalS == 0 || TotalC == 0)
    return (TotalS == 0 && TotalC == 0) ? 1.0 : 0.0;
  double Overlap = 0;
  const double InvS = 1.0 / static_cast<double>(TotalS);
  const double InvC = 1.0 / static_cast<double>(TotalC);
  for (std::size_t I = 0, E = Stable.size(); I != E; ++I)
    Overlap += std::min(static_cast<double>(Stable[I]) * InvS,
                        static_cast<double>(Current[I]) * InvC);
  return Overlap;
}

std::unique_ptr<SimilarityMetric>
regmon::core::makeSimilarity(SimilarityKind Kind, bool *UsedFallback) {
  if (UsedFallback)
    *UsedFallback = false;
  switch (Kind) {
  case SimilarityKind::Pearson:
    return std::make_unique<PearsonSimilarity>();
  case SimilarityKind::Cosine:
    return std::make_unique<CosineSimilarity>();
  case SimilarityKind::Overlap:
    return std::make_unique<OverlapSimilarity>();
  }
  // Out-of-enum Kind: fall back to the paper's metric rather than hand
  // callers a null pointer they dereference unchecked.
  if (UsedFallback)
    *UsedFallback = true;
  return std::make_unique<PearsonSimilarity>();
}
