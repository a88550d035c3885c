//===- core/Similarity.h - Histogram similarity metrics ---------*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Similarity metrics between a region's stable sample histogram and its
/// current-interval histogram. The paper uses Pearson's coefficient of
/// correlation (section 3.2.1) and names "cheaper means of measuring
/// similarity" as future work (section 5); we provide Pearson plus two
/// cheaper alternatives behind one interface so the trade-off can be
/// measured (bench_ablation_similarity):
///
///  * PearsonSimilarity   -- the paper's metric; scale-invariant and
///                           mean-invariant, so uniform sample-count
///                           variation does not fake a phase change.
///  * CosineSimilarity    -- scale-invariant but not mean-invariant;
///                           slightly cheaper (no mean subtraction).
///  * OverlapSimilarity   -- normalized histogram intersection
///                           (1 - L1/2 of the normalized histograms);
///                           cheapest, no multiplications on the hot path.
///
/// Every metric returns a value in [-1, 1] where >= the detector threshold
/// means "same behaviour". Anti-correlation is deliberately *low*
/// similarity: the paper treats r = -1 as a behaviour change too.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_CORE_SIMILARITY_H
#define REGMON_CORE_SIMILARITY_H

#include <cstdint>
#include <memory>
#include <span>

namespace regmon::core {

/// Strategy interface for histogram similarity.
class SimilarityMetric {
public:
  virtual ~SimilarityMetric();

  /// Returns the similarity of two equal-length histograms in [-1, 1].
  virtual double compare(std::span<const std::uint32_t> Stable,
                         std::span<const std::uint32_t> Current) const = 0;

  /// Returns a short identifier for reports ("pearson", ...).
  virtual const char *name() const = 0;
};

/// Pearson's coefficient of correlation (the paper's metric).
class PearsonSimilarity final : public SimilarityMetric {
public:
  double compare(std::span<const std::uint32_t> Stable,
                 std::span<const std::uint32_t> Current) const override;
  const char *name() const override { return "pearson"; }
};

/// Cosine of the angle between the raw count vectors.
class CosineSimilarity final : public SimilarityMetric {
public:
  double compare(std::span<const std::uint32_t> Stable,
                 std::span<const std::uint32_t> Current) const override;
  const char *name() const override { return "cosine"; }
};

/// Histogram intersection of the count vectors normalized to sum 1:
/// sum_i min(p_i, q_i), which equals 1 - L1(p, q) / 2.
class OverlapSimilarity final : public SimilarityMetric {
public:
  double compare(std::span<const std::uint32_t> Stable,
                 std::span<const std::uint32_t> Current) const override;
  const char *name() const override { return "overlap"; }
};

/// Selects a similarity metric by name.
enum class SimilarityKind : std::uint8_t {
  Pearson,
  Cosine,
  Overlap,
};

/// Factory for the metric selected by \p Kind. An out-of-enum \p Kind --
/// reachable through a corrupted checkpoint restore or a casted config --
/// falls back to the paper's Pearson metric instead of returning null for
/// callers to dereference; when \p UsedFallback is non-null it is set to
/// true in that case (false otherwise) so callers can report the repair
/// through the SimilarityFallbacks metric.
std::unique_ptr<SimilarityMetric>
makeSimilarity(SimilarityKind Kind, bool *UsedFallback = nullptr);

} // namespace regmon::core

#endif // REGMON_CORE_SIMILARITY_H
