//===- tests/CoreSimilarityTest.cpp - Similarity metrics ------------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Similarity.h"

#include "core/RegionMonitor.h"
#include "obs/Export.h"
#include "obs/Instruments.h"
#include "support/HotpathKernels.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <vector>

using namespace regmon;
using namespace regmon::core;

namespace {

std::vector<std::uint32_t> randomHist(Rng &Random, std::size_t N) {
  std::vector<std::uint32_t> H(N);
  for (auto &V : H)
    V = static_cast<std::uint32_t>(Random.nextBelow(100));
  return H;
}

/// Contract tests every similarity metric must satisfy.
class SimilarityMetricTest : public ::testing::TestWithParam<SimilarityKind> {
protected:
  std::unique_ptr<SimilarityMetric> Metric = makeSimilarity(GetParam());
};

TEST_P(SimilarityMetricTest, IdenticalHistogramsScoreOne) {
  Rng Random(1);
  const auto H = randomHist(Random, 32);
  EXPECT_NEAR(Metric->compare(H, H), 1.0, 1e-9);
}

TEST_P(SimilarityMetricTest, ScaledHistogramScoresHigh) {
  // The defining requirement (paper section 3.2.1): more samples with the
  // same shape must NOT look like a phase change.
  std::vector<std::uint32_t> H = {4, 8, 120, 6, 40, 5, 9, 7};
  std::vector<std::uint32_t> Scaled(H.size());
  for (std::size_t I = 0; I < H.size(); ++I)
    Scaled[I] = H[I] * 3;
  EXPECT_GT(Metric->compare(H, Scaled), 0.95);
}

TEST_P(SimilarityMetricTest, DisjointHotspotsScoreLow) {
  const std::vector<std::uint32_t> A = {200, 0, 0, 0, 1, 2, 0, 1};
  const std::vector<std::uint32_t> B = {0, 1, 0, 2, 0, 0, 200, 1};
  EXPECT_LT(Metric->compare(A, B), 0.5);
}

TEST_P(SimilarityMetricTest, SymmetricInArguments) {
  Rng Random(2);
  const auto A = randomHist(Random, 24);
  const auto B = randomHist(Random, 24);
  EXPECT_NEAR(Metric->compare(A, B), Metric->compare(B, A), 1e-12);
}

TEST_P(SimilarityMetricTest, BothEmptyScoreOne) {
  const std::vector<std::uint32_t> Zero(16, 0);
  EXPECT_DOUBLE_EQ(Metric->compare(Zero, Zero), 1.0);
}

TEST_P(SimilarityMetricTest, BoundedByOne) {
  Rng Random(3);
  for (int I = 0; I < 50; ++I) {
    const auto A = randomHist(Random, 16);
    const auto B = randomHist(Random, 16);
    const double S = Metric->compare(A, B);
    EXPECT_LE(S, 1.0 + 1e-12);
    EXPECT_GE(S, -1.0 - 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SimilarityMetricTest,
    ::testing::Values(SimilarityKind::Pearson, SimilarityKind::Cosine,
                      SimilarityKind::Overlap),
    [](const auto &Info) {
      switch (Info.param) {
      case SimilarityKind::Pearson:
        return "Pearson";
      case SimilarityKind::Cosine:
        return "Cosine";
      case SimilarityKind::Overlap:
        return "Overlap";
      }
      return "?";
    });

TEST(PearsonSimilarity, AntiCorrelationIsNegative) {
  // Only Pearson distinguishes anti-correlation; the paper treats it as a
  // behaviour change too (values near or below zero trigger).
  const std::vector<std::uint32_t> A = {10, 8, 6, 4, 2, 0};
  const std::vector<std::uint32_t> B = {0, 2, 4, 6, 8, 10};
  PearsonSimilarity P;
  EXPECT_NEAR(P.compare(A, B), -1.0, 1e-9);
}

TEST(OverlapSimilarity, IsNormalizedIntersection) {
  const std::vector<std::uint32_t> A = {10, 0};
  const std::vector<std::uint32_t> B = {5, 5};
  OverlapSimilarity O;
  EXPECT_DOUBLE_EQ(O.compare(A, B), 0.5);
}

TEST(OverlapSimilarity, ZeroAgainstNonZeroIsZero) {
  const std::vector<std::uint32_t> Zero(4, 0);
  const std::vector<std::uint32_t> B = {1, 2, 3, 4};
  OverlapSimilarity O;
  EXPECT_DOUBLE_EQ(O.compare(Zero, B), 0.0);
}

TEST(CosineSimilarity, OrthogonalVectorsScoreZero) {
  const std::vector<std::uint32_t> A = {1, 0, 0, 0};
  const std::vector<std::uint32_t> B = {0, 1, 0, 0};
  CosineSimilarity C;
  EXPECT_DOUBLE_EQ(C.compare(A, B), 0.0);
}

//===----------------------------------------------------------------------===//
// Property-based tests for the paper's metric: seeded-random histograms
// checking the algebraic identities Pearson's r must satisfy. Each
// property sweeps many random inputs, so a violation anywhere in the
// sampled space fails with the offending seed in the message.
//===----------------------------------------------------------------------===//

/// A random histogram guaranteed non-constant (variance > 0), so r is
/// never in the degenerate zero-variance regime unless a test wants it.
std::vector<std::uint32_t> randomVaryingHist(Rng &Random, std::size_t N) {
  std::vector<std::uint32_t> H = randomHist(Random, N);
  H[0] = 1;
  H[1] = 200; // two fixed unequal bins force nonzero variance
  return H;
}

class PearsonPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
protected:
  PearsonSimilarity P;
  Rng Random{GetParam()};
};

TEST_P(PearsonPropertyTest, RandomPairsStayInClosedUnitInterval) {
  for (int Trial = 0; Trial < 64; ++Trial) {
    const std::size_t N = 2 + Random.nextBelow(64);
    const auto A = randomHist(Random, N);
    const auto B = randomHist(Random, N);
    const double R = P.compare(A, B);
    ASSERT_GE(R, -1.0 - 1e-12) << "trial " << Trial << " size " << N;
    ASSERT_LE(R, 1.0 + 1e-12) << "trial " << Trial << " size " << N;
  }
}

TEST_P(PearsonPropertyTest, SymmetricUnderArgumentSwap) {
  for (int Trial = 0; Trial < 64; ++Trial) {
    const std::size_t N = 2 + Random.nextBelow(48);
    const auto A = randomHist(Random, N);
    const auto B = randomHist(Random, N);
    ASSERT_NEAR(P.compare(A, B), P.compare(B, A), 1e-12)
        << "trial " << Trial;
  }
}

TEST_P(PearsonPropertyTest, ScaleInvariantAgainstScaledSelf) {
  // r(a, k*a) == 1 for every k > 0: uniformly more samples of the same
  // shape is not a phase change (paper section 3.2.1).
  for (const std::uint32_t K : {2u, 3u, 7u, 25u}) {
    const std::size_t N = 4 + Random.nextBelow(32);
    const auto A = randomVaryingHist(Random, N);
    std::vector<std::uint32_t> Scaled(A.size());
    for (std::size_t I = 0; I < A.size(); ++I)
      Scaled[I] = A[I] * K;
    ASSERT_NEAR(P.compare(A, Scaled), 1.0, 1e-9) << "k = " << K;
  }
}

TEST_P(PearsonPropertyTest, MeanShiftInvariantAgainstOffsetSelf) {
  // r(a, a + c) == 1: Pearson subtracts the mean, so a uniform additive
  // offset (e.g. background sampling noise in every bin) is invisible.
  for (const std::uint32_t C : {1u, 10u, 1000u}) {
    const std::size_t N = 4 + Random.nextBelow(32);
    const auto A = randomVaryingHist(Random, N);
    std::vector<std::uint32_t> Shifted(A.size());
    for (std::size_t I = 0; I < A.size(); ++I)
      Shifted[I] = A[I] + C;
    ASSERT_NEAR(P.compare(A, Shifted), 1.0, 1e-9) << "c = " << C;
  }
}

TEST_P(PearsonPropertyTest, AffineNegationScoresMinusOne) {
  // b = M - a is a perfect anti-correlation: r must be exactly -1.
  const std::size_t N = 4 + Random.nextBelow(32);
  const auto A = randomVaryingHist(Random, N);
  constexpr std::uint32_t M = 1000;
  std::vector<std::uint32_t> B(A.size());
  for (std::size_t I = 0; I < A.size(); ++I)
    B[I] = M - A[I];
  ASSERT_NEAR(P.compare(A, B), -1.0, 1e-9);
}

TEST_P(PearsonPropertyTest, ConstantAgainstVaryingIsZero) {
  // Zero variance on one side: r is undefined mathematically; the
  // implementation defines it as 0 (a flat profile against a varying one
  // is a shape change).
  const std::size_t N = 4 + Random.nextBelow(32);
  const auto A = randomVaryingHist(Random, N);
  for (const std::uint32_t C : {0u, 5u, 100u}) {
    const std::vector<std::uint32_t> Flat(N, C);
    ASSERT_DOUBLE_EQ(P.compare(Flat, A), 0.0) << "constant " << C;
    ASSERT_DOUBLE_EQ(P.compare(A, Flat), 0.0) << "constant " << C;
  }
}

TEST_P(PearsonPropertyTest, ConstantAgainstConstantIsOne) {
  // Both sides degenerate: identical flat shapes, defined as r = 1 (no
  // behaviour change), including the all-zero histograms of an interval
  // in which a region drew no samples.
  const std::size_t N = 2 + Random.nextBelow(32);
  const std::uint32_t C1 = static_cast<std::uint32_t>(Random.nextBelow(50));
  const std::uint32_t C2 = static_cast<std::uint32_t>(Random.nextBelow(50));
  ASSERT_DOUBLE_EQ(
      P.compare(std::vector<std::uint32_t>(N, C1),
                std::vector<std::uint32_t>(N, C2)),
      1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PearsonPropertyTest,
                         ::testing::Range<std::uint64_t>(1000, 1008));

TEST(Similarity, FactoryNames) {
  EXPECT_STREQ(makeSimilarity(SimilarityKind::Pearson)->name(), "pearson");
  EXPECT_STREQ(makeSimilarity(SimilarityKind::Cosine)->name(), "cosine");
  EXPECT_STREQ(makeSimilarity(SimilarityKind::Overlap)->name(), "overlap");
}

// Regression: an out-of-enum kind (a fuzzed checkpoint, a version skew in
// a config file) used to make the factory return nullptr, which the
// monitor then dereferenced. The factory must fall back to Pearson -- the
// paper's metric -- and report the substitution through the out-param so
// callers can count it.
TEST(Similarity, HostileKindFallsBackToPearson) {
  bool UsedFallback = false;
  const std::unique_ptr<SimilarityMetric> Metric =
      makeSimilarity(static_cast<SimilarityKind>(0xEF), &UsedFallback);
  ASSERT_NE(Metric, nullptr);
  EXPECT_STREQ(Metric->name(), "pearson");
  EXPECT_TRUE(UsedFallback);
}

TEST(Similarity, ValidKindsDoNotReportFallback) {
  for (const SimilarityKind Kind :
       {SimilarityKind::Pearson, SimilarityKind::Cosine,
        SimilarityKind::Overlap}) {
    bool UsedFallback = true;
    ASSERT_NE(makeSimilarity(Kind, &UsedFallback), nullptr);
    EXPECT_FALSE(UsedFallback);
  }
}

TEST(Similarity, HostileKindWithoutOutParamStillConstructs) {
  const std::unique_ptr<SimilarityMetric> Metric =
      makeSimilarity(static_cast<SimilarityKind>(0xEF));
  ASSERT_NE(Metric, nullptr);
  EXPECT_STREQ(Metric->name(), "pearson");
}

//===----------------------------------------------------------------------===//
// Fallback counting through the metrics registry
//===----------------------------------------------------------------------===//

/// One fixed region, so monitors form the same region deterministically.
core::CodeMap oneLoopMap() {
  return core::CodeMap({{0x1000, 0x1000 + 256 * InstrBytes, "loop"}});
}

std::vector<Sample> loopInterval(std::size_t Count) {
  std::vector<Sample> Samples;
  Samples.reserve(Count);
  for (std::size_t I = 0; I < Count; ++I)
    Samples.push_back(Sample{0x1000 + static_cast<Addr>(I % 256) * InstrBytes,
                             static_cast<Cycles>(100 * (I + 1))});
  return Samples;
}

TEST(Similarity, MonitorCountsFallbackOnceInRegistryAndTracesIt) {
  // The monitor-level contract behind makeSimilarity's out-param: an
  // out-of-enum kind must surface as exactly one SimilarityFallbacks
  // count and one trace event per attach.
  const core::CodeMap Map = oneLoopMap();
  core::RegionMonitorConfig Config;
  Config.Similarity = static_cast<SimilarityKind>(0xEF);
  core::RegionMonitor M(Map, Config);
  EXPECT_TRUE(M.similarityFellBack());

  obs::MetricsRegistry Registry;
  obs::EventTracer Tracer;
  const obs::MonitorInstruments Obs =
      obs::makeMonitorInstruments(Registry, &Tracer, 0, "");
  M.attachObservability(&Obs);
  EXPECT_EQ(Obs.SimilarityFallbacks->value(), 1u);
  EXPECT_NE(obs::exportTraceText(Tracer).find("kind=similarity-fallback"),
            std::string::npos);
  // The kernel-selection gauge is published on attach and is a
  // configure-time constant.
  EXPECT_EQ(Obs.HotpathKernel->value(), double(hotpathKernelId()));

  // The substituted Pearson metric still detects phases, and its
  // interval-end compares are counted.
  for (int I = 0; I < 8; ++I)
    M.observeInterval(loopInterval(256));
  EXPECT_EQ(M.regions().size(), 1u);
  EXPECT_GT(Obs.SimilarityCompares->value(), 0u);
  EXPECT_EQ(Obs.SimilarityFallbacks->value(), 1u) << "counted once only";
}

} // namespace
