//===- tests/CoreLpdTest.cpp - Local phase detector (Fig. 12) -------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/LocalPhaseDetector.h"

#include <gtest/gtest.h>

#include <vector>

using namespace regmon;
using namespace regmon::core;

namespace {

const std::vector<std::uint32_t> ShapeA = {2, 3, 90, 4, 30, 2, 3, 1};
const std::vector<std::uint32_t> ShapeB = {40, 2, 3, 2, 1, 50, 2, 9};
// ShapeA scaled up ~1.5x: same behaviour, more samples.
const std::vector<std::uint32_t> ShapeAScaled = {3, 4, 135, 6, 45, 3, 4, 2};

struct Fixture {
  PearsonSimilarity Metric;
  LocalPhaseDetector D{ShapeA.size(), Metric};
};

TEST(LocalPhaseDetector, StartsUnstable) {
  Fixture F;
  EXPECT_EQ(F.D.state(), LocalPhaseState::Unstable);
  EXPECT_EQ(F.D.phaseChanges(), 0u);
}

TEST(LocalPhaseDetector, FirstObservationOnlySeedsReference) {
  Fixture F;
  EXPECT_EQ(F.D.observe(ShapeA), LocalPhaseState::Unstable);
  EXPECT_EQ(F.D.observedIntervals(), 1u);
  // The seeded reference equals the observed histogram.
  EXPECT_EQ(std::vector<std::uint32_t>(F.D.stableSet().begin(),
                                       F.D.stableSet().end()),
            ShapeA);
}

TEST(LocalPhaseDetector, Fig12HappyPath) {
  // Unstable -> LessUnstable -> Stable in exactly three similar intervals
  // ("After two intervals, an r-value can be computed").
  Fixture F;
  EXPECT_EQ(F.D.observe(ShapeA), LocalPhaseState::Unstable);
  EXPECT_EQ(F.D.observe(ShapeA), LocalPhaseState::LessUnstable);
  EXPECT_EQ(F.D.observe(ShapeA), LocalPhaseState::Stable);
  EXPECT_EQ(F.D.phaseChanges(), 1u) << "entering stable is a phase change";
  EXPECT_TRUE(F.D.lastObservationChangedPhase());
}

TEST(LocalPhaseDetector, DissimilarIntervalKeepsUnstable) {
  Fixture F;
  F.D.observe(ShapeA);
  EXPECT_EQ(F.D.observe(ShapeB), LocalPhaseState::Unstable);
  EXPECT_LT(F.D.lastR(), 0.8);
  // The reference tracks the current set while not stable.
  EXPECT_EQ(std::vector<std::uint32_t>(F.D.stableSet().begin(),
                                       F.D.stableSet().end()),
            ShapeB);
}

TEST(LocalPhaseDetector, LessUnstableFallsBackOnDissimilarity) {
  Fixture F;
  F.D.observe(ShapeA);
  ASSERT_EQ(F.D.observe(ShapeA), LocalPhaseState::LessUnstable);
  EXPECT_EQ(F.D.observe(ShapeB), LocalPhaseState::Unstable);
  EXPECT_EQ(F.D.phaseChanges(), 0u) << "never reached stable";
}

TEST(LocalPhaseDetector, StableExitsOnBehaviourChange) {
  Fixture F;
  for (int I = 0; I < 3; ++I)
    F.D.observe(ShapeA);
  ASSERT_EQ(F.D.state(), LocalPhaseState::Stable);
  EXPECT_EQ(F.D.observe(ShapeB), LocalPhaseState::Unstable);
  EXPECT_EQ(F.D.phaseChanges(), 2u) << "one entry + one exit";
}

TEST(LocalPhaseDetector, ScaledHistogramDoesNotEndStablePhase) {
  // Paper Fig. 8's second property, end to end through the detector:
  // sampling variation must not fake a phase change.
  Fixture F;
  for (int I = 0; I < 3; ++I)
    F.D.observe(ShapeA);
  ASSERT_EQ(F.D.state(), LocalPhaseState::Stable);
  EXPECT_EQ(F.D.observe(ShapeAScaled), LocalPhaseState::Stable);
  EXPECT_GT(F.D.lastR(), 0.99);
  EXPECT_EQ(F.D.phaseChanges(), 1u);
}

TEST(LocalPhaseDetector, ReferenceFrozenWhileStable) {
  Fixture F;
  for (int I = 0; I < 3; ++I)
    F.D.observe(ShapeA);
  ASSERT_EQ(F.D.state(), LocalPhaseState::Stable);
  F.D.observe(ShapeAScaled); // similar: stays stable
  // The frozen reference is still ShapeA, not the scaled variant.
  EXPECT_EQ(std::vector<std::uint32_t>(F.D.stableSet().begin(),
                                       F.D.stableSet().end()),
            ShapeA);
}

TEST(LocalPhaseDetector, ReferenceUpdatesOnStableExit) {
  Fixture F;
  for (int I = 0; I < 3; ++I)
    F.D.observe(ShapeA);
  F.D.observe(ShapeB); // phase change
  EXPECT_EQ(std::vector<std::uint32_t>(F.D.stableSet().begin(),
                                       F.D.stableSet().end()),
            ShapeB)
      << "the new behaviour becomes the candidate reference";
  // And the new behaviour can stabilize in two more intervals.
  F.D.observe(ShapeB);
  EXPECT_EQ(F.D.observe(ShapeB), LocalPhaseState::Stable);
  EXPECT_EQ(F.D.phaseChanges(), 3u);
}

TEST(LocalPhaseDetector, BottleneckShiftByOneInstructionIsAPhaseChange) {
  // Fig. 8's first property end to end.
  std::vector<std::uint32_t> Shifted(ShapeA.size());
  for (std::size_t I = 0; I < ShapeA.size(); ++I)
    Shifted[(I + 1) % ShapeA.size()] = ShapeA[I];
  Fixture F;
  for (int I = 0; I < 3; ++I)
    F.D.observe(ShapeA);
  EXPECT_EQ(F.D.observe(Shifted), LocalPhaseState::Unstable);
}

TEST(LocalPhaseDetector, EffectiveRtDefaultsToConfig) {
  PearsonSimilarity Metric;
  LocalPhaseDetector D(64, Metric);
  EXPECT_DOUBLE_EQ(D.effectiveRt(), 0.8);
}

TEST(LocalPhaseDetector, AdaptiveThresholdLowersRtForLargeRegions) {
  PearsonSimilarity Metric;
  LocalDetectorConfig Config;
  Config.AdaptiveThreshold = true;
  LocalPhaseDetector Small(64, Metric, Config);
  LocalPhaseDetector Large(1024, Metric, Config);
  EXPECT_DOUBLE_EQ(Small.effectiveRt(), 0.8) << "at the base size";
  EXPECT_NEAR(Large.effectiveRt(), 0.8 - 0.05 * 4, 1e-12)
      << "log2(1024/64) = 4 steps down";
}

TEST(LocalPhaseDetector, AdaptiveThresholdClampsAtMinimum) {
  PearsonSimilarity Metric;
  LocalDetectorConfig Config;
  Config.AdaptiveThreshold = true;
  LocalPhaseDetector Huge(64 * 1024, Metric, Config);
  EXPECT_DOUBLE_EQ(Huge.effectiveRt(), AdaptiveMinRt);
}

TEST(LocalPhaseDetector, AdaptiveThresholdToleratesModerateR) {
  // A pair of histograms with r = 1/sqrt(2) ~ 0.707: B carries A's spikes
  // plus an equal-energy set of disjoint spikes (B = A + C with A
  // orthogonal to C), so a fixed 0.8 threshold rejects it while the
  // adaptive threshold for a 1024-instruction region (rt_eff = 0.6)
  // accepts it.
  std::vector<std::uint32_t> A(1024, 0), B(1024, 0);
  for (std::size_t I = 0; I < 1024; I += 64) {
    A[I] = 40;
    B[I] = 40;
    B[I + 32] = 40;
  }
  PearsonSimilarity Metric;
  const double R = Metric.compare(A, B);
  ASSERT_GT(R, 0.65);
  ASSERT_LT(R, 0.75);

  LocalDetectorConfig Adaptive;
  Adaptive.AdaptiveThreshold = true;
  LocalPhaseDetector Fixed(1024, Metric);
  LocalPhaseDetector Adapt(1024, Metric, Adaptive);
  for (int I = 0; I < 2; ++I) {
    Fixed.observe(A);
    Adapt.observe(A);
  }
  Fixed.observe(B);
  Adapt.observe(B);
  EXPECT_NE(Fixed.state(), LocalPhaseState::Stable);
  EXPECT_EQ(Adapt.state(), LocalPhaseState::Stable);
}

/// Property sweep: alternating two dissimilar shapes with period K, the
/// detector fires exactly twice per alternation cycle once warmed up
/// (enter stable within a run, exit at the flip) for K >= 3.
class AlternationTest : public ::testing::TestWithParam<int> {};

TEST_P(AlternationTest, TwoChangesPerCycle) {
  const int K = GetParam();
  PearsonSimilarity Metric;
  LocalPhaseDetector D(ShapeA.size(), Metric);
  const int Cycles = 10;
  for (int Cycle = 0; Cycle < Cycles; ++Cycle) {
    for (int I = 0; I < K; ++I)
      D.observe(Cycle % 2 ? ShapeB : ShapeA);
  }
  // First run: 1 change (enter stable). Every subsequent run: exit + enter.
  const auto Expected = static_cast<std::uint64_t>(1 + (Cycles - 1) * 2);
  EXPECT_EQ(D.phaseChanges(), Expected);
}

INSTANTIATE_TEST_SUITE_P(RunLengths, AlternationTest,
                         ::testing::Values(3, 4, 5, 8, 13));

TEST(LocalPhaseDetector, PeriodTwoAlternationNeverStabilizes) {
  // With runs shorter than the stabilization latency the detector stays
  // out of stable entirely: zero phase changes, matching the paper's
  // "locally unstable regions" that do not flap.
  PearsonSimilarity Metric;
  LocalPhaseDetector D(ShapeA.size(), Metric);
  for (int I = 0; I < 40; ++I)
    D.observe(I % 2 ? ShapeB : ShapeA);
  EXPECT_EQ(D.phaseChanges(), 0u);
  EXPECT_NE(D.state(), LocalPhaseState::Stable);
}

} // namespace
