//===- tests/GpdDetectorTest.cpp - Centroid GPD state machine -------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "gpd/CentroidPhaseDetector.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

using namespace regmon;
using namespace regmon::gpd;

namespace {

/// Feeds N identical centroids; with the default config the detector must
/// pass Unstable -> LessStable -> Stable.
TEST(CentroidDetector, ConstantCentroidStabilizes) {
  CentroidPhaseDetector D;
  GlobalPhaseState State = GlobalPhaseState::Unstable;
  for (int I = 0; I < 10; ++I)
    State = D.observeCentroid(100'000);
  EXPECT_EQ(State, GlobalPhaseState::Stable);
  EXPECT_EQ(D.phaseChanges(), 1u) << "exactly one entry into stable";
}

TEST(CentroidDetector, StartsUnstable) {
  CentroidPhaseDetector D;
  EXPECT_EQ(D.state(), GlobalPhaseState::Unstable);
  EXPECT_EQ(D.observeCentroid(100'000), GlobalPhaseState::Unstable)
      << "no band exists after one observation";
}

TEST(CentroidDetector, StabilizationLatency) {
  // Band needs 2 prior centroids; LessStable needs TimerIntervals (2) of
  // low drift: stable at the 5th identical centroid.
  CentroidPhaseDetector D;
  std::vector<GlobalPhaseState> States;
  for (int I = 0; I < 5; ++I)
    States.push_back(D.observeCentroid(50'000));
  EXPECT_EQ(States[0], GlobalPhaseState::Unstable);
  EXPECT_EQ(States[1], GlobalPhaseState::Unstable);
  EXPECT_EQ(States[2], GlobalPhaseState::LessStable);
  EXPECT_EQ(States[3], GlobalPhaseState::LessStable);
  EXPECT_EQ(States[4], GlobalPhaseState::Stable);
}

TEST(CentroidDetector, ModerateDriftEndsStablePhase) {
  CentroidPhaseDetector D;
  for (int I = 0; I < 8; ++I)
    D.observeCentroid(100'000);
  ASSERT_EQ(D.state(), GlobalPhaseState::Stable);
  // Drift beyond TH2 (5% of E): 100k -> 107k is ~7% outside the band.
  EXPECT_EQ(D.observeCentroid(107'000), GlobalPhaseState::Unstable);
  EXPECT_TRUE(D.lastIntervalChangedPhase());
  EXPECT_EQ(D.phaseChanges(), 2u);
}

TEST(CentroidDetector, SmallDriftToleratedWhileStable) {
  CentroidPhaseDetector D;
  for (int I = 0; I < 8; ++I)
    D.observeCentroid(100'000);
  ASSERT_EQ(D.state(), GlobalPhaseState::Stable);
  // 0.5% drift: inside TH2.
  EXPECT_EQ(D.observeCentroid(100'500), GlobalPhaseState::Stable);
  EXPECT_EQ(D.phaseChanges(), 1u);
}

TEST(CentroidDetector, Th3BouncesLessStableToUnstable) {
  CentroidPhaseDetector D;
  D.observeCentroid(100'000);
  D.observeCentroid(100'000);
  ASSERT_EQ(D.observeCentroid(100'000), GlobalPhaseState::LessStable);
  // 12% drift > TH3 while less-stable.
  EXPECT_EQ(D.observeCentroid(112'000), GlobalPhaseState::Unstable);
  EXPECT_EQ(D.phaseChanges(), 0u) << "never reached stable";
}

TEST(CentroidDetector, ModerateDriftRestartsTimer) {
  CentroidPhaseDetector D;
  D.observeCentroid(100'000);
  D.observeCentroid(100'000);
  ASSERT_EQ(D.observeCentroid(100'000), GlobalPhaseState::LessStable);
  // One quiet interval short of the timer.
  for (unsigned I = 1; I < TimerIntervals; ++I)
    ASSERT_EQ(D.observeCentroid(100'000), GlobalPhaseState::LessStable);
  // Drift between TH1 and TH3 resets the quiet timer but stays LessStable.
  // The band is degenerate at 1e5, so 103k is a 3% drift.
  ASSERT_EQ(D.observeCentroid(103'000), GlobalPhaseState::LessStable);
  // The full timer runs again before stabilizing. The band now contains
  // 103k, so SD widened and 100k sits inside it.
  for (unsigned I = 1; I < TimerIntervals; ++I)
    EXPECT_EQ(D.observeCentroid(100'000), GlobalPhaseState::LessStable);
  EXPECT_EQ(D.observeCentroid(100'000), GlobalPhaseState::Stable);
}

TEST(CentroidDetector, Th4ClearsHistory) {
  CentroidPhaseDetector D;
  for (int I = 0; I < 8; ++I)
    D.observeCentroid(100'000);
  ASSERT_EQ(D.state(), GlobalPhaseState::Stable);
  // A wholesale working-set change: 100k -> 400k is a 300% drift.
  EXPECT_EQ(D.observeCentroid(400'000), GlobalPhaseState::Unstable);
  // After the reset the detector re-learns the new neighbourhood with the
  // standard latency (band after 2, timer 2).
  std::vector<GlobalPhaseState> States;
  for (int I = 0; I < 5; ++I)
    States.push_back(D.observeCentroid(400'000));
  EXPECT_EQ(States[4], GlobalPhaseState::Stable);
}

TEST(CentroidDetector, ThickBandBlocksStabilization) {
  // Alternating far-apart centroids: the band covers both poles but is
  // thicker than E/6, so the detector must never leave unstable. This is
  // the facerec scenario at large sampling periods.
  CentroidPhaseDetector D;
  for (int I = 0; I < 40; ++I)
    D.observeCentroid(I % 2 ? 400'000.0 : 100'000.0);
  EXPECT_EQ(D.stableIntervals(), 0u);
  EXPECT_EQ(D.phaseChanges(), 0u);
}

TEST(CentroidDetector, NarrowOscillationIsAbsorbed) {
  // A small symmetric oscillation (well within E/6) sits inside the band
  // of stability: the detector correctly treats it as one phase.
  CentroidPhaseDetector D;
  for (int I = 0; I < 12; ++I)
    D.observeCentroid(I % 2 ? 100'300.0 : 100'000.0);
  EXPECT_EQ(D.state(), GlobalPhaseState::Stable);
}

TEST(CentroidDetector, ObserveIntervalAveragesPcs) {
  CentroidPhaseDetector A, B;
  std::vector<Sample> Buffer;
  for (int I = 0; I < 100; ++I)
    Buffer.push_back(Sample{static_cast<Addr>(99'950 + I), 0});
  for (int I = 0; I < 6; ++I)
    A.observeInterval(Buffer);
  for (int I = 0; I < 6; ++I)
    B.observeCentroid(99'999.5);
  EXPECT_EQ(A.state(), B.state());
}

TEST(CentroidDetector, StableFractionAndTimeline) {
  CentroidPhaseDetector D;
  for (int I = 0; I < 10; ++I)
    D.observeCentroid(100'000);
  EXPECT_EQ(D.intervals(), 10u);
  EXPECT_EQ(D.stableIntervals(), 6u) << "stable from the 5th interval";
  EXPECT_DOUBLE_EQ(D.stableFraction(), 0.6);
  ASSERT_EQ(D.timeline().size(), 10u);
  EXPECT_EQ(D.timeline()[0], GlobalPhaseState::Unstable);
  EXPECT_EQ(D.timeline()[9], GlobalPhaseState::Stable);
}

TEST(CentroidDetector, PhaseChangeCountsBothDirections) {
  CentroidPhaseDetector D;
  for (int Cycle = 0; Cycle < 3; ++Cycle) {
    for (int I = 0; I < 8; ++I)
      D.observeCentroid(100'000);
    D.observeCentroid(110'000); // leave stable
    // Re-enter the original neighbourhood; it restabilizes.
  }
  // Each cycle: one entry + one exit.
  EXPECT_EQ(D.phaseChanges(), 6u);
}

TEST(CentroidDetector, AdaptiveWindowShrinksOnChangeAndRegrows) {
  // An adaptive and a constant-window detector see the same centroids;
  // where their states part, the adaptive window's size shows.
  CentroidConfig Config;
  Config.AdaptiveWindow = true;
  CentroidPhaseDetector Adaptive(Config);
  CentroidPhaseDetector Constant;
  const auto Both = [&](double Centroid) {
    return std::pair{Adaptive.observeCentroid(Centroid),
                     Constant.observeCentroid(Centroid)};
  };
  for (int I = 0; I < 10; ++I)
    Both(100'000);
  ASSERT_EQ(Adaptive.state(), GlobalPhaseState::Stable);
  // Leave stable: the adaptive window collapses to MinHistoryLength,
  // so the band re-forms around the new neighbourhood quickly.
  Both(115'000);
  ASSERT_TRUE(Adaptive.lastIntervalChangedPhase());
  // With MinHistoryLength entries the adaptive detector is stable after
  // the timer; the HistoryLength-entry constant window is not yet.
  std::vector<std::pair<GlobalPhaseState, GlobalPhaseState>> States;
  for (unsigned I = 0; I <= TimerIntervals; ++I)
    States.push_back(Both(115'000));
  EXPECT_EQ(States[TimerIntervals].first, GlobalPhaseState::Stable);
  EXPECT_NE(States[TimerIntervals].second, GlobalPhaseState::Stable);

  // Calm regrows the adaptive window, one entry per
  // GrowAfterStableIntervals quiet stable intervals, to MaxHistoryLength.
  for (std::size_t I = 0;
       I < GrowAfterStableIntervals * (MaxHistoryLength - MinHistoryLength);
       ++I)
    Both(115'000);
  ASSERT_EQ(Constant.state(), GlobalPhaseState::Stable);
  // A 4% probe keeps both stable and joins both histories.
  ASSERT_EQ(Both(119'600), std::pair(GlobalPhaseState::Stable,
                                     GlobalPhaseState::Stable));
  // After HistoryLength + 1 quiet intervals the probe has left the
  // constant window but not the regrown one, whose wider band absorbs a
  // 5.5% drift that ends the constant detector's stable phase.
  for (std::size_t I = 0; I < HistoryLength + 1; ++I)
    Both(115'000);
  EXPECT_EQ(Both(121'325), std::pair(GlobalPhaseState::Stable,
                                     GlobalPhaseState::Unstable));
}

TEST(CentroidDetector, AdaptiveWindowRestabilizesFasterThanConstant) {
  // After a genuine transition, the adaptive detector must not be slower
  // to re-enter stable than the constant-window one.
  const auto StableAfter = [](bool Adaptive) {
    CentroidConfig Config;
    Config.AdaptiveWindow = Adaptive;
    CentroidPhaseDetector D(Config);
    for (int I = 0; I < 12; ++I)
      D.observeCentroid(100'000);
    D.observeCentroid(300'000); // working-set change
    int Steps = 0;
    while (D.state() != GlobalPhaseState::Stable && Steps < 50) {
      D.observeCentroid(300'000);
      ++Steps;
    }
    return Steps;
  };
  EXPECT_LE(StableAfter(true), StableAfter(false));
}

/// Property sweep over drift sizes: from a stable state, drifts below TH2
/// never end the phase, drifts above do.
class DriftThresholdTest : public ::testing::TestWithParam<double> {};

TEST_P(DriftThresholdTest, Th2GovernsStableExit) {
  const double DriftFraction = GetParam();
  CentroidPhaseDetector D;
  for (int I = 0; I < 8; ++I)
    D.observeCentroid(200'000);
  ASSERT_EQ(D.state(), GlobalPhaseState::Stable);
  const double Next = 200'000 * (1.0 + DriftFraction);
  const GlobalPhaseState After = D.observeCentroid(Next);
  if (DriftFraction > 0.052) { // SD ~ 0: band is a point; TH2 = 5%
    EXPECT_EQ(After, GlobalPhaseState::Unstable) << DriftFraction;
  } else if (DriftFraction < 0.048) {
    EXPECT_EQ(After, GlobalPhaseState::Stable) << DriftFraction;
  }
}

INSTANTIATE_TEST_SUITE_P(Drifts, DriftThresholdTest,
                         ::testing::Values(0.0, 0.01, 0.02, 0.03, 0.04,
                                           0.06, 0.08, 0.12, 0.3, 0.6));

} // namespace
