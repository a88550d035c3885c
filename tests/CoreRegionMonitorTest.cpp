//===- tests/CoreRegionMonitorTest.cpp - Region monitor façade ------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/RegionMonitor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

using namespace regmon;
using namespace regmon::core;

namespace {

/// A hand-written code map over two regionable loops; 0x9000+ is
/// non-regionable.
CodeMap testCodeMap() {
  return CodeMap({{0x1000, 0x1100, "loopA"}, {0x2000, 0x2080, "loopB"}});
}

/// Builds one interval's buffer: Count samples at each listed PC.
std::vector<Sample> buffer(std::initializer_list<std::pair<Addr, int>> Spec) {
  std::vector<Sample> Out;
  for (const auto &[Pc, Count] : Spec)
    for (int I = 0; I < Count; ++I)
      Out.push_back(Sample{Pc, 0});
  return Out;
}

TEST(RegionMonitor, NoRegionsInitially) {
  const CodeMap Map = testCodeMap();
  RegionMonitor M(Map);
  EXPECT_TRUE(M.regions().empty());
  EXPECT_EQ(M.intervals(), 0u);
}

TEST(RegionMonitor, FirstIntervalIsAllUcrAndTriggersFormation) {
  const CodeMap Map = testCodeMap();
  RegionMonitor M(Map);
  M.observeInterval(buffer({{0x1004, 100}}));
  EXPECT_DOUBLE_EQ(M.lastUcrFraction(), 1.0)
      << "nothing was monitored when the samples arrived";
  EXPECT_EQ(M.formationTriggers(), 1u);
  ASSERT_EQ(M.regions().size(), 1u);
  EXPECT_EQ(M.regions()[0].Name, "loopA");
  EXPECT_EQ(M.regions()[0].Start, 0x1000u);
}

TEST(RegionMonitor, FormedRegionAbsorbsSubsequentSamples) {
  const CodeMap Map = testCodeMap();
  RegionMonitor M(Map);
  M.observeInterval(buffer({{0x1004, 100}}));
  M.observeInterval(buffer({{0x1004, 100}}));
  EXPECT_DOUBLE_EQ(M.lastUcrFraction(), 0.0);
  EXPECT_EQ(M.formationTriggers(), 1u) << "no second trigger";
  EXPECT_EQ(M.lastSampleCount(0), 100u);
}

TEST(RegionMonitor, UcrBelowThresholdDoesNotTrigger) {
  const CodeMap Map = testCodeMap();
  RegionMonitor M(Map);
  M.observeInterval(buffer({{0x1004, 100}})); // forms loopA
  // 20% of samples in unformed loopB code: below the 30% trigger.
  M.observeInterval(buffer({{0x1004, 80}, {0x2010, 20}}));
  EXPECT_DOUBLE_EQ(M.lastUcrFraction(), 0.2);
  EXPECT_EQ(M.regions().size(), 1u);
  // 40% pushes it over.
  M.observeInterval(buffer({{0x1004, 60}, {0x2010, 40}}));
  EXPECT_EQ(M.regions().size(), 2u);
  EXPECT_EQ(M.regions()[1].Name, "loopB");
}

TEST(RegionMonitor, NonRegionableSamplesNeverFormRegions) {
  const CodeMap Map = testCodeMap();
  RegionMonitor M(Map);
  for (int I = 0; I < 5; ++I)
    M.observeInterval(buffer({{0x9000, 100}}));
  EXPECT_TRUE(M.regions().empty());
  EXPECT_EQ(M.formationTriggers(), 5u)
      << "keeps triggering, like 254.gap in Fig. 7";
  EXPECT_DOUBLE_EQ(M.lastUcrFraction(), 1.0);
}

TEST(RegionMonitor, MinRegionSamplesFiltersColdCandidates) {
  const CodeMap Map = testCodeMap();
  RegionMonitor M(Map);
  const int Bar = static_cast<int>(MinRegionSamples);
  // All UCR, but loopA sits one sample under the bar and loopB further
  // below it.
  M.observeInterval(buffer({{0x9000, 40}, {0x1004, Bar - 1}, {0x2010, 2}}));
  ASSERT_EQ(M.formationTriggers(), 1u);
  ASSERT_EQ(M.regions().size(), 0u) << "nothing reaches the bar";
  // Exactly at the bar qualifies; one under it still does not.
  M.observeInterval(buffer({{0x1004, Bar}, {0x2010, Bar - 1}}));
  ASSERT_EQ(M.regions().size(), 1u);
  EXPECT_EQ(M.regions()[0].Name, "loopA");
}

/// The address of generated loop \p K.
Addr blockLoop(std::size_t K) { return 0x10000 + K * 0x100; }

/// A generated code map: each of the first 2 * MaxRegions 256-byte blocks
/// from blockLoop(0) is its own loop, so a test can offer as many
/// distinct formation candidates as it needs.
CodeMap blockLoopMap() {
  std::vector<CodeRegionInfo> Loops;
  for (std::size_t K = 0; K < 2 * MaxRegions; ++K)
    Loops.push_back({blockLoop(K), blockLoop(K) + 0x100, "L"});
  return CodeMap(std::move(Loops));
}

TEST(RegionMonitor, MaxRegionsCapsFormation) {
  const CodeMap Map = blockLoopMap();
  RegionMonitor M(Map);
  const int Bar = static_cast<int>(MinRegionSamples);
  // Fill to two regions short of the cap, fewer than a trigger's own cap
  // at a time so only MaxRegions can stop the last trigger.
  std::size_t Next = 0;
  while (M.activeRegionCount() < MaxRegions - 2) {
    const std::size_t Room = MaxRegions - 2 - M.activeRegionCount();
    std::vector<Sample> Buffer;
    for (std::size_t I = 0; I < std::min(Room, MaxNewRegionsPerTrigger - 1);
         ++I)
      for (int S = 0; S < Bar; ++S)
        Buffer.push_back(Sample{blockLoop(Next + I), 0});
    const std::size_t Before = M.regions().size();
    M.observeInterval(Buffer);
    ASSERT_GT(M.regions().size(), Before) << "every fill interval forms";
    Next = M.regions().size();
  }
  // Three qualifying candidates for the last two slots: the hottest two
  // win, hottest first.
  M.observeInterval(buffer({{blockLoop(Next), Bar},
                            {blockLoop(Next + 1), Bar + 20},
                            {blockLoop(Next + 2), Bar + 10}}));
  ASSERT_EQ(M.regions().size(), MaxRegions);
  EXPECT_EQ(M.activeRegionCount(), MaxRegions);
  EXPECT_EQ(M.regions()[MaxRegions - 2].Start, blockLoop(Next + 1));
  EXPECT_EQ(M.regions()[MaxRegions - 1].Start, blockLoop(Next + 2));
  // At the cap a trigger still fires but forms nothing.
  const std::uint64_t Triggers = M.formationTriggers();
  M.observeInterval(buffer({{blockLoop(Next + 3), 4 * Bar}}));
  EXPECT_EQ(M.formationTriggers(), Triggers + 1);
  EXPECT_EQ(M.regions().size(), MaxRegions);
}

TEST(RegionMonitor, LocalDetectionRunsPerRegion) {
  const CodeMap Map = testCodeMap();
  RegionMonitor M(Map);
  M.observeInterval(buffer({{0x1004, 100}})); // form
  // Three similar intervals stabilize the region.
  for (int I = 0; I < 3; ++I)
    M.observeInterval(buffer({{0x1004, 70}, {0x1020, 30}}));
  EXPECT_EQ(M.detector(0).state(), LocalPhaseState::Stable);
  // A bottleneck shift inside the loop destabilizes it.
  M.observeInterval(buffer({{0x1008, 70}, {0x1024, 30}}));
  EXPECT_EQ(M.detector(0).state(), LocalPhaseState::Unstable);
  EXPECT_EQ(M.stats(0).PhaseChanges, 2u);
}

TEST(RegionMonitor, EmptyIntervalFreezesRegionState) {
  const CodeMap Map = testCodeMap();
  RegionMonitor M(Map);
  M.observeInterval(buffer({{0x1004, 100}}));
  for (int I = 0; I < 3; ++I)
    M.observeInterval(buffer({{0x1004, 100}}));
  ASSERT_EQ(M.detector(0).state(), LocalPhaseState::Stable);
  const double RBefore = M.detector(0).lastR();
  // The region receives no samples for a while: state and r persist
  // ("the value of r returned is the same as during the last interval").
  for (int I = 0; I < 4; ++I)
    M.observeInterval(buffer({{0x9000, 100}}));
  EXPECT_EQ(M.detector(0).state(), LocalPhaseState::Stable);
  EXPECT_DOUBLE_EQ(M.detector(0).lastR(), RBefore);
  EXPECT_EQ(M.stats(0).ActiveIntervals, 3u);
  EXPECT_EQ(M.stats(0).LifetimeIntervals, 8u);
}

TEST(RegionMonitor, EventsFireInOrder) {
  const CodeMap Map = testCodeMap();
  RegionMonitor M(Map);
  std::vector<RegionEvent::Kind> Kinds;
  M.setEventHandler(
      [&](const RegionEvent &E) { Kinds.push_back(E.K); });
  M.observeInterval(buffer({{0x1004, 100}}));
  for (int I = 0; I < 3; ++I)
    M.observeInterval(buffer({{0x1004, 100}}));
  M.observeInterval(buffer({{0x1080, 100}})); // shifted bottleneck
  ASSERT_EQ(Kinds.size(), 3u);
  EXPECT_EQ(Kinds[0], RegionEvent::Kind::Formed);
  EXPECT_EQ(Kinds[1], RegionEvent::Kind::BecameStable);
  EXPECT_EQ(Kinds[2], RegionEvent::Kind::BecameUnstable);
}

TEST(RegionMonitor, PruningDropsColdRegions) {
  const CodeMap Map = testCodeMap();
  RegionMonitorConfig Config;
  Config.PruneColdRegions = true;
  Config.PruneAfterIdleIntervals = 3;
  RegionMonitor M(Map, Config);
  std::vector<RegionEvent::Kind> Kinds;
  M.setEventHandler(
      [&](const RegionEvent &E) { Kinds.push_back(E.K); });

  M.observeInterval(buffer({{0x1004, 100}})); // form loopA
  for (int I = 0; I < 4; ++I)
    M.observeInterval(buffer({{0x9000, 100}})); // loopA idle
  EXPECT_FALSE(M.isActive(0));
  EXPECT_TRUE(M.activeRegionIds().empty());
  EXPECT_EQ(Kinds.back(), RegionEvent::Kind::Pruned);
  // The region's code heats up again: it is re-formed under a new id.
  M.observeInterval(buffer({{0x1004, 100}}));
  ASSERT_EQ(M.regions().size(), 2u);
  EXPECT_TRUE(M.isActive(1));
}

TEST(RegionMonitor, OverlappingRegionsBothCredited) {
  // Two overlapping formable regions; which one a PC resolves to depends
  // on the address (the smaller "outer" claims the overlap), but once both
  // exist, samples in the overlap are credited to both (the paper's
  // >buffer-size stacks).
  const CodeMap Map(
      {{0x1000, 0x1100, "outer"}, {0x1080, 0x1200, "straddler"}});
  RegionMonitor M(Map);
  M.observeInterval(buffer({{0x1004, 50}, {0x1104, 50}}));
  ASSERT_EQ(M.regions().size(), 2u);
  // 0x1090 lies in both regions.
  M.observeInterval(buffer({{0x1090, 100}}));
  EXPECT_EQ(M.lastSampleCount(0), 100u);
  EXPECT_EQ(M.lastSampleCount(1), 100u);
  EXPECT_DOUBLE_EQ(M.lastUcrFraction(), 0.0);
}

TEST(RegionMonitor, TimelinesRecordPerInterval) {
  const CodeMap Map = testCodeMap();
  RegionMonitorConfig Config;
  Config.RecordTimelines = true;
  RegionMonitor M(Map, Config);
  M.observeInterval(buffer({{0x1004, 100}}));
  M.observeInterval(buffer({{0x1004, 60}, {0x9000, 40}}));
  M.observeInterval(buffer({{0x9000, 100}}));
  const auto Samples = M.sampleTimeline(0);
  ASSERT_EQ(Samples.size(), 3u);
  EXPECT_EQ(Samples[0], 0u) << "formed during interval 0";
  EXPECT_EQ(Samples[1], 60u);
  EXPECT_EQ(Samples[2], 0u);
  EXPECT_EQ(M.stateTimeline(0).size(), 3u);
  EXPECT_EQ(M.rTimeline(0).size(), 3u);
}

TEST(RegionMonitor, UcrHistoryMatchesIntervals) {
  const CodeMap Map = testCodeMap();
  RegionMonitorConfig Config;
  Config.RecordTimelines = true; // the UCR series is a chart series
  RegionMonitor M(Map, Config);
  M.observeInterval(buffer({{0x1004, 100}}));
  M.observeInterval(buffer({{0x1004, 50}, {0x9000, 50}}));
  ASSERT_EQ(M.ucrHistory().size(), 2u);
  EXPECT_DOUBLE_EQ(M.ucrHistory()[0], 1.0);
  EXPECT_DOUBLE_EQ(M.ucrHistory()[1], 0.5);
}

TEST(RegionMonitor, StatsAccumulate) {
  const CodeMap Map = testCodeMap();
  RegionMonitor M(Map);
  M.observeInterval(buffer({{0x1004, 100}}));
  for (int I = 0; I < 4; ++I)
    M.observeInterval(buffer({{0x1004, 80}, {0x9000, 20}}));
  const RegionStats &S = M.stats(0);
  EXPECT_EQ(S.TotalSamples, 320u);
  EXPECT_EQ(S.ActiveIntervals, 4u);
  EXPECT_EQ(S.LifetimeIntervals, 5u);
  EXPECT_EQ(S.StableIntervals, 2u) << "stable from the 3rd observation";
  EXPECT_DOUBLE_EQ(S.stableFraction(), 0.4);
}

TEST(RegionMonitor, MaxNewRegionsPerTrigger) {
  const CodeMap Map = blockLoopMap();
  RegionMonitor M(Map);
  // Two more qualifying candidates than one trigger may form, hotter at
  // higher addresses; loops 1 and 2 tie for the last slot.
  const std::size_t Offered = MaxNewRegionsPerTrigger + 2;
  std::vector<Sample> Buffer;
  for (std::size_t K = 0; K < Offered; ++K) {
    const std::size_t Extra = K == 0 ? 0 : std::max<std::size_t>(K, 2);
    for (std::size_t S = 0; S < MinRegionSamples + Extra; ++S)
      Buffer.push_back(Sample{blockLoop(K), 0});
  }
  M.observeInterval(Buffer);
  ASSERT_EQ(M.regions().size(), MaxNewRegionsPerTrigger);
  // Hottest first; the tie goes to the lower address, and the coldest
  // candidate and the tie's loser wait for a later trigger.
  for (std::size_t I = 0; I + 1 < MaxNewRegionsPerTrigger; ++I)
    EXPECT_EQ(M.regions()[I].Start, blockLoop(Offered - 1 - I)) << I;
  EXPECT_EQ(M.regions().back().Start, blockLoop(1));
}

} // namespace
