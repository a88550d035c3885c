//===- tests/CoreRegionMonitorTest.cpp - Region monitor façade ------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/RegionMonitor.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

using namespace regmon;
using namespace regmon::core;

namespace {

/// A hand-written code oracle over three regionable loops plus a
/// non-regionable stretch.
class TestCodeMap final : public CodeMap {
public:
  std::optional<CodeRegionInfo> regionFor(Addr Pc) const override {
    if (Pc >= 0x1000 && Pc < 0x1100)
      return CodeRegionInfo{0x1000, 0x1100, "loopA"};
    if (Pc >= 0x2000 && Pc < 0x2080)
      return CodeRegionInfo{0x2000, 0x2080, "loopB"};
    if (Pc >= 0x2040 && Pc < 0x2060) // never reached: loopB is innermost
      return CodeRegionInfo{0x2040, 0x2060, "inner"};
    return std::nullopt; // 0x9000+ is non-regionable
  }
};

/// Builds one interval's buffer: Count samples at each listed PC.
std::vector<Sample> buffer(std::initializer_list<std::pair<Addr, int>> Spec) {
  std::vector<Sample> Out;
  for (const auto &[Pc, Count] : Spec)
    for (int I = 0; I < Count; ++I)
      Out.push_back(Sample{Pc, 0});
  return Out;
}

TEST(RegionMonitor, NoRegionsInitially) {
  TestCodeMap Map;
  RegionMonitor M(Map);
  EXPECT_TRUE(M.regions().empty());
  EXPECT_EQ(M.intervals(), 0u);
}

TEST(RegionMonitor, FirstIntervalIsAllUcrAndTriggersFormation) {
  TestCodeMap Map;
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
  TestCodeMap Map;
  RegionMonitor M(Map);
  M.observeInterval(buffer({{0x1004, 100}}));
  M.observeInterval(buffer({{0x1004, 100}}));
  EXPECT_DOUBLE_EQ(M.lastUcrFraction(), 0.0);
  EXPECT_EQ(M.formationTriggers(), 1u) << "no second trigger";
  EXPECT_EQ(M.lastSampleCount(0), 100u);
}

TEST(RegionMonitor, UcrBelowThresholdDoesNotTrigger) {
  TestCodeMap Map;
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
  TestCodeMap Map;
  RegionMonitor M(Map);
  for (int I = 0; I < 5; ++I)
    M.observeInterval(buffer({{0x9000, 100}}));
  EXPECT_TRUE(M.regions().empty());
  EXPECT_EQ(M.formationTriggers(), 5u)
      << "keeps triggering, like 254.gap in Fig. 7";
  EXPECT_DOUBLE_EQ(M.lastUcrFraction(), 1.0);
}

TEST(RegionMonitor, MinRegionSamplesFiltersColdCandidates) {
  TestCodeMap Map;
  RegionMonitorConfig Config;
  Config.MinRegionSamples = 50;
  RegionMonitor M(Map, Config);
  // 60% UCR, but split 40 + 20: only loopA passes the bar.
  M.observeInterval(buffer({{0x9000, 40}, {0x1004, 40}, {0x2010, 20}}));
  ASSERT_EQ(M.regions().size(), 0u) << "nothing passes the 50-sample bar";
  M.observeInterval(buffer({{0x1004, 60}, {0x2010, 40}}));
  ASSERT_EQ(M.regions().size(), 1u);
  EXPECT_EQ(M.regions()[0].Name, "loopA");
}

TEST(RegionMonitor, MaxRegionsCapsFormation) {
  TestCodeMap Map;
  RegionMonitorConfig Config;
  Config.MaxRegions = 1;
  RegionMonitor M(Map, Config);
  M.observeInterval(buffer({{0x1004, 50}, {0x2010, 50}}));
  EXPECT_EQ(M.regions().size(), 1u);
  EXPECT_EQ(M.regions()[0].Name, "loopA") << "hottest candidate wins";
}

TEST(RegionMonitor, LocalDetectionRunsPerRegion) {
  TestCodeMap Map;
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
  TestCodeMap Map;
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
  TestCodeMap Map;
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
  TestCodeMap Map;
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
  /// Oracle with two overlapping formable regions; which one a PC resolves
  /// to depends on the address, but once both exist, samples in the
  /// overlap are credited to both (the paper's >buffer-size stacks).
  class OverlapMap final : public CodeMap {
  public:
    std::optional<CodeRegionInfo> regionFor(Addr Pc) const override {
      if (Pc >= 0x1000 && Pc < 0x1100)
        return CodeRegionInfo{0x1000, 0x1100, "outer"};
      if (Pc >= 0x1100 && Pc < 0x1200)
        return CodeRegionInfo{0x1080, 0x1200, "straddler"};
      return std::nullopt;
    }
  };
  OverlapMap Map;
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
  TestCodeMap Map;
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
  TestCodeMap Map;
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
  TestCodeMap Map;
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
  /// Oracle with many distinct hot loops at once.
  class ManyMap final : public CodeMap {
  public:
    std::optional<CodeRegionInfo> regionFor(Addr Pc) const override {
      const Addr Base = Pc & ~Addr(0xff);
      return CodeRegionInfo{Base, Base + 0x100, "L"};
    }
  };
  ManyMap Map;
  RegionMonitorConfig Config;
  Config.MaxNewRegionsPerTrigger = 2;
  Config.MinRegionSamples = 1;
  RegionMonitor M(Map, Config);
  M.observeInterval(buffer(
      {{0x1000, 30}, {0x2000, 25}, {0x3000, 20}, {0x4000, 25}}));
  EXPECT_EQ(M.regions().size(), 2u);
  // Hottest two candidates were taken.
  EXPECT_EQ(M.regions()[0].Start, 0x1000u);
  EXPECT_EQ(M.regions()[1].Start, 0x2000u);
}

} // namespace
