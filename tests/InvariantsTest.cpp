//===- tests/InvariantsTest.cpp - Cross-cutting system invariants ---------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Invariants that must hold for *every* workload in the catalogue, checked
/// by one full monitored run each. These catch accounting bugs that
/// pointwise unit tests miss: sample conservation across attribution and
/// the UCR, stability bookkeeping, the parity relation between phase
/// changes and the current state, and the formation constants.
///
//===----------------------------------------------------------------------===//

#include "core/RegionMonitor.h"
#include "gpd/CentroidPhaseDetector.h"
#include "sampling/Sampler.h"
#include "sim/Engine.h"
#include "sim/ProgramCodeMap.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <utility>
#include <vector>

using namespace regmon;

namespace {

/// One monitored run of the parameterized workload at 450K (cheap: ~10x
/// fewer samples than 45K, same code paths).
class WorkloadInvariantsTest : public ::testing::TestWithParam<std::string> {
protected:
  void SetUp() override {
    W = std::make_unique<workloads::Workload>(
        workloads::make(GetParam()));
    Map = std::make_unique<sim::ProgramCodeMap>(W->Prog);
    core::RegionMonitorConfig Config;
    Config.RecordTimelines = true; // the UCR series is checked below
    Monitor = std::make_unique<core::RegionMonitor>(*Map, Config);
    sim::Engine Engine(W->Prog, W->Script, /*Seed=*/1);
    sampling::Sampler Sampler(Engine, {450'000, 2032});
    Sampler.run([&](std::span<const Sample> Buffer) {
      Monitor->observeInterval(Buffer);
      Gpd.observeInterval(Buffer);
      ++Intervals;
      MaxActive = std::max(MaxActive, Monitor->activeRegionCount());
    });
  }

  std::unique_ptr<workloads::Workload> W;
  std::unique_ptr<sim::ProgramCodeMap> Map;
  std::unique_ptr<core::RegionMonitor> Monitor;
  gpd::CentroidPhaseDetector Gpd;
  std::uint64_t Intervals = 0;
  /// The most regions active at the end of any interval.
  std::size_t MaxActive = 0;
};

TEST_P(WorkloadInvariantsTest, SampleConservation) {
  // No workload in the catalogue has overlapping regions, so every sample
  // lands in exactly one region or the UCR:
  //   sum(region samples) + sum(UCR samples) == intervals * buffer.
  std::uint64_t Attributed = 0;
  for (const core::Region &R : Monitor->regions())
    Attributed += Monitor->stats(R.Id).TotalSamples;
  double UcrSamples = 0;
  for (double Fraction : Monitor->ucrHistory())
    UcrSamples += Fraction * 2032.0;
  EXPECT_NEAR(static_cast<double>(Attributed) + UcrSamples,
              static_cast<double>(Intervals) * 2032.0, 0.5)
      << "samples leaked or were double-counted";
}

TEST_P(WorkloadInvariantsTest, PerRegionAccounting) {
  for (const core::Region &R : Monitor->regions()) {
    const core::RegionStats &S = Monitor->stats(R.Id);
    EXPECT_LE(S.ActiveIntervals, S.LifetimeIntervals) << R.Name;
    EXPECT_LE(S.LifetimeIntervals, Intervals) << R.Name;
    EXPECT_LE(S.StableIntervals, S.LifetimeIntervals) << R.Name;
    EXPECT_LE(S.TotalMisses, S.TotalSamples) << R.Name;
    EXPECT_GE(S.missFraction(), 0.0);
    EXPECT_LE(S.missFraction(), 1.0);
    EXPECT_EQ(S.LifetimeIntervals, Intervals - R.FormedAtInterval)
        << R.Name << ": no pruning configured, lifetime is exact";
  }
}

TEST_P(WorkloadInvariantsTest, PhaseChangeParity) {
  // Every region starts unstable and each counted change toggles
  // stability, so: currently stable <=> an odd number of phase changes.
  for (core::RegionId Id : Monitor->activeRegionIds()) {
    const bool Stable = Monitor->detector(Id).state() ==
                        core::LocalPhaseState::Stable;
    EXPECT_EQ(Monitor->stats(Id).PhaseChanges % 2 == 1, Stable)
        << Monitor->regions()[Id].Name;
  }
  const bool GpdStable = Gpd.state() == gpd::GlobalPhaseState::Stable;
  EXPECT_EQ(Gpd.phaseChanges() % 2 == 1, GpdStable);
}

TEST_P(WorkloadInvariantsTest, TimelinesAndHistoriesAlign) {
  EXPECT_EQ(Monitor->intervals(), Intervals);
  EXPECT_EQ(Monitor->ucrHistory().size(), Intervals);
  EXPECT_EQ(Gpd.intervals(), Intervals);
  EXPECT_EQ(Gpd.timeline().size(), Intervals);
  for (double Fraction : Monitor->ucrHistory()) {
    EXPECT_GE(Fraction, 0.0);
    EXPECT_LE(Fraction, 1.0);
  }
}

TEST_P(WorkloadInvariantsTest, RegionsMatchFormableLoops) {
  // Every formed region must correspond exactly to a regionable loop of
  // the program (formation only proposes loop bounds).
  for (const core::Region &R : Monitor->regions()) {
    const bool Matches = std::any_of(
        W->Prog.loops().begin(), W->Prog.loops().end(),
        [&](const sim::Loop &L) {
          return L.Regionable && L.Start == R.Start && L.End == R.End;
        });
    EXPECT_TRUE(Matches) << R.Name;
  }
}

TEST_P(WorkloadInvariantsTest, FormationKeepsItsConstants) {
  // The formation caps and trigger hold on real programs, not only on the
  // hand-written code maps of the unit tests.
  EXPECT_LE(MaxActive, core::MaxRegions);
  std::map<std::uint64_t, std::size_t> FormedIn; // interval -> regions
  for (const core::Region &R : Monitor->regions())
    ++FormedIn[R.FormedAtInterval];
  const std::span<const double> Ucr = Monitor->ucrHistory();
  for (const auto &[Interval, Formed] : FormedIn) {
    EXPECT_LE(Formed, core::MaxNewRegionsPerTrigger) << "interval " << Interval;
    ASSERT_LT(Interval, Ucr.size());
    EXPECT_GT(Ucr[Interval], core::UcrTriggerFraction)
        << "interval " << Interval << " formed below the trigger";
  }
}

TEST_P(WorkloadInvariantsTest, ActiveRegionsNeverShareBounds) {
  // Formation keeps no check for a candidate with an active region's
  // bounds: that region would have claimed every sample the candidate
  // counted. Hold it at every interval end, with pruning off and with
  // pruning retiring and re-forming regions.
  for (const bool Prune : {false, true}) {
    SCOPED_TRACE(Prune ? "pruning" : "no pruning");
    core::RegionMonitorConfig Config;
    Config.PruneColdRegions = Prune;
    Config.PruneAfterIdleIntervals = 4;
    core::RegionMonitor M(*Map, Config);
    sim::Engine Engine(W->Prog, W->Script, /*Seed=*/1);
    sampling::Sampler Sampler(Engine, {450'000, 2032});
    std::vector<std::pair<Addr, Addr>> Bounds;
    std::uint64_t SharedAt = 0, Shared = 0;
    Sampler.run([&](std::span<const Sample> Buffer) {
      M.observeInterval(Buffer);
      Bounds.clear();
      for (core::RegionId Id : M.activeRegionIds())
        Bounds.emplace_back(M.regions()[Id].Start, M.regions()[Id].End);
      std::sort(Bounds.begin(), Bounds.end());
      if (std::adjacent_find(Bounds.begin(), Bounds.end()) != Bounds.end() &&
          Shared++ == 0)
        SharedAt = M.intervals() - 1;
    });
    EXPECT_EQ(Shared, 0u) << "first at interval " << SharedAt;
    EXPECT_GT(M.intervals(), 0u);
  }
}

TEST_P(WorkloadInvariantsTest, LastRWithinBounds) {
  for (core::RegionId Id : Monitor->activeRegionIds()) {
    const double R = Monitor->detector(Id).lastR();
    EXPECT_GE(R, -1.0 - 1e-9);
    EXPECT_LE(R, 1.0 + 1e-9);
  }
}

TEST_P(WorkloadInvariantsTest, ActiveIdsTrackTheActiveFlags) {
  // The monitor keeps its active ids and its lifetime phase-change total
  // beside the records instead of walking every record ever formed; at
  // every interval end both must equal that walk, with pruning off and
  // with regions retired after 4 idle intervals.
  for (const bool Prune : {false, true}) {
    SCOPED_TRACE(Prune ? "pruning after 4" : "no pruning");
    core::RegionMonitorConfig Config;
    Config.PruneColdRegions = Prune;
    Config.PruneAfterIdleIntervals = 4;
    core::RegionMonitor M(*Map, Config);
    sim::Engine Engine(W->Prog, W->Script, /*Seed=*/1);
    sampling::Sampler Sampler(Engine, {450'000, 2032});
    bool Failed = false;
    Sampler.run([&](std::span<const Sample> Buffer) {
      M.observeInterval(Buffer);
      if (Failed)
        return;
      std::vector<core::RegionId> Walked;
      std::uint64_t PhaseChanges = 0;
      for (const core::Region &R : M.regions()) {
        if (M.isActive(R.Id))
          Walked.push_back(R.Id);
        PhaseChanges += M.stats(R.Id).PhaseChanges;
      }
      EXPECT_EQ(M.activeRegionIds(), Walked) << "interval " << M.intervals();
      EXPECT_EQ(M.activeRegionCount(), Walked.size());
      EXPECT_EQ(M.totalPhaseChanges(), PhaseChanges);
      Failed = ::testing::Test::HasFailure();
    });
    EXPECT_GT(M.intervals(), 0U);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadInvariantsTest,
                         ::testing::ValuesIn(workloads::allNames()),
                         [](const auto &Info) {
                           std::string Name = Info.param;
                           std::replace(Name.begin(), Name.end(), '.', '_');
                           return Name;
                         });

} // namespace
