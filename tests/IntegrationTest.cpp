//===- tests/IntegrationTest.cpp - End-to-end paper claims ----------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Full-stack tests of the paper's central claims: engine -> sampler ->
/// detectors, on the catalogued workloads. These are the properties the
/// figure benches visualize, pinned as assertions.
///
//===----------------------------------------------------------------------===//

#include "core/RegionMonitor.h"
#include "gpd/CentroidPhaseDetector.h"
#include "sampling/Sampler.h"
#include "sim/Engine.h"
#include "sim/ProgramCodeMap.h"
#include "support/Statistics.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace regmon;

namespace {

struct FullRun {
  workloads::Workload W;
  sim::ProgramCodeMap Map;
  core::RegionMonitor Monitor;
  gpd::CentroidPhaseDetector Gpd;

  FullRun(const std::string &Name, Cycles Period,
          core::RegionMonitorConfig Config = {})
      : W(workloads::make(Name)), Map(W.Prog), Monitor(Map, Config) {
    sim::Engine Engine(W.Prog, W.Script, /*Seed=*/1);
    sampling::Sampler Sampler(Engine, {Period, 2032});
    Sampler.run([&](std::span<const Sample> Buffer) {
      Monitor.observeInterval(Buffer);
      Gpd.observeInterval(Buffer);
    });
  }

  std::uint64_t totalLocalChanges() const {
    std::uint64_t Total = 0;
    for (core::RegionId Id : Monitor.activeRegionIds())
      Total += Monitor.stats(Id).PhaseChanges;
    return Total;
  }
};

TEST(Integration, SteadyWorkloadIsStableEverywhere) {
  FullRun Run("synthetic.steady", 45'000);
  EXPECT_LE(Run.Gpd.phaseChanges(), 1u);
  EXPECT_GT(Run.Gpd.stableFraction(), 0.5);
  for (core::RegionId Id : Run.Monitor.activeRegionIds()) {
    EXPECT_LE(Run.Monitor.stats(Id).PhaseChanges, 1u);
    EXPECT_GT(Run.Monitor.stats(Id).stableFraction(), 0.5);
  }
}

TEST(Integration, PeriodicWorkloadChurnsGpdButNotLpd) {
  // The paper's core claim in miniature: global churn, local calm.
  FullRun Run("synthetic.periodic", 45'000);
  EXPECT_GE(Run.Gpd.phaseChanges(), 4u) << "GPD thrashes on the toggling";
  for (core::RegionId Id : Run.Monitor.activeRegionIds()) {
    EXPECT_LE(Run.Monitor.stats(Id).PhaseChanges, 1u)
        << Run.Monitor.regions()[Id].Name;
    EXPECT_GT(Run.Monitor.stats(Id).stableFraction(), 0.7);
  }
}

TEST(Integration, BottleneckShiftIsALocalPhaseChange) {
  FullRun Run("synthetic.bottleneck", 45'000);
  ASSERT_EQ(Run.Monitor.activeRegionIds().size(), 1u);
  const core::RegionStats &S = Run.Monitor.stats(0);
  // Enter stable, exit at the shift, re-enter: exactly 3 transitions.
  EXPECT_EQ(S.PhaseChanges, 3u);
}

TEST(Integration, McfRegionsAreLocallyStableDespiteGlobalChurn) {
  // Figs. 2/9/10: mcf's global phase churns at 45K while every monitored
  // region holds r near 1.
  FullRun Run("181.mcf", 45'000);
  EXPECT_GE(Run.Gpd.phaseChanges(), 10u);
  for (core::RegionId Id : Run.Monitor.activeRegionIds()) {
    EXPECT_LE(Run.Monitor.stats(Id).PhaseChanges, 1u)
        << Run.Monitor.regions()[Id].Name;
    EXPECT_GT(Run.Monitor.stats(Id).stableFraction(), 0.9)
        << Run.Monitor.regions()[Id].Name;
  }
}

TEST(Integration, GapUcrStaysHighDespiteFormationTriggers) {
  // Figs. 6/7: gap's interpreter cycles can never be claimed.
  core::RegionMonitorConfig Config;
  Config.RecordTimelines = true; // for the UCR series
  FullRun Run("254.gap", 45'000, Config);
  std::span<const double> History = Run.Monitor.ucrHistory();
  const std::vector<double> Ucr(History.begin(), History.end());
  EXPECT_GT(median(Ucr), 0.30);
  EXPECT_GT(Run.Monitor.formationTriggers(), Run.Monitor.intervals() / 2)
      << "formation keeps triggering";
}

TEST(Integration, GapHasOneStableAndOneUnstableRegion) {
  // Fig. 11: 7ba2c-7ba78 is stable; 8d25c-8d314 keeps changing phase.
  FullRun Run("254.gap", 45'000);
  std::uint64_t StableChanges = ~0ull, UnstableChanges = 0;
  for (core::RegionId Id : Run.Monitor.activeRegionIds()) {
    const std::string &Name = Run.Monitor.regions()[Id].Name;
    if (Name == "7ba2c-7ba78")
      StableChanges = Run.Monitor.stats(Id).PhaseChanges;
    if (Name == "8d25c-8d314")
      UnstableChanges = Run.Monitor.stats(Id).PhaseChanges;
  }
  EXPECT_LE(StableChanges, 2u);
  EXPECT_GE(UnstableChanges, 20u);
}

TEST(Integration, FacerecGpdUnstableAcrossPeriods) {
  // Figs. 3/4/5: facerec's two-set switching keeps GPD out of stable at
  // every studied period, with many changes only at the smallest.
  const FullRun At45k("187.facerec", 45'000);
  EXPECT_GE(At45k.Gpd.phaseChanges(), 20u);
  const FullRun At900k("187.facerec", 900'000);
  EXPECT_LE(At900k.Gpd.phaseChanges(), 4u);
  EXPECT_LT(At900k.Gpd.stableFraction(), 0.2);
}

TEST(Integration, LpdChangeCountsInsensitiveToSamplingPeriod) {
  // Figs. 13/14 headline: mcf's and facerec's local phase changes barely
  // move across a 20x sampling-period range.
  for (const char *Name : {"181.mcf", "187.facerec"}) {
    const FullRun Fine(Name, 45'000);
    const FullRun Coarse(Name, 900'000);
    EXPECT_LE(Fine.totalLocalChanges(), 8u) << Name;
    EXPECT_LE(Coarse.totalLocalChanges(), 8u) << Name;
  }
}

TEST(Integration, AmmpAberrationFixedByAdaptiveThreshold) {
  // Fig. 13 / section 3.2.2: ammp's huge region flaps at 45K under the
  // fixed threshold; the size-adaptive threshold (the paper's proposed
  // future work) removes the aberration.
  const FullRun Fixed("188.ammp", 45'000);
  EXPECT_GE(Fixed.totalLocalChanges(), 40u);

  core::RegionMonitorConfig Config;
  Config.Lpd.AdaptiveThreshold = true;
  const FullRun Adaptive("188.ammp", 45'000, Config);
  EXPECT_LE(Adaptive.totalLocalChanges(), 10u);
}

TEST(Integration, DetectorsAreDeterministic) {
  const FullRun A("synthetic.periodic", 45'000);
  const FullRun B("synthetic.periodic", 45'000);
  EXPECT_EQ(A.Gpd.phaseChanges(), B.Gpd.phaseChanges());
  EXPECT_EQ(A.totalLocalChanges(), B.totalLocalChanges());
  EXPECT_EQ(A.Monitor.regions().size(), B.Monitor.regions().size());
}

} // namespace
