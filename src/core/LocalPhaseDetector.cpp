//===- core/LocalPhaseDetector.cpp - Per-region phase detection -----------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/LocalPhaseDetector.h"

#include "support/Contracts.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

using namespace regmon;
using namespace regmon::core;

const char *regmon::core::toString(LocalPhaseState S) {
  switch (S) {
  case LocalPhaseState::Unstable:
    return "unstable";
  case LocalPhaseState::LessUnstable:
    return "less-unstable";
  case LocalPhaseState::Stable:
    return "stable";
  }
  return "?";
}

LocalPhaseDetector::LocalPhaseDetector(std::size_t InstrCount,
                                       const SimilarityMetric &Sim,
                                       LocalDetectorConfig Cfg)
    : Metric(Sim), Config(Cfg), PrevHist(InstrCount, 0) {
  assert(InstrCount > 0 && "region must contain instructions");
  EffRt = Config.Rt;
  if (Config.AdaptiveThreshold && InstrCount > Config.AdaptiveBaseInstrs) {
    const double SizeRatio = static_cast<double>(InstrCount) /
                             static_cast<double>(Config.AdaptiveBaseInstrs);
    EffRt = std::clamp(Config.Rt - Config.AdaptiveSlope * std::log2(SizeRatio),
                       Config.AdaptiveMinRt, Config.Rt);
  }
}

REGMON_PURE void
LocalPhaseDetector::adopt(std::span<const std::uint32_t> CurrHist) {
  std::copy(CurrHist.begin(), CurrHist.end(), PrevHist.begin());
}

REGMON_PURE LocalPhaseState
LocalPhaseDetector::observe(std::span<const std::uint32_t> CurrHist) {
  assert(CurrHist.size() == PrevHist.size() &&
         "histogram does not match the region");
  StateBefore = State;
  if (Config.MinObserveSamples > 0 &&
      std::accumulate(CurrHist.begin(), CurrHist.end(), std::uint64_t{0}) <
          Config.MinObserveSamples) {
    // Degraded mode: too little sample mass for r to mean anything.
    // The machine holds, exactly as it does over an empty interval.
    ++SkippedUndersampled;
    LastWasChange = false;
    LastWasCompare = false;
    return State;
  }
  ++Observed;
  const LocalPhaseState Before = StateBefore;

  if (!PrevValid) {
    // First non-empty interval: nothing to compare against yet.
    adopt(CurrHist);
    PrevValid = true;
    LastWasChange = false;
    LastWasCompare = false;
    return State;
  }

  LastR = Metric.compare(PrevHist, CurrHist);
  LastWasCompare = true;
  const bool Similar = LastR >= EffRt;

  switch (State) {
  case LocalPhaseState::Unstable:
    State = Similar ? LocalPhaseState::LessUnstable
                    : LocalPhaseState::Unstable;
    adopt(CurrHist);
    break;

  case LocalPhaseState::LessUnstable:
    if (Similar) {
      // Entering stable: the current set becomes the frozen reference --
      // the latest confirmation of the behaviour we will hold others to.
      State = LocalPhaseState::Stable;
      adopt(CurrHist);
    } else {
      State = LocalPhaseState::Unstable;
      adopt(CurrHist);
    }
    break;

  case LocalPhaseState::Stable:
    if (!Similar) {
      State = LocalPhaseState::Unstable;
      adopt(CurrHist);
    }
    // else: stay stable, reference stays frozen.
    break;
  }

  LastWasChange = (Before == LocalPhaseState::Stable) !=
                  (State == LocalPhaseState::Stable);
  if (LastWasChange)
    ++PhaseChanges;
  return State;
}
