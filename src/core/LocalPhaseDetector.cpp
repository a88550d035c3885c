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

namespace {

/// The similarity threshold rt. Paper section 3.2: rt = 0.8.
constexpr double Rt = 0.8;
/// Size-adaptive threshold: rt drops by AdaptiveSlope per doubling of the
/// region beyond AdaptiveBaseInstrs instructions. Repro choices.
constexpr double AdaptiveSlope = 0.05;
constexpr std::size_t AdaptiveBaseInstrs = 64;

} // namespace

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
  EffRt = Rt;
  if (Config.AdaptiveThreshold && InstrCount > AdaptiveBaseInstrs) {
    const double SizeRatio = static_cast<double>(InstrCount) /
                             static_cast<double>(AdaptiveBaseInstrs);
    EffRt = std::clamp(Rt - AdaptiveSlope * std::log2(SizeRatio),
                       AdaptiveMinRt, Rt);
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
