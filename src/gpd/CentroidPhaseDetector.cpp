//===- gpd/CentroidPhaseDetector.cpp - Centroid-based GPD -----------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "gpd/CentroidPhaseDetector.h"

#include "support/HotpathKernels.h"

#include <cassert>

using namespace regmon;
using namespace regmon::gpd;

namespace {

/// The paper's empirical drift thresholds (section 2.1), as fractions of
/// the history's expectation E.
/// TH1: drift the centroid must stay under, for TimerIntervals intervals,
/// to be declared stable.
constexpr double Th1 = 0.01;
/// TH2: drift above which a stable phase ends / under which an unstable
/// phase may become less-stable.
constexpr double Th2 = 0.05;
/// TH3: drift that bounces a less-stable phase back to unstable.
constexpr double Th3 = 0.10;
/// TH4: drift indicating a wholesale working-set change; the centroid
/// history is discarded.
constexpr double Th4 = 0.67;
static_assert(Th1 <= Th2 && Th2 <= Th3 && Th3 <= Th4,
              "thresholds must be ordered");
/// SD must be below E * MaxSdFraction before the detector may leave the
/// unstable state: the paper's "SD less than 1/6 of E" (section 2.1).
constexpr double MaxSdFraction = 1.0 / 6.0;

} // namespace

const char *regmon::gpd::toString(GlobalPhaseState S) {
  switch (S) {
  case GlobalPhaseState::Unstable:
    return "unstable";
  case GlobalPhaseState::LessStable:
    return "less-stable";
  case GlobalPhaseState::Stable:
    return "stable";
  }
  return "?";
}

CentroidPhaseDetector::CentroidPhaseDetector(CentroidConfig Cfg)
    : Config(Cfg), History(HistoryLength) {}

REGMON_PURE GlobalPhaseState
CentroidPhaseDetector::observeInterval(std::span<const Sample> Samples) {
  assert(!Samples.empty() && "an interval has a full buffer of samples");
  // SoA transpose: gather the PC lane out of the 24-byte Sample records
  // into a flat array, then sum it with the vectorizable integer kernel.
  // Realistic PC sums stay far below 2^53, so double(Sum) is the exact
  // value the historical sequential double accumulation produced --
  // centroids, and therefore phase timelines, are unchanged bit for bit.
  PcScratch.resize(Samples.size());
  for (std::size_t I = 0, E = Samples.size(); I != E; ++I)
    PcScratch[I] = Samples[I].Pc;
  const std::uint64_t Sum = pcSum(PcScratch.data(), PcScratch.size());
  return observeCentroid(static_cast<double>(Sum) /
                         static_cast<double>(Samples.size()));
}

REGMON_PURE GlobalPhaseState
CentroidPhaseDetector::observeCentroid(double Centroid) {
  const GlobalPhaseState Before = State;
  State = step(Centroid);
  LastWasChange = (Before == GlobalPhaseState::Stable) !=
                  (State == GlobalPhaseState::Stable);
  if (LastWasChange)
    ++PhaseChanges;
  if (Config.AdaptiveWindow)
    adaptWindow();
  noteState();
  if (Obs) {
    obs::addTo(Obs->Intervals);
    if (State == GlobalPhaseState::Stable)
      obs::addTo(Obs->StableIntervals);
    if (LastWasChange) {
      obs::addTo(Obs->PhaseChanges);
      // Intervals was just advanced by noteState(); the event belongs to
      // the interval that caused the change.
      obs::recordEvent(Obs->Tracer, obs::EventKind::GlobalPhaseChange,
                       Obs->Stream, 0, Intervals - 1, Centroid);
    }
  }
  return State;
}

void CentroidPhaseDetector::adaptWindow() {
  if (LastWasChange) {
    // Turbulence: forget stale context quickly so the band re-forms
    // around the new behaviour.
    QuietStableRun = 0;
    History.resize(MinHistoryLength);
    return;
  }
  if (State != GlobalPhaseState::Stable) {
    QuietStableRun = 0;
    return;
  }
  if (++QuietStableRun >= GrowAfterStableIntervals &&
      History.capacity() < MaxHistoryLength) {
    History.resize(History.capacity() + 1);
    QuietStableRun = 0;
  }
}

GlobalPhaseState CentroidPhaseDetector::step(double Centroid) {
  assert(Centroid > 0 && "PC centroid of real code is positive");

  // The band of stability is computed from *prior* centroids; the new
  // centroid's drift is measured against it, then the new centroid joins
  // the history.
  const bool BandReady = History.count() >= 2;
  const double E = History.mean();
  const double Sd = History.stddev();
  History.add(Centroid);

  if (!BandReady)
    return GlobalPhaseState::Unstable;

  const double Lo = E - Sd, Hi = E + Sd;
  double Delta = 0;
  if (Centroid < Lo)
    Delta = Lo - Centroid;
  else if (Centroid > Hi)
    Delta = Centroid - Hi;
  const double Drift = Delta / E;

  // A wholesale working-set change invalidates the whole history: the next
  // phase will live at unrelated addresses.
  if (Drift > Th4) {
    History.clear();
    History.add(Centroid);
    Timer = 0;
    return GlobalPhaseState::Unstable;
  }

  switch (State) {
  case GlobalPhaseState::Unstable:
    // The band must be meaningful (not too thick) before trusting low
    // drift: "a check is also made to ensure that band of stability is not
    // too thick by ensuring that SD is less than 1/6 of E".
    if (Drift <= Th2 && Sd < E * MaxSdFraction) {
      Timer = 0;
      return GlobalPhaseState::LessStable;
    }
    return GlobalPhaseState::Unstable;

  case GlobalPhaseState::LessStable:
    if (Drift > Th3) {
      Timer = 0;
      return GlobalPhaseState::Unstable;
    }
    if (Drift <= Th1) {
      if (++Timer >= TimerIntervals)
        return GlobalPhaseState::Stable;
      return GlobalPhaseState::LessStable;
    }
    // Moderate drift: stay less-stable but restart the quiet-time timer.
    Timer = 0;
    return GlobalPhaseState::LessStable;

  case GlobalPhaseState::Stable:
    if (Drift > Th2) {
      Timer = 0;
      return GlobalPhaseState::Unstable;
    }
    return GlobalPhaseState::Stable;
  }
  return GlobalPhaseState::Unstable;
}

void CentroidPhaseDetector::noteState() {
  ++Intervals;
  if (State == GlobalPhaseState::Stable)
    ++StableIntervals;
  Timeline.push_back(State);
}

double CentroidPhaseDetector::stableFraction() const {
  if (Intervals == 0)
    return 0;
  return static_cast<double>(StableIntervals) /
         static_cast<double>(Intervals);
}
