//===- gpd/CentroidPhaseDetector.h - Centroid-based GPD ---------*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The baseline the paper improves on: centroid-based **global phase
/// detection** (paper section 2), as used by the ADORE prototypes [12][13].
///
/// Every sampling interval the mean (centroid) of the buffered PC values is
/// computed. A history of recent centroids defines the **band of
/// stability** BOS = [E - SD, E + SD] from the history's expectation E and
/// standard deviation SD. The new centroid's drift Delta is 0 inside the
/// band, otherwise its distance to the nearer bound. The normalized drift
/// delta = Delta / E steers a three-state machine (Fig. 1):
///
///     Unstable --(delta <= TH2 and SD < E/6)--> LessStable
///     LessStable --(delta <= TH1 for Timer intervals)--> Stable    [change]
///     LessStable --(delta >  TH3)--> Unstable
///     Stable --(delta > TH2)--> Unstable                            [change]
///     any    --(delta > TH4)--> Unstable, history cleared (new working set)
///
/// The paper gives the empirical thresholds TH1..TH4 = 1%, 5%, 10%, 67% and
/// the SD < E/6 "band not too thick" guard, but Fig. 1's full transition
/// diagram is not recoverable from the text; the wiring above is our
/// documented reading of the prose (see DESIGN.md section 2). The timer on
/// the less-stable state ("ensure the centroid maintains a low Delta for
/// some time before triggering a stable phase") and the thickness guard
/// ("before transitioning into less stable phase") are placed exactly where
/// the prose puts them.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_GPD_CENTROIDPHASEDETECTOR_H
#define REGMON_GPD_CENTROIDPHASEDETECTOR_H

#include "obs/Instruments.h"
#include "support/Statistics.h"
#include "support/Types.h"

#include <cstdint>
#include <span>
#include <vector>

namespace regmon::gpd {

/// The detector's observable phase state.
enum class GlobalPhaseState : std::uint8_t {
  Unstable,
  LessStable,
  Stable,
};

/// Returns a short human-readable name for \p S.
const char *toString(GlobalPhaseState S);

/// Number of past centroids forming the band of stability. Repro choice
/// (the paper does not state its history length).
inline constexpr std::size_t HistoryLength = 5;
/// Consecutive low-drift intervals required in LessStable before Stable:
/// the paper's timer on the less-stable state (section 2.1), length a
/// repro choice.
inline constexpr unsigned TimerIntervals = 2;
static_assert(TimerIntervals > 0, "the timer must require an interval");

/// Adaptive-window bounds (CentroidConfig::AdaptiveWindow): the history
/// shrinks to MinHistoryLength on every phase change and grows by one per
/// GrowAfterStableIntervals quiet stable intervals up to
/// MaxHistoryLength. Repro choices.
inline constexpr std::size_t MinHistoryLength = 3;
inline constexpr std::size_t MaxHistoryLength = 12;
inline constexpr unsigned GrowAfterStableIntervals = 4;
static_assert(MinHistoryLength >= 2 && MinHistoryLength <= MaxHistoryLength,
              "the adaptive window must hold a band");

/// Tunable parameters of the centroid detector. The drift thresholds
/// TH1..TH4 and the SD < E/6 guard are the paper's (section 2.1) and sit
/// in CentroidPhaseDetector.cpp.
struct CentroidConfig {
  /// Adaptive profile-window resizing (the refinement Nagpurkar et al.
  /// [17] found more accurate than constant windows): shrink the centroid
  /// history to MinHistoryLength on every phase change (fast response in
  /// turbulence) and grow it by one per GrowAfterStableIntervals quiet
  /// stable intervals up to MaxHistoryLength (noise immunity in calm).
  /// Off by default (the paper's constant-window configuration).
  bool AdaptiveWindow = false;
};

/// Centroid-based global phase detector.
class CentroidPhaseDetector {
public:
  explicit CentroidPhaseDetector(CentroidConfig Config = {});

  /// Consumes one interval's sample buffer and returns the updated state.
  GlobalPhaseState observeInterval(std::span<const Sample> Samples);

  /// Consumes a pre-computed centroid (used by tests and by callers that
  /// already aggregated the buffer).
  GlobalPhaseState observeCentroid(double Centroid);

  /// Returns the current phase state.
  GlobalPhaseState state() const { return State; }
  /// Returns true if the most recent interval toggled Stable <-> not.
  bool lastIntervalChangedPhase() const { return LastWasChange; }

  /// Returns the number of Stable <-> not-Stable transitions so far; the
  /// quantity plotted in the paper's Fig. 3.
  std::uint64_t phaseChanges() const { return PhaseChanges; }
  /// Returns the number of intervals observed.
  std::uint64_t intervals() const { return Intervals; }
  /// Returns the number of intervals spent in the Stable state.
  std::uint64_t stableIntervals() const { return StableIntervals; }
  /// Returns the fraction of intervals spent stable (Fig. 4), 0 if none.
  double stableFraction() const;

  /// Returns the per-interval state history (for the Fig. 2/5 overlays).
  std::span<const GlobalPhaseState> timeline() const { return Timeline; }

  /// Returns the detector configuration.
  const CentroidConfig &config() const { return Config; }

  /// Attaches observability instruments (obs layer). \p O may be null to
  /// detach; otherwise it must outlive the detector. Events use the
  /// detector's interval count as their logical clock.
  void attachObservability(const obs::GpdInstruments *O) { Obs = O; }

private:
  GlobalPhaseState step(double Centroid);
  void noteState();

  void adaptWindow();

  CentroidConfig Config;
  const obs::GpdInstruments *Obs = nullptr;
  WindowedStats History;
  GlobalPhaseState State = GlobalPhaseState::Unstable;
  unsigned Timer = 0;
  unsigned QuietStableRun = 0;
  bool LastWasChange = false;
  std::uint64_t PhaseChanges = 0;
  std::uint64_t Intervals = 0;
  std::uint64_t StableIntervals = 0;
  std::vector<GlobalPhaseState> Timeline;
  /// Reused SoA scratch: the sample buffer's PC lane, transposed flat for
  /// the vectorizable centroid sum (support/HotpathKernels.h).
  std::vector<Addr> PcScratch;
};

} // namespace regmon::gpd

#endif // REGMON_GPD_CENTROIDPHASEDETECTOR_H
