//===- core/LocalPhaseDetector.h - Per-region phase detection ---*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// **Local phase detection** (paper section 3.2, Fig. 12): each monitored
/// region carries its own phase detector comparing the region's
/// per-instruction sample histogram for the current interval (curr_hist)
/// against a stable reference set (prev_hist) with a similarity metric
/// (Pearson's r by default). The state machine:
///
///     Unstable      --(r >= rt)--> LessUnstable   (prev <- curr)
///     Unstable      --(r <  rt or prev empty)-->  Unstable (prev <- curr)
///     LessUnstable  --(r >= rt)--> Stable          [phase change]
///     LessUnstable  --(r <  rt)--> Unstable        (prev <- curr)
///     Stable        --(r >= rt)--> Stable          (prev frozen)
///     Stable        --(r <  rt)--> Unstable        [phase change]
///                                                  (prev <- curr)
///
/// "As long as the phase is unstable or less unstable, the stable set of
/// samples is updated to reflect the current set. Once the phase
/// stabilizes, the stable set of samples is frozen" -- so on the
/// LessUnstable -> Stable transition we adopt the current set as the frozen
/// reference (the most recent confirmation of the stable behaviour).
///
/// Intervals in which the region receives no samples do not advance the
/// machine: "the value of r returned is the same as during the last
/// interval" (the Fig. 11 discussion).
///
/// Two future-work extensions from the paper's section 5 / 3.2.2 are
/// implemented behind config flags:
///
///  * a size-adaptive threshold (188.ammp's granularity breakdown): very
///    large regions blend sub-behaviours inside one interval, depressing r
///    even when behaviour is steady, so rt is lowered logarithmically with
///    region size;
///  * pluggable cheaper similarity metrics (see Similarity.h).
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_CORE_LOCALPHASEDETECTOR_H
#define REGMON_CORE_LOCALPHASEDETECTOR_H

#include "core/Similarity.h"
#include "support/Types.h"

#include <cstdint>
#include <span>
#include <vector>

namespace regmon::persist {
class StateCodec;
} // namespace regmon::persist

namespace regmon::core {

/// Phase state of one region.
enum class LocalPhaseState : std::uint8_t {
  Unstable,
  LessUnstable,
  Stable,
};

/// Returns a short human-readable name for \p S.
const char *toString(LocalPhaseState S);

/// Floor of the size-adaptive threshold (see
/// LocalDetectorConfig::AdaptiveThreshold). Repro choice.
inline constexpr double AdaptiveMinRt = 0.55;

/// Tunable parameters of local phase detection.
struct LocalDetectorConfig {
  /// When true, rt is reduced for large regions:
  /// rt_eff = Rt - AdaptiveSlope * log2(instrs / AdaptiveBaseInstrs),
  /// clamped to [AdaptiveMinRt, Rt] (constants in LocalPhaseDetector.cpp
  /// and above). Our design of the paper's proposed "threshold based on
  /// the size of region" (section 3.2.2).
  bool AdaptiveThreshold = false;
  /// Degraded-mode gate: histograms carrying fewer than this many samples
  /// do not advance the state machine (Pearson's r over a handful of
  /// samples is noise, and a faulted stream must not register spurious
  /// phase changes just because an interval arrived truncated). 0 -- the
  /// paper's configuration -- disables the gate.
  std::size_t MinObserveSamples = 0;
};

/// Per-region local phase detector (one instance per monitored region).
class LocalPhaseDetector {
public:
  /// Creates a detector for a region of \p InstrCount instructions.
  /// \p Metric must outlive the detector.
  LocalPhaseDetector(std::size_t InstrCount, const SimilarityMetric &Metric,
                     LocalDetectorConfig Config = {});

  /// Consumes the region's sample histogram for one interval in which the
  /// region received at least one sample, and returns the updated state.
  LocalPhaseState observe(std::span<const std::uint32_t> CurrHist);

  /// Returns the current state.
  LocalPhaseState state() const { return State; }
  /// Returns the similarity value computed for the most recent non-empty
  /// interval (0 before any comparison was possible).
  double lastR() const { return LastR; }
  /// Returns the effective threshold in use (differs from Rt only with the
  /// adaptive extension enabled).
  double effectiveRt() const { return EffRt; }

  /// Returns the number of phase changes (the Fig. 12 dotted transitions:
  /// LessUnstable -> Stable and Stable -> Unstable).
  std::uint64_t phaseChanges() const { return PhaseChanges; }
  /// Returns the number of non-empty intervals observed.
  std::uint64_t observedIntervals() const { return Observed; }
  /// Returns the number of observations discounted by the
  /// MinObserveSamples gate (not counted in \ref observedIntervals).
  std::uint64_t skippedUndersampled() const { return SkippedUndersampled; }
  /// Returns true if the most recent \ref observe changed phase.
  bool lastObservationChangedPhase() const { return LastWasChange; }
  /// Returns true if the most recent \ref observe actually computed a
  /// similarity value (false when it was gated, or adopted the first
  /// stable set with nothing to compare against).
  bool lastObservationComparedR() const { return LastWasCompare; }
  /// Returns the state the machine held when the most recent \ref observe
  /// began (equal to \ref state when that observation held or was gated).
  /// Lets instrumentation report every state *entry* -- including
  /// Unstable -> LessUnstable, which \ref lastObservationChangedPhase
  /// deliberately does not count as a phase change.
  LocalPhaseState stateBeforeLastObserve() const { return StateBefore; }

  /// Returns the frozen stable sample set (meaningful when not Unstable).
  std::span<const std::uint32_t> stableSet() const { return PrevHist; }

private:
  /// Checkpointing serializes the state machine and the frozen stable set
  /// (persist/StateCodec.h).
  friend class persist::StateCodec;

  /// prev <- curr.
  void adopt(std::span<const std::uint32_t> CurrHist);

  const SimilarityMetric &Metric;
  LocalDetectorConfig Config;
  double EffRt;
  std::vector<std::uint32_t> PrevHist;
  bool PrevValid = false;
  LocalPhaseState State = LocalPhaseState::Unstable;
  LocalPhaseState StateBefore = LocalPhaseState::Unstable;
  double LastR = 0;
  bool LastWasChange = false;
  bool LastWasCompare = false;
  std::uint64_t PhaseChanges = 0;
  std::uint64_t Observed = 0;
  std::uint64_t SkippedUndersampled = 0;
};

} // namespace regmon::core

#endif // REGMON_CORE_LOCALPHASEDETECTOR_H
