//===- rto/TraceDeployments.h - Deployed-trace bookkeeping ------*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tracks which loops currently carry a deployed trace optimization and
/// keeps the execution engine's rate factors in sync with ground truth.
///
/// Policy (when to patch/unpatch) lives in the optimizer strategies;
/// *physics* lives here: a deployed trace's effect at any instant depends
/// on whether the loop's currently active behaviour matches the behaviour
/// the trace was trained on, whichever strategy deployed it.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_RTO_TRACEDEPLOYMENTS_H
#define REGMON_RTO_TRACEDEPLOYMENTS_H

#include "rto/OptimizationModel.h"
#include "sim/Engine.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

namespace regmon::rto {

/// Deployed-trace state for every loop of one engine run.
class TraceDeployments {
public:
  /// Creates the tracker. \p Eng and \p Model must outlive it.
  /// \p PatchOverheadCycles is charged to the program's critical path for
  /// every patch or unpatch operation. \p PrefetchMissCover is the
  /// fraction of a loop's D-cache misses a *matched* trace hides (its
  /// observable effect; a mismatched trace hides none).
  TraceDeployments(sim::Engine &Eng, const OptimizationModel &Model,
                   double PatchOverheadCycles,
                   double PrefetchMissCover = 0.75);

  /// Returns true while loop \p L carries a trace.
  bool deployed(sim::LoopId L) const { return Trained[L].has_value(); }

  /// Deploys a trace on \p L, trained on the loop's currently active
  /// behaviour profile. Returns false (and deploys nothing) if the loop is
  /// not executing right now -- there is no behaviour to train on -- or if
  /// the deploy-fault hook fails the patch (see \ref setDeployFaultHook);
  /// in the latter case the trace is rolled back completely, so a failed
  /// patch never leaves the loop half-optimized.
  bool deploy(sim::LoopId L);

  /// Installs \p Hook, consulted on every deploy after the trace has been
  /// applied; returning true models a mid-patch failure (code-cache
  /// exhaustion, a guard tripping during installation). The deployment is
  /// rolled back -- rate factors restored, training forgotten -- and both
  /// the attempt and the rollback are charged to the critical path.
  void setDeployFaultHook(std::function<bool(sim::LoopId)> Hook);

  /// Removes the trace from \p L (no-op if none).
  void unpatch(sim::LoopId L);

  /// Removes every deployed trace (the paper's modified RTO-ORIG unpatches
  /// all traces on a global phase change).
  void unpatchAll();

  /// Re-evaluates every deployed trace against the loop behaviour active
  /// *now* and updates the engine's rate factors. Call once per interval.
  void refresh();

  /// Returns how many consecutive refreshes loop \p L's trace has been
  /// harmful (factor < 1). 0 when not deployed or not harmful.
  unsigned harmfulStreak(sim::LoopId L) const { return HarmStreak[L]; }

  /// Returns the number of patch operations performed.
  std::uint64_t patches() const { return Patches; }
  /// Returns the number of unpatch operations performed.
  std::uint64_t unpatches() const { return Unpatches; }
  /// Returns the number of deployments failed by the fault hook (each one
  /// fully rolled back; not counted in \ref patches).
  std::uint64_t failedPatches() const { return FailedPatches; }

private:
  /// Returns the profile of \p L active in the engine's current mix, or
  /// std::nullopt when the loop is not part of it.
  std::optional<sim::ProfileId> activeProfile(sim::LoopId L) const;

  sim::Engine &Eng;
  const OptimizationModel &Model;
  double PatchOverheadCycles;
  double PrefetchMissCover;
  std::vector<std::optional<sim::ProfileId>> Trained; // per LoopId
  std::vector<unsigned> HarmStreak;
  std::function<bool(sim::LoopId)> DeployFaultHook;
  std::uint64_t Patches = 0;
  std::uint64_t Unpatches = 0;
  std::uint64_t FailedPatches = 0;
};

} // namespace regmon::rto

#endif // REGMON_RTO_TRACEDEPLOYMENTS_H
