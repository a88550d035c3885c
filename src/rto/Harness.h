//===- rto/Harness.h - Runtime-optimizer strategies & harness --*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end runtime-optimizer simulation behind Fig. 17.
///
/// Two strategies run the identical program (same script, same seed):
///
///  * **RTO-ORIG** -- the paper's baseline: centroid-based global phase
///    detection gates everything. Traces are deployed on hot regions while
///    the global phase is stable and -- in the "fair comparison" variant
///    the paper constructed -- *all* traces are unpatched whenever the
///    global phase leaves stable, so optimizations can be re-evaluated when
///    the phase restabilizes.
///
///  * **RTO-LPD** -- the paper's system: region monitoring with local phase
///    detection. Each region's trace is deployed when *that region*
///    stabilizes and unpatched when it destabilizes; a globally-chaotic
///    interval leaves locally-stable regions optimized. Self-monitoring
///    optionally undoes traces that ground truth says turned harmful.
///
/// The speedup of LPD over ORIG is cycles(ORIG) / cycles(LPD) - 1 over the
/// identical scripted work.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_RTO_HARNESS_H
#define REGMON_RTO_HARNESS_H

#include "core/RegionMonitor.h"
#include "gpd/CentroidPhaseDetector.h"
#include "rto/OptimizationModel.h"
#include "sampling/Sampler.h"
#include "sim/Engine.h"
#include "sim/PhaseScript.h"
#include "sim/Program.h"

#include <cstdint>

namespace regmon::rto {

/// How RTO-LPD verifies deployed optimizations (the paper's section 5
/// feedback mechanism).
enum class SelfMonitorMode : std::uint8_t {
  /// Trust every deployment (the paper's baseline assumption).
  Off,
  /// Oracle: consult the simulation's ground-truth benefit model. Useful
  /// as an upper bound in ablations.
  GroundTruth,
  /// Honest: compare the region's observed D-cache-miss fraction after
  /// deployment against its pre-deployment baseline; undo traces that do
  /// not reduce misses. Uses only information a real system has.
  Observational,
};

/// Harness parameters shared by both strategies.
struct RtoConfig {
  /// Sampling front-end parameters (Fig. 17 sweeps the period).
  sampling::SamplingConfig Sampling;
  /// Region monitor parameters (used by both strategies: ORIG still needs
  /// region formation to select traces).
  core::RegionMonitorConfig Monitor;
  /// Global phase detector parameters (ORIG only).
  gpd::CentroidConfig Gpd;
  /// Critical-path cycles charged per patch or unpatch operation.
  double PatchOverheadCycles = 25'000;
  /// Minimum samples a region must draw in the current interval before
  /// ORIG considers it hot enough to optimize.
  std::size_t MinTraceSamples = 41; // ~2% of a 2032-sample buffer
  /// LPD only: how deployed traces are verified.
  SelfMonitorMode SelfMonitor = SelfMonitorMode::GroundTruth;
  /// GroundTruth mode: undo after this many consecutive harmful intervals.
  unsigned SelfMonitorHarmIntervals = 2;
  /// Fault injection: probability that a trace deployment fails mid-patch
  /// and is rolled back (see TraceDeployments::setDeployFaultHook).
  /// Applies to both strategies. 0 disables injection.
  double DeployFailureRate = 0;
  /// Seed of the deployment-failure decision stream; independent of the
  /// run seed so the same failure pattern can be replayed across
  /// strategies and sweeps.
  std::uint64_t DeployFailureSeed = 0;
};

/// Outcome of one optimizer run.
struct RtoResult {
  /// Actual machine cycles to execute the whole program.
  Cycles TotalCycles = 0;
  /// Scripted work executed (identical across strategies by construction).
  Work TotalWork = 0;
  /// Complete sampling intervals observed.
  std::uint64_t Intervals = 0;
  /// Patch / unpatch operations performed.
  std::uint64_t Patches = 0;
  std::uint64_t Unpatches = 0;
  /// Global phase changes seen (ORIG; 0 for LPD).
  std::uint64_t GlobalPhaseChanges = 0;
  /// Fraction of intervals the gating detector reported stable: GPD-stable
  /// for ORIG, at least one region locally stable for LPD.
  double StableFraction = 0;
  /// Traces undone by self-monitoring (LPD; 0 for ORIG).
  std::uint64_t SelfUndos = 0;
  /// Deployments failed by fault injection, each fully rolled back.
  std::uint64_t FailedPatches = 0;
};

/// Runs the program with no runtime optimizer: cycles == work. Useful as
/// the denominator for absolute speedups and as an engine sanity check.
RtoResult runUnoptimized(const sim::Program &Prog,
                         const sim::PhaseScript &Script, std::uint64_t Seed,
                         const RtoConfig &Config);

/// Runs the centroid-gated baseline optimizer (RTO-ORIG).
RtoResult runOriginal(const sim::Program &Prog,
                      const sim::PhaseScript &Script,
                      const OptimizationModel &Model, std::uint64_t Seed,
                      const RtoConfig &Config);

/// Runs the region-monitoring optimizer (RTO-LPD).
RtoResult runLocal(const sim::Program &Prog, const sim::PhaseScript &Script,
                   const OptimizationModel &Model, std::uint64_t Seed,
                   const RtoConfig &Config);

/// Returns the Fig. 17 quantity: percentage speedup of \p Lpd over
/// \p Orig, (cycles(Orig) / cycles(Lpd) - 1) * 100.
double speedupPercent(const RtoResult &Orig, const RtoResult &Lpd);

} // namespace regmon::rto

#endif // REGMON_RTO_HARNESS_H
