//===- rto/Harness.cpp - Runtime-optimizer strategies & harness -----------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "rto/Harness.h"

#include "rto/TraceDeployments.h"
#include "sim/ProgramCodeMap.h"
#include "support/Rng.h"

#include <cassert>
#include <map>
#include <optional>

using namespace regmon;
using namespace regmon::rto;

namespace {

/// Observational self-monitoring (paper section 5's feedback loop; the
/// three values are repro choices).
/// Intervals to wait after deployment before judging: the miss window
/// must refill with post-deployment samples.
constexpr unsigned SelfMonitorWarmupIntervals = 10;
/// A trace must cut the region's miss fraction by at least this factor
/// relative to the pre-deployment baseline.
constexpr double SelfMonitorMinMissReduction = 0.25;
/// Regions with a baseline miss fraction below this are not worth judging
/// (nothing to improve).
constexpr double SelfMonitorMinBaselineMiss = 0.02;

/// Resolves monitored regions back to program loops. Regions are formed
/// from loop bounds, so the (start, end) pair identifies the loop.
class RegionLoopIndex {
public:
  explicit RegionLoopIndex(const sim::Program &Prog) {
    for (const sim::Loop &L : Prog.loops())
      ByBounds[{L.Start, L.End}] = L.Id;
  }

  std::optional<sim::LoopId> loopFor(const core::Region &R) const {
    const auto It = ByBounds.find({R.Start, R.End});
    if (It == ByBounds.end())
      return std::nullopt;
    return It->second;
  }

private:
  std::map<std::pair<Addr, Addr>, sim::LoopId> ByBounds;
};

/// Owns the seeded decision stream for injected deployment failures and
/// installs it on \p Traces when the config asks for injection. Failures
/// are a function of (DeployFailureSeed, attempt index) only, so the same
/// pattern replays across strategies and runs.
class DeployFaultInjector {
public:
  DeployFaultInjector(TraceDeployments &Traces, const RtoConfig &Config)
      : FaultRng(Config.DeployFailureSeed), Rate(Config.DeployFailureRate) {
    if (Rate > 0)
      Traces.setDeployFaultHook(
          [this](sim::LoopId) { return FaultRng.nextDouble() < Rate; });
  }

private:
  Rng FaultRng;
  double Rate;
};

} // namespace

RtoResult rto::runUnoptimized(const sim::Program &Prog,
                              const sim::PhaseScript &Script,
                              std::uint64_t Seed, const RtoConfig &Config) {
  sim::Engine Eng(Prog, Script, Seed);
  sampling::Sampler Sampler(Eng, Config.Sampling);
  RtoResult Result;
  Result.Intervals = Sampler.run([](std::span<const Sample>) {});
  Eng.finish();
  Result.TotalCycles = Eng.cycles();
  Result.TotalWork = Eng.work();
  return Result;
}

RtoResult rto::runOriginal(const sim::Program &Prog,
                           const sim::PhaseScript &Script,
                           const OptimizationModel &Model,
                           std::uint64_t Seed, const RtoConfig &Config) {
  sim::Engine Eng(Prog, Script, Seed);
  sampling::Sampler Sampler(Eng, Config.Sampling);
  sim::ProgramCodeMap Map(Prog);
  core::RegionMonitor Monitor(Map, Config.Monitor);
  gpd::CentroidPhaseDetector Gpd(Config.Gpd);
  TraceDeployments Traces(Eng, Model, Config.PatchOverheadCycles);
  DeployFaultInjector Faults(Traces, Config);
  RegionLoopIndex Index(Prog);

  std::uint64_t StableIntervals = 0;

  Sampler.run([&](std::span<const Sample> Buffer) {
    // Physics first: behaviour drift re-prices already-deployed traces
    // whether or not the optimizer notices.
    Traces.refresh();

    Monitor.observeInterval(Buffer); // region formation / bookkeeping only
    const gpd::GlobalPhaseState State = Gpd.observeInterval(Buffer);

    if (State != gpd::GlobalPhaseState::Stable) {
      // The fair-comparison ORIG variant: a phase change (leaving stable)
      // unpatches everything so optimizations are re-evaluated when the
      // phase restabilizes.
      if (Gpd.lastIntervalChangedPhase())
        Traces.unpatchAll();
      return;
    }
    ++StableIntervals;

    // Globally stable: deploy traces on the hot regions of this interval.
    for (core::RegionId Id : Monitor.activeRegionIds()) {
      if (Monitor.lastSampleCount(Id) < Config.MinTraceSamples)
        continue;
      const std::optional<sim::LoopId> L =
          Index.loopFor(Monitor.regions()[Id]);
      if (!L || Traces.deployed(*L))
        continue;
      Traces.deploy(*L);
    }
  });
  Eng.finish();

  RtoResult Result;
  Result.TotalCycles = Eng.cycles();
  Result.TotalWork = Eng.work();
  Result.Intervals = Sampler.intervals();
  Result.Patches = Traces.patches();
  Result.Unpatches = Traces.unpatches();
  Result.FailedPatches = Traces.failedPatches();
  Result.GlobalPhaseChanges = Gpd.phaseChanges();
  Result.StableFraction =
      Result.Intervals == 0
          ? 0.0
          : static_cast<double>(StableIntervals) /
                static_cast<double>(Result.Intervals);
  return Result;
}

RtoResult rto::runLocal(const sim::Program &Prog,
                        const sim::PhaseScript &Script,
                        const OptimizationModel &Model, std::uint64_t Seed,
                        const RtoConfig &Config) {
  sim::Engine Eng(Prog, Script, Seed);
  sampling::Sampler Sampler(Eng, Config.Sampling);
  sim::ProgramCodeMap Map(Prog);
  core::RegionMonitor Monitor(Map, Config.Monitor);
  TraceDeployments Traces(Eng, Model, Config.PatchOverheadCycles);
  DeployFaultInjector Faults(Traces, Config);
  RegionLoopIndex Index(Prog);

  std::uint64_t SelfUndos = 0;
  std::uint64_t StableIntervals = 0;

  // Observational self-monitoring state: per loop, the pre-deployment
  // miss-fraction baseline and when the trace went in.
  struct DeploymentRecord {
    core::RegionId Region = 0;
    double BaselineMiss = 0;
    std::uint64_t DeployedAt = 0;
  };
  std::map<sim::LoopId, DeploymentRecord> Watch;

  Monitor.setEventHandler([&](const core::RegionEvent &Event) {
    const std::optional<sim::LoopId> L =
        Index.loopFor(Monitor.regions()[Event.Id]);
    if (!L)
      return;
    switch (Event.K) {
    case core::RegionEvent::Kind::BecameStable:
      if (Traces.deploy(*L) &&
          Config.SelfMonitor == SelfMonitorMode::Observational)
        Watch[*L] = DeploymentRecord{Event.Id,
                                     Monitor.recentMissFraction(Event.Id),
                                     Event.Interval};
      break;
    case core::RegionEvent::Kind::BecameUnstable:
    case core::RegionEvent::Kind::Pruned:
    case core::RegionEvent::Kind::MissPhaseChange:
      // A miss-characteristics change invalidates a prefetch trace even
      // when the cycle histogram held steady.
      if (Traces.deployed(*L))
        Traces.unpatch(*L);
      break;
    case core::RegionEvent::Kind::Formed:
      break;
    }
  });

  Sampler.run([&](std::span<const Sample> Buffer) {
    Traces.refresh();
    Monitor.observeInterval(Buffer);

    // Self-monitoring: a region can stay locally "stable" while its trace
    // has stopped helping (e.g. the delinquent loads moved but the cycle
    // histogram did not). Undo such traces.
    switch (Config.SelfMonitor) {
    case SelfMonitorMode::Off:
      break;
    case SelfMonitorMode::GroundTruth:
      for (core::RegionId Id : Monitor.activeRegionIds()) {
        const std::optional<sim::LoopId> L =
            Index.loopFor(Monitor.regions()[Id]);
        if (!L || !Traces.deployed(*L))
          continue;
        if (Traces.harmfulStreak(*L) >= Config.SelfMonitorHarmIntervals) {
          Traces.unpatch(*L);
          ++SelfUndos;
        }
      }
      break;
    case SelfMonitorMode::Observational:
      for (auto It = Watch.begin(); It != Watch.end();) {
        const auto &[L, Record] = *It;
        if (!Traces.deployed(L)) {
          It = Watch.erase(It); // unpatched through another path
          continue;
        }
        const bool WarmedUp = Monitor.intervals() >=
                              Record.DeployedAt + SelfMonitorWarmupIntervals;
        const bool Judgeable =
            Record.BaselineMiss >= SelfMonitorMinBaselineMiss;
        if (WarmedUp && Judgeable) {
          const double Current = Monitor.recentMissFraction(Record.Region);
          const double Required =
              Record.BaselineMiss * (1.0 - SelfMonitorMinMissReduction);
          if (Current > Required) {
            Traces.unpatch(L);
            ++SelfUndos;
            It = Watch.erase(It);
            continue;
          }
        }
        ++It;
      }
      break;
    }

    for (core::RegionId Id : Monitor.activeRegionIds())
      if (Monitor.detector(Id).state() == core::LocalPhaseState::Stable) {
        ++StableIntervals;
        break;
      }
  });
  Eng.finish();

  RtoResult Result;
  Result.TotalCycles = Eng.cycles();
  Result.TotalWork = Eng.work();
  Result.Intervals = Sampler.intervals();
  Result.Patches = Traces.patches();
  Result.Unpatches = Traces.unpatches();
  Result.FailedPatches = Traces.failedPatches();
  Result.SelfUndos = SelfUndos;
  Result.StableFraction =
      Result.Intervals == 0
          ? 0.0
          : static_cast<double>(StableIntervals) /
                static_cast<double>(Result.Intervals);
  return Result;
}

double rto::speedupPercent(const RtoResult &Orig, const RtoResult &Lpd) {
  assert(Lpd.TotalCycles > 0 && "LPD run executed no cycles");
  return (static_cast<double>(Orig.TotalCycles) /
              static_cast<double>(Lpd.TotalCycles) -
          1.0) *
         100.0;
}
