//===- core/RegionMonitor.cpp - The region monitoring framework -----------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/RegionMonitor.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace regmon;
using namespace regmon::core;

namespace {

obs::EventKind phaseEntryKind(LocalPhaseState S) {
  switch (S) {
  case LocalPhaseState::Unstable:
    return obs::EventKind::PhaseEnteredUnstable;
  case LocalPhaseState::LessUnstable:
    return obs::EventKind::PhaseEnteredLessUnstable;
  case LocalPhaseState::Stable:
    return obs::EventKind::PhaseEnteredStable;
  }
  return obs::EventKind::PhaseEnteredUnstable;
}

} // namespace

RegionMonitor::RegionMonitor(const CodeMap &CM, RegionMonitorConfig Cfg)
    : Map(CM), Config(Cfg),
      Attrib(makeAttributor(Config.Attribution)),
      Metric(makeSimilarity(Config.Similarity.Kind, &SimilarityFellBack)) {
  assert(Config.UcrTriggerFraction >= 0 && Config.UcrTriggerFraction <= 1 &&
         "UCR trigger must be a fraction");
  assert(Config.MaxRegions > 0 && "must allow at least one region");
  // An out-of-enum engine value (version skew, fuzzed config) selects the
  // naive oracle: always correct, merely slower.
  IncrementalSimilarity =
      Config.Similarity.Engine == SimilarityEngine::Incremental &&
      Metric->supportsMoments();
}

void RegionMonitor::setEventHandler(EventHandler H) {
  Handler = std::move(H);
}

void RegionMonitor::attachObservability(const obs::MonitorInstruments *O) {
  Obs = O;
  if (Obs)
    // A constant: identical whichever engine runs, so exports stay
    // byte-stable across engines.
    obs::setGauge(Obs->HotpathKernel,
                  static_cast<double>(hotpathKernelId()));
  if (Obs && SimilarityFellBack) {
    obs::addTo(Obs->SimilarityFallbacks);
    obs::recordEvent(Obs->Tracer, obs::EventKind::SimilarityFallback,
                     Obs->Stream, 0, Intervals);
  }
}

void RegionMonitor::emit(RegionEvent::Kind K, RegionId Id) {
  if (Obs) {
    switch (K) {
    case RegionEvent::Kind::Formed:
      obs::addTo(Obs->RegionsFormed);
      obs::recordEvent(Obs->Tracer, obs::EventKind::RegionFormed, Obs->Stream,
                       Id, Intervals);
      break;
    case RegionEvent::Kind::Pruned:
      obs::addTo(Obs->RegionsRetired);
      obs::recordEvent(Obs->Tracer, obs::EventKind::RegionRetired, Obs->Stream,
                       Id, Intervals);
      break;
    case RegionEvent::Kind::BecameStable:
    case RegionEvent::Kind::BecameUnstable:
      // The state-entry event (with its r) is recorded at the observe
      // site, which also sees the Unstable -> LessUnstable entries this
      // callback never fires for.
      obs::addTo(Obs->PhaseChanges);
      break;
    case RegionEvent::Kind::MissPhaseChange:
      obs::addTo(Obs->MissPhaseChanges);
      obs::recordEvent(Obs->Tracer, obs::EventKind::MissPhaseChange,
                       Obs->Stream, Id, Intervals,
                       MissDetectors[Id] ? MissDetectors[Id]->lastR() : 0.0);
      break;
    }
  }
  if (Handler)
    Handler(RegionEvent{K, Id, Intervals});
}

bool RegionMonitor::isActive(RegionId Id) const {
  assert(Id < Regions.size() && "unknown region");
  return Active[Id];
}

std::vector<RegionId> RegionMonitor::activeRegionIds() const {
  std::vector<RegionId> Out;
  for (RegionId Id = 0; Id < Regions.size(); ++Id)
    if (Active[Id])
      Out.push_back(Id);
  return Out;
}

std::size_t RegionMonitor::activeRegionCount() const {
  std::size_t N = 0;
  for (RegionId Id = 0; Id < Regions.size(); ++Id)
    N += Active[Id] ? 1 : 0;
  return N;
}

std::size_t RegionMonitor::stableRegionCount() const {
  std::size_t N = 0;
  for (RegionId Id = 0; Id < Regions.size(); ++Id)
    N += Active[Id] && Detectors[Id]->state() == LocalPhaseState::Stable ? 1
                                                                         : 0;
  return N;
}

std::uint64_t RegionMonitor::totalPhaseChanges() const {
  std::uint64_t N = 0;
  for (const RegionStats &S : Stats)
    N += S.PhaseChanges;
  return N;
}

std::uint64_t RegionMonitor::totalSamples() const {
  std::uint64_t N = 0;
  for (const RegionStats &S : Stats)
    N += S.TotalSamples;
  return N;
}

void RegionMonitor::reset() {
  for (RegionId Id = 0; Id < Regions.size(); ++Id)
    if (Active[Id])
      Attrib->remove(Id, Regions[Id].Start, Regions[Id].End);
  assert(Attrib->size() == 0 && "attribution index out of sync");
  Regions.clear();
  Active.clear();
  CurrHists.clear();
  CurrMissHists.clear();
  Detectors.clear();
  MissDetectors.clear();
  Stats.clear();
  LastSampledInterval.clear();
  CumulativeMisses.clear();
  RecentMiss.clear();
  SampleTimelines.clear();
  RTimelines.clear();
  StateTimelines.clear();
  UcrHistory.clear();
  Intervals = 0;
  FormationTriggers = 0;
  UndersampledIntervals = 0;
  OutOfRegionSamples = 0;
}

const LocalPhaseDetector &RegionMonitor::detector(RegionId Id) const {
  assert(Id < Detectors.size() && "unknown region");
  return *Detectors[Id];
}

const RegionStats &RegionMonitor::stats(RegionId Id) const {
  assert(Id < Stats.size() && "unknown region");
  return Stats[Id];
}

std::uint64_t RegionMonitor::lastSampleCount(RegionId Id) const {
  assert(Id < CurrHists.size() && "unknown region");
  return CurrHists[Id].total();
}

double RegionMonitor::recentMissFraction(RegionId Id) const {
  assert(Id < RecentMiss.size() && "unknown region");
  return RecentMiss[Id].mean();
}

std::vector<RegionMonitor::DelinquentLoad>
RegionMonitor::delinquentLoads(RegionId Id, std::size_t N) const {
  assert(Id < CumulativeMisses.size() && "unknown region");
  const std::vector<std::uint64_t> &Bins = CumulativeMisses[Id];
  std::vector<DelinquentLoad> All;
  for (std::size_t Bin = 0; Bin < Bins.size(); ++Bin)
    if (Bins[Bin] > 0)
      All.push_back(DelinquentLoad{
          Regions[Id].Start + static_cast<Addr>(Bin) * InstrBytes,
          Bins[Bin]});
  std::stable_sort(All.begin(), All.end(),
                   [](const DelinquentLoad &A, const DelinquentLoad &B) {
                     return A.Misses > B.Misses;
                   });
  if (All.size() > N)
    All.resize(N);
  return All;
}

const LocalPhaseDetector &RegionMonitor::missDetector(RegionId Id) const {
  assert(Config.TrackMissPhases && "miss channel is not enabled");
  assert(Id < MissDetectors.size() && "unknown region");
  return *MissDetectors[Id];
}

double RegionMonitor::lastUcrFraction() const {
  return UcrHistory.empty() ? 0.0 : UcrHistory.back();
}

std::span<const std::uint32_t>
RegionMonitor::sampleTimeline(RegionId Id) const {
  assert(Config.RecordTimelines && "timelines were not recorded");
  assert(Id < SampleTimelines.size() && "unknown region");
  return SampleTimelines[Id];
}

std::span<const double> RegionMonitor::rTimeline(RegionId Id) const {
  assert(Config.RecordTimelines && "timelines were not recorded");
  assert(Id < RTimelines.size() && "unknown region");
  return RTimelines[Id];
}

std::span<const LocalPhaseState>
RegionMonitor::stateTimeline(RegionId Id) const {
  assert(Config.RecordTimelines && "timelines were not recorded");
  assert(Id < StateTimelines.size() && "unknown region");
  return StateTimelines[Id];
}

REGMON_PURE std::uint64_t
RegionMonitor::observeInterval(std::span<const Sample> Samples) {
  assert(!Samples.empty() && "an interval carries a full sample buffer");

  // Fresh histograms for this interval.
  for (RegionId Id = 0; Id < Regions.size(); ++Id)
    if (Active[Id]) {
      CurrHists[Id].reset();
      CurrMissHists[Id].reset();
    }

  // Incremental engine: prime the per-region cross-moment accumulators
  // and fetch each stable set's base pointer. Pointers are re-fetched
  // every interval -- never cached across intervals -- because a
  // checkpoint restore can reallocate a detector's stable-set buffer.
  const bool Fast = IncrementalSimilarity;
  const bool FastMiss = Fast && Config.TrackMissPhases;
  if (Fast) {
    SxyAcc.assign(Regions.size(), 0);
    StablePtrs.assign(Regions.size(), nullptr);
    for (RegionId Id = 0; Id < Regions.size(); ++Id)
      if (Active[Id])
        StablePtrs[Id] = Detectors[Id]->stableSet().data();
  }
  if (FastMiss) {
    MissSxyAcc.assign(Regions.size(), 0);
    MissStablePtrs.assign(Regions.size(), nullptr);
    for (RegionId Id = 0; Id < Regions.size(); ++Id)
      if (Active[Id])
        MissStablePtrs[Id] = MissDetectors[Id]->stableSet().data();
  }

  // 1. Attribute every sample; unmatched samples belong to the UCR.
  UcrScratch.clear();
  std::uint64_t RejectedNow = 0;
  for (const Sample &S : Samples) {
    LookupScratch.clear();
    Attrib->lookup(S.Pc, LookupScratch);
    if (LookupScratch.empty()) {
      UcrScratch.push_back(S.Pc);
      continue;
    }
    for (RegionId Id : LookupScratch) {
      const std::ptrdiff_t Bin = CurrHists[Id].tryAddSampleAt(S.Pc);
      if (Bin < 0) {
        // The attribution index said the PC falls inside this region but
        // the histogram's bounds disagree -- a corrupted PC or a hostile
        // restore desynchronized the two. Count it, never write OOB.
        ++RejectedNow;
        continue;
      }
      if (Fast)
        SxyAcc[Id] += StablePtrs[Id][Bin];
      if (S.DCacheMiss) {
        if (FastMiss) {
          // Same bounds as the cycle histogram, which just accepted the
          // PC, so the miss histogram cannot reject it.
          const std::ptrdiff_t MissBin =
              CurrMissHists[Id].tryAddSampleAt(S.Pc);
          assert(MissBin >= 0 && "miss histogram disagrees on bounds");
          if (MissBin >= 0)
            MissSxyAcc[Id] +=
                MissStablePtrs[Id][static_cast<std::size_t>(MissBin)];
        } else {
          CurrMissHists[Id].addSample(S.Pc);
        }
      }
    }
  }
  OutOfRegionSamples += RejectedNow;
  const double UcrFraction = static_cast<double>(UcrScratch.size()) /
                             static_cast<double>(Samples.size());
  UcrHistory.push_back(UcrFraction);

  // Degraded mode: an interval below the sample-mass gate is evidence of
  // a faulty collector, not of the program. Its samples still count (they
  // are real), but it neither forms regions nor advances any detector.
  const bool Undersampled = Samples.size() < Config.MinIntervalSamples;
  if (Undersampled)
    ++UndersampledIntervals;

  // 2. Working-set change? Build regions for the new hot code.
  if (!Undersampled && UcrFraction > Config.UcrTriggerFraction)
    triggerFormation(UcrScratch);

  // 3. Local phase detection, one region at a time. Regions formed in step
  // 2 start analyzing with the *next* interval (their histograms for this
  // one are empty).
  for (RegionId Id = 0; Id < Regions.size(); ++Id) {
    if (!Active[Id])
      continue;
    RegionStats &RS = Stats[Id];
    ++RS.LifetimeIntervals;
    const InstrHistogram &Curr = CurrHists[Id];
    if (!Curr.empty()) {
      ++RS.ActiveIntervals;
      RS.TotalSamples += Curr.total();
      LastSampledInterval[Id] = Intervals;
      if (!Undersampled) {
        if (Fast)
          Detectors[Id]->observeMoments(Curr, SxyAcc[Id]);
        else
          Detectors[Id]->observe(Curr.bins());
        if (Obs) {
          if (Detectors[Id]->lastObservationComparedR())
            obs::addTo(Obs->SimilarityCompares);
          obs::observeIn(Obs->PhaseR, Detectors[Id]->lastR());
          const LocalPhaseState Now = Detectors[Id]->state();
          if (Now != Detectors[Id]->stateBeforeLastObserve())
            obs::recordEvent(Obs->Tracer, phaseEntryKind(Now), Obs->Stream,
                             Id, Intervals, Detectors[Id]->lastR());
        }
        if (Detectors[Id]->lastObservationChangedPhase())
          emit(Detectors[Id]->state() == LocalPhaseState::Stable
                   ? RegionEvent::Kind::BecameStable
                   : RegionEvent::Kind::BecameUnstable,
               Id);
      }

      // Performance characteristics: DPI accounting and delinquent loads.
      // Miss counts are real samples, so they accrue even when degraded;
      // only the windowed feedback signal (which drives unpatch
      // decisions) is withheld from under-sampled evidence.
      const InstrHistogram &Misses = CurrMissHists[Id];
      RS.TotalMisses += Misses.total();
      if (!Undersampled)
        RecentMiss[Id].add(static_cast<double>(Misses.total()) /
                           static_cast<double>(Curr.total()));
      if (!Misses.empty()) {
        std::span<const std::uint32_t> Bins = Misses.bins();
        std::vector<std::uint64_t> &Cum = CumulativeMisses[Id];
        for (std::size_t Bin = 0; Bin < Bins.size(); ++Bin)
          Cum[Bin] += Bins[Bin];
      }
      if (!Undersampled && Config.TrackMissPhases && !Misses.empty()) {
        if (Fast)
          MissDetectors[Id]->observeMoments(Misses, MissSxyAcc[Id]);
        else
          MissDetectors[Id]->observe(Misses.bins());
        RS.MissPhaseChanges = MissDetectors[Id]->phaseChanges();
        if (MissDetectors[Id]->lastObservationChangedPhase() &&
            !Detectors[Id]->lastObservationChangedPhase())
          emit(RegionEvent::Kind::MissPhaseChange, Id);
      }
    }
    RS.PhaseChanges = Detectors[Id]->phaseChanges();
    if (Detectors[Id]->state() == LocalPhaseState::Stable)
      ++RS.StableIntervals;
    if (Config.RecordTimelines) {
      SampleTimelines[Id].push_back(
          static_cast<std::uint32_t>(Curr.total()));
      RTimelines[Id].push_back(Detectors[Id]->lastR());
      StateTimelines[Id].push_back(Detectors[Id]->state());
    }
  }

  // 4. Optional cost control: stop monitoring long-cold regions.
  if (Config.PruneColdRegions)
    pruneCold();

  // Per-interval observability roll-up: a handful of relaxed atomic adds,
  // never per-sample work, so full instrumentation stays within the <3%
  // overhead budget (bench_obs_overhead).
  if (Obs) {
    obs::addTo(Obs->Intervals);
    obs::addTo(Obs->SamplesTotal, Samples.size());
    obs::addTo(Obs->SamplesUcr, UcrScratch.size());
    obs::addTo(Obs->SamplesOutOfRegion, RejectedNow);
    if (Undersampled)
      obs::addTo(Obs->UndersampledIntervals);
    obs::setGauge(Obs->LastUcrFraction, UcrFraction);
    obs::setGauge(Obs->ActiveRegions,
                  static_cast<double>(activeRegionCount()));
    obs::observeIn(Obs->IntervalSamples,
                   static_cast<double>(Samples.size()));
  }

  ++Intervals;
  return UcrScratch.size();
}

void RegionMonitor::triggerFormation(std::span<const Addr> UcrPcs) {
  ++FormationTriggers;
  if (Obs)
    obs::addTo(Obs->FormationTriggers);

  // Group the unmonitored samples by the formable region (if any) that the
  // code oracle proposes for them. std::map keys give deterministic order.
  struct Candidate {
    CodeRegionInfo Info;
    std::size_t Count = 0;
  };
  std::map<std::pair<Addr, Addr>, Candidate> Candidates;
  for (Addr Pc : UcrPcs) {
    std::optional<CodeRegionInfo> Info = Map.regionFor(Pc);
    if (!Info)
      continue; // non-regionable code: stays in the UCR forever
    auto [It, Inserted] =
        Candidates.try_emplace({Info->Start, Info->End});
    if (Inserted)
      It->second.Info = std::move(*Info);
    ++It->second.Count;
  }

  // Hottest candidates first.
  std::vector<const Candidate *> Ranked;
  Ranked.reserve(Candidates.size());
  for (const auto &[Bounds, C] : Candidates)
    Ranked.push_back(&C);
  std::stable_sort(Ranked.begin(), Ranked.end(),
                   [](const Candidate *A, const Candidate *B) {
                     return A->Count > B->Count;
                   });

  std::size_t ActiveCount = 0;
  for (RegionId Id = 0; Id < Regions.size(); ++Id)
    ActiveCount += Active[Id] ? 1 : 0;

  std::size_t FormedNow = 0;
  for (const Candidate *C : Ranked) {
    if (FormedNow >= Config.MaxNewRegionsPerTrigger ||
        ActiveCount >= Config.MaxRegions)
      break;
    if (C->Count < Config.MinRegionSamples)
      break; // ranked by count: all later candidates are colder

    // Skip exact duplicates of an active region (its samples would have
    // been attributed, but a just-formed region can race its first
    // samples within this same interval).
    const bool Duplicate = std::any_of(
        Regions.begin(), Regions.end(), [&](const Region &R) {
          return Active[R.Id] && R.Start == C->Info.Start &&
                 R.End == C->Info.End;
        });
    if (Duplicate)
      continue;

    const auto Id = static_cast<RegionId>(Regions.size());
    Region R;
    R.Id = Id;
    R.Name = C->Info.Name;
    R.Start = C->Info.Start;
    R.End = C->Info.End;
    R.FormedAtInterval = Intervals;
    Regions.push_back(std::move(R));
    Active.push_back(true);
    CurrHists.emplace_back(C->Info.Start, C->Info.End);
    CurrMissHists.emplace_back(C->Info.Start, C->Info.End);
    Detectors.push_back(std::make_unique<LocalPhaseDetector>(
        Regions.back().instrCount(), *Metric, Config.Lpd));
    MissDetectors.push_back(
        Config.TrackMissPhases
            ? std::make_unique<LocalPhaseDetector>(
                  Regions.back().instrCount(), *Metric, Config.Lpd)
            : nullptr);
    Stats.emplace_back();
    LastSampledInterval.push_back(Intervals);
    CumulativeMisses.emplace_back(Regions.back().instrCount(), 0);
    RecentMiss.emplace_back(Config.MissWindowIntervals);
    if (Config.RecordTimelines) {
      SampleTimelines.emplace_back();
      RTimelines.emplace_back();
      StateTimelines.emplace_back();
    }
    Attrib->insert(Id, Regions.back().Start, Regions.back().End);
    ++ActiveCount;
    ++FormedNow;
    emit(RegionEvent::Kind::Formed, Id);
  }
}

void RegionMonitor::pruneCold() {
  for (RegionId Id = 0; Id < Regions.size(); ++Id) {
    if (!Active[Id])
      continue;
    if (Intervals - LastSampledInterval[Id] <
        Config.PruneAfterIdleIntervals)
      continue;
    Active[Id] = false;
    Attrib->remove(Id, Regions[Id].Start, Regions[Id].End);
    emit(RegionEvent::Kind::Pruned, Id);
  }
}
