//===- core/RegionMonitor.cpp - The region monitoring framework -----------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/RegionMonitor.h"

#include "support/HotpathKernels.h"

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
      Metric(makeSimilarity(Config.Similarity, &SimilarityFellBack)) {}

void RegionMonitor::setEventHandler(EventHandler H) {
  Handler = std::move(H);
}

void RegionMonitor::attachObservability(const obs::MonitorInstruments *O) {
  Obs = O;
  if (Obs)
    // A constant: only the four-lane kernel exists (HotpathKernels.h).
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
                       Records[Id].MissDetector
                           ? Records[Id].MissDetector->lastR()
                           : 0.0);
      break;
    }
  }
  if (Handler)
    Handler(RegionEvent{K, Id, Intervals});
}

const RegionMonitor::RegionRecord &
RegionMonitor::record(RegionId Id) const {
  assert(Id < Records.size() && "unknown region");
  return Records[Id];
}

bool RegionMonitor::isActive(RegionId Id) const { return record(Id).Active; }

std::vector<RegionId> RegionMonitor::activeRegionIds() const {
  std::vector<RegionId> Out;
  for (RegionId Id = 0; Id < Records.size(); ++Id)
    if (Records[Id].Active)
      Out.push_back(Id);
  return Out;
}

std::size_t RegionMonitor::activeRegionCount() const {
  std::size_t N = 0;
  for (const RegionRecord &Rec : Records)
    N += Rec.Active ? 1 : 0;
  return N;
}

std::size_t RegionMonitor::stableRegionCount() const {
  std::size_t N = 0;
  for (const RegionRecord &Rec : Records)
    N += Rec.Active && Rec.Detector->state() == LocalPhaseState::Stable ? 1
                                                                       : 0;
  return N;
}

std::uint64_t RegionMonitor::totalPhaseChanges() const {
  std::uint64_t N = 0;
  for (const RegionRecord &Rec : Records)
    N += Rec.Stats.PhaseChanges;
  return N;
}

std::uint64_t RegionMonitor::totalSamples() const {
  std::uint64_t N = 0;
  for (const RegionRecord &Rec : Records)
    N += Rec.Stats.TotalSamples;
  return N;
}

void RegionMonitor::reset() {
  Regions.clear();
  Records.clear();
  Index = SegmentAttributor();
  LastUcrFraction = 0;
  UcrHistory.clear();
  Intervals = 0;
  FormationTriggers = 0;
  UndersampledIntervals = 0;
  OutOfRegionSamples = 0;
}

const LocalPhaseDetector &RegionMonitor::detector(RegionId Id) const {
  return *record(Id).Detector;
}

const RegionStats &RegionMonitor::stats(RegionId Id) const {
  return record(Id).Stats;
}

std::uint64_t RegionMonitor::lastSampleCount(RegionId Id) const {
  return record(Id).Curr.total();
}

double RegionMonitor::recentMissFraction(RegionId Id) const {
  return record(Id).RecentMiss.mean();
}

std::vector<RegionMonitor::DelinquentLoad>
RegionMonitor::delinquentLoads(RegionId Id, std::size_t N) const {
  const std::vector<std::uint64_t> &Bins = record(Id).CumulativeMisses;
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
  return *record(Id).MissDetector;
}

std::span<const double> RegionMonitor::ucrHistory() const {
  assert(Config.RecordTimelines && "timelines were not recorded");
  return UcrHistory;
}

std::span<const std::uint32_t>
RegionMonitor::sampleTimeline(RegionId Id) const {
  assert(Config.RecordTimelines && "timelines were not recorded");
  return record(Id).Timeline->Samples;
}

std::span<const double> RegionMonitor::rTimeline(RegionId Id) const {
  assert(Config.RecordTimelines && "timelines were not recorded");
  return record(Id).Timeline->R;
}

std::span<const LocalPhaseState>
RegionMonitor::stateTimeline(RegionId Id) const {
  assert(Config.RecordTimelines && "timelines were not recorded");
  return record(Id).Timeline->States;
}

REGMON_PURE std::uint64_t
RegionMonitor::observeInterval(std::span<const Sample> Samples) {
  assert(!Samples.empty() && "an interval carries a full sample buffer");

  // Fresh histograms for this interval.
  for (RegionRecord &Rec : Records)
    if (Rec.Active) {
      Rec.Curr.reset();
      Rec.CurrMiss.reset();
    }

  // 1. Attribute every sample; unmatched samples belong to the UCR.
  if (UcrScratch.size() < Samples.size())
    UcrScratch.resize(Samples.size());
  std::uint64_t RejectedNow = 0;
  const std::size_t UcrCount = attributeSamples(Samples, RejectedNow);
  OutOfRegionSamples += RejectedNow;
  const double UcrFraction = static_cast<double>(UcrCount) /
                             static_cast<double>(Samples.size());
  LastUcrFraction = UcrFraction;
  if (Config.RecordTimelines)
    UcrHistory.push_back(UcrFraction);

  // Degraded mode: an interval below the sample-mass gate is evidence of
  // a faulty collector, not of the program. Its samples still count (they
  // are real), but it neither forms regions nor advances any detector.
  const bool Undersampled = Samples.size() < Config.MinIntervalSamples;
  if (Undersampled)
    ++UndersampledIntervals;

  // 2. Working-set change? Build regions for the new hot code.
  if (!Undersampled && UcrFraction > UcrTriggerFraction)
    triggerFormation(std::span<const Addr>(UcrScratch).first(UcrCount));

  // 3. Local phase detection, one region at a time. Regions formed in step
  // 2 start analyzing with the *next* interval (their histograms for this
  // one are empty).
  for (RegionId Id = 0; Id < Records.size(); ++Id) {
    RegionRecord &Rec = Records[Id];
    if (!Rec.Active)
      continue;
    LocalPhaseDetector &Detector = *Rec.Detector;
    RegionStats &RS = Rec.Stats;
    ++RS.LifetimeIntervals;
    const InstrHistogram &Curr = Rec.Curr;
    if (!Curr.empty()) {
      ++RS.ActiveIntervals;
      RS.TotalSamples += Curr.total();
      Rec.LastSampledInterval = Intervals;
      if (!Undersampled) {
        Detector.observe(Curr.bins());
        if (Obs) {
          if (Detector.lastObservationComparedR())
            obs::addTo(Obs->SimilarityCompares);
          obs::observeIn(Obs->PhaseR, Detector.lastR());
          const LocalPhaseState Now = Detector.state();
          if (Now != Detector.stateBeforeLastObserve())
            obs::recordEvent(Obs->Tracer, phaseEntryKind(Now), Obs->Stream,
                             Id, Intervals, Detector.lastR());
        }
        if (Detector.lastObservationChangedPhase())
          emit(Detector.state() == LocalPhaseState::Stable
                   ? RegionEvent::Kind::BecameStable
                   : RegionEvent::Kind::BecameUnstable,
               Id);
      }

      // Performance characteristics: DPI accounting and delinquent loads.
      // Miss counts are real samples, so they accrue even when degraded;
      // only the windowed feedback signal (which drives unpatch
      // decisions) is withheld from under-sampled evidence.
      const InstrHistogram &Misses = Rec.CurrMiss;
      RS.TotalMisses += Misses.total();
      if (!Undersampled)
        Rec.RecentMiss.add(static_cast<double>(Misses.total()) /
                           static_cast<double>(Curr.total()));
      if (!Misses.empty()) {
        std::span<const std::uint32_t> Bins = Misses.bins();
        std::vector<std::uint64_t> &Cum = Rec.CumulativeMisses;
        for (std::size_t Bin = 0; Bin < Bins.size(); ++Bin)
          Cum[Bin] += Bins[Bin];
      }
      if (!Undersampled && Config.TrackMissPhases && !Misses.empty()) {
        LocalPhaseDetector &MissDetector = *Rec.MissDetector;
        MissDetector.observe(Misses.bins());
        RS.MissPhaseChanges = MissDetector.phaseChanges();
        if (MissDetector.lastObservationChangedPhase() &&
            !Detector.lastObservationChangedPhase())
          emit(RegionEvent::Kind::MissPhaseChange, Id);
      }
    }
    RS.PhaseChanges = Detector.phaseChanges();
    if (Detector.state() == LocalPhaseState::Stable)
      ++RS.StableIntervals;
    if (Rec.Timeline) {
      Rec.Timeline->Samples.push_back(
          static_cast<std::uint32_t>(Curr.total()));
      Rec.Timeline->R.push_back(Detector.lastR());
      Rec.Timeline->States.push_back(Detector.state());
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
    obs::addTo(Obs->SamplesUcr, UcrCount);
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
  return UcrCount;
}

REGMON_HOT std::size_t
RegionMonitor::attributeSamples(std::span<const Sample> Samples,
                                std::uint64_t &Rejected) {
  std::size_t UcrCount = 0;
  for (const Sample &S : Samples) {
    const std::span<const RegionId> Hits = Index.lookup(S.Pc);
    if (Hits.empty()) {
      UcrScratch[UcrCount++] = S.Pc;
      continue;
    }
    for (RegionId Id : Hits) {
      RegionRecord &Rec = Records[Id];
      if (!Rec.Curr.tryAddSample(S.Pc)) {
        // The attribution index said the PC falls inside this region but
        // the histogram's bounds disagree -- a corrupted PC or a hostile
        // restore desynchronized the two. Count it, never write OOB.
        ++Rejected;
        continue;
      }
      // Same bounds as the cycle histogram, which just accepted the PC.
      if (S.DCacheMiss)
        Rec.CurrMiss.addSample(S.Pc);
    }
  }
  return UcrCount;
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

  std::size_t ActiveCount = activeRegionCount();
  std::size_t FormedNow = 0;
  for (const Candidate *C : Ranked) {
    if (FormedNow >= MaxNewRegionsPerTrigger || ActiveCount >= MaxRegions)
      break;
    if (C->Count < MinRegionSamples)
      break; // ranked by count: all later candidates are colder

    // Skip exact duplicates of an active region (its samples would have
    // been attributed, but a just-formed region can race its first
    // samples within this same interval).
    const bool Duplicate = std::any_of(
        Regions.begin(), Regions.end(), [&](const Region &R) {
          return Records[R.Id].Active && R.Start == C->Info.Start &&
                 R.End == C->Info.End;
        });
    if (Duplicate)
      continue;

    Region R;
    R.Name = C->Info.Name;
    R.Start = C->Info.Start;
    R.End = C->Info.End;
    R.FormedAtInterval = Intervals;
    addRegion(std::move(R), /*Active=*/true);
    ++ActiveCount;
    ++FormedNow;
    emit(RegionEvent::Kind::Formed, Regions.back().Id);
  }
}

RegionMonitor::RegionRecord &RegionMonitor::addRegion(Region R, bool Active) {
  R.Id = static_cast<RegionId>(Regions.size());
  const std::size_t Instrs = R.instrCount();
  const auto MakeDetector = [&] {
    return std::make_unique<LocalPhaseDetector>(Instrs, *Metric, Config.Lpd);
  };
  RegionRecord &Rec = Records.emplace_back(RegionRecord{
      Active, InstrHistogram(R.Start, R.End), InstrHistogram(R.Start, R.End),
      MakeDetector(), Config.TrackMissPhases ? MakeDetector() : nullptr,
      RegionStats{}, /*LastSampledInterval=*/R.FormedAtInterval,
      std::vector<std::uint64_t>(Instrs, 0),
      WindowedStats(MissWindowIntervals),
      Config.RecordTimelines ? std::make_unique<Timelines>() : nullptr});
  if (Active)
    Index.insert(R.Id, R.Start, R.End);
  Regions.push_back(std::move(R));
  return Rec;
}

void RegionMonitor::pruneCold() {
  for (RegionId Id = 0; Id < Records.size(); ++Id) {
    RegionRecord &Rec = Records[Id];
    if (!Rec.Active ||
        Intervals - Rec.LastSampledInterval < Config.PruneAfterIdleIntervals)
      continue;
    Rec.Active = false;
    Index.remove(Id, Regions[Id].Start, Regions[Id].End);
    emit(RegionEvent::Kind::Pruned, Id);
  }
}
