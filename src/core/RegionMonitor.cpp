//===- core/RegionMonitor.cpp - The region monitoring framework -----------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/RegionMonitor.h"

#include "support/HotpathKernels.h"
#include "support/Segments.h"

#include <algorithm>
#include <cassert>

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

std::size_t RegionMonitor::stableRegionCount() const {
  std::size_t N = 0;
  for (RegionId Id : ActiveIds)
    N += Records[Id].Detector->state() == LocalPhaseState::Stable ? 1 : 0;
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
  ActiveIds.clear();
  PhaseChangesTotal = 0;
  SlabBounds.clear();
  SlabSegments.clear();
  SlabCycles.clear();
  SlabMisses.clear();
  SlabDirty = true;
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
  return record(Id).LastSamples;
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

  // Fresh counts for this interval, over the regions active now.
  if (SlabDirty) {
    layoutSlab();
  } else {
    std::fill(SlabCycles.begin(), SlabCycles.end(), 0u);
    std::fill(SlabMisses.begin(), SlabMisses.end(), 0u);
  }

  // 1. Attribute every sample; uncovered samples belong to the UCR.
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
  // 2 hold no slab slots until the next interval's layout, so they start
  // analyzing with the *next* interval (their histograms for this one are
  // empty).
  for (RegionId Id : ActiveIds) {
    RegionRecord &Rec = Records[Id];
    LocalPhaseDetector &Detector = *Rec.Detector;
    RegionStats &RS = Rec.Stats;
    ++RS.LifetimeIntervals;
    std::span<const std::uint32_t> Curr;
    std::span<const std::uint32_t> Misses;
    if (Rec.Slot != NoSlot) {
      const std::size_t Instrs = Regions[Id].instrCount();
      assert(Rec.Slot + Instrs <= SlabCycles.size() &&
             "a region's span lies inside the slab");
      Curr = std::span<const std::uint32_t>(SlabCycles).subspan(Rec.Slot,
                                                                Instrs);
      Misses = std::span<const std::uint32_t>(SlabMisses).subspan(Rec.Slot,
                                                                  Instrs);
    }
    const std::uint64_t Total = countSum(Curr);
    Rec.LastSamples = Total;
    if (Total != 0) {
      ++RS.ActiveIntervals;
      RS.TotalSamples += Total;
      Rec.LastSampledInterval = Intervals;
      if (!Undersampled) {
        Detector.observe(Curr);
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
      const std::uint64_t MissTotal = countSum(Misses);
      RS.TotalMisses += MissTotal;
      if (!Undersampled)
        Rec.RecentMiss.add(static_cast<double>(MissTotal) /
                           static_cast<double>(Total));
      if (MissTotal != 0) {
        std::vector<std::uint64_t> &Cum = Rec.CumulativeMisses;
        for (std::size_t Bin = 0; Bin < Misses.size(); ++Bin)
          Cum[Bin] += Misses[Bin];
      }
      if (!Undersampled && Config.TrackMissPhases && MissTotal != 0) {
        LocalPhaseDetector &MissDetector = *Rec.MissDetector;
        MissDetector.observe(Misses);
        RS.MissPhaseChanges = MissDetector.phaseChanges();
        if (MissDetector.lastObservationChangedPhase() &&
            !Detector.lastObservationChangedPhase())
          emit(RegionEvent::Kind::MissPhaseChange, Id);
      }
    }
    PhaseChangesTotal += Detector.phaseChanges() - RS.PhaseChanges;
    RS.PhaseChanges = Detector.phaseChanges();
    if (Detector.state() == LocalPhaseState::Stable)
      ++RS.StableIntervals;
    if (Rec.Timeline) {
      Rec.Timeline->Samples.push_back(static_cast<std::uint32_t>(Total));
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
  // Every sample does the same work, so no branch depends on where it
  // landed: one search, one slot, two counts and one UCR write.
  const Addr *const Bounds = SlabBounds.data();
  const std::size_t Segments = SlabBounds.size();
  const SlabSegment *const Layout = SlabSegments.data();
  std::uint32_t *const Cycles = SlabCycles.data();
  std::uint32_t *const Misses = SlabMisses.data();
  const std::size_t Slots = SlabCycles.size();
  Addr *const Ucr = UcrScratch.data();
  std::size_t UcrCount = 0;
  for (const Sample &S : Samples) {
    const std::size_t Seg = segmentOf(Bounds, Segments, S.Pc);
    const SlabSegment Segment = Layout[Seg];
    // A covered segment's slots run in instruction order from First; the
    // mask is zero for an uncovered one, which leaves First, the sink.
    const std::size_t Mask = std::size_t{Segment.Uncovered} - 1;
    std::size_t Slot =
        Segment.First +
        (static_cast<std::size_t>((S.Pc - Bounds[Seg]) / InstrBytes) & Mask);
    // The layout keeps every slot inside the slab; this guard keeps a
    // layout bug from writing out of bounds in any build.
    const bool Outside = Slot >= Slots;
    Rejected += Outside ? 1 : 0;
    Slot = Outside ? 0 : Slot;
    ++Cycles[Slot];
    Misses[Slot] += S.DCacheMiss ? 1 : 0;
    Ucr[UcrCount] = S.Pc;
    UcrCount += Segment.Uncovered;
  }
  return UcrCount;
}

void RegionMonitor::triggerFormation(std::span<const Addr> UcrPcs) {
  ++FormationTriggers;
  if (Obs)
    obs::addTo(Obs->FormationTriggers);

  // Count the unmonitored samples per formable region the code map
  // proposes for them. The last entry collects the PCs no region can be
  // built around: they stay in the UCR forever.
  const std::size_t Candidates = Map.candidateCount();
  CandidateCounts.assign(Candidates + 1, 0);
  for (Addr Pc : UcrPcs)
    ++CandidateCounts[Map.candidateFor(Pc)];

  // Hottest candidates first. Candidate ids follow (Start, End), and the
  // stable sort keeps that order among equal counts.
  Ranked.clear();
  for (CandidateId C = 0; C < Candidates; ++C)
    if (CandidateCounts[C] >= MinRegionSamples)
      Ranked.push_back(C);
  std::stable_sort(Ranked.begin(), Ranked.end(),
                   [&](CandidateId A, CandidateId B) {
                     return CandidateCounts[A] > CandidateCounts[B];
                   });

  // No candidate has the bounds of an active region: the region would
  // have claimed every PC the candidate counted, because each of them
  // lies inside the candidate's bounds and the slab holds every region
  // formed before this interval. Within one trigger the candidates are
  // distinct.
  std::size_t ActiveCount = activeRegionCount();
  std::size_t FormedNow = 0;
  for (CandidateId C : Ranked) {
    if (FormedNow >= MaxNewRegionsPerTrigger || ActiveCount >= MaxRegions)
      break;
    const CodeRegionInfo &Info = Map.candidate(C);
    Region R;
    R.Name = Info.Name;
    R.Start = Info.Start;
    R.End = Info.End;
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
      Active, NoSlot, /*LastSamples=*/0, MakeDetector(),
      Config.TrackMissPhases ? MakeDetector() : nullptr, RegionStats{},
      /*LastSampledInterval=*/R.FormedAtInterval,
      std::vector<std::uint64_t>(Instrs, 0),
      WindowedStats(MissWindowIntervals),
      Config.RecordTimelines ? std::make_unique<Timelines>() : nullptr});
  if (Active) {
    ActiveIds.push_back(R.Id);
    SlabDirty = true;
  }
  Regions.push_back(std::move(R));
  return Rec;
}

void RegionMonitor::layoutSlab() {
  SlabBounds.clear();
  for (RegionId Id : ActiveIds) {
    SlabBounds.push_back(Regions[Id].Start);
    SlabBounds.push_back(Regions[Id].End);
  }
  cutSegments(SlabBounds);

  // Covered segments take consecutive slots in address order, so each
  // region's instructions are one contiguous span. No region reaches into
  // the last segment.
  SlabSegments.assign(SlabBounds.size(), SlabSegment{});
  for (RegionId Id : ActiveIds)
    for (std::size_t S = segmentStartingAt(SlabBounds, Regions[Id].Start),
                     Last = segmentStartingAt(SlabBounds, Regions[Id].End);
         S < Last; ++S)
      SlabSegments[S].Uncovered = 0;
  assert(SlabSegments.back().Uncovered == 1 && "the last segment is open");
  std::size_t Next = 1; // slot 0 is the sink
  for (std::size_t S = 0; S + 1 < SlabBounds.size(); ++S)
    if (SlabSegments[S].Uncovered == 0) {
      SlabSegments[S].First = static_cast<std::uint32_t>(Next);
      Next += static_cast<std::size_t>(
          (SlabBounds[S + 1] - SlabBounds[S]) / InstrBytes);
    }
  for (RegionId Id : ActiveIds)
    Records[Id].Slot =
        SlabSegments[segmentStartingAt(SlabBounds, Regions[Id].Start)].First;
  // assign grows to exactly Next, where resize would double.
  SlabCycles.assign(Next, 0);
  SlabMisses.assign(Next, 0);
  SlabDirty = false;
}

void RegionMonitor::pruneCold() {
  // A region leaves ActiveIds before its event fires, so the handler sees
  // the monitor as it was when the region was pruned.
  for (auto It = ActiveIds.begin(); It != ActiveIds.end();) {
    const RegionId Id = *It;
    RegionRecord &Rec = Records[Id];
    if (Intervals - Rec.LastSampledInterval < Config.PruneAfterIdleIntervals) {
      ++It;
      continue;
    }
    Rec.Active = false;
    Rec.Slot = NoSlot;
    It = ActiveIds.erase(It);
    SlabDirty = true;
    emit(RegionEvent::Kind::Pruned, Id);
  }
}
