//===- persist/StateCodec.cpp - Monitoring-state serialization ------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "persist/StateCodec.h"

#include "support/Types.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

using namespace regmon;
using namespace regmon::persist;

namespace {

/// Decode-side sanity bounds: a corrupt length field must buy neither a
/// huge allocation nor a long loop. Real monitors sit far below both.
constexpr std::uint64_t MaxRegionsDecoded = 1ULL << 20;
constexpr std::uint64_t MaxInstrsPerRegion = 1ULL << 24;

/// False for NaN as well as for values outside [0, 1].
bool isFraction(double F) { return F >= 0.0 && F <= 1.0; }

} // namespace

//===----------------------------------------------------------------------===//
// WindowedStats
//===----------------------------------------------------------------------===//

void StateCodec::encode(ByteWriter &W, const WindowedStats &S) {
  W.u64(S.Cap);
  W.u64(S.Head);
  W.vecF64(S.Buffer);
  // Raw bits: recomputing the sum would replay a different accumulation
  // order and break bit-identical continuation.
  W.f64(S.Sum);
}

bool StateCodec::decode(ByteReader &R, WindowedStats &S,
                        std::uint64_t MaxCap) {
  const std::uint64_t Cap = R.u64();
  const std::uint64_t Head = R.u64();
  std::vector<double> Buffer;
  if (!R.vecF64(Buffer))
    return false;
  const double Sum = R.f64();
  const bool Full = Buffer.size() == Cap;
  if (!R.ok() || Cap == 0 || Cap > MaxCap || Buffer.size() > Cap ||
      (Full ? Head >= Cap : Head != 0)) {
    R.fail();
    return false;
  }
  S.Cap = Cap;
  S.Head = Head;
  S.Buffer = std::move(Buffer);
  S.Sum = Sum;
  return true;
}

//===----------------------------------------------------------------------===//
// LocalPhaseDetector
//===----------------------------------------------------------------------===//

void StateCodec::encode(ByteWriter &W, const core::LocalPhaseDetector &D) {
  W.vecU32(D.PrevHist);
  W.boolean(D.PrevValid);
  W.u8(static_cast<std::uint8_t>(D.State));
  W.f64(D.LastR);
  W.boolean(D.LastWasChange);
  W.u64(D.PhaseChanges);
  W.u64(D.Observed);
  W.u64(D.SkippedUndersampled);
}

bool StateCodec::decode(ByteReader &R, core::LocalPhaseDetector &D) {
  std::vector<std::uint32_t> Prev;
  if (!R.vecU32(Prev))
    return false;
  const bool PrevValid = R.boolean();
  const std::uint8_t State = R.u8();
  const double LastR = R.f64();
  const bool LastWasChange = R.boolean();
  const std::uint64_t PhaseChanges = R.u64();
  const std::uint64_t Observed = R.u64();
  const std::uint64_t Skipped = R.u64();
  // Refuse what observe cannot reach. Every metric returns a finite r. The
  // first observation only adopts, so it alone sets PrevValid. The first
  // compare is observation 2 and can only enter LessUnstable, so
  // LessUnstable needs 2 observations and at most Observed - 2 compares
  // changed phase. The machine starts Unstable and each counted change
  // enters or leaves Stable, so it is Stable exactly when the count is odd
  // (and, with the bound, after at least 3 observations). A change last
  // interval was counted.
  const auto St = static_cast<core::LocalPhaseState>(State);
  const std::uint64_t MaxChanges = Observed < 2 ? 0 : Observed - 2;
  const bool Reachable =
      PrevValid == (Observed > 0) &&
      !(St == core::LocalPhaseState::LessUnstable && Observed < 2) &&
      (St == core::LocalPhaseState::Stable) == (PhaseChanges % 2 == 1) &&
      PhaseChanges <= MaxChanges && (!LastWasChange || PhaseChanges > 0);
  if (!R.ok() || Prev.size() != D.PrevHist.size() || State > 2 ||
      !std::isfinite(LastR) || !Reachable) {
    R.fail();
    return false;
  }
  D.PrevHist = std::move(Prev);
  D.PrevValid = PrevValid;
  D.State = St;
  D.LastR = LastR;
  D.LastWasChange = LastWasChange;
  D.PhaseChanges = PhaseChanges;
  D.Observed = Observed;
  D.SkippedUndersampled = Skipped;
  return true;
}

//===----------------------------------------------------------------------===//
// RegionMonitor
//===----------------------------------------------------------------------===//

void StateCodec::encode(ByteWriter &W, const core::RegionMonitor &M) {
  // Configuration fingerprint: the settings that shape the serialized
  // layout. A mismatch on decode means the bytes describe a different
  // monitor and must be rejected, not reinterpreted. The miss window is a
  // build constant; its slot refuses a snapshot of a build with another.
  W.boolean(M.Config.TrackMissPhases);
  W.boolean(M.Config.RecordTimelines);
  W.u64(core::MissWindowIntervals);

  W.u64(M.Intervals);
  W.u64(M.FormationTriggers);
  W.u64(M.UndersampledIntervals);
  // The last UCR fraction, once: the recorded series ends with it.
  if (M.Config.RecordTimelines)
    W.vecF64(M.UcrHistory);
  else
    W.f64(M.LastUcrFraction);

  W.u32(static_cast<std::uint32_t>(M.Regions.size()));
  for (core::RegionId Id = 0; Id < M.Regions.size(); ++Id) {
    const core::Region &Reg = M.Regions[Id];
    const core::RegionMonitor::RegionRecord &Rec = M.Records[Id];
    W.str(Reg.Name);
    W.u64(Reg.Start);
    W.u64(Reg.End);
    W.u64(Reg.FormedAtInterval);
    W.boolean(Rec.Active);
    encode(W, *Rec.Detector);
    W.boolean(Rec.MissDetector != nullptr);
    if (Rec.MissDetector != nullptr)
      encode(W, *Rec.MissDetector);
    // The phase-change copies and the miss total are derived at decode.
    const core::RegionStats &RS = Rec.Stats;
    W.u64(RS.LifetimeIntervals);
    W.u64(RS.StableIntervals);
    W.u64(RS.ActiveIntervals);
    W.u64(RS.TotalSamples);
    W.u64(Rec.LastSampledInterval);
    W.vecU64(Rec.CumulativeMisses);
    encode(W, Rec.RecentMiss);
    if (Rec.Timeline != nullptr) {
      W.vecU32(Rec.Timeline->Samples);
      W.vecF64(Rec.Timeline->R);
      W.u64(Rec.Timeline->States.size());
      for (core::LocalPhaseState S : Rec.Timeline->States)
        W.u8(static_cast<std::uint8_t>(S));
    }
  }
}

bool StateCodec::decode(ByteReader &R, core::RegionMonitor &M) {
  // All-or-nothing: any validation failure resets the monitor to cold
  // state so a half-decoded object can never leak out.
  const auto Reject = [&M, &R] {
    R.fail();
    M.reset();
    return false;
  };
  if (!M.Regions.empty())
    return Reject();

  if (R.boolean() != M.Config.TrackMissPhases ||
      R.boolean() != M.Config.RecordTimelines ||
      R.u64() != core::MissWindowIntervals || !R.ok())
    return Reject();

  // An interval fires at most one formation trigger and is undersampled
  // or not.
  M.Intervals = R.u64();
  M.FormationTriggers = R.u64();
  M.UndersampledIntervals = R.u64();
  if (!R.ok() || M.FormationTriggers > M.Intervals ||
      M.UndersampledIntervals > M.Intervals)
    return Reject();
  if (M.Config.RecordTimelines) {
    if (!R.vecF64(M.UcrHistory) || M.UcrHistory.size() != M.Intervals ||
        !std::all_of(M.UcrHistory.begin(), M.UcrHistory.end(), isFraction))
      return Reject();
    M.LastUcrFraction = M.UcrHistory.empty() ? 0.0 : M.UcrHistory.back();
  } else {
    M.LastUcrFraction = R.f64();
    if (!R.ok() || !isFraction(M.LastUcrFraction))
      return Reject();
  }

  const std::uint32_t RegionCount = R.u32();
  if (!R.ok() || RegionCount > MaxRegionsDecoded)
    return Reject();

  // Formation never holds more than MaxRegions active regions. Refusing
  // more as they arrive also bounds the attribution table, which every
  // active region rebuilds and whose size grows with nesting depth.
  std::uint64_t ActiveCount = 0;
  for (std::uint32_t Id = 0; Id < RegionCount; ++Id) {
    core::Region Reg;
    if (!R.str(Reg.Name))
      return Reject();
    Reg.Start = R.u64();
    Reg.End = R.u64();
    Reg.FormedAtInterval = R.u64();
    const bool IsActive = R.boolean();
    if (!R.ok() || Reg.Start >= Reg.End || Reg.Start % InstrBytes != 0 ||
        Reg.End % InstrBytes != 0 ||
        (Reg.End - Reg.Start) / InstrBytes > MaxInstrsPerRegion)
      return Reject();
    if (IsActive && ++ActiveCount > core::MaxRegions)
      return Reject();
    const std::uint64_t Instrs = Reg.instrCount();
    const std::uint64_t FormedAt = Reg.FormedAtInterval;

    // The monitor builds the region as formation would; decode fills in
    // its learned state. A failure at any later field leaves reset() a
    // consistent monitor to clear.
    core::RegionMonitor::RegionRecord &Rec =
        M.addRegion(std::move(Reg), IsActive);
    if (!decode(R, *Rec.Detector))
      return Reject();
    const bool HasMissDetector = R.boolean();
    if (!R.ok() || HasMissDetector != M.Config.TrackMissPhases)
      return Reject();
    if (HasMissDetector && !decode(R, *Rec.MissDetector))
      return Reject();
    core::RegionStats &RS = Rec.Stats;
    RS.LifetimeIntervals = R.u64();
    RS.StableIntervals = R.u64();
    RS.ActiveIntervals = R.u64();
    RS.TotalSamples = R.u64();
    Rec.LastSampledInterval = R.u64();
    // Formation stamps both clocks inside an interval that then completes,
    // and sampling only moves the sample clock forward. A clock outside
    // [FormedAt, Intervals) would wrap pruneCold's idle subtraction.
    if (!R.ok() || Rec.LastSampledInterval >= M.Intervals ||
        Rec.LastSampledInterval < FormedAt)
      return Reject();
    // Every interval from formation on ages an active region by one and
    // adds at most one to its active and stable counts; pruning stops all
    // three.
    const std::uint64_t SinceFormed = M.Intervals - FormedAt;
    if ((IsActive ? RS.LifetimeIntervals != SinceFormed
                  : RS.LifetimeIntervals > SinceFormed) ||
        RS.ActiveIntervals > RS.LifetimeIntervals ||
        RS.StableIntervals > RS.LifetimeIntervals)
      return Reject();
    if (!R.vecU64(Rec.CumulativeMisses) ||
        Rec.CumulativeMisses.size() != Instrs)
      return Reject();
    // The miss total grows by the same histogram as the per-bin counts,
    // and every miss is a sample. Summed so a hostile bin cannot wrap.
    for (std::uint64_t Misses : Rec.CumulativeMisses) {
      if (Misses > RS.TotalSamples - RS.TotalMisses)
        return Reject();
      RS.TotalMisses += Misses;
    }
    // observeInterval keeps both phase-change counts equal to the
    // detectors'.
    RS.PhaseChanges = Rec.Detector->PhaseChanges;
    M.PhaseChangesTotal += RS.PhaseChanges;
    RS.MissPhaseChanges =
        HasMissDetector ? Rec.MissDetector->PhaseChanges : 0;
    if (!decode(R, Rec.RecentMiss, core::MissWindowIntervals) ||
        Rec.RecentMiss.Cap != core::MissWindowIntervals)
      return Reject();
    if (Rec.Timeline != nullptr) {
      if (!R.vecU32(Rec.Timeline->Samples) || !R.vecF64(Rec.Timeline->R))
        return Reject();
      const std::uint64_t States = R.u64();
      if (!R.ok() || States > R.remaining())
        return Reject();
      auto &Timeline = Rec.Timeline->States;
      Timeline.reserve(States);
      for (std::uint64_t I = 0; I < States; ++I) {
        const std::uint8_t S = R.u8();
        if (S > 2)
          return Reject();
        Timeline.push_back(static_cast<core::LocalPhaseState>(S));
      }
      if (!R.ok())
        return Reject();
    }
  }

  // Formation never forms a region over an active region's exact bounds;
  // two such active regions would attribute every sample there twice.
  // Sorting keeps the check O(n log n) for a hostile region count.
  std::vector<std::pair<Addr, Addr>> ActiveBounds;
  for (core::RegionId Id : M.ActiveIds)
    ActiveBounds.emplace_back(M.Regions[Id].Start, M.Regions[Id].End);
  std::sort(ActiveBounds.begin(), ActiveBounds.end());
  if (std::adjacent_find(ActiveBounds.begin(), ActiveBounds.end()) !=
      ActiveBounds.end())
    return Reject();
  return true;
}

//===----------------------------------------------------------------------===//
// AdaptiveController
//===----------------------------------------------------------------------===//

void StateCodec::encode(ByteWriter &W, const sampling::AdaptiveController &C) {
  // Config fingerprint first: every field that shapes decisions. The
  // delta threshold is stored as raw IEEE-754 bits and compared bitwise.
  W.boolean(C.Cfg.Enabled);
  W.u64(C.Cfg.BasePeriodCycles);
  W.u32(C.Cfg.MaxScaleLog2);
  W.u32(C.Cfg.StableIntervalsPerStep);
  W.f64(C.Cfg.UcrSpikeDelta);
  W.u32(C.Level);
  W.u32(C.StableStreak);
  W.f64(C.LastUcr);
  W.boolean(C.HaveLastUcr);
  W.u64(C.Lengthens);
  W.u64(C.Tightens);
  W.u64(C.SamplesSaved);
}

bool StateCodec::decode(ByteReader &R, sampling::AdaptiveController &C) {
  if (R.boolean() != C.Cfg.Enabled || R.u64() != C.Cfg.BasePeriodCycles ||
      R.u32() != C.Cfg.MaxScaleLog2 ||
      R.u32() != C.Cfg.StableIntervalsPerStep ||
      std::bit_cast<std::uint64_t>(R.f64()) !=
          std::bit_cast<std::uint64_t>(C.Cfg.UcrSpikeDelta) ||
      !R.ok()) {
    R.fail();
    return false;
  }
  const std::uint32_t Level = R.u32();
  const std::uint32_t StableStreak = R.u32();
  const double LastUcr = R.f64();
  const bool HaveLastUcr = R.boolean();
  const std::uint64_t Lengthens = R.u64();
  const std::uint64_t Tightens = R.u64();
  const std::uint64_t SamplesSaved = R.u64();
  if (!R.ok() || Level > C.Cfg.MaxScaleLog2 ||
      StableStreak >= C.Cfg.StableIntervalsPerStep) {
    R.fail();
    return false;
  }
  // A disabled controller never mutates state; any nonzero dynamic field
  // under Enabled == false is a desynced payload.
  if (!C.Cfg.Enabled &&
      (Level != 0 || StableStreak != 0 || HaveLastUcr ||
       std::bit_cast<std::uint64_t>(LastUcr) != 0 || Lengthens != 0 ||
       Tightens != 0 || SamplesSaved != 0)) {
    R.fail();
    return false;
  }
  C.Level = Level;
  C.StableStreak = StableStreak;
  C.LastUcr = LastUcr;
  C.HaveLastUcr = HaveLastUcr;
  C.Lengthens = Lengthens;
  C.Tightens = Tightens;
  C.SamplesSaved = SamplesSaved;
  return true;
}
