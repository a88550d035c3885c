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

std::uint64_t sumOfBins(std::span<const std::uint32_t> Bins) {
  std::uint64_t Total = 0;
  for (std::uint32_t B : Bins)
    Total += B;
  return Total;
}

std::uint64_t sumOfSquaredBins(std::span<const std::uint32_t> Bins) {
  std::uint64_t Total = 0;
  for (std::uint32_t B : Bins)
    Total += static_cast<std::uint64_t>(B) * B;
  return Total;
}

} // namespace

//===----------------------------------------------------------------------===//
// InstrHistogram
//===----------------------------------------------------------------------===//

void StateCodec::encode(ByteWriter &W, const InstrHistogram &H) {
  W.u64(H.StartAddr);
  W.vecU32(H.Bins);
  W.u64(H.TotalCount);
  W.u64(sumOfSquaredBins(H.Bins));
}

bool StateCodec::decode(ByteReader &R, InstrHistogram &H) {
  const std::uint64_t Start = R.u64();
  std::vector<std::uint32_t> Bins;
  if (!R.vecU32(Bins))
    return false;
  const std::uint64_t Total = R.u64();
  const std::uint64_t SumSq = R.u64();
  // The sum of squares is derived from the bins (encode computes it); a
  // payload whose sums disagree with its bins is corrupt, not merely
  // redundant, so the whole histogram is refused.
  if (!R.ok() || Start != H.StartAddr || Bins.size() != H.Bins.size() ||
      Total != sumOfBins(Bins) || SumSq != sumOfSquaredBins(Bins)) {
    R.fail();
    return false;
  }
  H.Bins = std::move(Bins);
  H.TotalCount = Total;
  return true;
}

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
  W.u64(sumOfBins(D.PrevHist));
  W.u64(sumOfSquaredBins(D.PrevHist));
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
  const std::uint64_t PrevSum = R.u64();
  const std::uint64_t PrevSumSq = R.u64();
  const bool PrevValid = R.boolean();
  const std::uint8_t State = R.u8();
  const double LastR = R.f64();
  const bool LastWasChange = R.boolean();
  const std::uint64_t PhaseChanges = R.u64();
  const std::uint64_t Observed = R.u64();
  const std::uint64_t Skipped = R.u64();
  // Like the histogram's: the stable set's derived sums must match its
  // bins. Beyond that, refuse what observe cannot reach. Every metric
  // returns a finite r. The first observation only adopts, so it alone
  // sets PrevValid. The first compare is observation 2 and can only enter
  // LessUnstable, so LessUnstable needs 2 observations, Stable needs 3,
  // and at most Observed - 2 compares changed phase. A change last
  // interval was counted.
  const auto St = static_cast<core::LocalPhaseState>(State);
  const std::uint64_t MaxChanges = Observed < 2 ? 0 : Observed - 2;
  const bool Reachable =
      PrevValid == (Observed > 0) &&
      !(St == core::LocalPhaseState::LessUnstable && Observed < 2) &&
      !(St == core::LocalPhaseState::Stable && Observed < 3) &&
      PhaseChanges <= MaxChanges && (!LastWasChange || PhaseChanges > 0);
  if (!R.ok() || Prev.size() != D.PrevHist.size() || State > 2 ||
      PrevSum != sumOfBins(Prev) || PrevSumSq != sumOfSquaredBins(Prev) ||
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
  // Configuration fingerprint: the fields that shape the serialized
  // layout. A mismatch on decode means the bytes describe a different
  // monitor and must be rejected, not reinterpreted.
  W.boolean(M.Config.TrackMissPhases);
  W.boolean(M.Config.RecordTimelines);
  W.u64(M.Config.MissWindowIntervals);

  W.u64(M.Intervals);
  W.u64(M.FormationTriggers);
  W.u64(M.UndersampledIntervals);
  W.vecF64(M.UcrHistory);

  W.u32(static_cast<std::uint32_t>(M.Regions.size()));
  for (core::RegionId Id = 0; Id < M.Regions.size(); ++Id) {
    const core::Region &Reg = M.Regions[Id];
    const core::RegionMonitor::RegionRecord &Rec = M.Records[Id];
    W.str(Reg.Name);
    W.u64(Reg.Start);
    W.u64(Reg.End);
    W.u64(Reg.FormedAtInterval);
    W.boolean(Rec.Active);
    encode(W, Rec.Curr);
    encode(W, Rec.CurrMiss);
    encode(W, *Rec.Detector);
    W.boolean(Rec.MissDetector != nullptr);
    if (Rec.MissDetector != nullptr)
      encode(W, *Rec.MissDetector);
    const core::RegionStats &RS = Rec.Stats;
    W.u64(RS.LifetimeIntervals);
    W.u64(RS.StableIntervals);
    W.u64(RS.ActiveIntervals);
    W.u64(RS.TotalSamples);
    W.u64(RS.TotalMisses);
    W.u64(RS.PhaseChanges);
    W.u64(RS.MissPhaseChanges);
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
      R.u64() != M.Config.MissWindowIntervals || !R.ok())
    return Reject();

  M.Intervals = R.u64();
  M.FormationTriggers = R.u64();
  M.UndersampledIntervals = R.u64();
  if (!R.vecF64(M.UcrHistory))
    return Reject();

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
    if (IsActive && ++ActiveCount > M.Config.MaxRegions)
      return Reject();
    const std::uint64_t Instrs = Reg.instrCount();
    const std::uint64_t FormedAt = Reg.FormedAtInterval;

    // The monitor builds the region as formation would; decode fills in
    // its learned state. A failure at any later field leaves reset() a
    // consistent monitor to clear.
    core::RegionMonitor::RegionRecord &Rec =
        M.addRegion(std::move(Reg), IsActive);
    if (!decode(R, Rec.Curr) || !decode(R, Rec.CurrMiss) ||
        !decode(R, *Rec.Detector))
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
    RS.TotalMisses = R.u64();
    RS.PhaseChanges = R.u64();
    RS.MissPhaseChanges = R.u64();
    Rec.LastSampledInterval = R.u64();
    // Formation stamps both clocks inside an interval that then completes,
    // and sampling only moves the sample clock forward. A clock outside
    // [FormedAt, Intervals) would wrap pruneCold's idle subtraction.
    if (!R.ok() || Rec.LastSampledInterval >= M.Intervals ||
        Rec.LastSampledInterval < FormedAt)
      return Reject();
    if (!R.vecU64(Rec.CumulativeMisses) ||
        Rec.CumulativeMisses.size() != Instrs)
      return Reject();
    if (!decode(R, Rec.RecentMiss, M.Config.MissWindowIntervals) ||
        Rec.RecentMiss.Cap != M.Config.MissWindowIntervals)
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
  for (core::RegionId Id = 0; Id < M.Regions.size(); ++Id)
    if (M.Records[Id].Active)
      ActiveBounds.emplace_back(M.Regions[Id].Start, M.Regions[Id].End);
  std::sort(ActiveBounds.begin(), ActiveBounds.end());
  if (std::adjacent_find(ActiveBounds.begin(), ActiveBounds.end()) !=
      ActiveBounds.end())
    return Reject();
  return true;
}

//===----------------------------------------------------------------------===//
// CentroidPhaseDetector
//===----------------------------------------------------------------------===//

void StateCodec::encode(ByteWriter &W, const gpd::CentroidPhaseDetector &G) {
  W.u64(G.Config.HistoryLength);
  W.boolean(G.Config.AdaptiveWindow);
  W.u64(G.Config.MinHistoryLength);
  W.u64(G.Config.MaxHistoryLength);
  encode(W, G.History);
  W.u8(static_cast<std::uint8_t>(G.State));
  W.u32(G.Timer);
  W.u32(G.QuietStableRun);
  W.boolean(G.LastWasChange);
  W.u64(G.PhaseChanges);
  W.u64(G.Intervals);
  W.u64(G.StableIntervals);
  W.u64(G.Timeline.size());
  for (gpd::GlobalPhaseState S : G.Timeline)
    W.u8(static_cast<std::uint8_t>(S));
}

bool StateCodec::decode(ByteReader &R, gpd::CentroidPhaseDetector &G) {
  if (R.u64() != G.Config.HistoryLength ||
      R.boolean() != G.Config.AdaptiveWindow ||
      R.u64() != G.Config.MinHistoryLength ||
      R.u64() != G.Config.MaxHistoryLength || !R.ok()) {
    R.fail();
    return false;
  }
  std::uint64_t MaxCap = G.Config.HistoryLength;
  if (G.Config.AdaptiveWindow && G.Config.MaxHistoryLength > MaxCap)
    MaxCap = G.Config.MaxHistoryLength;
  if (!decode(R, G.History, MaxCap))
    return false;
  const std::uint8_t State = R.u8();
  const std::uint32_t Timer = R.u32();
  const std::uint32_t Quiet = R.u32();
  const bool LastWasChange = R.boolean();
  const std::uint64_t PhaseChanges = R.u64();
  const std::uint64_t Intervals = R.u64();
  const std::uint64_t StableIntervals = R.u64();
  const std::uint64_t Len = R.u64();
  if (!R.ok() || State > 2 || Len > R.remaining()) {
    R.fail();
    return false;
  }
  std::vector<gpd::GlobalPhaseState> Timeline;
  Timeline.reserve(Len);
  for (std::uint64_t I = 0; I < Len; ++I) {
    const std::uint8_t S = R.u8();
    if (S > 2) {
      R.fail();
      return false;
    }
    Timeline.push_back(static_cast<gpd::GlobalPhaseState>(S));
  }
  if (!R.ok())
    return false;
  G.State = static_cast<gpd::GlobalPhaseState>(State);
  G.Timer = Timer;
  G.QuietStableRun = Quiet;
  G.LastWasChange = LastWasChange;
  G.PhaseChanges = PhaseChanges;
  G.Intervals = Intervals;
  G.StableIntervals = StableIntervals;
  G.Timeline = std::move(Timeline);
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

//===----------------------------------------------------------------------===//
// TraceDeployments
//===----------------------------------------------------------------------===//

void StateCodec::encode(ByteWriter &W, const rto::TraceDeployments &T) {
  W.u64(T.Trained.size());
  for (const auto &Profile : T.Trained) {
    W.boolean(Profile.has_value());
    W.u32(Profile.has_value() ? *Profile : 0);
  }
  W.u64(T.HarmStreak.size());
  for (std::uint32_t Streak : T.HarmStreak)
    W.u32(Streak);
  W.u64(T.Patches);
  W.u64(T.Unpatches);
  W.u64(T.FailedPatches);
}

bool StateCodec::decode(ByteReader &R, rto::TraceDeployments &T) {
  const std::uint64_t Loops = R.u64();
  if (!R.ok() || Loops != T.Trained.size()) {
    R.fail();
    return false;
  }
  std::vector<std::optional<sim::ProfileId>> Trained;
  Trained.reserve(Loops);
  for (std::uint64_t I = 0; I < Loops; ++I) {
    const bool Has = R.boolean();
    const std::uint32_t Profile = R.u32();
    if (Has)
      Trained.emplace_back(Profile);
    else
      Trained.emplace_back(std::nullopt);
  }
  const std::uint64_t Streaks = R.u64();
  if (!R.ok() || Streaks != T.HarmStreak.size()) {
    R.fail();
    return false;
  }
  std::vector<std::uint32_t> Harm;
  Harm.reserve(Streaks);
  for (std::uint64_t I = 0; I < Streaks; ++I)
    Harm.push_back(R.u32());
  const std::uint64_t Patches = R.u64();
  const std::uint64_t Unpatches = R.u64();
  const std::uint64_t Failed = R.u64();
  if (!R.ok())
    return false;
  T.Trained = std::move(Trained);
  for (std::uint64_t I = 0; I < Streaks; ++I)
    T.HarmStreak[I] = Harm[I];
  T.Patches = Patches;
  T.Unpatches = Unpatches;
  T.FailedPatches = Failed;
  return true;
}
