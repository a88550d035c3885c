//===- tests/HotpathDifferentialTest.cpp - Monitor r vs a from-scratch r --===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The hot path's correctness contract: every r the region monitor reports
// is the r its metric gives the region's two histograms at interval end.
// This suite proves it against an oracle built outside the monitor:
//
//  * full-monitor lockstep over every registered workload, over the
//    cosine and overlap metrics, and over fault-injected streams: after
//    every interval, each compared detector's r (cycle and miss channel)
//    is bit-identical to makeSimilarity(kind)->compare over its stable set
//    copied before the interval and the histogram a ListAttributor counts
//    from the interval's samples;
//  * property/fuzz tests of the moment kernels themselves (kernel vs a
//    scalar reference, pearsonFromMoments vs pearson, degenerate-input
//    NaN-freedom).
//
//===----------------------------------------------------------------------===//

#include "core/Attribution.h"
#include "core/LocalPhaseDetector.h"
#include "core/RegionMonitor.h"
#include "core/Similarity.h"
#include "faults/FaultPlan.h"
#include "sampling/Sampler.h"
#include "sim/Engine.h"
#include "sim/ProgramCodeMap.h"
#include "support/HotpathKernels.h"
#include "support/Rng.h"
#include "support/Statistics.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

using namespace regmon;

namespace {

/// Bit pattern of a double, for exact (not epsilon) comparison.
std::uint64_t bits(double V) { return std::bit_cast<std::uint64_t>(V); }

/// Records one workload stream's intervals (the persist tests' pattern).
struct RecordedStream {
  std::unique_ptr<workloads::Workload> W;
  std::unique_ptr<sim::ProgramCodeMap> Map;
  std::vector<std::vector<Sample>> Intervals;
};

RecordedStream record(const std::string &Name, std::uint64_t Seed,
                      std::size_t MaxIntervals) {
  RecordedStream S;
  S.W = std::make_unique<workloads::Workload>(workloads::make(Name));
  S.Map = std::make_unique<sim::ProgramCodeMap>(S.W->Prog);
  sim::Engine Engine(S.W->Prog, S.W->Script, Seed);
  sampling::Sampler Sampler(Engine, {45'000, 2032});
  S.Intervals = Sampler.collectIntervals(MaxIntervals);
  return S;
}

core::RegionMonitorConfig lockstepConfig(core::SimilarityKind Kind) {
  core::RegionMonitorConfig Cfg;
  Cfg.Similarity = Kind;
  Cfg.TrackMissPhases = true; // check the miss channel's r as well
  return Cfg;
}

/// One detector's oracle inputs for one interval: its stable set copied
/// before the interval, the histogram counted outside the monitor, and
/// its r going in.
struct OracleChannel {
  std::vector<std::uint32_t> Stable;
  std::vector<std::uint32_t> Hist;
  std::uint64_t Samples = 0;
  std::uint64_t RBefore = 0;

  void prime(const core::LocalPhaseDetector &D) {
    Stable.assign(D.stableSet().begin(), D.stableSet().end());
    Hist.assign(Stable.size(), 0);
    Samples = 0;
    RBefore = bits(D.lastR());
  }
};

/// How many from-scratch r values a lockstep run checked, per channel.
struct LockstepCounts {
  std::uint64_t Compares = 0;
  std::uint64_t MissCompares = 0;
};

/// Checks \p D after an interval against \p C: a detector that compared
/// reports exactly \p Oracle's r over (stable before, counted histogram);
/// one whose region got no samples kept its r. Returns 1 when it checked
/// a compare, else 0.
std::uint64_t checkChannel(const core::LocalPhaseDetector &D,
                           const OracleChannel &C,
                           const core::SimilarityMetric &Oracle,
                           const std::string &Where) {
  if (C.Samples == 0) {
    EXPECT_EQ(bits(D.lastR()), C.RBefore) << Where << ": r moved unsampled";
    return 0;
  }
  if (!D.lastObservationComparedR())
    return 0;
  const double Want = Oracle.compare(C.Stable, C.Hist);
  EXPECT_TRUE(std::isfinite(Want)) << Where;
  EXPECT_EQ(bits(D.lastR()), bits(Want))
      << Where << ": monitor r " << D.lastR() << ", oracle r " << Want;
  return 1;
}

/// Drives \p M over \p Intervals. After every interval, each region that
/// was active going in is checked on both channels by \ref checkChannel;
/// its histograms are counted through a ListAttributor over the active
/// set, from the raw samples.
LockstepCounts runLockstep(core::RegionMonitor &M,
                           const std::vector<std::vector<Sample>> &Intervals,
                           const std::string &Tag) {
  const std::unique_ptr<core::SimilarityMetric> Oracle =
      core::makeSimilarity(M.config().Similarity);
  LockstepCounts Counts;
  std::vector<OracleChannel> Cycle, Miss;
  std::vector<core::RegionId> Hits;

  for (std::size_t I = 0; I < Intervals.size(); ++I) {
    const std::vector<core::RegionId> Active = M.activeRegionIds();
    Cycle.resize(M.regions().size());
    Miss.resize(M.regions().size());
    core::ListAttributor List;
    for (core::RegionId Id : Active) {
      const core::Region &R = M.regions()[Id];
      List.insert(Id, R.Start, R.End);
      Cycle[Id].prime(M.detector(Id));
      Miss[Id].prime(M.missDetector(Id));
    }
    for (const Sample &S : Intervals[I]) {
      Hits.clear();
      List.lookup(S.Pc, Hits);
      for (core::RegionId Id : Hits) {
        const std::size_t Bin = static_cast<std::size_t>(
            (S.Pc - M.regions()[Id].Start) / InstrBytes);
        ++Cycle[Id].Hist[Bin];
        ++Cycle[Id].Samples;
        if (S.DCacheMiss) {
          ++Miss[Id].Hist[Bin];
          ++Miss[Id].Samples;
        }
      }
    }

    M.observeInterval(Intervals[I]);

    for (core::RegionId Id : Active) {
      const std::string Where = Tag + " interval " + std::to_string(I) +
                                " region " + std::to_string(Id);
      EXPECT_EQ(M.lastSampleCount(Id), Cycle[Id].Samples) << Where;
      Counts.Compares +=
          checkChannel(M.detector(Id), Cycle[Id], *Oracle, Where);
      Counts.MissCompares += checkChannel(M.missDetector(Id), Miss[Id],
                                          *Oracle, Where + " (miss)");
    }
    if (::testing::Test::HasFailure())
      return Counts;
  }
  return Counts;
}

//===----------------------------------------------------------------------===//
// Full-monitor lockstep
//===----------------------------------------------------------------------===//

TEST(HotpathDifferential, EveryWorkloadLockstep) {
  LockstepCounts Total;
  for (const std::string &Name : workloads::allNames()) {
    SCOPED_TRACE(Name);
    const RecordedStream S = record(Name, /*Seed=*/11, /*MaxIntervals=*/30);
    core::RegionMonitor M(*S.Map,
                          lockstepConfig(core::SimilarityKind::Pearson));
    const LockstepCounts C = runLockstep(M, S.Intervals, Name);
    if (HasFailure())
      return;
    Total.Compares += C.Compares;
    Total.MissCompares += C.MissCompares;
  }
  // The oracle must actually have been consulted on both channels, or the
  // equalities above prove nothing.
  EXPECT_GT(Total.Compares, 100u);
  EXPECT_GT(Total.MissCompares, 0u);
}

TEST(HotpathDifferential, CosineAndOverlapMetricsLockstep) {
  const RecordedStream S = record("synthetic.periodic", 5, 40);
  for (const core::SimilarityKind Kind :
       {core::SimilarityKind::Cosine, core::SimilarityKind::Overlap}) {
    const std::string Tag =
        Kind == core::SimilarityKind::Cosine ? "cosine" : "overlap";
    SCOPED_TRACE(Tag);
    core::RegionMonitor M(*S.Map, lockstepConfig(Kind));
    const LockstepCounts C = runLockstep(M, S.Intervals, Tag);
    EXPECT_GT(C.Compares, 0u);
  }
}

TEST(HotpathDifferential, FaultedStreamsLockstep) {
  faults::FaultConfig FC;
  FC.DropRate = 0.05;
  FC.DuplicateRate = 0.03;
  FC.CorruptRate = 0.04; // UCR noise: exercises rejected/out-of-region paths
  FC.PeriodJitterFrac = 0.2;
  FC.TruncateRate = 0.15;

  for (const std::uint64_t PlanSeed : {std::uint64_t{3}, std::uint64_t{99}}) {
    SCOPED_TRACE(PlanSeed);
    const RecordedStream S = record("synthetic.pollution", PlanSeed, 40);
    const faults::FaultPlan Plan(PlanSeed, FC);
    faults::StreamFaultInjector Injector = Plan.forStream(0);
    std::vector<std::vector<Sample>> Faulted;
    Faulted.reserve(S.Intervals.size());
    for (const std::vector<Sample> &Clean : S.Intervals)
      Faulted.push_back(Injector.apply(Clean));

    core::RegionMonitor M(*S.Map,
                          lockstepConfig(core::SimilarityKind::Pearson));
    const LockstepCounts C = runLockstep(M, Faulted, "faulted");
    EXPECT_GT(C.Compares, 0u);
    EXPECT_GT(C.MissCompares, 0u);
  }
}

//===----------------------------------------------------------------------===//
// Moment properties (fuzz)
//===----------------------------------------------------------------------===//

TEST(HotpathMoments, KernelMatchesScalarReferenceUnderFuzz) {
  // The (possibly multi-lane) recomputeMoments kernel vs a trivially
  // correct single-accumulator loop, across sizes that hit every tail
  // length and values that wrap 32-bit partial products.
  Rng Random(7);
  for (int Round = 0; Round < 200; ++Round) {
    const std::size_t N = Random.nextBelow(70);
    std::vector<std::uint32_t> X(N), Y(N);
    for (std::size_t I = 0; I < N; ++I) {
      X[I] = static_cast<std::uint32_t>(Random.next());
      Y[I] = static_cast<std::uint32_t>(Random.next());
    }
    HistMoments Ref;
    for (std::size_t I = 0; I < N; ++I) {
      Ref.SumX += X[I];
      Ref.SumY += Y[I];
      Ref.Sxx += static_cast<std::uint64_t>(X[I]) * X[I];
      Ref.Syy += static_cast<std::uint64_t>(Y[I]) * Y[I];
      Ref.Sxy += static_cast<std::uint64_t>(X[I]) * Y[I];
    }
    const HistMoments M = recomputeMoments(X, Y);
    EXPECT_EQ(M.SumX, Ref.SumX);
    EXPECT_EQ(M.SumY, Ref.SumY);
    EXPECT_EQ(M.Sxx, Ref.Sxx);
    EXPECT_EQ(M.Syy, Ref.Syy);
    EXPECT_EQ(M.Sxy, Ref.Sxy);

    std::uint64_t PcRef = 0;
    std::vector<Addr> Pcs(N);
    for (std::size_t I = 0; I < N; ++I) {
      Pcs[I] = Random.next();
      PcRef += Pcs[I];
    }
    EXPECT_EQ(pcSum(Pcs.data(), Pcs.size()), PcRef);
  }
}

TEST(HotpathMoments, PearsonFromMomentsMatchesNaivePearsonBitExactly) {
  Rng Random(13);
  for (int Round = 0; Round < 300; ++Round) {
    const std::size_t N = 1 + Random.nextBelow(128);
    std::vector<std::uint32_t> X(N), Y(N);
    for (std::size_t I = 0; I < N; ++I) {
      // Mix sparse histograms (mostly zero) with dense ones.
      X[I] = Random.nextBelow(4) == 0
                 ? static_cast<std::uint32_t>(Random.nextBelow(1000))
                 : 0;
      Y[I] = Random.nextBelow(4) == 0
                 ? static_cast<std::uint32_t>(Random.nextBelow(1000))
                 : 0;
    }
    const double Naive = pearson(std::span<const std::uint32_t>(X),
                                 std::span<const std::uint32_t>(Y));
    const double FromMoments = pearsonFromMoments(N, recomputeMoments(X, Y));
    EXPECT_EQ(bits(Naive), bits(FromMoments)) << "round " << Round;
    EXPECT_TRUE(std::isfinite(FromMoments));
    EXPECT_GE(FromMoments, -1.0);
    EXPECT_LE(FromMoments, 1.0);
  }
}

TEST(HotpathMoments, DegenerateInputsAreNaNFree) {
  // Empty comparison: the detector's "prev empty" convention is r = 1.
  EXPECT_EQ(pearsonFromMoments(0, HistMoments{}), 1.0);
  // Both constant (zero variance): identical behaviour, r = 1.
  {
    const std::vector<std::uint32_t> X{5, 5, 5}, Y{2, 2, 2};
    EXPECT_EQ(pearsonFromMoments(3, recomputeMoments(X, Y)), 1.0);
  }
  // One side constant: no correlation defined, r = 0.
  {
    const std::vector<std::uint32_t> X{5, 5, 5}, Y{1, 2, 3};
    EXPECT_EQ(pearsonFromMoments(3, recomputeMoments(X, Y)), 0.0);
    EXPECT_EQ(pearsonFromMoments(3, recomputeMoments(Y, X)), 0.0);
  }
  // Single-bucket histograms are always zero-variance: r = 1, never NaN.
  {
    const std::vector<std::uint32_t> X{7}, Y{9};
    EXPECT_EQ(pearsonFromMoments(1, recomputeMoments(X, Y)), 1.0);
  }
  // All-zero histograms.
  {
    const std::vector<std::uint32_t> Z(8, 0);
    EXPECT_EQ(pearsonFromMoments(8, recomputeMoments(Z, Z)), 1.0);
    EXPECT_TRUE(std::isfinite(cosineFromMoments(recomputeMoments(Z, Z))));
  }
  // Cosine degenerates: zero norm on either side.
  {
    const std::vector<std::uint32_t> Z(4, 0), V{1, 0, 2, 0};
    const double C0 = cosineFromMoments(recomputeMoments(Z, V));
    EXPECT_TRUE(std::isfinite(C0));
    const double C1 = cosineFromMoments(recomputeMoments(V, V));
    EXPECT_TRUE(std::isfinite(C1));
    EXPECT_LE(C1, 1.0);
  }
}

} // namespace
