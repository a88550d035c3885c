//===- tests/CoreAttributionTest.cpp - Sample attribution -----------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Attribution.h"

#include "core/RegionMonitor.h"
#include "faults/FaultPlan.h"
#include "persist/Bytes.h"
#include "persist/StateCodec.h"
#include "sampling/Sampler.h"
#include "sim/Engine.h"
#include "sim/ProgramCodeMap.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

using namespace regmon;
using namespace regmon::core;

namespace {

/// Appends to \p Out the id of every region of \p A containing \p Pc. The
/// list and the tree append in place; the table hands back a span into
/// itself, which is copied.
void lookupInto(const auto &A, Addr Pc, std::vector<RegionId> &Out) {
  if constexpr (std::is_same_v<std::remove_cvref_t<decltype(A)>,
                               SegmentAttributor>) {
    const std::span<const RegionId> Ids = A.lookup(Pc);
    Out.insert(Out.end(), Ids.begin(), Ids.end());
  } else {
    A.lookup(Pc, Out);
  }
}

std::vector<RegionId> lookupSorted(const auto &A, Addr Pc) {
  std::vector<RegionId> Out;
  lookupInto(A, Pc, Out);
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// The structure a parameterized case runs against.
enum class Structure : std::uint8_t {
  List,
  IntervalTree,
  Table,
};

/// The three structures behind one parameterized suite: every behavioural
/// test must hold for the list, the interval tree and the segment table
/// alike. Each body is a generic lambda, so it calls the structure under
/// test directly.
class AttributorTest : public ::testing::TestWithParam<Structure> {
protected:
  template <class BodyT> void run(BodyT Body) const {
    switch (GetParam()) {
    case Structure::List: {
      ListAttributor A;
      Body(A);
      return;
    }
    case Structure::IntervalTree: {
      IntervalTreeAttributor A;
      Body(A);
      return;
    }
    case Structure::Table: {
      SegmentAttributor A;
      Body(A);
      return;
    }
    }
  }
};

TEST_P(AttributorTest, EmptyMatchesNothing) {
  run([](auto &A) {
    EXPECT_EQ(A.size(), 0u);
    EXPECT_TRUE(lookupSorted(A, 0x1234).empty());
  });
}

TEST_P(AttributorTest, HalfOpenBounds) {
  run([](auto &A) {
    A.insert(1, 0x1000, 0x1100);
    EXPECT_EQ(lookupSorted(A, 0x1000), std::vector<RegionId>{1});
    EXPECT_EQ(lookupSorted(A, 0x10fc), std::vector<RegionId>{1});
    EXPECT_TRUE(lookupSorted(A, 0x1100).empty());
    EXPECT_TRUE(lookupSorted(A, 0xfff).empty());
  });
}

TEST_P(AttributorTest, OverlapsReportAllRegions) {
  run([](auto &A) {
    A.insert(1, 0x1000, 0x2000);
    A.insert(2, 0x1800, 0x2800); // straddles
    A.insert(3, 0x1900, 0x1a00); // nested in both
    EXPECT_EQ(lookupSorted(A, 0x1980), (std::vector<RegionId>{1, 2, 3}));
    EXPECT_EQ(lookupSorted(A, 0x1100), std::vector<RegionId>{1});
    EXPECT_EQ(lookupSorted(A, 0x2400), std::vector<RegionId>{2});
  });
}

TEST_P(AttributorTest, RemoveStopsMatching) {
  run([](auto &A) {
    A.insert(1, 0x1000, 0x2000);
    A.insert(2, 0x1000, 0x2000);
    A.remove(1, 0x1000, 0x2000);
    EXPECT_EQ(A.size(), 1u);
    EXPECT_EQ(lookupSorted(A, 0x1500), std::vector<RegionId>{2});
  });
}

TEST_P(AttributorTest, LookupAppendsWithoutClearing) {
  run([](auto &A) {
    A.insert(7, 0x100, 0x200);
    std::vector<RegionId> Out = {42};
    lookupInto(A, 0x150, Out);
    ASSERT_EQ(Out.size(), 2u);
    EXPECT_EQ(Out[0], 42u) << "existing contents preserved";
    EXPECT_EQ(Out[1], 7u);
  });
}

TEST_P(AttributorTest, IdenticalBoundsReportEveryId) {
  run([](auto &A) {
    A.insert(4, 0x1000, 0x1100);
    A.insert(9, 0x1000, 0x1100);
    EXPECT_EQ(lookupSorted(A, 0x1000), (std::vector<RegionId>{4, 9}));
    EXPECT_EQ(lookupSorted(A, 0x10fc), (std::vector<RegionId>{4, 9}));
    EXPECT_TRUE(lookupSorted(A, 0xffc).empty());
    EXPECT_TRUE(lookupSorted(A, 0x1100).empty());
  });
}

TEST_P(AttributorTest, AdjacentRegionsSplitAtTheSharedBound) {
  run([](auto &A) {
    A.insert(1, 0x1000, 0x1100);
    A.insert(2, 0x1100, 0x1200);
    EXPECT_EQ(lookupSorted(A, 0x10fc), std::vector<RegionId>{1});
    EXPECT_EQ(lookupSorted(A, 0x1100), std::vector<RegionId>{2});
    EXPECT_EQ(lookupSorted(A, 0x11fc), std::vector<RegionId>{2});
    EXPECT_TRUE(lookupSorted(A, 0x1200).empty());
  });
}

TEST_P(AttributorTest, RegionStartingAtAddressZero) {
  run([](auto &A) {
    A.insert(5, 0, 0x40);
    EXPECT_EQ(lookupSorted(A, 0), std::vector<RegionId>{5});
    EXPECT_EQ(lookupSorted(A, 0x3c), std::vector<RegionId>{5});
    EXPECT_TRUE(lookupSorted(A, 0x40).empty());
  });
}

TEST_P(AttributorTest, RegionEndingAtTheHighestAlignedAddress) {
  run([](auto &A) {
    constexpr Addr Top = ~Addr{InstrBytes - 1};
    A.insert(6, Top - 0x40, Top);
    EXPECT_TRUE(lookupSorted(A, Top - 0x44).empty());
    EXPECT_EQ(lookupSorted(A, Top - 0x40), std::vector<RegionId>{6});
    EXPECT_EQ(lookupSorted(A, Top - InstrBytes), std::vector<RegionId>{6});
    EXPECT_TRUE(lookupSorted(A, Top).empty());
    EXPECT_TRUE(lookupSorted(A, ~Addr{0}).empty());
  });
}

TEST_P(AttributorTest, RemovingEveryRegionMatchesNothing) {
  run([](auto &A) {
    A.insert(1, 0x1000, 0x2000);
    A.insert(2, 0x1800, 0x1900);
    A.remove(2, 0x1800, 0x1900);
    A.remove(1, 0x1000, 0x2000);
    EXPECT_EQ(A.size(), 0u);
    for (Addr Pc : {Addr{0}, Addr{0x1000}, Addr{0x1880}, Addr{0x2000}})
      EXPECT_TRUE(lookupSorted(A, Pc).empty()) << "pc " << Pc;
    // An emptied structure fills again.
    A.insert(3, 0x1800, 0x1900);
    EXPECT_EQ(lookupSorted(A, 0x1880), std::vector<RegionId>{3});
  });
}

INSTANTIATE_TEST_SUITE_P(Kinds, AttributorTest,
                         ::testing::Values(Structure::List,
                                           Structure::IntervalTree,
                                           Structure::Table),
                         [](const auto &Info) -> std::string {
                           switch (Info.param) {
                           case Structure::List:
                             return "List";
                           case Structure::IntervalTree:
                             return "IntervalTree";
                           case Structure::Table:
                             return "Table";
                           }
                           return "Unknown";
                         });

/// A table that was never filled holds no storage, yet every lookup
/// answers with an empty span.
TEST(SegmentAttributor, NeverFilledTableReturnsEmptySpans) {
  const SegmentAttributor Table;
  EXPECT_EQ(Table.size(), 0u);
  for (Addr Pc : {Addr{0}, Addr{0x1000}, ~Addr{InstrBytes - 1}, ~Addr{0}})
    EXPECT_TRUE(Table.lookup(Pc).empty()) << "pc " << Pc;
}

/// Property sweep: the three structures agree on random region sets with
/// interleaved removals. (The name predates the table.)
class AttributorEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AttributorEquivalenceTest, ListAndTreeAgree) {
  Rng Random(GetParam());
  ListAttributor List;
  IntervalTreeAttributor Tree;
  SegmentAttributor Table;
  struct Entry {
    RegionId Id;
    Addr Start, End;
  };
  std::vector<Entry> Live;

  for (std::uint32_t Op = 0; Op < 300; ++Op) {
    if (!Live.empty() && Random.nextBelow(5) == 0) {
      const std::size_t Pick = Random.nextBelow(Live.size());
      const Entry E = Live[Pick];
      List.remove(E.Id, E.Start, E.End);
      Tree.remove(E.Id, E.Start, E.End);
      Table.remove(E.Id, E.Start, E.End);
      Live.erase(Live.begin() + static_cast<std::ptrdiff_t>(Pick));
    } else {
      const Addr Start = Random.nextBelow(10'000) * 4;
      const Addr End = Start + (1 + Random.nextBelow(256)) * 4;
      List.insert(Op, Start, End);
      Tree.insert(Op, Start, End);
      Table.insert(Op, Start, End);
      Live.push_back(Entry{Op, Start, End});
    }
    ASSERT_EQ(List.size(), Tree.size());
    ASSERT_EQ(List.size(), Table.size());
    for (int Probe = 0; Probe < 10; ++Probe) {
      const Addr Pc = Random.nextBelow(42'000);
      const std::vector<RegionId> Want = lookupSorted(List, Pc);
      ASSERT_EQ(lookupSorted(Tree, Pc), Want) << "pc " << Pc << " op " << Op;
      ASSERT_EQ(lookupSorted(Table, Pc), Want) << "pc " << Pc << " op " << Op;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AttributorEquivalenceTest,
                         ::testing::Range<std::uint64_t>(200, 210));

/// Fig. 16's inputs: a workload's final region set, nested loops included,
/// loaded into all three structures, and every sample of its recorded
/// stream looked up through each. (The name predates the table.)
TEST(AttributorEquivalence, ListAndTreeAgreeOnRecordedRegionSets) {
  for (const char *Name : {"254.gap", "176.gcc"}) {
    SCOPED_TRACE(Name);
    const workloads::Workload W = workloads::make(Name);
    sim::Engine Engine(W.Prog, W.Script, /*Seed=*/1);
    sampling::Sampler Sampler(Engine, {45'000, 2032});
    const std::vector<std::vector<Sample>> Stream =
        Sampler.collectIntervals();
    const sim::ProgramCodeMap Map(W.Prog);
    RegionMonitor Monitor(Map);
    for (const std::vector<Sample> &Interval : Stream)
      Monitor.observeInterval(Interval);

    ListAttributor List;
    IntervalTreeAttributor Tree;
    SegmentAttributor Table;
    for (RegionId Id : Monitor.activeRegionIds()) {
      const Region &R = Monitor.regions()[Id];
      List.insert(Id, R.Start, R.End);
      Tree.insert(Id, R.Start, R.End);
      Table.insert(Id, R.Start, R.End);
    }
    ASSERT_GT(List.size(), 1u);

    std::uint64_t Hits = 0;
    for (const std::vector<Sample> &Interval : Stream)
      for (const Sample &S : Interval) {
        const std::vector<RegionId> Want = lookupSorted(List, S.Pc);
        ASSERT_EQ(lookupSorted(Tree, S.Pc), Want) << "pc " << S.Pc;
        ASSERT_EQ(lookupSorted(Table, S.Pc), Want) << "pc " << S.Pc;
        Hits += Want.size();
      }
    EXPECT_GT(Hits, 0u);
  }
}

/// Observes one interval through \p M and checks its attribution against
/// a ListAttributor over the regions active going in: each of them holds
/// exactly the samples the list gives it, and the returned UCR count is
/// the samples the list gives no region. Counts are indexed by RegionId.
void observeAgainstList(RegionMonitor &M, std::span<const Sample> Interval) {
  const std::vector<RegionId> Active = M.activeRegionIds();
  ListAttributor List;
  for (RegionId Id : Active) {
    const Region &R = M.regions()[Id];
    List.insert(Id, R.Start, R.End);
  }
  std::vector<std::uint64_t> Want(M.regions().size(), 0);
  std::uint64_t WantUcr = 0;
  std::vector<RegionId> Hits;
  for (const Sample &S : Interval) {
    Hits.clear();
    List.lookup(S.Pc, Hits);
    WantUcr += Hits.empty() ? 1 : 0;
    for (RegionId Id : Hits)
      ++Want[Id];
  }

  ASSERT_EQ(M.observeInterval(Interval), WantUcr)
      << "interval " << M.intervals();
  for (RegionId Id : Active)
    ASSERT_EQ(M.lastSampleCount(Id), Want[Id])
        << "region " << Id << " interval " << M.intervals() - 1;
}

/// Runs \p Stream through \p M, checking every interval against the list.
void runAgainstList(RegionMonitor &M,
                    const std::vector<std::vector<Sample>> &Stream) {
  for (const std::vector<Sample> &Interval : Stream) {
    observeAgainstList(M, Interval);
    if (::testing::Test::HasFatalFailure())
      return;
  }
  EXPECT_EQ(M.outOfRegionSamples(), 0u);
}

std::vector<std::vector<Sample>> recordStream(const workloads::Workload &W,
                                              std::uint64_t Seed) {
  sim::Engine Engine(W.Prog, W.Script, Seed);
  sampling::Sampler Sampler(Engine, {45'000, 2032});
  return Sampler.collectIntervals(64);
}

TEST(RegionMonitorAttribution, MatchesAListOnEveryWorkload) {
  for (const std::string &Name : workloads::allNames()) {
    SCOPED_TRACE(Name);
    const workloads::Workload W = workloads::make(Name);
    const sim::ProgramCodeMap Map(W.Prog);
    RegionMonitor Monitor(Map);
    runAgainstList(Monitor, recordStream(W, /*Seed=*/3));
    if (HasFatalFailure())
      return;
  }
}

TEST(RegionMonitorAttribution, MatchesAListThroughRetirement) {
  // Pruning after 4 idle intervals retires regions mid-stream, so the
  // table is rebuilt on removal as well as on formation. At engine seed 3
  // these 64 intervals form 160 regions and retire 128 of them.
  const workloads::Workload W = workloads::make("176.gcc");
  const sim::ProgramCodeMap Map(W.Prog);
  RegionMonitorConfig Cfg;
  Cfg.PruneColdRegions = true;
  Cfg.PruneAfterIdleIntervals = 4;
  RegionMonitor Monitor(Map, Cfg);
  runAgainstList(Monitor, recordStream(W, /*Seed=*/3));
  const std::size_t Formed = Monitor.regions().size();
  const std::size_t Retired = Formed - Monitor.activeRegionCount();
  EXPECT_GE(Formed, 100u);
  EXPECT_GE(Retired, 100u);
}

/// Two loops, one nested in the other: PCs of the inner loop resolve to
/// it, the rest of the outer loop's extent to the outer loop, and PCs
/// past it to nothing.
struct NestedLoops {
  static constexpr Addr OuterStart = 0x4000;
  static constexpr Addr InnerStart = 0x4100;
  static constexpr Addr InnerEnd = 0x4200;
  static constexpr Addr OuterEnd = 0x4400;

  static CodeMap map() {
    return CodeMap({{InnerStart, InnerEnd, "inner"},
                    {OuterStart, OuterEnd, "outer"}});
  }
};

TEST(RegionMonitorAttribution, MatchesAListOnNestedRegions) {
  // No shipped workload forms overlapping regions, so this stream makes
  // the outer loop form around an already formed inner loop: interval 0
  // runs only the inner loop, later ones split between the inner loop,
  // the rest of the outer loop and unregionable code.
  Rng Random(11);
  const auto Pick = [&](Addr Start, Addr End) {
    return Start + Random.nextBelow((End - Start) / InstrBytes) * InstrBytes;
  };
  std::vector<std::vector<Sample>> Stream(12);
  for (std::size_t I = 0; I < Stream.size(); ++I)
    for (std::size_t K = 0; K < 2032; ++K) {
      Sample S;
      const std::size_t Where = I == 0 ? 0 : K % 4;
      if (Where <= 1)
        S.Pc = Pick(NestedLoops::InnerStart, NestedLoops::InnerEnd);
      else if (Where == 2)
        S.Pc = Random.nextBelow(2) == 0
                   ? Pick(NestedLoops::OuterStart, NestedLoops::InnerStart)
                   : Pick(NestedLoops::InnerEnd, NestedLoops::OuterEnd);
      else
        S.Pc = Pick(0x9000, 0x9100);
      S.Time = (I * 2032 + K) * 45'000;
      S.DCacheMiss = K % 7 == 0;
      Stream[I].push_back(S);
    }

  const CodeMap Map = NestedLoops::map();
  RegionMonitor Monitor(Map);
  runAgainstList(Monitor, Stream);
  ASSERT_EQ(Monitor.activeRegionCount(), 2u);
  const Region &Inner = Monitor.regions()[0];
  const Region &Outer = Monitor.regions()[1];
  EXPECT_EQ(Inner.Start, NestedLoops::InnerStart);
  EXPECT_EQ(Outer.Start, NestedLoops::OuterStart);
  // Every inner sample also counts for the outer loop.
  EXPECT_GT(Monitor.lastSampleCount(Inner.Id), 0u);
  EXPECT_EQ(Monitor.lastSampleCount(Outer.Id),
            Monitor.lastSampleCount(Inner.Id) + 2032 / 4);
}

//===----------------------------------------------------------------------===//
// The count slab: layout changes between intervals
//===----------------------------------------------------------------------===//

/// Two regionable loops; 0x9000+ is non-regionable.
CodeMap twoLoops() {
  return CodeMap({{0x1000, 0x1100, "loopA"}, {0x2000, 0x2080, "loopB"}});
}

/// Count samples at each listed PC, missing when the flag is set.
std::vector<Sample>
samplesAt(std::initializer_list<std::tuple<Addr, int, bool>> Spec) {
  std::vector<Sample> Out;
  for (const auto &[Pc, Count, Miss] : Spec)
    for (int I = 0; I < Count; ++I)
      Out.push_back(Sample{Pc, static_cast<Cycles>(Out.size()), Miss});
  return Out;
}

TEST(RegionMonitorSlab, RegionFormedMidIntervalReadsEmptyUntilTheNext) {
  const CodeMap Map = twoLoops();
  RegionMonitor M(Map);
  const std::vector<Sample> Both =
      samplesAt({{0x1004, 60, false}, {0x2010, 40, true}});
  observeAgainstList(M, samplesAt({{0x1004, 100, false}}));
  ASSERT_EQ(M.regions().size(), 1u);
  EXPECT_EQ(M.lastSampleCount(0), 0u) << "formed during interval 0";

  // loopB's 40% forms it during this interval, after attribution.
  observeAgainstList(M, Both);
  ASSERT_EQ(M.regions().size(), 2u);
  EXPECT_EQ(M.lastSampleCount(0), 60u);
  EXPECT_EQ(M.lastSampleCount(1), 0u);
  EXPECT_EQ(M.stats(1).ActiveIntervals, 0u);
  EXPECT_EQ(M.stats(1).LifetimeIntervals, 1u);
  EXPECT_EQ(M.stats(1).TotalMisses, 0u);

  observeAgainstList(M, Both);
  EXPECT_EQ(M.lastSampleCount(0), 60u);
  EXPECT_EQ(M.lastSampleCount(1), 40u);
  EXPECT_EQ(M.stats(1).TotalMisses, 40u);
  EXPECT_DOUBLE_EQ(M.lastUcrFraction(), 0.0);
  EXPECT_EQ(M.outOfRegionSamples(), 0u);
}

TEST(RegionMonitorSlab, PrunedRegionReformedAtTheSameBounds) {
  const CodeMap Map = twoLoops();
  RegionMonitorConfig Cfg;
  Cfg.PruneColdRegions = true;
  Cfg.PruneAfterIdleIntervals = 2;
  RegionMonitor M(Map, Cfg);
  observeAgainstList(M, samplesAt({{0x1004, 100, false}})); // forms 0
  observeAgainstList(M, samplesAt({{0x1004, 70, false}, {0x9000, 30, false}}));
  for (int I = 0; I < 3; ++I)
    observeAgainstList(M, samplesAt({{0x9000, 100, false}}));
  ASSERT_FALSE(M.isActive(0));
  const RegionStats Retired = M.stats(0);

  observeAgainstList(M, samplesAt({{0x1008, 100, false}})); // re-forms
  ASSERT_EQ(M.regions().size(), 2u);
  EXPECT_EQ(M.regions()[1].Start, M.regions()[0].Start);
  EXPECT_EQ(M.regions()[1].End, M.regions()[0].End);
  EXPECT_EQ(M.lastSampleCount(1), 0u);

  observeAgainstList(M, samplesAt({{0x1008, 80, true}, {0x9000, 20, false}}));
  EXPECT_EQ(M.lastSampleCount(1), 80u);
  EXPECT_EQ(M.stats(1).TotalMisses, 80u);
  EXPECT_EQ(M.stats(0).TotalSamples, Retired.TotalSamples)
      << "a pruned region reads no slots";
  EXPECT_EQ(M.stats(0).LifetimeIntervals, Retired.LifetimeIntervals);
  EXPECT_EQ(M.lastSampleCount(0), 0u) << "its last active interval";
  EXPECT_EQ(M.outOfRegionSamples(), 0u);
}

TEST(RegionMonitorSlab, AdjacentRegionsSplitAtTheirSharedBound) {
  const CodeMap Map({{0x1000, 0x1100, "low"}, {0x1100, 0x1200, "high"}});
  RegionMonitor M(Map);
  observeAgainstList(M, samplesAt({{0x10fc, 50, false}, {0x1100, 50, false}}));
  ASSERT_EQ(M.activeRegionCount(), 2u);
  ASSERT_EQ(M.regions()[0].Name, "low") << "equal counts: (Start, End)";

  observeAgainstList(M, samplesAt({{0x10fc, 30, true},
                                   {0x1100, 20, true},
                                   {0x1000, 10, false},
                                   {0x11fc, 5, true}}));
  EXPECT_EQ(M.lastSampleCount(0), 40u);
  EXPECT_EQ(M.lastSampleCount(1), 25u);
  const auto Low = M.delinquentLoads(0);
  ASSERT_EQ(Low.size(), 1u);
  EXPECT_EQ(Low[0].Pc, 0x10fcu) << "the last slot below the shared bound";
  EXPECT_EQ(Low[0].Misses, 30u);
  const auto High = M.delinquentLoads(1);
  ASSERT_EQ(High.size(), 2u);
  EXPECT_EQ(High[0].Pc, 0x1100u) << "the first slot at the shared bound";
  EXPECT_EQ(High[0].Misses, 20u);
  EXPECT_EQ(High[1].Pc, 0x11fcu);
  EXPECT_EQ(High[1].Misses, 5u);
}

TEST(RegionMonitorSlab, UnalignedPcsLandInTheirInstructionSlot) {
  const CodeMap Map({{0x1000, 0x1100, "low"}, {0x1100, 0x1200, "high"}});
  RegionMonitor M(Map);
  observeAgainstList(M, samplesAt({{0x1004, 50, false}, {0x1104, 50, false}}));
  ASSERT_EQ(M.activeRegionCount(), 2u);
  observeAgainstList(M, samplesAt({{0x1001, 3, true},
                                   {0x1002, 2, true},
                                   {0x1003, 1, true},
                                   {0x10ff, 4, true},
                                   {0x1101, 7, true},
                                   {0x1201, 1, true}}));
  EXPECT_EQ(M.lastSampleCount(0), 10u);
  EXPECT_EQ(M.lastSampleCount(1), 7u);
  const auto Low = M.delinquentLoads(0);
  ASSERT_EQ(Low.size(), 2u);
  EXPECT_EQ(Low[0].Pc, 0x1000u);
  EXPECT_EQ(Low[0].Misses, 6u);
  EXPECT_EQ(Low[1].Pc, 0x10fcu) << "0x10ff stays below the shared bound";
  EXPECT_EQ(Low[1].Misses, 4u);
  const auto High = M.delinquentLoads(1);
  ASSERT_EQ(High.size(), 1u);
  EXPECT_EQ(High[0].Pc, 0x1100u);
  EXPECT_EQ(High[0].Misses, 7u);
}

TEST(RegionMonitorSlab, FirstIntervalAfterRestoreMatchesTheUninterruptedRun) {
  // Restore at every interval boundary of a pruning 176.gcc run: regions
  // form and retire throughout, so some restores land right after a
  // layout change. The restored monitor lays its slab out from the
  // decoded regions alone.
  const workloads::Workload W = workloads::make("176.gcc");
  const sim::ProgramCodeMap Map(W.Prog);
  RegionMonitorConfig Cfg;
  Cfg.PruneColdRegions = true;
  Cfg.PruneAfterIdleIntervals = 4;
  Cfg.TrackMissPhases = true;
  RegionMonitor Run(Map, Cfg);
  const std::vector<std::vector<Sample>> Stream = recordStream(W, 3);
  for (std::size_t K = 0; K < Stream.size(); ++K) {
    persist::ByteWriter Before;
    persist::StateCodec::encode(Before, Run);
    RegionMonitor Restored(Map, Cfg);
    persist::ByteReader Reader(Before.data());
    ASSERT_TRUE(persist::StateCodec::decode(Reader, Restored)) << K;

    ASSERT_EQ(Restored.observeInterval(Stream[K]),
              Run.observeInterval(Stream[K]))
        << "interval " << K;
    for (const Region &R : Run.regions())
      ASSERT_EQ(Restored.lastSampleCount(R.Id), Run.lastSampleCount(R.Id))
          << "region " << R.Id << " interval " << K;
    persist::ByteWriter AfterRun, AfterRestored;
    persist::StateCodec::encode(AfterRun, Run);
    persist::StateCodec::encode(AfterRestored, Restored);
    ASSERT_TRUE(std::ranges::equal(AfterRun.data(), AfterRestored.data()))
        << "interval " << K;
  }
  EXPECT_GT(Run.regions().size(), Run.activeRegionCount());
}

TEST(RegionMonitorSlab, CorruptedPcStormWithRegionsActive) {
  // Fault-plan corruption throws aligned wild PCs into a window of
  // CorruptSpan instructions. One region covers half of that window and
  // one lies outside it, so wild PCs land in covered segments and in
  // uncovered ones, which count into the sink. Every count must match the
  // list, and the slot guard must never fire (ASan is the witness for the
  // writes).
  const Addr Wild = faults::CorruptBase + faults::CorruptSpan;
  const CodeMap Map(
      {{0x1000, 0x1100, "loopA"},
       {Wild, Wild + faults::CorruptSpan / 2 * InstrBytes, "wild"}});
  faults::FaultConfig FC;
  FC.CorruptRate = 0.5;
  const faults::FaultPlan Plan(/*PlanSeed=*/99, FC);
  faults::StreamFaultInjector Inj = Plan.forStream(0);
  RegionMonitor M(Map);
  for (int Interval = 0; Interval < 40; ++Interval) {
    std::vector<Sample> Clean;
    for (std::size_t I = 0; I < 512; ++I)
      Clean.push_back(Sample{0x1000 + 4 * (I % 0x40),
                             static_cast<Cycles>(100 * (I + 1)),
                             I % 3 == 0});
    observeAgainstList(M, Inj.apply(Clean));
    if (HasFatalFailure())
      return;
  }
  EXPECT_EQ(M.activeRegionCount(), 2u) << "the storm formed the wild region";
  EXPECT_GT(M.stats(1).TotalSamples, 0u);
  EXPECT_GT(Inj.stats().SamplesCorrupted, 0u);
  EXPECT_EQ(M.outOfRegionSamples(), 0u);
}

} // namespace
