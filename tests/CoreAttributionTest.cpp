//===- tests/CoreAttributionTest.cpp - Sample attribution -----------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Attribution.h"

#include "core/RegionMonitor.h"
#include "sampling/Sampler.h"
#include "sim/Engine.h"
#include "sim/ProgramCodeMap.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

using namespace regmon;
using namespace regmon::core;

namespace {

std::vector<RegionId> lookupSorted(const auto &A, Addr Pc) {
  std::vector<RegionId> Out;
  A.lookup(Pc, Out);
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// The structure a parameterized case runs against.
enum class Structure : std::uint8_t {
  List,
  IntervalTree,
};

/// Both structures behind one parameterized suite: every behavioural test
/// must hold for the list and the interval tree alike. Each body is a
/// generic lambda, so it calls the structure under test directly.
class AttributorTest : public ::testing::TestWithParam<Structure> {
protected:
  template <class BodyT> void run(BodyT Body) const {
    if (GetParam() == Structure::List) {
      ListAttributor A;
      Body(A);
    } else {
      IntervalTreeAttributor A;
      Body(A);
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
    A.lookup(0x150, Out);
    ASSERT_EQ(Out.size(), 2u);
    EXPECT_EQ(Out[0], 42u) << "existing contents preserved";
    EXPECT_EQ(Out[1], 7u);
  });
}

INSTANTIATE_TEST_SUITE_P(Kinds, AttributorTest,
                         ::testing::Values(Structure::List,
                                           Structure::IntervalTree),
                         [](const auto &Info) {
                           return Info.param == Structure::List
                                      ? "List"
                                      : "IntervalTree";
                         });

/// Property sweep: the two structures agree on random region sets with
/// interleaved removals.
class AttributorEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AttributorEquivalenceTest, ListAndTreeAgree) {
  Rng Random(GetParam());
  ListAttributor List;
  IntervalTreeAttributor Tree;
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
      Live.erase(Live.begin() + static_cast<std::ptrdiff_t>(Pick));
    } else {
      const Addr Start = Random.nextBelow(10'000) * 4;
      const Addr End = Start + (1 + Random.nextBelow(256)) * 4;
      List.insert(Op, Start, End);
      Tree.insert(Op, Start, End);
      Live.push_back(Entry{Op, Start, End});
    }
    ASSERT_EQ(List.size(), Tree.size());
    for (int Probe = 0; Probe < 10; ++Probe) {
      const Addr Pc = Random.nextBelow(42'000);
      ASSERT_EQ(lookupSorted(List, Pc), lookupSorted(Tree, Pc))
          << "pc " << Pc << " op " << Op;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AttributorEquivalenceTest,
                         ::testing::Range<std::uint64_t>(200, 210));

/// Fig. 16's inputs: a workload's final region set, nested loops included,
/// loaded into both structures, and every sample of its recorded stream
/// looked up through each.
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
    for (RegionId Id : Monitor.activeRegionIds()) {
      const Region &R = Monitor.regions()[Id];
      List.insert(Id, R.Start, R.End);
      Tree.insert(Id, R.Start, R.End);
    }
    ASSERT_GT(List.size(), 1u);

    std::uint64_t Hits = 0;
    for (const std::vector<Sample> &Interval : Stream)
      for (const Sample &S : Interval) {
        const std::vector<RegionId> Want = lookupSorted(List, S.Pc);
        ASSERT_EQ(lookupSorted(Tree, S.Pc), Want) << "pc " << S.Pc;
        Hits += Want.size();
      }
    EXPECT_GT(Hits, 0u);
  }
}

} // namespace
