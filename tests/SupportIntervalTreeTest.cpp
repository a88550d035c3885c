//===- tests/SupportIntervalTreeTest.cpp - Interval tree ------------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/IntervalTree.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

using namespace regmon;

namespace {

std::vector<std::uint32_t> stabSorted(const IntervalTree &T, Addr P) {
  std::vector<std::uint32_t> Out;
  T.stab(P, Out);
  std::sort(Out.begin(), Out.end());
  return Out;
}

TEST(IntervalTree, EmptyTree) {
  IntervalTree T;
  EXPECT_TRUE(T.empty());
  EXPECT_EQ(T.size(), 0u);
  EXPECT_TRUE(stabSorted(T, 100).empty());
  EXPECT_TRUE(T.checkInvariants());
}

TEST(IntervalTree, SingleInterval) {
  IntervalTree T;
  T.insert(100, 200, 7);
  EXPECT_EQ(T.size(), 1u);
  EXPECT_EQ(stabSorted(T, 100), std::vector<std::uint32_t>{7}); // inclusive
  EXPECT_EQ(stabSorted(T, 199), std::vector<std::uint32_t>{7});
  EXPECT_TRUE(stabSorted(T, 200).empty()); // exclusive end
  EXPECT_TRUE(stabSorted(T, 99).empty());
}

TEST(IntervalTree, OverlappingIntervalsAllReported) {
  IntervalTree T;
  T.insert(0, 1000, 1);  // outer
  T.insert(100, 200, 2); // nested
  T.insert(150, 300, 3); // straddles
  EXPECT_EQ(stabSorted(T, 160), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(stabSorted(T, 250), (std::vector<std::uint32_t>{1, 3}));
  EXPECT_EQ(stabSorted(T, 50), std::vector<std::uint32_t>{1});
}

TEST(IntervalTree, DuplicateIntervalsCoexist) {
  IntervalTree T;
  T.insert(10, 20, 1);
  T.insert(10, 20, 2);
  EXPECT_EQ(T.size(), 2u);
  EXPECT_EQ(stabSorted(T, 15), (std::vector<std::uint32_t>{1, 2}));
}

TEST(IntervalTree, EraseExactEntry) {
  IntervalTree T;
  T.insert(10, 20, 1);
  T.insert(10, 20, 2);
  EXPECT_TRUE(T.erase(10, 20, 1));
  EXPECT_EQ(stabSorted(T, 15), std::vector<std::uint32_t>{2});
  EXPECT_FALSE(T.erase(10, 20, 1)) << "already erased";
  EXPECT_FALSE(T.erase(11, 20, 2)) << "bounds must match exactly";
  EXPECT_TRUE(T.checkInvariants());
}

TEST(IntervalTree, ClearEmptiesTree) {
  IntervalTree T;
  for (std::uint32_t I = 0; I < 100; ++I)
    T.insert(I * 10, I * 10 + 5, I);
  T.clear();
  EXPECT_TRUE(T.empty());
  EXPECT_TRUE(stabSorted(T, 42).empty());
  T.insert(1, 2, 9);
  EXPECT_EQ(T.size(), 1u);
}

TEST(IntervalTree, MoveTransfersContents) {
  IntervalTree T;
  T.insert(5, 10, 3);
  IntervalTree U = std::move(T);
  EXPECT_EQ(stabSorted(U, 7), std::vector<std::uint32_t>{3});
}

TEST(IntervalTree, SortedAscendingInsertStaysBalanced) {
  IntervalTree T;
  for (std::uint32_t I = 0; I < 4096; ++I)
    T.insert(I * 8, I * 8 + 4, I);
  EXPECT_TRUE(T.checkInvariants()) << "AVL balance violated";
  EXPECT_EQ(stabSorted(T, 8 * 1000 + 2), std::vector<std::uint32_t>{1000});
}

TEST(IntervalTree, EntriesReturnsAllInStartOrder) {
  IntervalTree T;
  T.insert(30, 40, 3);
  T.insert(10, 20, 1);
  T.insert(20, 30, 2);
  const auto Entries = T.entries();
  ASSERT_EQ(Entries.size(), 3u);
  EXPECT_EQ(Entries[0].Start, 10u);
  EXPECT_EQ(Entries[1].Start, 20u);
  EXPECT_EQ(Entries[2].Start, 30u);
}

TEST(IntervalTree, EmptyTreeBoundaryQueries) {
  IntervalTree T;
  EXPECT_TRUE(stabSorted(T, 0).empty());
  EXPECT_TRUE(stabSorted(T, ~Addr{0}).empty());
  std::vector<std::uint32_t> Visits;
  T.stab(42, Visits);
  EXPECT_EQ(Visits.size(), 0u);
  EXPECT_FALSE(T.erase(0, 1, 0)) << "nothing to erase in an empty tree";
  EXPECT_TRUE(T.checkInvariants());
}

TEST(IntervalTree, FullyOverlappingRegionsAllReported) {
  // Identical spans plus concentric nesting: a stab in the common core
  // reports every region, as overlapping-region attribution requires.
  IntervalTree T;
  for (std::uint32_t I = 0; I < 8; ++I)
    T.insert(100, 200, I); // eight identical spans
  for (std::uint32_t I = 0; I < 4; ++I)
    T.insert(100 + 10 * I, 200 - 10 * I, 8 + I); // concentric shells
  std::vector<std::uint32_t> Want;
  for (std::uint32_t I = 0; I < 12; ++I)
    Want.push_back(I);
  EXPECT_EQ(stabSorted(T, 150), Want);
  // Outside the innermost shell only the enclosing ones remain.
  EXPECT_EQ(stabSorted(T, 105),
            (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_TRUE(T.checkInvariants());
}

TEST(IntervalTree, PointIntervalBoundaries) {
  // The narrowest legal interval is one instruction wide: [lo, lo + 1).
  // Its single point stabs; both neighbours miss.
  IntervalTree T;
  T.insert(100, 101, 1);
  EXPECT_EQ(stabSorted(T, 100), std::vector<std::uint32_t>{1});
  EXPECT_TRUE(stabSorted(T, 99).empty());
  EXPECT_TRUE(stabSorted(T, 101).empty());

  // Adjacent point intervals tile without overlap: lo == hi of the
  // previous interval belongs to the next one only.
  T.insert(101, 102, 2);
  EXPECT_EQ(stabSorted(T, 101), std::vector<std::uint32_t>{2});
  EXPECT_EQ(stabSorted(T, 100), std::vector<std::uint32_t>{1});
  EXPECT_TRUE(stabSorted(T, 102).empty());
  EXPECT_TRUE(T.checkInvariants());
}

#ifndef NDEBUG
TEST(IntervalTreeDeathTest, DegenerateEmptyIntervalRejected) {
  // lo == hi denotes an empty half-open interval; the tree's contract
  // (Start < End) rejects it rather than storing an unstabbable entry.
  IntervalTree T;
  EXPECT_DEATH_IF_SUPPORTED(T.insert(100, 100, 1), "non-empty");
}
#endif

/// Property sweep: against a naive reference over random interval sets,
/// with interleaved random erasures, every stab agrees and the AVL/max-end
/// invariants hold throughout.
class IntervalTreeFuzzTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(IntervalTreeFuzzTest, MatchesNaiveReference) {
  Rng Random(GetParam());
  IntervalTree T;
  struct Ref {
    Addr Start, End;
    std::uint32_t Value;
  };
  std::vector<Ref> Reference;

  const std::size_t Ops = 400;
  for (std::size_t Op = 0; Op < Ops; ++Op) {
    const bool Erase = !Reference.empty() && Random.nextBelow(4) == 0;
    if (Erase) {
      const std::size_t Pick = Random.nextBelow(Reference.size());
      const Ref R = Reference[Pick];
      ASSERT_TRUE(T.erase(R.Start, R.End, R.Value));
      Reference.erase(Reference.begin() +
                      static_cast<std::ptrdiff_t>(Pick));
    } else {
      const Addr Start = Random.nextBelow(1000);
      const Addr End = Start + 1 + Random.nextBelow(200);
      const auto Value = static_cast<std::uint32_t>(Op);
      T.insert(Start, End, Value);
      Reference.push_back(Ref{Start, End, Value});
    }
    ASSERT_TRUE(T.checkInvariants()) << "after op " << Op;
    ASSERT_EQ(T.size(), Reference.size());

    // Probe a few random points.
    for (int Probe = 0; Probe < 8; ++Probe) {
      const Addr P = Random.nextBelow(1300);
      std::vector<std::uint32_t> Expected;
      for (const Ref &R : Reference)
        if (P >= R.Start && P < R.End)
          Expected.push_back(R.Value);
      std::sort(Expected.begin(), Expected.end());
      ASSERT_EQ(stabSorted(T, P), Expected) << "point " << P;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalTreeFuzzTest,
                         ::testing::Range<std::uint64_t>(100, 112));

} // namespace
