//===- tests/FleetTest.cpp - Fleet summary algebra and tree rollups -------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The fleet layer's correctness core: the FleetSummary join-semilattice
// (associativity / commutativity / idempotence over random permutations
// and merge-tree shapes), the wire codec's bit-stability and trust
// boundary, the deterministic topology builder, and the differential
// proof that a fault-free aggregation tree rolls up bit-identically to a
// flat single-service reference. Degraded views are checked down to the
// integer: coverage fractions and staleness are recomputed independently
// from the root state and must match exactly.
//
//===----------------------------------------------------------------------===//

#include "fleet/Codec.h"
#include "fleet/FleetFaultPlan.h"
#include "fleet/FleetTree.h"
#include "fleet/Summary.h"

#include "service/MonitorService.h"
#include "sim/Engine.h"
#include "sim/ProgramCodeMap.h"
#include "sampling/Sampler.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <vector>

using namespace regmon;
using namespace regmon::fleet;

namespace {

//===----------------------------------------------------------------------===//
// Summary algebra
//===----------------------------------------------------------------------===//

/// A leaf summary whose content is a pure function of (leaf, epoch) --
/// exactly the real fleet's invariant (a leaf emits one summary per
/// epoch; duplicates and stale replays carry identical bytes). The
/// semilattice laws only hold under that invariant, so the generator
/// must honor it too.
LeafSummary summaryFor(LeafId Leaf, std::uint64_t Epoch) {
  Rng R(0x5eedULL + Leaf * 977 + Epoch * 131071);
  LeafSummary S;
  S.Leaf = Leaf;
  S.Epoch = Epoch;
  S.Stats.Streams = 1 + R.nextBelow(4);
  S.Stats.BatchesProcessed = R.nextBelow(100);
  S.Stats.Intervals = R.nextBelow(1000);
  S.Stats.PhaseChanges = R.nextBelow(50);
  S.Stats.FormationTriggers = R.nextBelow(20);
  S.Stats.ActiveRegions = R.nextBelow(10);
  S.Stats.StableRegions = R.nextBelow(5);
  S.Stats.TotalSamples = R.nextBelow(100000);
  S.Stats.UcrSamples = R.nextBelow(1000);
  S.Stats.QuarantinedStreams = R.nextBelow(2);
  S.Stats.Crashes = R.nextBelow(3);
  S.StableHist = MergeableHistogram(stableFractionBounds());
  const std::uint64_t Obs = R.nextBelow(12);
  for (std::uint64_t I = 0; I < Obs; ++I)
    S.StableHist.add(R.nextDouble() * 1.2);
  S.TopK = TopKSketch(4);
  const std::uint64_t K = R.nextBelow(8);
  for (std::uint64_t I = 0; I < K; ++I)
    S.TopK.add({static_cast<std::uint32_t>(Leaf * 8 + R.nextBelow(6)),
                static_cast<std::uint32_t>(R.nextBelow(4)),
                R.nextBelow(30)});
  return S;
}

/// A random batch of (leaf, epoch) summaries, repetition allowed -- a
/// repeated pair models a duplicated / replayed message.
std::vector<LeafSummary> randomBatch(Rng &R, std::size_t N) {
  std::vector<LeafSummary> Out;
  Out.reserve(N);
  for (std::size_t I = 0; I < N; ++I)
    Out.push_back(summaryFor(static_cast<LeafId>(R.nextBelow(6)),
                             1 + R.nextBelow(10)));
  return Out;
}

/// Folds \p Parts with a random binary merge tree: a random split point,
/// recurse on both halves, join. Every shape must agree with every other.
FleetSummary mergeTree(Rng &R, std::span<const LeafSummary> Parts) {
  if (Parts.size() == 1) {
    FleetSummary S;
    S.absorb(Parts[0]);
    return S;
  }
  const std::size_t Split = 1 + R.nextBelow(Parts.size() - 1);
  FleetSummary Left = mergeTree(R, Parts.subspan(0, Split));
  FleetSummary Right = mergeTree(R, Parts.subspan(Split));
  Left.merge(Right);
  return Left;
}

TEST(FleetSummaryAlgebra, MergeAgreesOverPermutationsAndTreeShapes) {
  Rng R(101);
  for (int Trial = 0; Trial < 20; ++Trial) {
    std::vector<LeafSummary> Batch = randomBatch(R, 2 + R.nextBelow(14));

    // Reference: absorb one by one, left to right.
    FleetSummary Ref;
    for (const LeafSummary &S : Batch)
      Ref.absorb(S);
    const std::vector<std::uint8_t> RefBytes = Codec::encodeState(Ref);

    for (int Shuffle = 0; Shuffle < 8; ++Shuffle) {
      std::vector<LeafSummary> Perm = Batch;
      for (std::size_t I = Perm.size(); I > 1; --I)
        std::swap(Perm[I - 1], Perm[R.nextBelow(I)]);
      const FleetSummary Merged = mergeTree(R, Perm);
      ASSERT_EQ(Merged, Ref) << "trial " << Trial << " shuffle " << Shuffle;
      ASSERT_EQ(Codec::encodeState(Merged), RefBytes);
    }
  }
}

TEST(FleetSummaryAlgebra, MergeIsIdempotent) {
  Rng R(202);
  for (int Trial = 0; Trial < 10; ++Trial) {
    std::vector<LeafSummary> Batch = randomBatch(R, 6);
    FleetSummary A;
    for (const LeafSummary &S : Batch)
      A.absorb(S);
    FleetSummary Twice = A;
    Twice.merge(A);
    EXPECT_EQ(Twice, A);
    // Re-absorbing every element changes nothing either.
    for (const LeafSummary &S : Batch)
      Twice.absorb(S);
    EXPECT_EQ(Twice, A);
  }
}

TEST(FleetSummaryAlgebra, AbsorbKeepsOnlyFresherEntries) {
  FleetSummary S;
  EXPECT_TRUE(S.absorb(summaryFor(3, 5)));
  EXPECT_EQ(S.size(), 1u);

  // Staler and equal-epoch entries are ignored.
  EXPECT_FALSE(S.absorb(summaryFor(3, 4)));
  EXPECT_FALSE(S.absorb(summaryFor(3, 5)));
  EXPECT_EQ(S.find(3)->Epoch, 5u);

  // A fresher entry replaces in place.
  EXPECT_TRUE(S.absorb(summaryFor(3, 9)));
  EXPECT_EQ(S.size(), 1u);
  EXPECT_EQ(S.find(3)->Epoch, 9u);

  // Entries stay sorted by leaf id whatever the insertion order.
  EXPECT_TRUE(S.absorb(summaryFor(7, 2)));
  EXPECT_TRUE(S.absorb(summaryFor(0, 1)));
  ASSERT_EQ(S.size(), 3u);
  EXPECT_EQ(S.entries()[0].Leaf, 0u);
  EXPECT_EQ(S.entries()[1].Leaf, 3u);
  EXPECT_EQ(S.entries()[2].Leaf, 7u);
  EXPECT_EQ(S.find(1), nullptr);
}

TEST(FleetSummaryAlgebra, TopKMergeIsAssociativeUnderTruncation) {
  // Early truncation must agree with late truncation, including when the
  // same key appears on several sides (max-on-collision). Exhaustively
  // random: sketches of capacity 3 over a tiny colliding key space.
  Rng R(303);
  auto randomSketch = [&R] {
    TopKSketch S(3);
    const std::uint64_t N = R.nextBelow(7);
    for (std::uint64_t I = 0; I < N; ++I)
      S.add({static_cast<std::uint32_t>(R.nextBelow(3)),
             static_cast<std::uint32_t>(R.nextBelow(2)), R.nextBelow(9)});
    return S;
  };
  for (int Trial = 0; Trial < 200; ++Trial) {
    const TopKSketch A = randomSketch(), B = randomSketch(),
                     C = randomSketch();
    TopKSketch Left = A; // (A . B) . C
    Left.merge(B);
    Left.merge(C);
    TopKSketch Right = B; // A . (B . C)
    Right.merge(C);
    TopKSketch RightFull = A;
    RightFull.merge(Right);
    ASSERT_EQ(Left, RightFull) << "trial " << Trial;

    TopKSketch Comm = B; // B . A == A . B
    Comm.merge(A);
    TopKSketch Fwd = A;
    Fwd.merge(B);
    ASSERT_EQ(Comm, Fwd);

    TopKSketch Idem = A; // A . A == A
    Idem.merge(A);
    ASSERT_EQ(Idem, A);
  }
}

TEST(FleetSummaryAlgebra, TopKKeepsCanonicalOrderAndCapacity) {
  TopKSketch S(2);
  S.add({1, 1, 5});
  S.add({2, 2, 9});
  S.add({3, 3, 7}); // evicts (1, 1, 5)
  ASSERT_EQ(S.entries().size(), 2u);
  EXPECT_EQ(S.entries()[0], (TopKEntry{2, 2, 9}));
  EXPECT_EQ(S.entries()[1], (TopKEntry{3, 3, 7}));

  // Equal counts rank by ascending (stream, region).
  TopKSketch T(3);
  T.add({5, 0, 4});
  T.add({1, 9, 4});
  T.add({1, 2, 4});
  EXPECT_EQ(T.entries()[0], (TopKEntry{1, 2, 4}));
  EXPECT_EQ(T.entries()[1], (TopKEntry{1, 9, 4}));
  EXPECT_EQ(T.entries()[2], (TopKEntry{5, 0, 4}));

  // Max-on-collision refreshes, never sums.
  TopKSketch U(2);
  U.add({1, 1, 5});
  U.add({1, 1, 3});
  ASSERT_EQ(U.entries().size(), 1u);
  EXPECT_EQ(U.entries()[0].PhaseChanges, 5u);
}

TEST(FleetSummaryAlgebra, HistogramMergeIsElementwiseAddition) {
  MergeableHistogram A({0.5, 1.0});
  A.add(0.25); // bucket 0 (x <= 0.5)
  A.add(0.5);  // bucket 0 (inclusive upper bound)
  A.add(0.75); // bucket 1
  A.add(2.0);  // +Inf bucket
  ASSERT_EQ(A.counts().size(), 3u);
  EXPECT_EQ(A.counts()[0], 2u);
  EXPECT_EQ(A.counts()[1], 1u);
  EXPECT_EQ(A.counts()[2], 1u);
  EXPECT_EQ(A.total(), 4u);

  MergeableHistogram B({0.5, 1.0});
  B.add(0.1);
  B.add(5.0);
  MergeableHistogram M = A;
  M.merge(B);
  EXPECT_EQ(M.counts()[0], 3u);
  EXPECT_EQ(M.counts()[1], 1u);
  EXPECT_EQ(M.counts()[2], 2u);
  EXPECT_EQ(M.total(), 6u);

  // A default-constructed histogram is the merge identity on both sides.
  MergeableHistogram Empty;
  MergeableHistogram L = Empty;
  L.merge(A);
  EXPECT_EQ(L, A);
  MergeableHistogram Rt = A;
  Rt.merge(Empty);
  EXPECT_EQ(Rt, A);
}

TEST(FleetSummaryAlgebra, RollupFiltersByMinEpochExactly) {
  FleetSummary S;
  S.absorb(summaryFor(0, 2));
  S.absorb(summaryFor(1, 5));
  S.absorb(summaryFor(2, 9));

  const FleetRollup All = rollup(S, 0, stableFractionBounds(), 4);
  LeafStats Expected;
  for (const LeafSummary &E : S.entries())
    Expected.merge(E.Stats);
  EXPECT_EQ(All.Totals, Expected);

  const FleetRollup Fresh = rollup(S, 5, stableFractionBounds(), 4);
  LeafStats ExpectedFresh;
  ExpectedFresh.merge(S.find(1)->Stats);
  ExpectedFresh.merge(S.find(2)->Stats);
  EXPECT_EQ(Fresh.Totals, ExpectedFresh);
  EXPECT_EQ(Fresh.StableHist.total(),
            S.find(1)->StableHist.total() + S.find(2)->StableHist.total());

  const FleetRollup None = rollup(S, 10, stableFractionBounds(), 4);
  EXPECT_EQ(None.Totals, LeafStats{});
  EXPECT_EQ(None.StableHist.total(), 0u);
  EXPECT_TRUE(None.TopK.entries().empty());
}

//===----------------------------------------------------------------------===//
// Wire codec
//===----------------------------------------------------------------------===//

TEST(FleetCodec, EveryTypeRoundTripsBitStably) {
  const LeafSummary S = summaryFor(4, 7);

  persist::ByteWriter W1;
  Codec::encode(W1, S.Stats);
  const std::vector<std::uint8_t> B1 = W1.take();
  persist::ByteReader R1(B1);
  LeafStats Stats;
  ASSERT_TRUE(Codec::decode(R1, Stats));
  EXPECT_EQ(Stats, S.Stats);

  persist::ByteWriter W2;
  Codec::encode(W2, S.StableHist);
  const std::vector<std::uint8_t> B2 = W2.take();
  persist::ByteReader R2(B2);
  MergeableHistogram H;
  ASSERT_TRUE(Codec::decode(R2, H));
  EXPECT_EQ(H, S.StableHist);

  persist::ByteWriter W3;
  Codec::encode(W3, S.TopK);
  const std::vector<std::uint8_t> B3 = W3.take();
  persist::ByteReader R3(B3);
  TopKSketch K;
  ASSERT_TRUE(Codec::decode(R3, K));
  EXPECT_EQ(K, S.TopK);

  // Message and state round-trips, and encode(decode(x)) == x in bytes.
  const std::vector<std::uint8_t> Msg = Codec::encodeMessage(S);
  const auto Decoded = Codec::decodeMessage(Msg);
  ASSERT_TRUE(Decoded.has_value());
  EXPECT_EQ(*Decoded, S);
  EXPECT_EQ(Codec::encodeMessage(*Decoded), Msg);

  FleetSummary Fleet;
  Fleet.absorb(summaryFor(0, 3));
  Fleet.absorb(summaryFor(4, 7));
  Fleet.absorb(summaryFor(9, 1));
  const std::vector<std::uint8_t> State = Codec::encodeState(Fleet);
  const auto DecodedState = Codec::decodeState(State);
  ASSERT_TRUE(DecodedState.has_value());
  EXPECT_EQ(*DecodedState, Fleet);
  EXPECT_EQ(Codec::encodeState(*DecodedState), State);

  // An empty state round-trips too (a virgin aggregator's checkpoint).
  const auto EmptyState = Codec::decodeState(Codec::encodeState({}));
  ASSERT_TRUE(EmptyState.has_value());
  EXPECT_TRUE(EmptyState->empty());
}

TEST(FleetCodec, MessageRejectsEveryTruncation) {
  const std::vector<std::uint8_t> Msg = Codec::encodeMessage(summaryFor(2, 4));
  for (std::size_t Len = 0; Len < Msg.size(); ++Len) {
    const std::span<const std::uint8_t> Prefix(Msg.data(), Len);
    EXPECT_FALSE(Codec::decodeMessage(Prefix).has_value())
        << "truncated at " << Len << " of " << Msg.size();
  }
  EXPECT_TRUE(Codec::decodeMessage(Msg).has_value());
}

TEST(FleetCodec, MessageRejectsTrailingBytesAndWrongVersion) {
  std::vector<std::uint8_t> Msg = Codec::encodeMessage(summaryFor(1, 1));
  std::vector<std::uint8_t> Trailing = Msg;
  Trailing.push_back(0);
  EXPECT_FALSE(Codec::decodeMessage(Trailing).has_value());

  std::vector<std::uint8_t> Wrong = Msg;
  Wrong[0] ^= 0xff; // little-endian u32 version prefix
  EXPECT_FALSE(Codec::decodeMessage(Wrong).has_value());
  EXPECT_FALSE(Codec::decodeState(Wrong).has_value());
}

TEST(FleetCodec, StateRejectsUnsortedLeafIds) {
  // Handcraft a state whose entries arrive in descending leaf order --
  // a canonical encoder can never produce it, so decode must refuse.
  persist::ByteWriter W;
  W.u32(Codec::Version);
  W.u64(2);
  Codec::encode(W, summaryFor(7, 1));
  Codec::encode(W, summaryFor(3, 1));
  EXPECT_FALSE(Codec::decodeState(W.take()).has_value());

  persist::ByteWriter Dup;
  Dup.u32(Codec::Version);
  Dup.u64(2);
  Codec::encode(Dup, summaryFor(3, 1));
  Codec::encode(Dup, summaryFor(3, 2));
  EXPECT_FALSE(Codec::decodeState(Dup.take()).has_value());
}

TEST(FleetCodec, TopKRejectsNonCanonicalOrderAndOverCapacity) {
  auto sketchBytes = [](std::uint32_t Cap,
                        std::span<const TopKEntry> Entries) {
    persist::ByteWriter W;
    W.u32(Cap);
    W.u64(Entries.size());
    for (const TopKEntry &E : Entries) {
      W.u32(E.Stream);
      W.u32(E.Region);
      W.u64(E.PhaseChanges);
    }
    return W.take();
  };
  auto decodes = [](std::span<const std::uint8_t> Bytes) {
    persist::ByteReader R(Bytes);
    TopKSketch S;
    return Codec::decode(R, S) && R.atEnd();
  };

  const TopKEntry Sorted[] = {{0, 0, 9}, {1, 1, 5}};
  EXPECT_TRUE(decodes(sketchBytes(4, Sorted)));

  const TopKEntry Reversed[] = {{1, 1, 5}, {0, 0, 9}};
  EXPECT_FALSE(decodes(sketchBytes(4, Reversed)));

  const TopKEntry Duplicate[] = {{1, 1, 5}, {1, 1, 5}};
  EXPECT_FALSE(decodes(sketchBytes(4, Duplicate)));

  const TopKEntry Three[] = {{0, 0, 9}, {1, 1, 5}, {2, 2, 1}};
  EXPECT_FALSE(decodes(sketchBytes(2, Three))); // count beyond capacity
}

TEST(FleetCodec, HistogramRejectsInconsistentShapes) {
  auto decodes = [](persist::ByteWriter &W) {
    const std::vector<std::uint8_t> Bytes = W.take();
    persist::ByteReader R(Bytes);
    MergeableHistogram H;
    return Codec::decode(R, H) && R.atEnd();
  };
  const double Ascending[] = {0.5, 1.0};
  const double Descending[] = {1.0, 0.5};

  persist::ByteWriter Good;
  MergeableHistogram H({0.5, 1.0});
  H.add(0.2);
  Codec::encode(Good, H);
  EXPECT_TRUE(decodes(Good));

  // Bucket count must be bounds + 1.
  persist::ByteWriter BadCount;
  const std::uint64_t TwoBuckets[] = {1, 0};
  BadCount.vecF64(Ascending);
  BadCount.vecU64(TwoBuckets);
  BadCount.u64(1);
  EXPECT_FALSE(decodes(BadCount));

  // Counts must sum to the declared total.
  persist::ByteWriter BadTotal;
  const std::uint64_t ThreeBuckets[] = {1, 0, 0};
  BadTotal.vecF64(Ascending);
  BadTotal.vecU64(ThreeBuckets);
  BadTotal.u64(7);
  EXPECT_FALSE(decodes(BadTotal));

  // Bounds must ascend.
  persist::ByteWriter BadBounds;
  BadBounds.vecF64(Descending);
  BadBounds.vecU64(ThreeBuckets);
  BadBounds.u64(1);
  EXPECT_FALSE(decodes(BadBounds));
}

//===----------------------------------------------------------------------===//
// Topology
//===----------------------------------------------------------------------===//

TEST(FleetTopologyShape, BuildsDenseBottomUpTreesForAnyShape) {
  for (std::uint32_t Leaves = 1; Leaves <= 17; ++Leaves) {
    for (std::uint32_t Fanout = 2; Fanout <= 5; ++Fanout) {
      const FleetTopology T = FleetTopology::build(Leaves, Fanout);
      ASSERT_EQ(T.leaves(), Leaves);
      ASSERT_FALSE(T.aggs().empty());

      // Exactly one root, and it covers every leaf exactly once.
      const FleetTopology::AggNode &Root = T.aggs()[T.root()];
      EXPECT_EQ(Root.Parent, NoNode);
      std::vector<LeafId> Covered = Root.LeavesUnder;
      std::sort(Covered.begin(), Covered.end());
      ASSERT_EQ(Covered.size(), Leaves);
      for (std::uint32_t L = 0; L < Leaves; ++L)
        EXPECT_EQ(Covered[L], L);

      std::uint32_t Roots = 0;
      for (std::uint32_t I = 0; I < T.aggs().size(); ++I) {
        const FleetTopology::AggNode &N = T.aggs()[I];
        EXPECT_EQ(N.Id, I); // dense ids in construction order
        if (N.Parent == NoNode)
          ++Roots;
        else {
          EXPECT_GT(N.Parent, N.Id); // ids ascend with level (bottom-up)
          const auto &Sib = T.aggs()[N.Parent].ChildAggs;
          EXPECT_NE(std::find(Sib.begin(), Sib.end(), N.Id), Sib.end());
        }
        if (N.Level == 1) {
          EXPECT_TRUE(N.ChildAggs.empty());
          EXPECT_FALSE(N.ChildLeaves.empty());
          EXPECT_LE(N.ChildLeaves.size(), std::size_t{Fanout});
          for (LeafId L : N.ChildLeaves)
            EXPECT_EQ(T.parentOfLeaf(L), N.Id);
        } else {
          EXPECT_TRUE(N.ChildLeaves.empty());
          EXPECT_LE(N.ChildAggs.size(), std::size_t{Fanout});
        }
      }
      EXPECT_EQ(Roots, 1u);
      EXPECT_EQ(T.aggs()[T.root()].Level, T.levels());

      // Link ids are dense and collision-free by construction.
      EXPECT_EQ(T.leafLink(Leaves - 1), Leaves - 1);
      EXPECT_EQ(T.aggLink(0), Leaves);
    }
  }
}

//===----------------------------------------------------------------------===//
// Differential: tree rollup == flat single-service reference
//===----------------------------------------------------------------------===//

/// The flat reference: one Inline MonitorService carrying every fleet
/// stream, fed the byte-identical sample batches (same workload, same
/// per-stream engine seeds), summarized per leaf range with the same
/// shared buildLeafSummary the tree's leaves use.
FleetSummary flatReference(const FleetSimConfig &Cfg, std::uint64_t Epochs) {
  struct FlatStream {
    explicit FlatStream(const FleetSimConfig &Cfg, std::uint64_t Global)
        : W(workloads::make(Cfg.Workload)), Map(W.Prog),
          Eng(W.Prog, W.Script, Cfg.Seed + Global),
          Smp(Eng, {Cfg.PeriodCycles, 2032}) {}
    workloads::Workload W;
    sim::ProgramCodeMap Map;
    sim::Engine Eng;
    sampling::Sampler Smp;
    bool Ended = false;
  };

  const std::uint32_t NumStreams = Cfg.Leaves * Cfg.StreamsPerLeaf;
  std::vector<std::unique_ptr<FlatStream>> Streams;
  Streams.reserve(NumStreams);
  for (std::uint32_t G = 0; G < NumStreams; ++G)
    Streams.push_back(std::make_unique<FlatStream>(Cfg, G));

  service::ServiceConfig SC;
  SC.Workers = 1;
  SC.QueueCapacity = 8;
  SC.Inline = true;
  service::MonitorService Svc(SC);
  for (const auto &S : Streams)
    Svc.addStream(S->Map);
  Svc.start();

  std::vector<Sample> Buffer;
  for (std::uint64_t E = 0; E < Epochs; ++E) {
    for (std::uint32_t G = 0; G < NumStreams; ++G) {
      FlatStream &S = *Streams[G];
      for (std::uint32_t B = 0; B < Cfg.BatchesPerEpoch; ++B) {
        if (S.Ended)
          break;
        if (!S.Smp.fillBuffer(Buffer)) {
          S.Ended = true;
          break;
        }
        Svc.submit({G, Buffer});
      }
    }
  }

  FleetSummary Ref;
  for (std::uint32_t L = 0; L < Cfg.Leaves; ++L)
    Ref.absorb(buildLeafSummary(Svc, L, Epochs,
                                /*FirstStream=*/L * Cfg.StreamsPerLeaf,
                                Cfg.StreamsPerLeaf,
                                /*FirstGlobalStream=*/L * Cfg.StreamsPerLeaf,
                                stableFractionBounds(), TopKCapacity,
                                /*Crashes=*/0));
  Svc.stop();
  return Ref;
}

TEST(FleetDifferential, FaultFreeTreeMatchesFlatSingleService) {
  FleetSimConfig Cfg;
  Cfg.Leaves = 5;
  Cfg.Fanout = 2; // three aggregation levels over five leaves
  Cfg.StreamsPerLeaf = 2;
  Cfg.BatchesPerEpoch = 2;
  Cfg.Seed = 11;
  const std::uint64_t Epochs = 6;

  FleetSim Sim(Cfg, FleetFaultPlan(1));
  ASSERT_EQ(Sim.topology().levels(), 3u);
  Sim.run(Epochs);

  const FleetSummary Ref = flatReference(Cfg, Epochs);
  ASSERT_EQ(Ref.size(), Cfg.Leaves);

  // The acceptance bar: bit-identical, not merely equal.
  EXPECT_EQ(Sim.rootState(), Ref);
  EXPECT_EQ(Codec::encodeState(Sim.rootState()), Codec::encodeState(Ref));

  const FleetView V = Sim.view();
  EXPECT_EQ(V.LeavesPresent, Cfg.Leaves);
  EXPECT_EQ(V.LeavesExpired, 0u);
  EXPECT_EQ(V.MaxStaleness, 0u);
  EXPECT_DOUBLE_EQ(V.coverage(), 1.0);
  EXPECT_GT(V.Rollup.Totals.Intervals, 0u);
  EXPECT_EQ(V.Rollup.Totals.Crashes, 0u);
  EXPECT_EQ(V.Rollup.Totals.Streams,
            std::uint64_t{Cfg.Leaves} * Cfg.StreamsPerLeaf);

  // Every interior node, not just the root, converged on full coverage.
  for (const FleetTopology::AggNode &N : Sim.topology().aggs())
    EXPECT_EQ(Sim.aggStats(N.Id).DecodeFailures, 0u);
}

//===----------------------------------------------------------------------===//
// Degraded views: exact coverage and staleness arithmetic
//===----------------------------------------------------------------------===//

TEST(FleetDegradation, DeterministicCrashScheduleYieldsExactViews) {
  // One leaf, certain crash rate: the schedule is exactly computable.
  // E1 crash (down until E4), E4 restart + emit, E5 crash (down until
  // E8), E8 restart + emit. Horizon 1 expires the E4 entry at E6.
  FleetSimConfig Cfg;
  Cfg.Leaves = 1;
  Cfg.Fanout = 2;
  Cfg.Seed = 5;
  FleetFaultConfig FC;
  FC.LeafCrashRate = 1.0;
  FC.LeafRestartEpochs = 3;
  FC.MaxStalenessEpochs = 1;
  FleetSim Sim(Cfg, FleetFaultPlan(9, FC));

  struct Expect {
    std::uint64_t Present, Expired, Staleness;
  };
  const Expect Timeline[] = {
      /*E1*/ {0, 0, 0}, /*E2*/ {0, 0, 0}, /*E3*/ {0, 0, 0},
      /*E4*/ {1, 0, 0}, /*E5*/ {1, 0, 1}, /*E6*/ {0, 1, 0},
      /*E7*/ {0, 1, 0}, /*E8*/ {1, 0, 0},
  };
  for (std::size_t E = 0; E < std::size(Timeline); ++E) {
    Sim.runEpoch();
    const FleetView V = Sim.view();
    ASSERT_EQ(V.Epoch, E + 1);
    EXPECT_EQ(V.LeavesTotal, 1u);
    EXPECT_EQ(V.LeavesPresent, Timeline[E].Present) << "epoch " << E + 1;
    EXPECT_EQ(V.LeavesExpired, Timeline[E].Expired) << "epoch " << E + 1;
    EXPECT_EQ(V.MaxStaleness, Timeline[E].Staleness) << "epoch " << E + 1;
    EXPECT_DOUBLE_EQ(V.coverage(), Timeline[E].Present ? 1.0 : 0.0);
    // An expired or absent leaf contributes nothing: the rollup is
    // exactly empty, never a stale approximation.
    if (Timeline[E].Present == 0) {
      EXPECT_EQ(V.Rollup.Totals, LeafStats{});
      EXPECT_EQ(V.Rollup.StableHist.total(), 0u);
    } else {
      EXPECT_GT(V.Rollup.Totals.Intervals, 0u);
    }
  }

  const LeafAgentStats &LS = Sim.leafStats(0);
  EXPECT_EQ(LS.Crashes, 2u);
  EXPECT_EQ(LS.Restores, 2u);
  EXPECT_EQ(LS.ColdRestores, 2u); // no persistence configured
  EXPECT_EQ(LS.EpochsDown, 6u);   // E1-3, E5-7
  EXPECT_EQ(LS.SummariesEmitted, 2u);
  EXPECT_EQ(LS.BatchesDiscarded, 6u * Cfg.BatchesPerEpoch);
  EXPECT_EQ(Sim.view().Rollup.Totals.Crashes, 2u);
}

TEST(FleetDegradation, ViewArithmeticMatchesRootStateUnderChaos) {
  // Under an arbitrary fault mix, every number in the view must be
  // re-derivable from the root state with integer arithmetic: coverage,
  // staleness, the subtree partition, and the rollup totals.
  FleetSimConfig Cfg;
  Cfg.Leaves = 9;
  Cfg.Fanout = 3;
  Cfg.Seed = 21;
  FleetFaultConfig FC;
  FC.LeafCrashRate = 0.3;
  FC.LeafRestartEpochs = 2;
  FC.AggStallRate = 0.2;
  FC.Transport = {0.1, 0.1, 0.1, 0.1};
  FC.MaxStalenessEpochs = 3;
  FleetSim Sim(Cfg, FleetFaultPlan(33, FC));

  for (int E = 0; E < 10; ++E) {
    Sim.runEpoch();
    const FleetView V = Sim.view();
    const FleetSummary &Root = Sim.rootState();
    const std::uint64_t MinEpoch =
        V.Epoch <= FC.MaxStalenessEpochs ? 0
                                         : V.Epoch - FC.MaxStalenessEpochs;

    std::uint64_t Present = 0, Expired = 0, Staleness = 0;
    LeafStats Totals;
    for (const LeafSummary &S : Root.entries()) {
      if (MinEpoch > 0 && S.Epoch < MinEpoch) {
        ++Expired;
        continue;
      }
      ++Present;
      Staleness = std::max(Staleness, V.Epoch - S.Epoch);
      Totals.merge(S.Stats);
    }
    EXPECT_EQ(V.LeavesPresent, Present);
    EXPECT_EQ(V.LeavesExpired, Expired);
    EXPECT_EQ(V.MaxStaleness, Staleness);
    EXPECT_EQ(V.Rollup.Totals, Totals);
    EXPECT_DOUBLE_EQ(V.coverage(), static_cast<double>(Present) /
                                       static_cast<double>(V.LeavesTotal));

    // The subtree rows partition the fleet exactly.
    std::uint64_t RowLeaves = 0, RowPresent = 0, RowStaleness = 0;
    for (const SubtreeView &Row : V.Subtrees) {
      RowLeaves += Row.LeavesExpected;
      RowPresent += Row.LeavesPresent;
      RowStaleness = std::max(RowStaleness, Row.MaxStaleness);
    }
    EXPECT_EQ(RowLeaves, V.LeavesTotal);
    EXPECT_EQ(RowPresent, V.LeavesPresent);
    EXPECT_EQ(RowStaleness, V.MaxStaleness);
  }
}

} // namespace
