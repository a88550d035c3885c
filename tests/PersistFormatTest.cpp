//===- tests/PersistFormatTest.cpp - Durability format tests --------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Format-level tests of the persist layer: the byte codec's trust boundary,
// the CRC implementation, the snapshot container (including an exhaustive
// truncation + bit-flip fuzz over every byte of a real snapshot), the
// migration chain, the write-ahead journal's torn-tail handling, the
// checkpoint manager's commit protocol under a swept crash budget, and the
// StateCodec bit-identity contract for every serialized class.
//
//===----------------------------------------------------------------------===//

#include "persist/Bytes.h"
#include "persist/Checkpoint.h"
#include "persist/Crc32.h"
#include "persist/Io.h"
#include "persist/Journal.h"
#include "persist/SampleBlock.h"
#include "persist/Snapshot.h"
#include "persist/StateCodec.h"

#include "core/RegionMonitor.h"
#include "faults/FaultPlan.h"
#include "sampling/AdaptiveController.h"
#include "sampling/Sampler.h"
#include "sim/Engine.h"
#include "sim/ProgramCodeMap.h"
#include "support/Rng.h"
#include "support/Statistics.h"
#include "workloads/Workloads.h"

#include "HugeSpan.h"
#include "WriteCalls.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

using namespace regmon;
using namespace regmon::persist;

namespace {

/// A fresh scratch directory under the gtest temp root, unique per call.
/// Wiped first: temp directories survive across test-binary runs, and an
/// append-mode journal must not inherit a previous run's records.
std::string scratchDir(const std::string &Tag) {
  static int Counter = 0;
  // The PID keeps concurrent test processes (e.g. parallel sanitizer
  // sweeps of the same binary) from wiping each other's scratch trees.
  const std::string Dir =
      ::testing::TempDir() + "regmon_persist_" + std::to_string(::getpid()) +
      "_" + Tag + "_" + std::to_string(Counter++);
  std::filesystem::remove_all(Dir);
  EXPECT_TRUE(ensureDir(Dir));
  return Dir;
}

/// Overwrites \p Path with \p Data (no crash injection).
void writeBytes(const std::string &Path, std::span<const std::uint8_t> Data) {
  FileSink Sink(Path, /*Append=*/false, nullptr);
  ASSERT_TRUE(Sink.write(Data));
  ASSERT_TRUE(Sink.close());
}

std::vector<std::uint8_t> mustRead(const std::string &Path) {
  const auto Data = readFileBytes(Path);
  EXPECT_TRUE(Data.has_value()) << Path;
  return Data.value_or(std::vector<std::uint8_t>{});
}

//===----------------------------------------------------------------------===//
// CRC-32
//===----------------------------------------------------------------------===//

std::vector<std::uint8_t> asBytes(std::string_view S) {
  return {S.begin(), S.end()};
}

TEST(PersistCrc32, KnownCheckValue) {
  // The standard CRC-32/IEEE check value: crc("123456789") == 0xCBF43926.
  EXPECT_EQ(crc32(asBytes("123456789")), 0xCBF43926U);
}

TEST(PersistCrc32, EmptyInputIsZero) {
  EXPECT_EQ(crc32(std::span<const std::uint8_t>{}), 0U);
}

TEST(PersistCrc32, ChainingMatchesConcatenation) {
  const std::vector<std::uint8_t> A = asBytes("regmon snapshot ");
  const std::vector<std::uint8_t> B = asBytes("journal payload");
  std::vector<std::uint8_t> AB = A;
  AB.insert(AB.end(), B.begin(), B.end());
  EXPECT_EQ(crc32(B, crc32(A)), crc32(AB));
  EXPECT_NE(crc32(A), crc32(B));
}

/// Bit-at-a-time CRC-32 over the reflected polynomial 0xEDB88320: the
/// definition both the table loop and the carry-less fold must reproduce.
std::uint32_t referenceCrc32(std::span<const std::uint8_t> Data,
                             std::uint32_t Seed) {
  std::uint32_t C = ~Seed;
  for (const std::uint8_t B : Data) {
    C ^= B;
    for (int K = 0; K < 8; ++K)
      C = (C >> 1) ^ (0xEDB88320U & (0U - (C & 1U)));
  }
  return ~C;
}

std::vector<std::uint8_t> randomBytes(std::uint64_t N, std::uint64_t Seed) {
  Rng R(Seed);
  std::vector<std::uint8_t> B(N);
  for (std::uint8_t &X : B)
    X = static_cast<std::uint8_t>(R.next() >> 56);
  return B;
}

TEST(PersistCrc32, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // Covers the fold's entry (64 bytes), every 16-byte bulk with every
  // tail of 0-15 bytes, and every misalignment of the unaligned loads.
  const std::vector<std::uint8_t> Buf = randomBytes(1100 + 15, 21);
  Rng Seeds(22);
  for (std::uint64_t Offset = 0; Offset < 16; ++Offset)
    for (std::uint64_t Len = 0; Len <= 1100; ++Len) {
      const std::span<const std::uint8_t> S(Buf.data() + Offset, Len);
      for (const std::uint32_t Seed :
           {std::uint32_t{0}, static_cast<std::uint32_t>(Seeds.next())}) {
        const std::uint32_t Want = referenceCrc32(S, Seed);
        ASSERT_EQ(crc32(S, Seed), Want)
            << "offset " << Offset << " length " << Len << " seed " << Seed;
        ASSERT_EQ(crc32Table(S, Seed), Want)
            << "offset " << Offset << " length " << Len << " seed " << Seed;
      }
    }
}

TEST(PersistCrc32, ChainingAtEverySplitMatchesWhole) {
  const std::vector<std::uint8_t> B = randomBytes(300, 23);
  const std::span<const std::uint8_t> All(B);
  const std::uint32_t Whole = crc32(All);
  ASSERT_EQ(crc32Table(All), Whole);
  for (std::uint64_t K = 0; K <= B.size(); ++K) {
    EXPECT_EQ(crc32(All.subspan(K), crc32(All.first(K))), Whole) << K;
    EXPECT_EQ(crc32Table(All.subspan(K), crc32Table(All.first(K))), Whole)
        << K;
  }
}

TEST(PersistCrc32, DispatchedMatchesTableOnLargeBuffers) {
  // 34,561 bytes is one 2032-sample record payload, the size the journal
  // and the flight recorder checksum per batch.
  for (const std::uint64_t Len :
       {std::uint64_t{34561}, std::uint64_t{65536 + 13},
        std::uint64_t{(1 << 20) + 5}}) {
    const std::vector<std::uint8_t> Buf = randomBytes(Len + 3, Len);
    for (const std::uint64_t Offset : {0, 3}) {
      const std::span<const std::uint8_t> S(Buf.data() + Offset, Len);
      EXPECT_EQ(crc32(S), crc32Table(S)) << Len << " at " << Offset;
      EXPECT_EQ(crc32(S, 0x1234ABCDU), crc32Table(S, 0x1234ABCDU))
          << Len << " at " << Offset;
    }
  }
}

//===----------------------------------------------------------------------===//
// ByteWriter / ByteReader
//===----------------------------------------------------------------------===//

TEST(PersistBytes, RoundTripAllFieldTypes) {
  ByteWriter W;
  W.u8(0xAB);
  W.u32(0xDEADBEEFU);
  W.u64(0x0123456789ABCDEFULL);
  W.f64(-0.1);
  W.boolean(true);
  W.boolean(false);
  W.str(std::string_view("hello\0world", 11)); // embedded NUL must survive
  const std::vector<std::uint32_t> V32 = {1, 0, 0xFFFFFFFFU};
  const std::vector<std::uint64_t> V64 = {42};
  const std::vector<double> VF = {std::sqrt(2.0), -0.0, 1e308};
  W.vecU32(V32);
  W.vecU64(V64);
  W.vecF64(VF);

  ByteReader R(W.data());
  EXPECT_EQ(R.u8(), 0xAB);
  EXPECT_EQ(R.u32(), 0xDEADBEEFU);
  EXPECT_EQ(R.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(R.f64()),
            std::bit_cast<std::uint64_t>(-0.1));
  EXPECT_TRUE(R.boolean());
  EXPECT_FALSE(R.boolean());
  std::string S;
  ASSERT_TRUE(R.str(S));
  EXPECT_EQ(S, std::string_view("hello\0world", 11));
  std::vector<std::uint32_t> O32;
  std::vector<std::uint64_t> O64;
  std::vector<double> OF;
  ASSERT_TRUE(R.vecU32(O32));
  ASSERT_TRUE(R.vecU64(O64));
  ASSERT_TRUE(R.vecF64(OF));
  EXPECT_EQ(O32, V32);
  EXPECT_EQ(O64, V64);
  ASSERT_EQ(OF.size(), VF.size());
  for (std::size_t I = 0; I < VF.size(); ++I)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(OF[I]),
              std::bit_cast<std::uint64_t>(VF[I]));
  EXPECT_TRUE(R.atEnd());
}

TEST(PersistBytes, ReaderFailsOnTruncationAndStaysFailed) {
  ByteWriter W;
  W.u32(7);
  ByteReader R(W.data());
  EXPECT_EQ(R.u64(), 0U); // only 4 bytes present
  EXPECT_FALSE(R.ok());
  // Sticky: even a 1-byte read now fails and yields zero.
  EXPECT_EQ(R.u8(), 0U);
  EXPECT_FALSE(R.atEnd());
}

TEST(PersistBytes, BooleanRejectsOutOfRangeEncoding) {
  const std::vector<std::uint8_t> Bad = {2};
  ByteReader R(Bad);
  (void)R.boolean();
  EXPECT_FALSE(R.ok());
}

TEST(PersistBytes, LengthPrefixesValidatedBeforeAllocation) {
  // A hostile length prefix (claiming ~2^61 elements against a 4-byte
  // buffer) must be rejected up front, not allocated.
  ByteWriter W;
  W.u64(0x2000000000000000ULL);
  W.u32(0);
  for (int Kind = 0; Kind < 4; ++Kind) {
    ByteReader R(W.data());
    bool Ok = true;
    switch (Kind) {
    case 0: {
      std::vector<std::uint32_t> Out;
      Ok = R.vecU32(Out);
      break;
    }
    case 1: {
      std::vector<std::uint64_t> Out;
      Ok = R.vecU64(Out);
      break;
    }
    case 2: {
      std::vector<double> Out;
      Ok = R.vecF64(Out);
      break;
    }
    case 3: {
      std::string Out;
      Ok = R.str(Out);
      break;
    }
    }
    EXPECT_FALSE(Ok) << "kind " << Kind;
  }
}

TEST(PersistBytes, AtEndRejectsTrailingBytes) {
  ByteWriter W;
  W.u32(1);
  W.u8(9);
  ByteReader R(W.data());
  (void)R.u32();
  EXPECT_FALSE(R.atEnd()); // one byte left over
  (void)R.u8();
  EXPECT_TRUE(R.atEnd());
}

//===----------------------------------------------------------------------===//
// File I/O
//===----------------------------------------------------------------------===//

TEST(PersistIo, ReadFileBytesReturnsExactContent) {
  // Empty, one byte, sizes around the 4 KiB chunks the read continues in
  // after its sized read, and one over 1 MiB.
  const std::string Dir = scratchDir("read_file_bytes");
  for (const std::uint64_t Size :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{4095},
        std::uint64_t{4096}, std::uint64_t{4097},
        std::uint64_t{(1 << 20) + 7}}) {
    SCOPED_TRACE(Size);
    const std::string Path = Dir + "/f" + std::to_string(Size);
    const std::vector<std::uint8_t> Want = randomBytes(Size, Size + 1);
    writeBytes(Path, Want);
    const auto Got = readFileBytes(Path);
    ASSERT_TRUE(Got.has_value());
    EXPECT_EQ(*Got, Want);
  }
  // Neither a missing path nor a directory is a file's bytes.
  EXPECT_FALSE(readFileBytes(Dir + "/missing").has_value());
  EXPECT_FALSE(readFileBytes(Dir).has_value());
}

//===----------------------------------------------------------------------===//
// Sample-block codec
//===----------------------------------------------------------------------===//

/// The differential oracle: the column layout built one byte at a time
/// by shifts, sharing nothing with the codec's width-specialized loops.
/// The widths are the least ones unless given, so the oracle also builds
/// the non-canonical blocks the decoder must refuse.
void referenceWord(std::vector<std::uint8_t> &Out, std::uint64_t V,
                   std::uint32_t Width) {
  for (std::uint32_t I = 0; I < Width; ++I)
    Out.push_back(static_cast<std::uint8_t>(V >> (8 * I)));
}

std::uint64_t referenceZigzag(std::uint64_t D) {
  const bool Negative = (D >> 63) != 0;
  return Negative ? ((~D) << 1) | 1 : D << 1;
}

std::uint32_t referenceBytesFor(std::uint64_t V) {
  std::uint32_t N = 0;
  while (V != 0) {
    ++N;
    V >>= 8;
  }
  return N;
}

struct ReferenceWidths {
  std::optional<std::uint32_t> Pc;
  std::optional<std::uint32_t> Time;
};

std::vector<std::uint8_t>
referenceSampleBlock(const std::vector<Sample> &S,
                     ReferenceWidths Force = {}) {
  std::vector<std::uint8_t> Out;
  const std::uint64_t N = S.size();
  referenceWord(Out, N, 8);
  if (N == 0)
    return Out;
  const std::uint64_t Stride = N > 1 ? S[1].Time - S[0].Time : 0;
  std::vector<std::uint64_t> Pcs, Times;
  for (std::uint64_t I = 1; I < N; ++I)
    Pcs.push_back(referenceZigzag(S[I].Pc - S[I - 1].Pc));
  for (std::uint64_t I = 2; I < N; ++I)
    Times.push_back(referenceZigzag(S[I].Time - S[I - 1].Time - Stride));
  std::uint32_t PcWidth = 0, TimeWidth = 0;
  for (const std::uint64_t V : Pcs)
    PcWidth = std::max(PcWidth, std::max(1U, referenceBytesFor(V)));
  for (const std::uint64_t V : Times)
    TimeWidth = std::max(TimeWidth, referenceBytesFor(V));
  PcWidth = Force.Pc.value_or(PcWidth);
  TimeWidth = Force.Time.value_or(TimeWidth);
  referenceWord(Out, S[0].Pc, 8);
  referenceWord(Out, S[0].Time, 8);
  referenceWord(Out, Stride, 8);
  Out.push_back(static_cast<std::uint8_t>(PcWidth));
  Out.push_back(static_cast<std::uint8_t>(TimeWidth));
  for (std::uint64_t Byte = 0; Byte * 8 < N; ++Byte) {
    std::uint8_t Bits = 0;
    for (std::uint64_t I = Byte * 8; I < std::min(N, Byte * 8 + 8); ++I)
      if (S[I].DCacheMiss)
        Bits = static_cast<std::uint8_t>(Bits | (1U << (I % 8)));
    Out.push_back(Bits);
  }
  for (const std::uint64_t V : Pcs)
    referenceWord(Out, V, PcWidth);
  for (const std::uint64_t V : Times)
    referenceWord(Out, V, TimeWidth);
  return Out;
}

/// \p N samples cycling Pc and Time (out of step) through the extreme and
/// alternating-byte words, with both miss flags: every difference wraps
/// somewhere, and both columns need all 8 bytes.
std::vector<Sample> patternSamples(std::uint64_t N) {
  constexpr std::uint64_t Words[] = {
      0, UINT64_MAX, 0xAA55AA55AA55AA55ULL, 0x55AA55AA55AA55AAULL,
      0x00FF00FF00FF00FFULL, 0xFF00FF00FF00FF00ULL, 0x0123456789ABCDEFULL};
  constexpr std::uint64_t NumWords = std::size(Words);
  std::vector<Sample> Out(N);
  for (std::uint64_t I = 0; I < N; ++I) {
    Out[I].Pc = Words[I % NumWords];
    Out[I].Time = Words[(I / NumWords + 3 * I + 1) % NumWords];
    Out[I].DCacheMiss = I % 3 == 0;
  }
  return Out;
}

/// A sampler-shaped run: the time advances by one period, nudged by
/// \p Jitter on every fifth sample, and the pc walks a small loop.
std::vector<Sample> loopSamples(std::uint64_t N, std::uint64_t Jitter) {
  std::vector<Sample> Out(N);
  for (std::uint64_t I = 0; I < N; ++I) {
    Out[I].Pc = 0x400000 + 4 * ((I * 7) % 40);
    Out[I].Time = 1000 + 45'000 * I + (I % 5 == 4 ? Jitter : 0);
    Out[I].DCacheMiss = I % 7 == 2;
  }
  return Out;
}

std::vector<std::uint8_t> encodeBlock(std::span<const Sample> Samples) {
  ByteWriter W;
  encodeSampleBlock(W, Samples);
  return W.take();
}

/// Decodes \p Bytes as exactly one block, the way both batch payloads
/// use the codec (the block ends the payload, so leftovers are an error).
bool decodeWholeBlock(std::span<const std::uint8_t> Bytes,
                      std::vector<Sample> &Out) {
  ByteReader R(Bytes);
  return decodeSampleBlock(R, Out) && R.atEnd();
}

/// The check-only pass over \p Bytes as one block.
bool checkWholeBlock(std::span<const std::uint8_t> Bytes) {
  ByteReader R(Bytes);
  return checkSampleBlock(R) && R.atEnd();
}

bool sameSamples(std::span<const Sample> A, std::span<const Sample> B) {
  return std::equal(A.begin(), A.end(), B.begin(), B.end(),
                    [](const Sample &X, const Sample &Y) {
                      return X.Pc == Y.Pc && X.Time == Y.Time &&
                             X.DCacheMiss == Y.DCacheMiss;
                    });
}

/// Encodes \p In, checks the bytes against the oracle, and requires the
/// decode and the check-only pass to accept them and give \p In back.
void expectExactRoundTrip(std::span<const Sample> In) {
  const std::vector<std::uint8_t> Bytes = encodeBlock(In);
  EXPECT_EQ(Bytes, referenceSampleBlock({In.begin(), In.end()}));
  std::vector<Sample> Out = patternSamples(3); // stale contents replaced
  ASSERT_TRUE(decodeWholeBlock(Bytes, Out));
  EXPECT_TRUE(sameSamples(Out, In));
  EXPECT_TRUE(checkWholeBlock(Bytes));
}

TEST(PersistSampleBlock, BulkEncoderMatchesPerFieldReferenceAndRoundTrips) {
  for (const std::uint64_t N : {0U, 1U, 2U, 3U, 9U, 2031U, 2032U}) {
    SCOPED_TRACE("samples " + std::to_string(N));
    expectExactRoundTrip(patternSamples(N));
    expectExactRoundTrip(loopSamples(N, 3));

    // Behind other fields, as in both batch payloads: the block lands at
    // the writer's current end.
    const std::vector<Sample> In = loopSamples(N, 0);
    const std::vector<std::uint8_t> Bytes = encodeBlock(In);
    ByteWriter Prefixed;
    Prefixed.u8(7);
    Prefixed.u32(0xDEADBEEFU);
    encodeSampleBlock(Prefixed, In);
    ASSERT_EQ(Prefixed.size(), 5 + Bytes.size());
    EXPECT_TRUE(std::equal(Bytes.begin(), Bytes.end(),
                           Prefixed.data().begin() + 5));
  }
}

TEST(PersistSampleBlock, GoldenLittleEndianBytes) {
  ByteWriter W;
  W.u32(0xDEADBEEFU);
  W.u64(0x0123456789ABCDEFULL);
  EXPECT_EQ(std::vector<std::uint8_t>(W.data().begin(), W.data().end()),
            (std::vector<std::uint8_t>{0xEF, 0xBE, 0xAD, 0xDE, 0xEF, 0xCD,
                                       0xAB, 0x89, 0x67, 0x45, 0x23, 0x01}));
  ByteReader R(W.data());
  EXPECT_EQ(R.u32(), 0xDEADBEEFU);
  EXPECT_EQ(R.u64(), 0x0123456789ABCDEFULL);
  EXPECT_TRUE(R.atEnd());

  // Four samples, one period (0x64) apart but for a 2-cycle late third
  // one; the pc steps +4, -8, +0x100.
  const std::vector<Sample> Four = {{0x1000, 0x10, true},
                                    {0x1004, 0x74, false},
                                    {0x0FFC, 0xDA, false},
                                    {0x10FC, 0x13E, true}};
  EXPECT_EQ(encodeBlock(Four),
            (std::vector<std::uint8_t>{
                0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // count
                0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // pc[0]
                0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // time[0]
                0x64, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // stride
                0x02, 0x01,                                     // widths
                0x09,                   // misses: samples 0 and 3
                0x08, 0x00,             // zigzag(+4)
                0x0F, 0x00,             // zigzag(-8)
                0x00, 0x02,             // zigzag(+0x100)
                0x04,                   // zigzag(+2): sample 2 is late
                0x00}));                // 0: sample 3 one period later
  const std::vector<Sample> One = {{UINT64_MAX, 7, true}};
  EXPECT_EQ(encodeBlock(One),
            (std::vector<std::uint8_t>{
                0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // count
                0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, // pc[0]
                0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // time[0]
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // stride
                0x00, 0x00, 0x01}));
  EXPECT_EQ(encodeBlock({}), std::vector<std::uint8_t>(8, 0));
}

/// Every workload's first 32 intervals at the paper's period (all of them
/// for the two synthetic programs that run 21), in the order the sampler
/// delivers them (computed once for the suite).
struct WorkloadCorpus {
  std::string Name;
  std::vector<std::vector<Sample>> Intervals;
};

const std::vector<WorkloadCorpus> &workloadCorpus() {
  static const std::vector<WorkloadCorpus> All = [] {
    std::vector<WorkloadCorpus> Out;
    std::uint64_t Seed = 11;
    for (const std::string &Name : workloads::allNames()) {
      const workloads::Workload W = workloads::make(Name);
      sim::Engine Engine(W.Prog, W.Script, Seed++);
      sampling::Sampler Sampler(Engine, {45'000, 2032});
      Out.push_back({Name, Sampler.collectIntervals(32)});
    }
    return Out;
  }();
  return All;
}

TEST(PersistSampleBlock, RoundTripsEveryWorkloadsFirst32Intervals) {
  ASSERT_EQ(workloadCorpus().size(), 31U);
  for (const WorkloadCorpus &C : workloadCorpus()) {
    SCOPED_TRACE(C.Name);
    EXPECT_GE(C.Intervals.size(), 21U);
    for (const std::vector<Sample> &Interval : C.Intervals)
      expectExactRoundTrip(Interval);
  }
}

TEST(PersistSampleBlock, RoundTripsFaultPlanStreams) {
  // Every sample- and batch-level fault the plan injects, poisoned
  // batches included: the journal records them before admission.
  faults::FaultConfig Cfg;
  Cfg.DropRate = 0.05;
  Cfg.DuplicateRate = 0.05;
  Cfg.CorruptRate = 0.05;
  Cfg.PeriodJitterFrac = 0.3;
  Cfg.TruncateRate = 0.2;
  Cfg.PoisonRate = 0.3;
  const faults::FaultPlan Plan(29, Cfg);
  std::uint64_t Poisoned = 0;
  for (const WorkloadCorpus &C : workloadCorpus()) {
    SCOPED_TRACE(C.Name);
    faults::StreamFaultInjector Inj =
        Plan.forStream(static_cast<std::uint32_t>(Poisoned));
    for (const std::vector<Sample> &Interval : C.Intervals) {
      std::vector<Sample> Batch = Inj.apply(Interval);
      if (Inj.nextBatchFault() == faults::BatchFault::Poison) {
        faults::poisonBatch(Batch);
        ++Poisoned;
      }
      expectExactRoundTrip(Batch);
    }
  }
  EXPECT_GT(Poisoned, 0U);
}

TEST(PersistSampleBlock, RoundTripsEdgeInputs) {
  constexpr std::uint64_t Max = UINT64_MAX;
  const std::vector<std::vector<Sample>> Cases = {
      {},
      {{0, 0, false}},
      {{Max, Max, true}},
      {{0, 0, false}, {Max, Max, true}},
      {{Max, Max, true}, {0, 0, false}},
      {{5, 9, false}, {5, 9, false}, {5, 9, false}},        // equal
      {{0, Max, true}, {Max, 0, false}, {0, Max, true}},    // wrapping
      {{Max, 0, false}, {0, 1, true}, {Max, 3, false}, {0, 2, true}},
      {{0x8000000000000000ULL, 0, false},
       {0x7FFFFFFFFFFFFFFFULL, 0x8000000000000000ULL, false},
       {0x8000000000000000ULL, 0, true}},
  };
  for (std::uint64_t I = 0; I < Cases.size(); ++I) {
    SCOPED_TRACE("case " + std::to_string(I));
    expectExactRoundTrip(Cases[I]);
  }

  // Each width a column can take: a difference of 2^(8w - 2) needs
  // exactly w bytes once zigzagged. The pc column is never narrower
  // than 1 byte; the time column is 0 bytes when every sample is on its
  // stride.
  for (std::uint32_t Width = 0; Width <= 8; ++Width) {
    SCOPED_TRACE("width " + std::to_string(Width));
    const std::uint64_t Step =
        Width == 0 ? 0 : std::uint64_t{1} << (8 * Width - 2);
    std::vector<Sample> In = loopSamples(12, 0);
    for (std::uint64_t J = 1; J < In.size(); ++J) {
      In[J].Pc = In[J - 1].Pc + (J == 6 ? Step : 4);
      In[J].Time = In[J - 1].Time + 45'000 + (J == 6 ? Step : 0);
    }
    const std::vector<std::uint8_t> Bytes = encodeBlock(In);
    EXPECT_EQ(Bytes[32], std::max<std::uint32_t>(Width, 1)); // pc width
    EXPECT_EQ(Bytes[33], Width);                             // time width
    expectExactRoundTrip(In);
  }
}

TEST(PersistSampleBlock, EveryTruncationAndBitFlipFailsCleanlyOrIsCanonical) {
  // A block with both columns in use and misses on both sides of a
  // bitmap byte boundary.
  const std::vector<std::uint8_t> Good = encodeBlock(loopSamples(19, 700));
  ASSERT_GT(Good[33], 0U) << "the time column must be in use";
  const auto expectTotal = [](std::span<const std::uint8_t> Bytes) {
    std::vector<Sample> Out;
    const bool Decoded = decodeWholeBlock(Bytes, Out);
    EXPECT_EQ(checkWholeBlock(Bytes), Decoded)
        << "the check-only pass and the decode disagree";
    // Whatever was sized, was sized from bytes that are present.
    EXPECT_LE(Out.capacity() * sizeof(Sample), 24 * Bytes.size());
    if (Decoded) { // one accepted encoding per sample sequence
      EXPECT_EQ(encodeBlock(Out),
                std::vector<std::uint8_t>(Bytes.begin(), Bytes.end()));
    }
    return Decoded;
  };
  for (std::uint64_t Len = 0; Len < Good.size(); ++Len) {
    SCOPED_TRACE("truncated to " + std::to_string(Len));
    EXPECT_FALSE(expectTotal({Good.data(), Len}));
  }
  std::uint64_t Accepted = 0;
  for (std::uint64_t Bit = 0; Bit < 8 * Good.size(); ++Bit) {
    SCOPED_TRACE("bit " + std::to_string(Bit));
    std::vector<std::uint8_t> Flipped = Good;
    Flipped[Bit / 8] ^= static_cast<std::uint8_t>(1U << (Bit % 8));
    Accepted += expectTotal(Flipped) ? 1 : 0;
  }
  // Flips in pc[0], time[0], the stride and the bitmap's live bits stay
  // canonical; most others break a width or the count.
  EXPECT_GT(Accepted, 0U);
  EXPECT_LT(Accepted, 8 * Good.size());
}

TEST(PersistSampleBlock, RejectsNonCanonicalEncodings) {
  const auto expectRefused = [](const std::vector<std::uint8_t> &Bytes) {
    std::vector<Sample> Out;
    ByteReader R(Bytes);
    EXPECT_FALSE(decodeSampleBlock(R, Out));
    EXPECT_FALSE(R.ok());
    EXPECT_FALSE(checkWholeBlock(Bytes));
  };
  const std::vector<Sample> In = loopSamples(10, 3);
  const std::vector<std::uint8_t> Least = referenceSampleBlock(In);
  ASSERT_EQ(encodeBlock(In), Least);
  const std::uint32_t PcWidth = Least[32], TimeWidth = Least[33];
  {
    SCOPED_TRACE("a pc column one byte wider than it needs");
    expectRefused(referenceSampleBlock(In, {PcWidth + 1, TimeWidth}));
  }
  {
    SCOPED_TRACE("a time column one byte wider than it needs");
    expectRefused(referenceSampleBlock(In, {PcWidth, TimeWidth + 1}));
  }
  {
    SCOPED_TRACE("a pc column of width 0 under more than one sample");
    const std::vector<Sample> Same = {{8, 1, false}, {8, 2, false}};
    ASSERT_EQ(encodeBlock(Same)[32], 1U);
    expectRefused(referenceSampleBlock(Same, {0, 0}));
  }
  {
    SCOPED_TRACE("a width over 8");
    std::vector<std::uint8_t> Bytes = Least;
    Bytes[33] = 9;
    expectRefused(Bytes);
  }
  {
    SCOPED_TRACE("a stride under a single sample");
    std::vector<std::uint8_t> Bytes = encodeBlock(loopSamples(1, 0));
    Bytes[24] = 1;
    expectRefused(Bytes);
  }
  {
    SCOPED_TRACE("widths under a single sample");
    for (const std::uint64_t At : {32U, 33U}) {
      std::vector<std::uint8_t> Bytes = encodeBlock(loopSamples(1, 0));
      Bytes[At] = 1;
      expectRefused(Bytes);
    }
  }
}

TEST(PersistSampleBlock, RejectsNonzeroBitmapPadding) {
  for (const std::uint64_t N : {1U, 5U, 13U}) {
    SCOPED_TRACE("samples " + std::to_string(N));
    const std::vector<std::uint8_t> Good = encodeBlock(loopSamples(N, 0));
    const std::uint64_t LastBitmapByte =
        SampleBlockHeaderBytes + (N + 7) / 8 - 1;
    for (std::uint64_t Bit = N % 8; Bit < 8; ++Bit) {
      std::vector<std::uint8_t> Bytes = Good;
      Bytes[LastBitmapByte] ^= static_cast<std::uint8_t>(1U << Bit);
      ByteReader R(Bytes);
      std::vector<Sample> Out;
      EXPECT_FALSE(decodeSampleBlock(R, Out)) << "padding bit " << Bit;
      EXPECT_FALSE(R.ok());
      EXPECT_EQ(R.u8(), 0U); // sticky: later reads fail too
      EXPECT_FALSE(checkWholeBlock(Bytes));
    }
  }
}

TEST(PersistSampleBlock, RejectsCountsTheBytesCannotHoldBeforeAllocating) {
  const std::vector<Sample> In = loopSamples(40, 0);
  const std::vector<std::uint8_t> Good = encodeBlock(In);
  auto withCount = [&Good](std::uint64_t Count) {
    std::vector<std::uint8_t> Bytes = Good;
    for (std::uint32_t I = 0; I < 8; ++I)
      Bytes[I] = static_cast<std::uint8_t>(Count >> (8 * I));
    return Bytes;
  };
  // The largest count the payload can claim: every byte after the header
  // one pc value, at width 1.
  const std::uint64_t Largest = Good.size() - SampleBlockHeaderBytes + 1;
  for (const std::uint64_t Count :
       {std::uint64_t{41}, Largest, Largest + 1, std::uint64_t{1} << 61,
        UINT64_MAX}) {
    SCOPED_TRACE("count " + std::to_string(Count));
    const std::vector<std::uint8_t> Bytes = withCount(Count);
    ByteReader R(Bytes);
    std::vector<Sample> Out;
    EXPECT_FALSE(decodeSampleBlock(R, Out));
    EXPECT_FALSE(R.ok());
    EXPECT_EQ(Out.capacity(), 0U); // nothing sized by the claimed count
    EXPECT_FALSE(checkWholeBlock(Bytes));
  }
}

TEST(PersistSampleBlock, RejectsOneTrailingByte) {
  for (const std::uint64_t N : {0U, 1U, 3U}) {
    std::vector<std::uint8_t> Bytes = encodeBlock(patternSamples(N));
    Bytes.push_back(0);
    std::vector<Sample> Out;
    EXPECT_FALSE(decodeWholeBlock(Bytes, Out)) << N;
    EXPECT_FALSE(checkWholeBlock(Bytes)) << N;
  }
}

TEST(PersistSampleBlock, StaysUnderThreeBytesPerSample) {
  // The models durable-ingest (perfbench/) runs, and all 31 workloads.
  const std::set<std::string> Durable = {
      "synthetic.periodic", "171.swim",   "172.mgrid",    "173.applu",
      "183.equake",         "177.mesa",   "200.sixtrack", "301.apsi"};
  std::uint64_t AllBytes = 0, AllSamples = 0, DurableBytes = 0,
                DurableSamples = 0;
  for (const WorkloadCorpus &C : workloadCorpus())
    for (const std::vector<Sample> &Interval : C.Intervals) {
      const std::uint64_t Bytes = encodeBlock(Interval).size();
      AllBytes += Bytes;
      AllSamples += Interval.size();
      if (Durable.count(C.Name) != 0) {
        DurableBytes += Bytes;
        DurableSamples += Interval.size();
      }
    }
  ASSERT_GT(DurableSamples, 0U);
  const double All = static_cast<double>(AllBytes) / AllSamples;
  const double Dur = static_cast<double>(DurableBytes) / DurableSamples;
  RecordProperty("bytes_per_sample_all", std::to_string(All));
  RecordProperty("bytes_per_sample_durable", std::to_string(Dur));
  EXPECT_LE(All, 3.0);
  EXPECT_LE(Dur, 3.0);
}

//===----------------------------------------------------------------------===//
// Snapshot container
//===----------------------------------------------------------------------===//

std::vector<SnapshotSection> sampleSections() {
  std::vector<SnapshotSection> Sections(3);
  Sections[0].Id = 1;
  Sections[0].Payload = asBytes("meta");
  Sections[1].Id = 2;
  Sections[1].Payload = {}; // empty payloads are legal
  Sections[2].Id = 0xFFFFFFFFU;
  Sections[2].Payload = asBytes("stream state bytes");
  return Sections;
}

TEST(PersistSnapshot, RoundTripPreservesSections) {
  const std::vector<SnapshotSection> In = sampleSections();
  const std::vector<std::uint8_t> Encoded = encodeSnapshot(In);
  std::vector<SnapshotSection> Out;
  ASSERT_EQ(decodeSnapshot(Encoded, Out), SnapshotError::None);
  ASSERT_EQ(Out.size(), In.size());
  for (std::size_t I = 0; I < In.size(); ++I) {
    EXPECT_EQ(Out[I].Id, In[I].Id);
    EXPECT_EQ(Out[I].Payload, In[I].Payload);
  }
}

TEST(PersistSnapshot, EmptySectionListRoundTrips) {
  const std::vector<std::uint8_t> Encoded = encodeSnapshot({});
  std::vector<SnapshotSection> Out;
  EXPECT_EQ(decodeSnapshot(Encoded, Out), SnapshotError::None);
  EXPECT_TRUE(Out.empty());
}

TEST(PersistSnapshot, ErrorTaxonomy) {
  std::vector<SnapshotSection> Out;

  // TooShort: fewer bytes than header + footer.
  const std::vector<std::uint8_t> Short = {0x52, 0x47, 0x4D};
  EXPECT_EQ(decodeSnapshot(Short, Out), SnapshotError::TooShort);

  // BadMagic.
  std::vector<std::uint8_t> Encoded = encodeSnapshot(sampleSections());
  std::vector<std::uint8_t> Mutated = Encoded;
  Mutated[0] ^= 0xFF;
  EXPECT_EQ(decodeSnapshot(Mutated, Out), SnapshotError::BadMagic);
  EXPECT_TRUE(Out.empty());

  // UnsupportedVersion: any schema but the current one, older or newer.
  for (const std::uint32_t Version : {0U, SnapshotVersion - 1,
                                      SnapshotVersion + 1, 999U}) {
    const std::vector<std::uint8_t> Other =
        encodeSnapshot(sampleSections(), Version);
    EXPECT_EQ(decodeSnapshot(Other, Out), SnapshotError::UnsupportedVersion)
        << "version " << Version;
    EXPECT_TRUE(Out.empty());
  }

  // SectionLimit: a corrupt count field must not buy a long parse loop.
  {
    ByteWriter W;
    W.u32(SnapshotMagic);
    W.u32(SnapshotVersion);
    W.u32(SnapshotMaxSections + 1);
    W.u32(crc32(W.data()));
    EXPECT_EQ(decodeSnapshot(W.take(), Out), SnapshotError::SectionLimit);
  }

  // SectionOverrun: a section length running past the file. The section
  // parse rejects it before the (here deliberately bogus) footer matters.
  {
    ByteWriter W;
    W.u32(SnapshotMagic);
    W.u32(SnapshotVersion);
    W.u32(1);
    W.u32(7);      // section id
    W.u64(1'000);  // payload length far past EOF
    W.u32(0);      // payload crc
    W.u32(0);      // footer
    EXPECT_EQ(decodeSnapshot(W.take(), Out), SnapshotError::SectionOverrun);
  }

  // SectionCrcMismatch: damage a payload byte; the section CRC localizes
  // it before the file CRC is even consulted.
  Mutated = Encoded;
  Mutated[Mutated.size() - 6] ^= 0x01; // inside the last payload
  EXPECT_EQ(decodeSnapshot(Mutated, Out), SnapshotError::SectionCrcMismatch);

  // FileCrcMismatch: damage the footer itself.
  Mutated = Encoded;
  Mutated[Mutated.size() - 1] ^= 0x01;
  EXPECT_EQ(decodeSnapshot(Mutated, Out), SnapshotError::FileCrcMismatch);
}

// The robustness tentpole's core promise: *every* truncation of a real
// snapshot is rejected with a clean error, never UB. Run under ASan/UBSan
// via tools/run_sanitized_tests.sh.
TEST(PersistSnapshotFuzz, EveryTruncationRejected) {
  const std::vector<std::uint8_t> Encoded = encodeSnapshot(sampleSections());
  for (std::size_t Len = 0; Len < Encoded.size(); ++Len) {
    const std::span<const std::uint8_t> Prefix(Encoded.data(), Len);
    std::vector<SnapshotSection> Out;
    const SnapshotError Err = decodeSnapshot(Prefix, Out);
    EXPECT_NE(Err, SnapshotError::None) << "prefix length " << Len;
    EXPECT_TRUE(Out.empty()) << "prefix length " << Len;
  }
}

// ...and every single-bit flip. CRC-32 detects all single-bit errors, and
// a flip in the footer leaves the recomputed CRC unchanged but the stored
// one different, so rejection is deterministic at every offset.
TEST(PersistSnapshotFuzz, EveryBitFlipRejected) {
  const std::vector<std::uint8_t> Encoded = encodeSnapshot(sampleSections());
  for (std::size_t Off = 0; Off < Encoded.size(); ++Off) {
    for (int Bit = 0; Bit < 8; ++Bit) {
      std::vector<std::uint8_t> Mutated = Encoded;
      Mutated[Off] ^= static_cast<std::uint8_t>(1U << Bit);
      std::vector<SnapshotSection> Out;
      const SnapshotError Err = decodeSnapshot(Mutated, Out);
      EXPECT_NE(Err, SnapshotError::None)
          << "offset " << Off << " bit " << Bit;
      EXPECT_TRUE(Out.empty()) << "offset " << Off << " bit " << Bit;
    }
  }
}

//===----------------------------------------------------------------------===//
// Journal
//===----------------------------------------------------------------------===//

std::vector<std::uint8_t> seqPayload(std::uint64_t Seq) {
  ByteWriter W;
  W.u64(Seq);
  W.str("batch-" + std::to_string(Seq));
  return W.take();
}

/// Appends records 1..N to a fresh journal at \p Path.
void writeJournal(const std::string &Path, std::uint64_t N) {
  LogWriter Writer;
  ASSERT_TRUE(Writer.open(Path, JournalFormat, 0, 0, nullptr));
  for (std::uint64_t Seq = 1; Seq <= N; ++Seq)
    ASSERT_TRUE(Writer.append(Seq, JournalBatchKind, seqPayload(Seq)));
  ASSERT_TRUE(Writer.close());
}

TEST(PersistJournal, AppendReplayRoundTripWithSkipThreshold) {
  const std::string Dir = scratchDir("journal_roundtrip");
  const std::string Path = Dir + "/journal.wal";
  writeJournal(Path, 5);

  std::vector<std::uint64_t> Seen;
  const JournalResult Res = replayJournal(
      Path, /*SkipThroughSeq=*/2,
      [&Seen](std::uint64_t Seq, std::span<const std::uint8_t> Payload) {
        EXPECT_EQ(std::vector<std::uint8_t>(Payload.begin(), Payload.end()),
                  seqPayload(Seq));
        Seen.push_back(Seq);
        return ReplayVerdict::Applied;
      });
  EXPECT_EQ(Seen, (std::vector<std::uint64_t>{3, 4, 5}));
  EXPECT_EQ(Res.RecordsReplayed, 3U);
  EXPECT_EQ(Res.RecordsSkipped, 2U);
  EXPECT_EQ(Res.LastSeq, 5U);
  EXPECT_FALSE(Res.TornTail);
  EXPECT_FALSE(Res.HeaderCorrupt);
}

TEST(PersistJournal, MissingFileIsNotCorruption) {
  const std::string Dir = scratchDir("journal_missing");
  const JournalResult Res = replayJournal(
      Dir + "/nope.wal", 0,
      [](std::uint64_t, std::span<const std::uint8_t>) {
        return ReplayVerdict::Applied;
      });
  EXPECT_TRUE(Res.Missing);
  EXPECT_FALSE(Res.TornTail);
  EXPECT_EQ(Res.RecordsReplayed, 0U);
}

TEST(PersistJournal, ReplayTrustsLongestValidPrefixAtEveryTruncation) {
  const std::string Dir = scratchDir("journal_torn");
  const std::string Path = Dir + "/journal.wal";
  writeJournal(Path, 3);
  const std::vector<std::uint8_t> Full = mustRead(Path);

  // Record boundaries: the valid prefixes a truncated file may expose.
  std::vector<std::uint64_t> Boundaries;
  {
    const JournalResult Whole = replayJournal(
        Path, 0,
        [](std::uint64_t, std::span<const std::uint8_t>) {
        return ReplayVerdict::Applied;
      });
    ASSERT_EQ(Whole.RecordsReplayed, 3U);
    ASSERT_EQ(Whole.ValidBytes, Full.size());
  }

  const std::string Torn = Dir + "/torn.wal";
  for (std::size_t Len = 0; Len <= Full.size(); ++Len) {
    writeBytes(Torn, std::span<const std::uint8_t>(Full.data(), Len));
    std::uint64_t Count = 0;
    const JournalResult Res = replayJournal(
        Torn, 0, [&Count](std::uint64_t, std::span<const std::uint8_t>) {
          ++Count;
          return ReplayVerdict::Applied;
        });
    SCOPED_TRACE("truncated to " + std::to_string(Len));
    EXPECT_EQ(Res.RecordsReplayed, Count);
    EXPECT_LE(Res.RecordsReplayed, 3U);
    EXPECT_LE(Res.ValidBytes, Len);
    if (Len < 8) {
      // Not even the file header: nothing replayable.
      EXPECT_TRUE(Res.HeaderCorrupt || Res.TornTail);
      EXPECT_EQ(Res.RecordsReplayed, 0U);
    } else if (Len < Full.size()) {
      // Mid-record cuts report a torn tail; exact-boundary cuts are clean.
      const bool AtBoundary = Res.ValidBytes == Len;
      EXPECT_EQ(Res.TornTail, !AtBoundary);
    } else {
      EXPECT_FALSE(Res.TornTail);
      EXPECT_EQ(Res.RecordsReplayed, 3U);
    }
    Boundaries.push_back(Res.ValidBytes);
  }
  // ValidBytes is monotone in the truncation length -- replay never
  // "finds" bytes a shorter file did not have.
  EXPECT_TRUE(std::is_sorted(Boundaries.begin(), Boundaries.end()));
}

TEST(PersistJournal, EveryBitFlipScansSafely) {
  const std::string Dir = scratchDir("journal_flip");
  const std::string Path = Dir + "/journal.wal";
  writeJournal(Path, 3);
  const std::vector<std::uint8_t> Full = mustRead(Path);

  const std::string Mut = Dir + "/mut.wal";
  for (std::size_t Off = 0; Off < Full.size(); ++Off) {
    std::vector<std::uint8_t> Mutated = Full;
    Mutated[Off] ^= static_cast<std::uint8_t>(1U << (Off % 8));
    writeBytes(Mut, Mutated);
    const JournalResult Res = replayJournal(
        Mut, 0, [](std::uint64_t Seq, std::span<const std::uint8_t> Payload) {
          // Any record that *is* delivered must carry an intact payload:
          // the flip can only remove records from the valid prefix.
          EXPECT_EQ(
              std::vector<std::uint8_t>(Payload.begin(), Payload.end()),
              seqPayload(Seq));
          return ReplayVerdict::Applied;
        });
    SCOPED_TRACE("flip at offset " + std::to_string(Off));
    EXPECT_LE(Res.RecordsReplayed, 3U);
    EXPECT_LE(Res.ValidBytes, Full.size());
    // A flip anywhere damages header, a record, or trailing bytes of the
    // scan -- some failure marker must be raised, or (flips confined to a
    // record the CRC rejects) the scan ends torn.
    EXPECT_TRUE(Res.HeaderCorrupt || Res.TornTail ||
                Res.RecordsReplayed < 3U || Res.ValidBytes < Full.size());
  }
}

TEST(PersistJournal, NonIncreasingSequenceEndsScan) {
  const std::string Dir = scratchDir("journal_seq");
  const std::string Path = Dir + "/journal.wal";
  // Hand-build: header + seq 5 + seq 5 again (stale tail after reuse).
  ByteWriter W;
  W.bytes(logHeader(JournalFormat));
  for (int I = 0; I < 2; ++I) {
    const std::vector<std::uint8_t> P = seqPayload(5);
    W.bytes(recordHeader(5, JournalBatchKind, P));
    W.bytes(P);
  }
  const std::vector<std::uint8_t> Bytes = W.take();
  writeBytes(Path, Bytes);

  // From a state at sequence 4 the first record continues it; the second
  // does not increase.
  std::uint64_t Count = 0;
  const JournalResult Res = replayJournal(
      Path, 4, [&Count](std::uint64_t, std::span<const std::uint8_t>) {
        ++Count;
        return ReplayVerdict::Applied;
      });
  EXPECT_EQ(Count, 1U);
  EXPECT_TRUE(Res.TornTail);
  EXPECT_FALSE(Res.Gap);
  EXPECT_LT(Res.ValidBytes, Bytes.size());
}

TEST(PersistJournal, ASequenceGapEndsReplayWithoutTearing) {
  const std::string Dir = scratchDir("journal_gap");
  const std::string Path = Dir + "/journal.wal";
  // Records 1, 2 and 4: whole and CRC-valid, but 3 is missing.
  LogWriter Writer;
  ASSERT_TRUE(Writer.open(Path, JournalFormat, 0, 0, nullptr));
  for (const std::uint64_t Seq : {1, 2, 4})
    ASSERT_TRUE(Writer.append(Seq, JournalBatchKind, seqPayload(Seq)));
  ASSERT_TRUE(Writer.close());
  const std::vector<std::uint8_t> Bytes = mustRead(Path);

  const auto replayFrom = [&Path](std::uint64_t Skip,
                                  std::vector<std::uint64_t> &Seen) {
    return replayJournal(Path, Skip,
                         [&Seen](std::uint64_t Seq,
                                 std::span<const std::uint8_t>) {
                           Seen.push_back(Seq);
                           return ReplayVerdict::Applied;
                         });
  };
  std::vector<std::uint64_t> Seen;
  JournalResult Res = replayFrom(0, Seen);
  EXPECT_EQ(Seen, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_TRUE(Res.Gap);
  EXPECT_EQ(Res.GapSeq, 4U);
  EXPECT_FALSE(Res.TornTail);
  EXPECT_FALSE(Res.PayloadRejected);
  EXPECT_LT(Res.ValidBytes, Bytes.size());

  // A state past the first records skips them, and still meets the gap.
  Seen.clear();
  Res = replayFrom(1, Seen);
  EXPECT_EQ(Seen, (std::vector<std::uint64_t>{2}));
  EXPECT_TRUE(Res.Gap);
  EXPECT_EQ(Res.RecordsSkipped, 1U);

  // A state at sequence 3 is what record 4 continues.
  Seen.clear();
  Res = replayFrom(3, Seen);
  EXPECT_EQ(Seen, (std::vector<std::uint64_t>{4}));
  EXPECT_FALSE(Res.Gap);
  EXPECT_EQ(Res.ValidBytes, Bytes.size());

  // The store counts the gap, names both sequences and repairs nothing.
  CheckpointManager M(Dir);
  Seen.clear();
  Res = M.replayAndRepair(0, [&Seen](std::uint64_t Seq,
                                     std::span<const std::uint8_t>) {
    Seen.push_back(Seq);
    return ReplayVerdict::Applied;
  });
  EXPECT_TRUE(Res.Gap);
  EXPECT_EQ(M.counters().JournalGaps, 1U);
  EXPECT_EQ(M.counters().GapStateSeq, 2U);
  EXPECT_EQ(M.counters().GapJournalSeq, 4U);
  EXPECT_EQ(M.counters().JournalTornTails, 0U);
  EXPECT_EQ(M.counters().JournalRepairs, 0U);
  EXPECT_EQ(mustRead(Path), Bytes);
}

// A record leaves in one write(2): header and payload in one writev, with
// no user-space buffer to split a record longer than its 4 KiB.
TEST(PersistJournal, OneWriteCallPerAppend) {
  if (!persisttest::writeCalls())
    GTEST_SKIP() << "/proc/self/io is not readable";
  CheckpointManager M(scratchDir("journal_syscw"));
  ASSERT_TRUE(M.appendJournal(1, seqPayload(1))); // opens the writer
  const std::vector<std::uint8_t> Payload(4900, 0xA5);
  const std::uint64_t Before = *persisttest::writeCalls();
  for (std::uint64_t Seq = 2; Seq <= 101; ++Seq)
    ASSERT_TRUE(M.appendJournal(Seq, Payload));
  const std::uint64_t After = *persisttest::writeCalls();
  EXPECT_EQ(After - Before, 100U) << "write calls for 100 appends";
}

// A crash at every byte budget inside one append leaves exactly that
// prefix of the record's header + payload after the bytes before it, and
// the append is acknowledged only once every byte and the acknowledgement
// unit were granted.
TEST(PersistJournal, EveryByteBudgetInsideOneAppendLeavesThatPrefix) {
  const std::string Dir = scratchDir("journal_budget");
  const std::string Ref = Dir + "/ref.wal";
  writeJournal(Ref, 2);
  const std::vector<std::uint8_t> Full = mustRead(Ref);
  const std::string Base = Dir + "/base.wal";
  writeJournal(Base, 1);
  const std::vector<std::uint8_t> Prefix = mustRead(Base);
  ASSERT_LT(Prefix.size(), Full.size());
  const std::uint64_t RecordBytes = Full.size() - Prefix.size();

  const std::string Path = Dir + "/journal.wal";
  for (std::uint64_t Budget = 0; Budget <= RecordBytes + 1; ++Budget) {
    SCOPED_TRACE("crash budget " + std::to_string(Budget));
    writeBytes(Path, Prefix);
    CrashPoint Crash(Budget);
    LogWriter Writer;
    ASSERT_TRUE(Writer.open(Path, JournalFormat, Prefix.size(), 1, &Crash));
    EXPECT_EQ(Writer.append(2, JournalBatchKind, seqPayload(2)),
              Budget > RecordBytes);
    EXPECT_EQ(Writer.ok(), Budget > RecordBytes);
    (void)Writer.close();
    const std::vector<std::uint8_t> Got = mustRead(Path);
    const std::uint64_t Kept = std::min(Budget, RecordBytes);
    EXPECT_EQ(Got, std::vector<std::uint8_t>(
                       Full.begin(),
                       Full.begin() + static_cast<std::ptrdiff_t>(
                                          Prefix.size() + Kept)));
  }
}

TEST(PersistJournal, PayloadTooLongForU32LengthIsRefusedBeforeAnyByte) {
  const std::string Dir = scratchDir("journal_huge");
  const std::string Path = Dir + "/journal.wal";
  LogWriter Writer;
  ASSERT_TRUE(Writer.open(Path, JournalFormat, 0, 0, nullptr));
  ASSERT_TRUE(Writer.append(1, JournalBatchKind, seqPayload(1)));
  const std::uint64_t Before = std::filesystem::file_size(Path);

  const persisttest::HugeSpan Huge;
  ASSERT_TRUE(Huge.ok());
  ASSERT_GT(Huge.bytes().size(), MaxRecordPayloadBytes);
  EXPECT_FALSE(Writer.append(2, JournalBatchKind, Huge.bytes()));
  EXPECT_FALSE(Writer.ok()); // dead, like any failed append
  EXPECT_FALSE(Writer.close());
  EXPECT_EQ(std::filesystem::file_size(Path), Before);

  // The acknowledged prefix is intact: no torn tail for repair to cut.
  const JournalResult Res = replayJournal(
      Path, 0, [](std::uint64_t, std::span<const std::uint8_t>) {
        return ReplayVerdict::Applied;
      });
  EXPECT_EQ(Res.RecordsReplayed, 1U);
  EXPECT_FALSE(Res.TornTail);
  EXPECT_EQ(Res.ValidBytes, Before);
}

// A crash mid-append leaves torn bytes. A record appended behind them
// would be acknowledged, then hidden from replay and cut by the repair:
// the journal must refuse it until the owner's repair has run.
TEST(PersistJournal, TornJournalRefusesAppendsUntilRepaired) {
  const std::string Dir = scratchDir("journal_torn_append");
  {
    CheckpointManager M(Dir);
    for (std::uint64_t Seq = 1; Seq <= 2; ++Seq)
      ASSERT_TRUE(M.appendJournal(Seq, seqPayload(Seq)));
  }
  CheckpointManager M(Dir);
  {
    const std::vector<std::uint8_t> Garbage = {0x13, 0x37, 0xFE};
    FileSink Sink(M.journalPath(), /*Append=*/true, nullptr);
    ASSERT_TRUE(Sink.write(Garbage));
    ASSERT_TRUE(Sink.close());
  }
  const std::vector<std::uint8_t> Torn = mustRead(M.journalPath());

  EXPECT_FALSE(M.appendJournal(3, seqPayload(3)));
  EXPECT_EQ(mustRead(M.journalPath()), Torn) << "a refused append wrote";

  const JournalResult Repair = M.replayAndRepair(
      0, [](std::uint64_t, std::span<const std::uint8_t>) {
        return ReplayVerdict::Applied;
      });
  EXPECT_TRUE(Repair.TornTail);
  EXPECT_EQ(Repair.RecordsReplayed, 2U);
  ASSERT_TRUE(M.appendJournal(3, seqPayload(3)));
  std::vector<std::uint64_t> Seen;
  const JournalResult After = M.replayAndRepair(
      0, [&Seen](std::uint64_t Seq, std::span<const std::uint8_t>) {
        Seen.push_back(Seq);
        return ReplayVerdict::Applied;
      });
  EXPECT_FALSE(After.TornTail);
  EXPECT_EQ(Seen, (std::vector<std::uint64_t>{1, 2, 3}));
}

// A writer that never learned the journal's last sequence (its owner
// skipped recovery) restarts at 1. Replay ends at the first record that
// does not increase, so such appends must be refused, not acknowledged.
TEST(PersistJournal, NonIncreasingAppendIsRefusedBeforeAnyByte) {
  const std::string Dir = scratchDir("journal_stale_seq");
  {
    CheckpointManager M(Dir);
    for (std::uint64_t Seq = 1; Seq <= 3; ++Seq)
      ASSERT_TRUE(M.appendJournal(Seq, seqPayload(Seq)));
  }
  CheckpointManager M(Dir);
  const std::vector<std::uint8_t> Before = mustRead(M.journalPath());
  EXPECT_FALSE(M.appendJournal(1, seqPayload(1)));
  EXPECT_FALSE(M.appendJournal(3, seqPayload(3)));
  EXPECT_EQ(mustRead(M.journalPath()), Before) << "a refused append wrote";

  ASSERT_TRUE(M.appendJournal(4, seqPayload(4)));
  EXPECT_FALSE(M.appendJournal(4, seqPayload(4)));
  std::vector<std::uint64_t> Seen;
  const JournalResult Res = M.replayAndRepair(
      0, [&Seen](std::uint64_t Seq, std::span<const std::uint8_t>) {
        Seen.push_back(Seq);
        return ReplayVerdict::Applied;
      });
  EXPECT_FALSE(Res.TornTail);
  EXPECT_EQ(Seen, (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST(PersistJournal, RejectedPayloadStopsScanAndIsNotCountedInLastSeq) {
  const std::string Dir = scratchDir("journal_reject");
  const std::string Path = Dir + "/journal.wal";
  writeJournal(Path, 3);
  const JournalResult Res = replayJournal(
      Path, 0, [](std::uint64_t Seq, std::span<const std::uint8_t>) {
        // The service rejects record 2 as malformed.
        return Seq < 2 ? ReplayVerdict::Applied : ReplayVerdict::Malformed;
      });
  EXPECT_EQ(Res.RecordsReplayed, 1U);
  EXPECT_TRUE(Res.PayloadRejected);
  EXPECT_EQ(Res.LastSeq, 1U);
}

// A whole record the service cannot apply (a stream it lacks) ends
// replay as a mismatch: no torn tail, and the manager cuts nothing.
TEST(PersistJournal, ForeignRecordStopsReplayWithoutRepair) {
  const std::string Dir = scratchDir("journal_foreign");
  CheckpointManager M(Dir);
  for (std::uint64_t Seq = 1; Seq <= 3; ++Seq)
    ASSERT_TRUE(M.appendJournal(Seq, seqPayload(Seq)));
  const std::vector<std::uint8_t> Before = mustRead(M.journalPath());
  const JournalResult Res = M.replayAndRepair(
      0, [](std::uint64_t Seq, std::span<const std::uint8_t>) {
        return Seq < 2 ? ReplayVerdict::Applied : ReplayVerdict::Foreign;
      });
  EXPECT_EQ(Res.RecordsReplayed, 1U);
  EXPECT_TRUE(Res.Mismatch);
  EXPECT_FALSE(Res.TornTail);
  EXPECT_FALSE(Res.PayloadRejected);
  EXPECT_EQ(Res.LastSeq, 1U);
  EXPECT_EQ(M.counters().JournalMismatches, 1U);
  EXPECT_EQ(M.counters().JournalTornTails, 0U);
  EXPECT_EQ(M.counters().JournalRepairs, 0U);
  EXPECT_EQ(mustRead(M.journalPath()), Before);
}

//===----------------------------------------------------------------------===//
// CheckpointManager
//===----------------------------------------------------------------------===//

/// Encodes a one-section snapshot whose payload names the journal
/// sequence it covers -- a miniature of the service's snapshot.
std::vector<std::uint8_t> coverSnapshot(std::uint64_t CoverSeq) {
  ByteWriter P;
  P.u64(CoverSeq);
  std::vector<SnapshotSection> Sections(1);
  Sections[0].Id = 1;
  Sections[0].Payload = P.take();
  return encodeSnapshot(Sections);
}

std::uint64_t coveredSeq(const std::vector<SnapshotSection> &Sections) {
  EXPECT_EQ(Sections.size(), 1U);
  ByteReader R(Sections[0].Payload);
  const std::uint64_t Seq = R.u64();
  EXPECT_TRUE(R.atEnd());
  return Seq;
}

TEST(PersistCheckpoint, CommitRotatesAndCompactionKeepsFallbackUsable) {
  const std::string Dir = scratchDir("ckpt_rotate");
  CheckpointManager M(Dir);
  ASSERT_TRUE(M.valid());

  // Commit A (covers 0), journal 1..3, commit B (covers 3), journal 4..6.
  ASSERT_TRUE(M.commitSnapshot(coverSnapshot(0), 0));
  for (std::uint64_t Seq = 1; Seq <= 3; ++Seq)
    ASSERT_TRUE(M.appendJournal(Seq, seqPayload(Seq)));
  ASSERT_TRUE(M.commitSnapshot(coverSnapshot(3), 0));
  for (std::uint64_t Seq = 4; Seq <= 6; ++Seq)
    ASSERT_TRUE(M.appendJournal(Seq, seqPayload(Seq)));

  // Current rung = B, fallback = A.
  auto Cur = M.loadRung(CheckpointManager::Rung::Current);
  ASSERT_TRUE(Cur.has_value());
  EXPECT_EQ(coveredSeq(*Cur), 3U);
  auto Prev = M.loadRung(CheckpointManager::Rung::Previous);
  ASSERT_TRUE(Prev.has_value());
  EXPECT_EQ(coveredSeq(*Prev), 0U);

  // The journal still holds 1..6: compaction at the B commit dropped only
  // records covered by the *fallback* (A, seq 0), so prev + journal can
  // rebuild everything B + journal can.
  std::vector<std::uint64_t> Seen;
  (void)M.replayAndRepair(
      0, [&Seen](std::uint64_t Seq, std::span<const std::uint8_t>) {
        Seen.push_back(Seq);
        return ReplayVerdict::Applied;
      });
  EXPECT_EQ(Seen, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6}));

  // Commit C (covers 6) compacting through B's seq 3: records 1..3 drop,
  // so the journal continues the fallback rung (B) and not a cold state.
  ASSERT_TRUE(M.commitSnapshot(coverSnapshot(6), 3));
  Seen.clear();
  (void)M.replayAndRepair(
      3, [&Seen](std::uint64_t Seq, std::span<const std::uint8_t>) {
        Seen.push_back(Seq);
        return ReplayVerdict::Applied;
      });
  EXPECT_EQ(Seen, (std::vector<std::uint64_t>{4, 5, 6}));
  Seen.clear();
  const JournalResult Cold = M.replayAndRepair(
      0, [&Seen](std::uint64_t Seq, std::span<const std::uint8_t>) {
        Seen.push_back(Seq);
        return ReplayVerdict::Applied;
      });
  EXPECT_TRUE(Seen.empty());
  EXPECT_TRUE(Cold.Gap);
  EXPECT_EQ(Cold.GapSeq, 4U);
  EXPECT_EQ(M.counters().SnapshotsCommitted, 3U);
}

TEST(PersistCheckpoint, ReplayAndRepairTruncatesTornTail) {
  const std::string Dir = scratchDir("ckpt_repair");
  CheckpointManager M(Dir);
  ASSERT_TRUE(M.valid());
  for (std::uint64_t Seq = 1; Seq <= 3; ++Seq)
    ASSERT_TRUE(M.appendJournal(Seq, seqPayload(Seq)));

  // Tear the tail by appending garbage (a crash mid-append).
  {
    const std::vector<std::uint8_t> Garbage = {0x13, 0x37, 0xFE};
    FileSink Sink(M.journalPath(), /*Append=*/true, nullptr);
    ASSERT_TRUE(Sink.write(Garbage));
    ASSERT_TRUE(Sink.close());
  }
  const std::uint64_t TornSize = mustRead(M.journalPath()).size();

  const JournalResult Res = M.replayAndRepair(
      0, [](std::uint64_t, std::span<const std::uint8_t>) {
        return ReplayVerdict::Applied;
      });
  EXPECT_EQ(Res.RecordsReplayed, 3U);
  EXPECT_TRUE(Res.TornTail);
  EXPECT_EQ(M.counters().JournalTornTails, 1U);
  EXPECT_EQ(M.counters().JournalRepairs, 1U);
  EXPECT_LT(mustRead(M.journalPath()).size(), TornSize);

  // Appends now extend a well-formed journal: all four records replay.
  ASSERT_TRUE(M.appendJournal(4, seqPayload(4)));
  std::vector<std::uint64_t> Seen;
  const JournalResult After = M.replayAndRepair(
      0, [&Seen](std::uint64_t Seq, std::span<const std::uint8_t>) {
        Seen.push_back(Seq);
        return ReplayVerdict::Applied;
      });
  EXPECT_FALSE(After.TornTail);
  EXPECT_EQ(Seen, (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST(PersistCheckpoint, CorruptRungFallsToPreviousWithReasonCounted) {
  const std::string Dir = scratchDir("ckpt_corrupt");
  CheckpointManager M(Dir);
  ASSERT_TRUE(M.valid());
  ASSERT_TRUE(M.commitSnapshot(coverSnapshot(1), 0));
  ASSERT_TRUE(M.commitSnapshot(coverSnapshot(2), 0));

  // Corrupt the current rung on disk.
  std::vector<std::uint8_t> Bytes = mustRead(M.snapshotPath());
  Bytes[Bytes.size() / 2] ^= 0x40;
  writeBytes(M.snapshotPath(), Bytes);

  EXPECT_FALSE(M.loadRung(CheckpointManager::Rung::Current).has_value());
  EXPECT_EQ(M.counters().CorruptSnapshots, 1U);
  const SnapshotError Refused = M.counters().LastError;
  EXPECT_NE(Refused, SnapshotError::None);
  auto Prev = M.loadRung(CheckpointManager::Rung::Previous);
  ASSERT_TRUE(Prev.has_value());
  EXPECT_EQ(coveredSeq(*Prev), 1U);
  EXPECT_EQ(M.counters().LastError, Refused)
      << "the fallback's success must not erase why the current rung failed";
}

TEST(PersistCheckpoint, DamagedRungWithoutFallbackNamesTheContainerError) {
  const std::string Dir = scratchDir("ckpt_no_prev");
  CheckpointManager M(Dir);
  ASSERT_TRUE(M.commitSnapshot(coverSnapshot(1), 0));
  ASSERT_FALSE(fileExists(M.prevSnapshotPath()));

  // The last byte belongs to the whole-file CRC.
  std::vector<std::uint8_t> Bytes = mustRead(M.snapshotPath());
  Bytes.back() ^= 0x01;
  writeBytes(M.snapshotPath(), Bytes);

  EXPECT_FALSE(M.loadRung(CheckpointManager::Rung::Current).has_value());
  EXPECT_FALSE(M.loadRung(CheckpointManager::Rung::Previous).has_value());
  EXPECT_EQ(M.counters().LoadAttempts, 1U) << "a missing rung is no attempt";
  EXPECT_EQ(M.counters().CorruptSnapshots, 1U);
  EXPECT_EQ(M.counters().LastError, SnapshotError::FileCrcMismatch);
}

TEST(PersistCheckpoint, FreshDirectoryRefusesNothing) {
  CheckpointManager M(scratchDir("ckpt_fresh"));
  EXPECT_FALSE(M.loadRung(CheckpointManager::Rung::Current).has_value());
  EXPECT_FALSE(M.loadRung(CheckpointManager::Rung::Previous).has_value());
  EXPECT_EQ(M.counters().LoadAttempts, 0U);
  EXPECT_EQ(M.counters().CorruptSnapshots, 0U);
  EXPECT_EQ(M.counters().LastError, SnapshotError::None);
}

/// Appends \p Seqs through \p Known, a manager that found its journal's
/// tail by replay or compaction, and through a fresh manager on a copy of
/// the same journal, which has no tail and scans for it: both must accept
/// the same appends and leave the same bytes.
void expectResumeLikeRescan(CheckpointManager &Known,
                            const std::vector<std::uint64_t> &Seqs) {
  CheckpointManager Rescan(scratchDir("ckpt_rescan"));
  if (const auto Journal = readFileBytes(Known.journalPath()))
    writeBytes(Rescan.journalPath(), *Journal);
  for (const std::uint64_t Seq : Seqs) {
    SCOPED_TRACE("append " + std::to_string(Seq));
    EXPECT_EQ(Known.appendJournal(Seq, seqPayload(Seq)),
              Rescan.appendJournal(Seq, seqPayload(Seq)));
  }
  EXPECT_EQ(readFileBytes(Known.journalPath()),
            readFileBytes(Rescan.journalPath()));
}

/// Replays every record of \p M's journal, repairing it; returns the
/// last sequence replayed.
std::uint64_t restoreJournal(CheckpointManager &M) {
  std::uint64_t Last = 0;
  (void)M.replayAndRepair(0,
                          [&Last](std::uint64_t Seq,
                                  std::span<const std::uint8_t>) {
                            Last = Seq;
                            return ReplayVerdict::Applied;
                          });
  return Last;
}

/// Appends garbage to \p Path: a writer that died mid-record.
void tearTail(const std::string &Path) {
  const std::vector<std::uint8_t> Garbage = {0x13, 0x37, 0xFE};
  FileSink Sink(Path, /*Append=*/true, nullptr);
  ASSERT_TRUE(Sink.write(Garbage));
  ASSERT_TRUE(Sink.close());
}

// After a restore, the journal writer opens from the tail the replay
// (and its repair) found instead of scanning the journal again -- and
// writes what a rescan would: stale sequences refused, the same bytes.
TEST(PersistCheckpoint, RestoredWriterAppendsWhatARescanAppends) {
  for (const std::string Journal : {"missing", "intact", "torn", "empty"}) {
    SCOPED_TRACE(Journal);
    CheckpointManager M(scratchDir("ckpt_resume_restore"));
    if (Journal != "missing")
      writeJournal(M.journalPath(), 4);
    if (Journal == "torn")
      tearTail(M.journalPath());
    if (Journal == "empty")
      writeBytes(M.journalPath(), {});
    const std::uint64_t Last = restoreJournal(M);
    expectResumeLikeRescan(M, {Last, Last + 1, Last + 2, Last + 1, Last + 3});
  }
}

// After a checkpoint, the writer opens from the tail the compaction
// wrote, whatever the compaction kept.
TEST(PersistCheckpoint, CompactedWriterAppendsWhatARescanAppends) {
  for (const std::uint64_t Through : {0, 2, 3}) {
    SCOPED_TRACE("compacted through " + std::to_string(Through));
    CheckpointManager M(scratchDir("ckpt_resume_commit"));
    (void)restoreJournal(M);
    for (std::uint64_t Seq = 1; Seq <= 3; ++Seq)
      ASSERT_TRUE(M.appendJournal(Seq, seqPayload(Seq)));
    ASSERT_TRUE(M.commitSnapshot(coverSnapshot(3), Through));
    expectResumeLikeRescan(M, {3, 4, 5});
  }
}

// A journal grown or cut from outside between restore and the first
// append fails the writer's size check against the known tail; the
// manager then scans, and gets the outcome a rescan gets.
TEST(PersistCheckpoint, JournalChangedAfterRestoreIsScannedAgain) {
  struct Change {
    const char *Name;
    std::function<void(const std::string &)> Apply;
    std::vector<std::uint64_t> Seqs;
  };
  const std::uint64_t Record4 =
      RecordHeaderBytes + seqPayload(4).size(); // record 4's framed size
  const std::vector<Change> Changes = {
      {"grown by a record",
       [](const std::string &Path) {
         LogWriter W;
         ASSERT_TRUE(W.open(Path, JournalFormat, mustRead(Path).size(), 4,
                            nullptr));
         ASSERT_TRUE(W.append(5, JournalBatchKind, seqPayload(5)));
         ASSERT_TRUE(W.close());
       },
       {5, 6, 7}},
      {"grown by torn bytes", [](const std::string &Path) { tearTail(Path); },
       {5, 6}},
      {"cut at a record boundary",
       [Record4](const std::string &Path) {
         const std::vector<std::uint8_t> Bytes = mustRead(Path);
         writeBytes(Path, {Bytes.data(), Bytes.size() - Record4});
       },
       {4, 5}},
      {"cut inside a record",
       [Record4](const std::string &Path) {
         const std::vector<std::uint8_t> Bytes = mustRead(Path);
         writeBytes(Path, {Bytes.data(), Bytes.size() - Record4 / 2});
       },
       {4, 5}},
  };
  for (const Change &C : Changes) {
    SCOPED_TRACE(C.Name);
    CheckpointManager M(scratchDir("ckpt_resume_changed"));
    writeJournal(M.journalPath(), 4);
    ASSERT_EQ(restoreJournal(M), 4U);
    C.Apply(M.journalPath());
    expectResumeLikeRescan(M, C.Seqs);
  }
}

// The commit-protocol crash sweep: simulate a power cut after every unit
// of I/O inside a snapshot commit and assert the directory always
// recovers to full coverage -- either the new snapshot, or the fallback
// rung plus the journal records compaction deliberately preserved.
TEST(PersistCheckpoint, CrashSweptCommitAlwaysLeavesRecoverableState) {
  // Accounting run: how many units does the swept commit cost?
  std::uint64_t TotalUnits = 0;
  {
    const std::string Dir = scratchDir("ckpt_sweep_acct");
    CheckpointManager M(Dir);
    ASSERT_TRUE(M.commitSnapshot(coverSnapshot(0), 0));
    for (std::uint64_t Seq = 1; Seq <= 3; ++Seq)
      ASSERT_TRUE(M.appendJournal(Seq, seqPayload(Seq)));
    ASSERT_TRUE(M.commitSnapshot(coverSnapshot(3), 0));
    for (std::uint64_t Seq = 4; Seq <= 6; ++Seq)
      ASSERT_TRUE(M.appendJournal(Seq, seqPayload(Seq)));
    CrashPoint Acct = CrashPoint::unlimited();
    M.armCrash(&Acct);
    ASSERT_TRUE(M.commitSnapshot(coverSnapshot(6), 3));
    M.armCrash(nullptr);
    TotalUnits = Acct.used();
  }
  ASSERT_GT(TotalUnits, 0U);

  for (std::uint64_t Budget = 0; Budget <= TotalUnits; ++Budget) {
    SCOPED_TRACE("crash budget " + std::to_string(Budget));
    const std::string Dir = scratchDir("ckpt_sweep");
    {
      CheckpointManager M(Dir);
      ASSERT_TRUE(M.commitSnapshot(coverSnapshot(0), 0));
      for (std::uint64_t Seq = 1; Seq <= 3; ++Seq)
        ASSERT_TRUE(M.appendJournal(Seq, seqPayload(Seq)));
      ASSERT_TRUE(M.commitSnapshot(coverSnapshot(3), 0));
      for (std::uint64_t Seq = 4; Seq <= 6; ++Seq)
        ASSERT_TRUE(M.appendJournal(Seq, seqPayload(Seq)));
      CrashPoint Crash(Budget);
      M.armCrash(&Crash);
      (void)M.commitSnapshot(coverSnapshot(6), 3); // may die anywhere
      // The manager (and its torn file handles) is abandoned here, like
      // the crashed process.
    }

    // Restart: a fresh manager climbs the ladder.
    CheckpointManager R(Dir);
    std::uint64_t CoverSeq = 0;
    auto Sections = R.loadRung(CheckpointManager::Rung::Current);
    if (!Sections) {
      Sections = R.loadRung(CheckpointManager::Rung::Previous);
      R.noteFallbackUsed();
    }
    ASSERT_TRUE(Sections.has_value())
        << "no usable snapshot rung after crash";
    CoverSeq = coveredSeq(*Sections);
    EXPECT_TRUE(CoverSeq == 3 || CoverSeq == 6)
        << "recovered rung covers unexpected seq " << CoverSeq;

    std::set<std::uint64_t> Replayed;
    const JournalResult JR = R.replayAndRepair(
        CoverSeq,
        [&Replayed](std::uint64_t Seq, std::span<const std::uint8_t> P) {
          EXPECT_EQ(std::vector<std::uint8_t>(P.begin(), P.end()),
                    seqPayload(Seq));
          Replayed.insert(Seq);
          return ReplayVerdict::Applied;
        });
    EXPECT_FALSE(JR.HeaderCorrupt);
    // Full coverage: snapshot + replayed journal reach seq 6 exactly,
    // with no gaps -- every acknowledged record survives the crash.
    std::uint64_t Reached = CoverSeq;
    for (std::uint64_t Seq = CoverSeq + 1; Seq <= 6; ++Seq) {
      EXPECT_TRUE(Replayed.count(Seq))
          << "gap: record " << Seq << " lost (rung covers " << CoverSeq
          << ")";
      Reached = Seq;
    }
    EXPECT_EQ(Reached, 6U);
    EXPECT_EQ(Replayed.size(), 6 - CoverSeq);
  }
}

//===----------------------------------------------------------------------===//
// StateCodec
//===----------------------------------------------------------------------===//

std::vector<std::uint8_t> encodeBytes(const auto &Obj) {
  ByteWriter W;
  StateCodec::encode(W, Obj);
  return W.take();
}

TEST(PersistStateCodec, WindowedStatsBitIdenticalRoundTripAndContinuation) {
  WindowedStats Orig(4);
  // Irrational-ish values: any re-accumulation of the sum would differ in
  // the last ulp, which the raw-bits encoding must prevent.
  for (double X : {1.0 / 3.0, std::sqrt(2.0), 0.1, std::acos(-1.0), 2.0 / 7.0})
    Orig.add(X);

  const std::vector<std::uint8_t> Bytes = encodeBytes(Orig);
  WindowedStats Copy(1); // capacity comes from the payload
  ByteReader R(Bytes);
  ASSERT_TRUE(StateCodec::decode(R, Copy, /*MaxCap=*/8));
  EXPECT_TRUE(R.atEnd());
  EXPECT_EQ(encodeBytes(Copy), Bytes);

  // Continuation: original and copy must stay bit-identical forever.
  for (double X : {0.7, 1e-9, 123.456}) {
    Orig.add(X);
    Copy.add(X);
  }
  EXPECT_EQ(encodeBytes(Copy), encodeBytes(Orig));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(Copy.mean()),
            std::bit_cast<std::uint64_t>(Orig.mean()));
}

TEST(PersistStateCodec, WindowedStatsRejectsOverCapacityAndBadInvariants) {
  WindowedStats Orig(4);
  Orig.add(1.0);
  const std::vector<std::uint8_t> Bytes = encodeBytes(Orig);
  {
    // MaxCap below the serialized capacity: config mismatch, rejected.
    WindowedStats S(1);
    ByteReader R(Bytes);
    EXPECT_FALSE(StateCodec::decode(R, S, /*MaxCap=*/2));
  }
  {
    // Head out of range for a non-full window.
    ByteWriter W;
    W.u64(4); // cap
    W.u64(2); // head, but the window is not full -- invalid
    W.vecF64(std::vector<double>{1.0});
    W.f64(1.0);
    WindowedStats S(4);
    ByteReader R(W.data());
    EXPECT_FALSE(StateCodec::decode(R, S, /*MaxCap=*/8));
  }
}

TEST(PersistStateCodec, HistogramAndDetectorGoldenBytes) {
  // The detector's wire form, its stable-set histogram included, pinned as
  // literal bytes: a layout change is a snapshot format change and must
  // come with a version bump. Into Stable: A is adopted, A again
  // (LessUnstable), then B, similar enough to confirm, becomes the frozen
  // stable set.
  const std::unique_ptr<core::SimilarityMetric> Metric =
      core::makeSimilarity(core::SimilarityKind::Pearson);
  core::LocalPhaseDetector D(4, *Metric);
  const std::vector<std::uint32_t> A{3, 0, 1, 2};
  const std::vector<std::uint32_t> B{3, 0, 2, 2};
  D.observe(A);
  D.observe(A);
  ASSERT_EQ(D.observe(B), core::LocalPhaseState::Stable);
  const std::vector<std::uint8_t> DetectorGolden{
      0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // stable set size
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // stable set
      0x02, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, //
      0x01,                                           // stable set valid
      0x02,                                           // state: Stable
      0xAB, 0xF5, 0x37, 0x4C, 0x55, 0x8C, 0xED, 0x3F, // r = 18 / sqrt(380)
      0x01,                                           // changed phase
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // phase changes
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // observed
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // undersampled
  };
  EXPECT_EQ(encodeBytes(D), DetectorGolden);
  core::LocalPhaseDetector Copy(4, *Metric);
  ByteReader R(DetectorGolden);
  ASSERT_TRUE(StateCodec::decode(R, Copy));
  EXPECT_TRUE(R.atEnd());
  EXPECT_EQ(encodeBytes(Copy), DetectorGolden);
}

TEST(PersistStateCodec, LocalPhaseDetectorRejectsUnreachableState) {
  // observe cannot produce a non-finite r (every metric clamps or sums
  // finite terms), nor a phase change without the compare that counts as
  // an observation. A restored NaN r would reach monitor_phase_r and the
  // r timeline, so such payloads are refused like any other corruption.
  const std::unique_ptr<core::SimilarityMetric> Metric =
      core::makeSimilarity(core::SimilarityKind::Pearson);
  const std::vector<std::uint32_t> Prev{3, 0, 1, 0, 0, 2, 0, 0};
  struct Fields {
    double LastR = 0.9;
    std::uint64_t PhaseChanges = 1;
    std::uint64_t Observed = 4;
  };
  const auto Payload = [&Prev](const Fields &F) {
    ByteWriter W;
    W.vecU32(Prev);
    W.boolean(true); // PrevValid
    W.u8(2);         // Stable
    W.f64(F.LastR);
    W.boolean(false);
    W.u64(F.PhaseChanges);
    W.u64(F.Observed);
    W.u64(0); // SkippedUndersampled
    return W.take();
  };
  const auto Loads = [&Metric](const std::vector<std::uint8_t> &Bytes) {
    core::LocalPhaseDetector D(/*InstrCount=*/8, *Metric);
    ByteReader R(Bytes);
    const bool Ok = StateCodec::decode(R, D);
    if (!Ok) {
      // Refused before any field was written.
      EXPECT_EQ(D.state(), core::LocalPhaseState::Unstable);
      EXPECT_EQ(D.observedIntervals(), 0U);
    }
    return Ok && R.atEnd();
  };

  const struct {
    const char *Name;
    Fields Forged;
    Fields Control;
  } Cases[] = {
      {"NaN r", {std::nan(""), 1, 4}, {0.9, 1, 4}},
      {"+inf r", {std::numeric_limits<double>::infinity(), 1, 4},
       {-1.0, 1, 4}},
      {"9 phase changes over 2 observations", {0.9, 9, 2}, {0.9, 1, 3}},
  };
  for (const auto &C : Cases) {
    SCOPED_TRACE(C.Name);
    EXPECT_FALSE(Loads(Payload(C.Forged)));
    EXPECT_TRUE(Loads(Payload(C.Control)));
  }
}

TEST(PersistStateCodec, LocalPhaseDetectorRejectsCountersObserveCannotReach) {
  // observe adopts on the first observation, compares from the second,
  // needs two similar compares to reach Stable and counts every entry to
  // or exit from Stable, so it is Stable exactly after an odd count. A
  // payload whose counters disagree with that would restore a region that
  // exports stable without having compared, or that counts an exit from a
  // Stable state it never entered.
  const std::unique_ptr<core::SimilarityMetric> Metric =
      core::makeSimilarity(core::SimilarityKind::Pearson);
  const std::vector<std::uint32_t> Prev{3, 0, 1, 0, 0, 2, 0, 0};
  using St = core::LocalPhaseState;
  struct Fields {
    bool PrevValid;
    St State;
    bool LastWasChange;
    std::uint64_t PhaseChanges;
    std::uint64_t Observed;
  };
  const auto Payload = [&Prev](const Fields &F) {
    ByteWriter W;
    W.vecU32(Prev);
    W.boolean(F.PrevValid);
    W.u8(static_cast<std::uint8_t>(F.State));
    W.f64(0.9);
    W.boolean(F.LastWasChange);
    W.u64(F.PhaseChanges);
    W.u64(F.Observed);
    W.u64(0); // SkippedUndersampled
    return W.take();
  };
  const auto Loads = [&Metric](const std::vector<std::uint8_t> &Bytes) {
    core::LocalPhaseDetector D(/*InstrCount=*/8, *Metric);
    ByteReader R(Bytes);
    return StateCodec::decode(R, D) && R.atEnd();
  };

  // Each control is a state observe reaches, and differs from its forgery
  // only in the forged field.
  const struct {
    const char *Name;
    Fields Forged;
    Fields Control;
  } Cases[] = {
      {"stable set before any observation",
       {true, St::Unstable, false, 0, 0},
       {false, St::Unstable, false, 0, 0}},
      {"no stable set after an observation",
       {false, St::Unstable, false, 0, 1},
       {true, St::Unstable, false, 0, 1}},
      {"stable with no observation",
       {false, St::Stable, false, 0, 0},
       {false, St::Unstable, false, 0, 0}},
      {"less unstable after one observation",
       {true, St::LessUnstable, false, 0, 1},
       {true, St::Unstable, false, 0, 1}},
      {"stable after two observations",
       {true, St::Stable, false, 0, 2},
       {true, St::LessUnstable, false, 0, 2}},
      {"a phase change before any compare",
       {true, St::Unstable, false, 1, 1},
       {true, St::Unstable, false, 0, 1}},
      {"3 phase changes over 4 observations",
       {true, St::Stable, true, 3, 4},
       {true, St::Stable, true, 1, 4}},
      {"a change last interval with none counted",
       {true, St::Unstable, true, 0, 3},
       {true, St::Unstable, false, 0, 3}},
      {"stable with no phase change",
       {true, St::Stable, false, 0, 3},
       {true, St::Unstable, false, 0, 3}},
      {"stable after an even number of phase changes",
       {true, St::Stable, false, 2, 4},
       {true, St::Stable, false, 1, 4}},
      {"unstable after an odd number of phase changes",
       {true, St::Unstable, false, 1, 4},
       {true, St::Unstable, false, 0, 4}},
  };
  for (const auto &C : Cases) {
    SCOPED_TRACE(C.Name);
    EXPECT_FALSE(Loads(Payload(C.Forged)));
    EXPECT_TRUE(Loads(Payload(C.Control)));
  }
}

/// Records one workload stream's intervals (the service tests' pattern).
struct RecordedStream {
  std::unique_ptr<workloads::Workload> W;
  std::unique_ptr<sim::ProgramCodeMap> Map;
  std::vector<std::vector<Sample>> Intervals;
};

RecordedStream record(const std::string &Name, std::uint64_t Seed) {
  RecordedStream S;
  S.W = std::make_unique<workloads::Workload>(workloads::make(Name));
  S.Map = std::make_unique<sim::ProgramCodeMap>(S.W->Prog);
  sim::Engine Engine(S.W->Prog, S.W->Script, Seed);
  sampling::Sampler Sampler(Engine, {45'000, 2032});
  S.Intervals = Sampler.collectIntervals();
  return S;
}

TEST(PersistStateCodec, RegionMonitorBitIdenticalRoundTripAndContinuation) {
  const RecordedStream S = record("synthetic.periodic", 7);
  ASSERT_GT(S.Intervals.size(), 8U);

  core::RegionMonitorConfig Cfg;
  Cfg.TrackMissPhases = true; // exercise the miss-phase arrays too
  core::RegionMonitor Orig(*S.Map, Cfg);
  const std::size_t Half = S.Intervals.size() / 2;
  for (std::size_t I = 0; I < Half; ++I)
    Orig.observeInterval(S.Intervals[I]);
  ASSERT_FALSE(Orig.regions().empty()) << "stream formed no regions";

  const std::vector<std::uint8_t> Bytes = encodeBytes(Orig);
  core::RegionMonitor Copy(*S.Map, Cfg);
  {
    ByteReader R(Bytes);
    ASSERT_TRUE(StateCodec::decode(R, Copy));
    EXPECT_TRUE(R.atEnd());
  }
  EXPECT_EQ(encodeBytes(Copy), Bytes);

  // Continuation over the second half must match the uninterrupted run
  // byte for byte -- the warm-restart guarantee at monitor granularity.
  for (std::size_t I = Half; I < S.Intervals.size(); ++I) {
    Orig.observeInterval(S.Intervals[I]);
    Copy.observeInterval(S.Intervals[I]);
  }
  EXPECT_EQ(encodeBytes(Copy), encodeBytes(Orig));
  EXPECT_EQ(Copy.totalPhaseChanges(), Orig.totalPhaseChanges());
  EXPECT_EQ(Copy.intervals(), Orig.intervals());
}

TEST(PersistStateCodec, RegionMonitorRejectsTruncationAndResets) {
  const RecordedStream S = record("synthetic.steady", 3);
  core::RegionMonitor Orig(*S.Map);
  for (const std::vector<Sample> &Interval : S.Intervals)
    Orig.observeInterval(Interval);
  const std::vector<std::uint8_t> Bytes = encodeBytes(Orig);

  const std::vector<std::uint8_t> FreshBytes = [&] {
    core::RegionMonitor Fresh(*S.Map);
    return encodeBytes(Fresh);
  }();

  for (std::size_t Len : {std::size_t{0}, Bytes.size() / 3, Bytes.size() / 2,
                          Bytes.size() - 1}) {
    SCOPED_TRACE("truncated to " + std::to_string(Len));
    core::RegionMonitor Victim(*S.Map);
    ByteReader R(std::span<const std::uint8_t>(Bytes.data(), Len));
    EXPECT_FALSE(StateCodec::decode(R, Victim));
    // All-or-nothing: the victim is back at cold state, not half-written.
    EXPECT_EQ(encodeBytes(Victim), FreshBytes);
    EXPECT_TRUE(Victim.regions().empty());
  }

  // A different monitor configuration is a different state layout:
  // decoding under it must be refused, not misinterpreted. TrackMissPhases
  // is part of the fingerprint because it changes the per-region arrays.
  core::RegionMonitorConfig Other;
  Other.TrackMissPhases = true;
  core::RegionMonitor Mismatched(*S.Map, Other);
  ByteReader R(Bytes);
  EXPECT_FALSE(StateCodec::decode(R, Mismatched));
  EXPECT_TRUE(Mismatched.regions().empty());
}

/// One region of a hand-written monitor payload.
struct ForgedRegion {
  Addr Start = 0x1000;
  Addr End = 0x1000 + 8 * InstrBytes;
  std::uint64_t FormedAt = 0;
  bool Active = true;
  std::uint64_t LastSampled = 0;
  /// Unset: the lifetime observeInterval gives an active region, the
  /// intervals since its formation.
  std::optional<std::uint64_t> Lifetime;
  std::uint64_t Stable = 0;
  std::uint64_t Sampled = 0; ///< intervals with samples
  std::uint64_t Samples = 0;
  std::uint64_t Misses = 0; ///< all charged to the first instruction
};

/// The monitor-wide counters of a hand-written payload.
struct ForgedCounters {
  std::uint64_t Intervals = 4;
  std::uint64_t Triggers = 1;
  std::uint64_t Undersampled = 0;
  double LastUcr = 0.5;
  /// Set: the payload is a RecordTimelines monitor's, this is its UCR
  /// series (LastUcr is unused) and every region's chart series is empty.
  std::optional<std::vector<double>> UcrHistory;
};

core::RegionMonitorConfig forgedConfig(bool Timelines) {
  core::RegionMonitorConfig Cfg;
  Cfg.RecordTimelines = Timelines;
  return Cfg;
}

/// Writes a default-config monitor payload in the layout of
/// StateCodec::encode(ByteWriter &, const RegionMonitor &): the bytes a
/// CRC-valid forged snapshot would carry. Every region's detector is cold.
std::vector<std::uint8_t> forgeMonitor(const ForgedCounters &C,
                                       const std::vector<ForgedRegion> &Rs) {
  const core::RegionMonitorConfig Cfg =
      forgedConfig(C.UcrHistory.has_value());
  const std::unique_ptr<core::SimilarityMetric> Metric =
      core::makeSimilarity(Cfg.Similarity);
  ByteWriter W;
  W.boolean(Cfg.TrackMissPhases);
  W.boolean(Cfg.RecordTimelines);
  W.u64(core::MissWindowIntervals);
  W.u64(C.Intervals);
  W.u64(C.Triggers);
  W.u64(C.Undersampled);
  if (C.UcrHistory)
    W.vecF64(*C.UcrHistory);
  else
    W.f64(C.LastUcr);
  W.u32(static_cast<std::uint32_t>(Rs.size()));
  for (const ForgedRegion &F : Rs) {
    const std::size_t Instrs = (F.End - F.Start) / InstrBytes;
    W.str("forged");
    W.u64(F.Start);
    W.u64(F.End);
    W.u64(F.FormedAt);
    W.boolean(F.Active);
    StateCodec::encode(W, core::LocalPhaseDetector(Instrs, *Metric, Cfg.Lpd));
    W.boolean(false); // no miss-channel detector
    W.u64(F.Lifetime.value_or(C.Intervals - F.FormedAt));
    W.u64(F.Stable);
    W.u64(F.Sampled);
    W.u64(F.Samples);
    W.u64(F.LastSampled);
    std::vector<std::uint64_t> Cumulative(Instrs, 0);
    Cumulative[0] = F.Misses;
    W.vecU64(Cumulative);
    StateCodec::encode(W, WindowedStats(core::MissWindowIntervals));
    if (Cfg.RecordTimelines) {
      W.vecU32(std::vector<std::uint32_t>{}); // samples
      W.vecF64(std::vector<double>{});        // r
      W.u64(0);                               // states
    }
  }
  return W.take();
}

/// A payload with one formation trigger per distinct formation interval.
std::vector<std::uint8_t> forgeMonitor(std::uint64_t Intervals,
                                       const std::vector<ForgedRegion> &Rs) {
  ForgedCounters C;
  C.Intervals = Intervals;
  std::set<std::uint64_t> FormedAt;
  for (const ForgedRegion &F : Rs)
    FormedAt.insert(F.FormedAt);
  C.Triggers = FormedAt.size();
  return forgeMonitor(C, Rs);
}

bool monitorLoads(const std::vector<std::uint8_t> &Bytes,
                  bool Timelines = false) {
  // Decode never consults the code map.
  const core::CodeMap Map;
  core::RegionMonitor M(Map, forgedConfig(Timelines));
  ByteReader R(Bytes);
  const bool Loaded = StateCodec::decode(R, M) && R.atEnd();
  EXPECT_EQ(Loaded, !M.regions().empty()) << "a failed decode must reset";
  return Loaded;
}

TEST(PersistStateCodec, RegionMonitorRejectsDuplicateActiveBounds) {
  // Formation never forms a region over an active region's bounds.
  // Two active regions over one range would attribute every sample there
  // twice. The copies are not adjacent, so the check cannot rely on order.
  ForgedRegion First;
  ForgedRegion Other;
  Other.Start = First.End;
  Other.End = First.End + 4 * InstrBytes;
  Other.FormedAt = Other.LastSampled = 1;
  ForgedRegion Copy = First;
  Copy.FormedAt = Copy.LastSampled = 2;

  EXPECT_FALSE(monitorLoads(forgeMonitor(4, {First, Other, Copy})));
  // Control: the first copy pruned before the second formed, a state
  // formation reaches.
  First.Active = false;
  First.Lifetime = 2; // pruned at the end of interval 1
  EXPECT_TRUE(monitorLoads(forgeMonitor(4, {First, Other, Copy})));
}

TEST(PersistStateCodec, RegionMonitorRejectsSampleClockOutsideItsLifetime) {
  // Formation stamps both clocks inside an interval that then completes,
  // and sampling only moves the sample clock forward: FormedAt <=
  // LastSampled < Intervals. A clock past the interval count would wrap
  // pruneCold's idle subtraction.
  const auto Payload = [](std::uint64_t LastSampled) {
    ForgedRegion F;
    F.FormedAt = 3;
    F.LastSampled = LastSampled;
    return forgeMonitor(/*Intervals=*/10, {F});
  };
  EXPECT_TRUE(monitorLoads(Payload(3)));
  EXPECT_TRUE(monitorLoads(Payload(9)));
  EXPECT_FALSE(monitorLoads(Payload(10)));
  EXPECT_FALSE(monitorLoads(Payload(~std::uint64_t{0})));
  EXPECT_FALSE(monitorLoads(Payload(2))); // sampled before it was formed
}

TEST(PersistStateCodec, RegionMonitorRejectsMoreActiveRegionsThanTheCap) {
  // Formation stops at MaxRegions active regions. More in a payload would
  // also grow the attribution table, rebuilt for every active region,
  // past anything formation builds.
  const std::size_t Cap = core::MaxRegions;
  const auto Disjoint = [](std::size_t Count) {
    std::vector<ForgedRegion> Rs(Count);
    for (std::size_t I = 0; I < Count; ++I) {
      Rs[I].Start = 0x1000 + I * 8 * InstrBytes;
      Rs[I].End = Rs[I].Start + 8 * InstrBytes;
    }
    return Rs;
  };

  EXPECT_TRUE(monitorLoads(forgeMonitor(4, Disjoint(Cap))));
  // Retired regions do not count against the cap.
  std::vector<ForgedRegion> WithRetired = Disjoint(Cap + 1);
  WithRetired.back().Active = false;
  EXPECT_TRUE(monitorLoads(forgeMonitor(4, WithRetired)));
  EXPECT_FALSE(monitorLoads(forgeMonitor(4, Disjoint(Cap + 1))));
}

TEST(PersistStateCodec, RegionMonitorRejectsCountersFormationCannotReach) {
  // observeInterval fires at most one formation trigger per interval and
  // counts it undersampled or not. From its formation interval on it ages
  // every active region by one per interval, adding at most one to the
  // region's sampled and stable counts; pruning stops all three. Each miss
  // is also a sample. v3 derives the copies of these counts, so the counts
  // that remain must agree with each other.
  ForgedRegion Honest;
  Honest.FormedAt = 1;
  Honest.LastSampled = 2;
  Honest.Sampled = 1;
  Honest.Samples = 10;
  Honest.Misses = 4;
  using FC = ForgedCounters;
  using FR = ForgedRegion;
  using Field = void (*)(FC &, FR &, std::uint64_t);
  // Four intervals; the region was formed in interval 1, so it is 3 old.
  const struct {
    const char *Name;
    Field Set;
    std::uint64_t Forged;
    std::uint64_t Control;
  } Cases[] = {
      {"more formation triggers than intervals",
       [](FC &C, FR &, std::uint64_t V) { C.Triggers = V; }, 5, 4},
      {"more undersampled intervals than intervals",
       [](FC &C, FR &, std::uint64_t V) { C.Undersampled = V; }, 5, 4},
      {"an active region younger than its formation",
       [](FC &, FR &F, std::uint64_t V) { F.Lifetime = V; }, 2, 3},
      {"an active region older than its formation",
       [](FC &, FR &F, std::uint64_t V) { F.Lifetime = V; }, 4, 3},
      {"a pruned region older than its formation",
       [](FC &, FR &F, std::uint64_t V) {
         F.Active = false;
         F.Lifetime = V;
       },
       4, 3},
      {"more sampled intervals than lifetime",
       [](FC &, FR &F, std::uint64_t V) { F.Sampled = V; }, 4, 3},
      {"more stable intervals than lifetime",
       [](FC &, FR &F, std::uint64_t V) { F.Stable = V; }, 4, 3},
      {"more misses than samples",
       [](FC &, FR &F, std::uint64_t V) { F.Misses = V; }, 11, 10},
  };
  for (const auto &Case : Cases) {
    SCOPED_TRACE(Case.Name);
    const auto Payload = [&Case, &Honest](std::uint64_t V) {
      ForgedCounters C;
      ForgedRegion F = Honest;
      Case.Set(C, F, V);
      return forgeMonitor(C, {F});
    };
    EXPECT_FALSE(monitorLoads(Payload(Case.Forged)));
    EXPECT_TRUE(monitorLoads(Payload(Case.Control)));
  }
}

TEST(PersistStateCodec, RegionMonitorRejectsUnreachableUcr) {
  // The UCR fraction is a count over the buffer size, and the series
  // holds one per interval. v3 writes the last fraction once: on its own,
  // or as the series' last entry under RecordTimelines.
  const ForgedRegion Region;
  const auto Single = [&Region](double Last) {
    ForgedCounters C;
    C.LastUcr = Last;
    return forgeMonitor(C, {Region});
  };
  EXPECT_TRUE(monitorLoads(Single(0.0)));
  EXPECT_TRUE(monitorLoads(Single(1.0)));
  EXPECT_FALSE(monitorLoads(Single(1.5)));
  EXPECT_FALSE(monitorLoads(Single(-0.25)));
  EXPECT_FALSE(monitorLoads(Single(std::nan(""))));

  const auto Series = [&Region](std::vector<double> History) {
    ForgedCounters C; // four intervals
    C.UcrHistory = std::move(History);
    return forgeMonitor(C, {Region});
  };
  EXPECT_TRUE(monitorLoads(Series({1.0, 0.5, 0.25, 0.0}), true));
  EXPECT_FALSE(monitorLoads(Series({1.0, 0.5, 0.25}), true));
  EXPECT_FALSE(monitorLoads(Series({1.0, 0.5, 0.25, 0.0, 0.0}), true));
  EXPECT_FALSE(monitorLoads(Series({1.0, std::nan(""), 0.25, 0.0}), true));
  // The layout follows the configuration: a series is not a fraction.
  EXPECT_FALSE(monitorLoads(Series({1.0, 0.5, 0.25, 0.0})));
}

TEST(PersistStateCodec, MonitorSnapshotDoesNotGrowWithRunLength) {
  // The monitor runs for the program's whole life, so once its regions
  // settle its checkpoint must stop growing: only RecordTimelines keeps
  // per-interval series.
  const workloads::Workload W = workloads::make("181.mcf");
  const sim::ProgramCodeMap Map(W.Prog);
  const auto Run = [&W, &Map](bool Timelines, auto &&AtInterval) {
    core::RegionMonitor M(Map, forgedConfig(Timelines));
    sim::Engine Engine(W.Prog, W.Script, /*Seed=*/1);
    sampling::Sampler Sampler(Engine, {45'000, 2032});
    std::vector<Sample> Buffer;
    while (Sampler.fillBuffer(Buffer) && AtInterval(M, Buffer))
      ;
  };

  std::vector<std::size_t> Sizes;
  Run(false, [&Sizes](core::RegionMonitor &M, const std::vector<Sample> &B) {
    M.observeInterval(B);
    if (M.intervals() % 500 == 0)
      Sizes.push_back(encodeBytes(M).size());
    return Sizes.size() < 2;
  });
  ASSERT_EQ(Sizes.size(), 2U) << "the run ended before 1000 intervals";
  EXPECT_EQ(Sizes[1], Sizes[0]);

  // With the series recorded, a restored monitor holds the same history
  // and last fraction, and continues bit-identically.
  std::unique_ptr<core::RegionMonitor> Copy;
  Run(true, [&](core::RegionMonitor &M, const std::vector<Sample> &B) {
    M.observeInterval(B);
    if (Copy)
      Copy->observeInterval(B);
    else if (M.intervals() == 250) {
      Copy = std::make_unique<core::RegionMonitor>(Map, forgedConfig(true));
      const std::vector<std::uint8_t> Bytes = encodeBytes(M);
      ByteReader R(Bytes);
      EXPECT_TRUE(StateCodec::decode(R, *Copy) && R.atEnd());
      EXPECT_TRUE(std::ranges::equal(Copy->ucrHistory(), M.ucrHistory()));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(Copy->lastUcrFraction()),
                std::bit_cast<std::uint64_t>(M.lastUcrFraction()));
    }
    if (M.intervals() < 500)
      return true;
    EXPECT_EQ(encodeBytes(*Copy), encodeBytes(M));
    EXPECT_TRUE(std::ranges::equal(Copy->ucrHistory(), M.ucrHistory()));
    EXPECT_EQ(Copy->ucrHistory().size(), 500U);
    return false;
  });
  ASSERT_NE(Copy, nullptr);
}

TEST(PersistStateCodec, AdaptiveControllerRoundTripAndContinuation) {
  sampling::AdaptiveConfig Cfg;
  Cfg.Enabled = true;
  Cfg.MaxScaleLog2 = 3;
  Cfg.StableIntervalsPerStep = 2;
  sampling::AdaptiveController Orig(Cfg);
  // Drive to a nontrivial point: two lengthens, a tighten, one banked
  // streak interval and a nonzero samples-saved account.
  sampling::StreamFeedback Stable;
  Stable.AllRegionsStable = true;
  Stable.UcrFraction = 0.25;
  for (int I = 0; I < 4; ++I) {
    Orig.noteSamples(100);
    (void)Orig.observe(Stable);
  }
  ASSERT_EQ(Orig.scaleLog2(), 2U);
  ASSERT_GT(Orig.samplesSaved(), 0U);
  sampling::StreamFeedback Spike = Stable;
  Spike.UcrFraction = 0.9;
  ASSERT_EQ(Orig.observe(Spike), sampling::AdaptiveDecision::Tighten);
  (void)Orig.observe(Stable); // bank one interval toward the next step
  ASSERT_EQ(Orig.stableStreak(), 1U);

  const std::vector<std::uint8_t> Bytes = encodeBytes(Orig);
  sampling::AdaptiveController Copy(Cfg);
  {
    ByteReader R(Bytes);
    ASSERT_TRUE(StateCodec::decode(R, Copy));
    EXPECT_TRUE(R.atEnd());
  }
  EXPECT_EQ(encodeBytes(Copy), Bytes);
  EXPECT_EQ(Copy.stableStreak(), 1U);

  // Continuation: the copy must take the same transitions forever.
  for (int I = 0; I < 5; ++I) {
    Orig.noteSamples(10);
    Copy.noteSamples(10);
    EXPECT_EQ(Orig.observe(Stable), Copy.observe(Stable));
  }
  EXPECT_EQ(encodeBytes(Copy), encodeBytes(Orig));
}

TEST(PersistStateCodec, AdaptiveControllerRejectsDesyncedPayloads) {
  sampling::AdaptiveConfig Cfg;
  Cfg.Enabled = true;
  Cfg.MaxScaleLog2 = 3;
  Cfg.StableIntervalsPerStep = 2;
  sampling::AdaptiveController Orig(Cfg);
  sampling::StreamFeedback Stable;
  Stable.AllRegionsStable = true;
  for (int I = 0; I < 2; ++I)
    (void)Orig.observe(Stable);
  const std::vector<std::uint8_t> Bytes = encodeBytes(Orig);

  const auto rejects = [](std::vector<std::uint8_t> Mut,
                          sampling::AdaptiveConfig Into,
                          const std::string &What) {
    sampling::AdaptiveController C(Into);
    ByteReader R(Mut);
    EXPECT_FALSE(StateCodec::decode(R, C)) << What;
  };

  // Config mismatches: the decoding service was built with different
  // tuning, so the payload's schedule is not reproducible here.
  {
    sampling::AdaptiveConfig Other = Cfg;
    Other.StableIntervalsPerStep = 3;
    rejects(Bytes, Other, "step mismatch");
  }
  {
    sampling::AdaptiveConfig Other = Cfg;
    Other.Enabled = false;
    rejects(Bytes, Other, "enabled-bit mismatch");
  }
  // Every truncation is a clean rejection.
  for (std::size_t Len = 0; Len < Bytes.size(); ++Len)
    rejects({Bytes.begin(), Bytes.begin() + static_cast<long>(Len)}, Cfg,
            "truncated to " + std::to_string(Len));
  // Hand-rolled payloads violating the machine's invariants.
  const auto forged = [&](std::uint32_t Level, std::uint32_t Streak,
                          std::uint64_t Tightens, bool Enabled) {
    ByteWriter W;
    W.boolean(Enabled);
    W.u64(Cfg.BasePeriodCycles);
    W.u32(Cfg.MaxScaleLog2);
    W.u32(Cfg.StableIntervalsPerStep);
    W.f64(Cfg.UcrSpikeDelta);
    W.u32(Level);
    W.u32(Streak);
    W.f64(0.0);
    W.boolean(false);
    W.u64(0);        // lengthens
    W.u64(Tightens);
    W.u64(0);        // samples saved
    return W.take();
  };
  rejects(forged(Cfg.MaxScaleLog2 + 1, 0, 0, true), Cfg, "level above cap");
  rejects(forged(0, Cfg.StableIntervalsPerStep, 0, true), Cfg,
          "streak at threshold never persists");
  // A disabled controller never mutates state: nonzero dynamic fields
  // under Enabled == false are a desynced payload, not a restore.
  sampling::AdaptiveConfig Off = Cfg;
  Off.Enabled = false;
  rejects(forged(0, 0, 1, false), Off, "nonzero state while disabled");
  {
    const std::vector<std::uint8_t> Zeroed = forged(0, 0, 0, false);
    sampling::AdaptiveController C(Off);
    ByteReader R(Zeroed);
    EXPECT_TRUE(StateCodec::decode(R, C)) << "all-zero disabled payload";
  }
}

} // namespace
