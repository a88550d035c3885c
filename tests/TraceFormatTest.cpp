//===- tests/TraceFormatTest.cpp - Trace format totality tests ------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The flight-recorder format's trust-boundary tests: payload round-trips,
// then a scanner totality sweep -- every truncation length, a bit flip at
// every byte offset, hostile lengths and counts, version skew, unknown
// kinds -- asserting the scanner always lands on a precise diagnosis and
// the exact valid-prefix boundary, never undefined behaviour (run under
// ASan/UBSan via tools/run_sanitized_tests.sh). The recorder half gets a
// crash sweep at every byte budget: the torn file must be a byte-prefix
// of an uninterrupted reference, repair to its valid prefix, and accept
// appends again at the resumed sequence.
//
//===----------------------------------------------------------------------===//

#include "trace/Reader.h"
#include "trace/Recorder.h"

#include "persist/Io.h"
#include "persist/SampleBlock.h"

#include "HugeSpan.h"
#include "WriteCalls.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <set>
#include <span>
#include <string>
#include <vector>

using namespace regmon;
using namespace regmon::trace;
using service::RecordedFate;

namespace {

std::string scratchFile(const std::string &Tag) {
  static int Counter = 0;
  const std::string Path = ::testing::TempDir() + "regmon_trace_" +
                           std::to_string(::getpid()) + "_" + Tag + "_" +
                           std::to_string(Counter++) + ".bin";
  std::filesystem::remove(Path);
  return Path;
}

std::vector<std::uint8_t> headerBytes() {
  persist::ByteWriter W;
  W.bytes(persist::logHeader(TraceFormat));
  return W.take();
}

/// One well-formed record with the real CRC.
std::vector<std::uint8_t> record(std::uint64_t Seq, std::uint8_t Kind,
                                 std::span<const std::uint8_t> Payload) {
  persist::ByteWriter W;
  W.bytes(persist::recordHeader(Seq, Kind, Payload));
  W.bytes(Payload);
  return W.take();
}

void append(std::vector<std::uint8_t> &Out,
            const std::vector<std::uint8_t> &More) {
  Out.insert(Out.end(), More.begin(), More.end());
}

service::SampleBatch smallBatch(std::uint32_t Stream) {
  service::SampleBatch B;
  B.Stream = Stream;
  B.Samples = {{0x400010, 100, false}, {0x400020, 200, true}};
  return B;
}

/// A Config payload: \p Fingerprint, then the start point \p Start.
std::vector<std::uint8_t> configPayload(std::vector<std::uint8_t> Fingerprint,
                                        service::StartPoint Start = {}) {
  persist::ByteWriter W;
  W.bytes(Fingerprint);
  W.u64(Start.Sequence);
  W.u32(Start.StateCrc);
  return W.take();
}

std::vector<std::uint8_t> batchPayload(const service::SampleBatch &B,
                                       RecordedFate Fate) {
  persist::ByteWriter W;
  encodeBatchRecordPayload(W, B, Fate);
  return W.take();
}

/// A deterministic four-record trace with known record boundaries:
/// Config, Batch, Drop, Checkpoint.
struct BuiltTrace {
  std::vector<std::uint8_t> Bytes;
  /// Valid-prefix byte lengths: header, then after each record.
  std::vector<std::uint64_t> Boundaries;
};

BuiltTrace buildTrace() {
  BuiltTrace T;
  T.Bytes = headerBytes();
  T.Boundaries.push_back(T.Bytes.size());
  const std::vector<std::uint8_t> Config = configPayload({9, 8, 7, 6});
  for (const auto &Rec :
       {record(1, static_cast<std::uint8_t>(RecordKind::Config), Config),
        record(2, static_cast<std::uint8_t>(RecordKind::Batch),
               batchPayload(smallBatch(0), RecordedFate::Admitted)),
        [] {
          persist::ByteWriter W;
          encodeDropPayload(W, /*EvictedSeq=*/2, /*Shard=*/0);
          return record(3, static_cast<std::uint8_t>(RecordKind::Drop),
                        W.take());
        }(),
        [] {
          persist::ByteWriter W;
          encodeCheckpointPayload(W, /*JournalSeq=*/1, /*Committed=*/true);
          return record(4, static_cast<std::uint8_t>(RecordKind::Checkpoint),
                        W.take());
        }()}) {
    append(T.Bytes, Rec);
    T.Boundaries.push_back(T.Bytes.size());
  }
  return T;
}

TEST(TraceFormat, KindNamesAreDistinct) {
  std::set<std::string> Names;
  for (RecordKind K : {RecordKind::Config, RecordKind::Batch, RecordKind::Drop,
                       RecordKind::PushReject, RecordKind::Checkpoint})
    Names.insert(toString(K));
  EXPECT_EQ(Names.size(), 5U);
}

TEST(TraceFormat, HeaderAloneIsAnIntactEmptyTrace) {
  const std::vector<std::uint8_t> H = headerBytes();
  ASSERT_EQ(H.size(), persist::LogHeaderBytes);
  const ScanResult S = scanTraceBytes(H);
  EXPECT_TRUE(S.intact());
  EXPECT_TRUE(S.Records.empty());
  EXPECT_EQ(S.ValidBytes, persist::LogHeaderBytes);
  EXPECT_EQ(S.LastSeq, 0U);
}

TEST(TraceFormat, PayloadRoundTrips) {
  // Batch: fate + stream + samples survive the wire.
  const service::SampleBatch In = smallBatch(7);
  const std::vector<std::uint8_t> P = batchPayload(In, RecordedFate::Refused);
  persist::ByteWriter Block;
  persist::encodeSampleBlock(Block, In.Samples);
  EXPECT_EQ(P.size(), 1 + 4 + Block.size());
  persist::ByteReader R(P);
  service::SampleBatch Out;
  RecordedFate Fate = RecordedFate::Admitted;
  ASSERT_TRUE(decodeBatchRecordPayload(R, Out, Fate));
  EXPECT_EQ(Fate, RecordedFate::Refused);
  EXPECT_EQ(Out.Stream, In.Stream);
  ASSERT_EQ(Out.Samples.size(), In.Samples.size());
  for (std::size_t I = 0; I < In.Samples.size(); ++I) {
    EXPECT_EQ(Out.Samples[I].Pc, In.Samples[I].Pc);
    EXPECT_EQ(Out.Samples[I].Time, In.Samples[I].Time);
    EXPECT_EQ(Out.Samples[I].DCacheMiss, In.Samples[I].DCacheMiss);
  }

  persist::ByteWriter W2;
  encodeDropPayload(W2, 42, 3);
  persist::ByteReader R2(W2.data());
  std::uint64_t Evicted = 0, Shard = 0;
  ASSERT_TRUE(decodeDropPayload(R2, Evicted, Shard));
  EXPECT_EQ(Evicted, 42U);
  EXPECT_EQ(Shard, 3U);

  persist::ByteWriter W3;
  encodePushRejectPayload(W3, 17);
  persist::ByteReader R3(W3.data());
  std::uint64_t Seq = 0;
  ASSERT_TRUE(decodePushRejectPayload(R3, Seq));
  EXPECT_EQ(Seq, 17U);

  persist::ByteWriter W4;
  encodeCheckpointPayload(W4, 9, false);
  persist::ByteReader R4(W4.data());
  std::uint64_t JSeq = 0;
  bool Committed = true;
  ASSERT_TRUE(decodeCheckpointPayload(R4, JSeq, Committed));
  EXPECT_EQ(JSeq, 9U);
  EXPECT_FALSE(Committed);
}

TEST(TraceFormat, DecodersRejectStructuralViolations) {
  // Out-of-range fate.
  {
    std::vector<std::uint8_t> P =
        batchPayload(smallBatch(0), RecordedFate::Admitted);
    P[0] = 9;
    persist::ByteReader R(P);
    service::SampleBatch B;
    RecordedFate F;
    EXPECT_FALSE(decodeBatchRecordPayload(R, B, F));
  }
  // Trailing bytes after an otherwise valid payload.
  {
    std::vector<std::uint8_t> P =
        batchPayload(smallBatch(0), RecordedFate::Admitted);
    P.push_back(0);
    persist::ByteReader R(P);
    service::SampleBatch B;
    RecordedFate F;
    EXPECT_FALSE(decodeBatchRecordPayload(R, B, F));
  }
  // Short payload (sample count promises more than the bytes hold).
  {
    std::vector<std::uint8_t> P =
        batchPayload(smallBatch(0), RecordedFate::Admitted);
    P.resize(P.size() - 1);
    persist::ByteReader R(P);
    service::SampleBatch B;
    RecordedFate F;
    EXPECT_FALSE(decodeBatchRecordPayload(R, B, F));
  }
  // Non-0/1 checkpoint bool.
  {
    persist::ByteWriter W;
    encodeCheckpointPayload(W, 1, true);
    std::vector<std::uint8_t> P = W.take();
    P.back() = 2;
    persist::ByteReader R(P);
    std::uint64_t S;
    bool C;
    EXPECT_FALSE(decodeCheckpointPayload(R, S, C));
  }
}

TEST(TraceFormat, ConfigPayloadEndsInAStartPoint) {
  std::vector<std::uint8_t> Fp;
  service::StartPoint Start;
  ASSERT_TRUE(decodeConfigPayload(configPayload({4, 5}, {9, 0xABCDU}), Fp,
                                  Start));
  EXPECT_EQ(Fp, (std::vector<std::uint8_t>{4, 5}));
  EXPECT_EQ(Start, (service::StartPoint{9, 0xABCDU}));
  // An empty fingerprint still carries a start point.
  ASSERT_TRUE(decodeConfigPayload(configPayload({}), Fp, Start));
  EXPECT_TRUE(Fp.empty());
  EXPECT_EQ(Start, service::StartPoint{});
  // Too short to end in a start point, and a CRC at sequence 0 (a cold
  // start has one encoding).
  const std::vector<std::uint8_t> Short(11, 0);
  EXPECT_FALSE(decodeConfigPayload(Short, Fp, Start));
  EXPECT_FALSE(decodeConfigPayload(configPayload({4}, {0, 1}), Fp, Start));

  std::vector<std::uint8_t> Bytes = headerBytes();
  append(Bytes, record(1, static_cast<std::uint8_t>(RecordKind::Config),
                       Short));
  const ScanResult S = scanTraceBytes(Bytes);
  EXPECT_TRUE(S.MalformedPayload);
  EXPECT_EQ(S.ValidBytes, persist::LogHeaderBytes);
}

// Each recorded batch leaves in one write(2): header and payload in one
// writev, however far the record outgrows a 4 KiB buffer.
TEST(TraceFormat, RecorderIssuesOneWriteCallPerRecord) {
  if (!persisttest::writeCalls())
    GTEST_SKIP() << "/proc/self/io is not readable";
  service::SampleBatch B;
  for (std::uint64_t I = 0; I < 2000; ++I)
    B.Samples.push_back({0x400000 + (I * 7919 % 65536) * 4,
                         I * 45000 + I * 31 % 100, I % 5 == 0});
  TraceRecorder Rec;
  ASSERT_TRUE(Rec.open(scratchFile("syscw")).Ok);
  Rec.recordConfig({});
  const std::uint64_t Bytes0 = Rec.bytesWritten();
  const std::uint64_t Before = *persisttest::writeCalls();
  for (int I = 0; I < 100; ++I)
    Rec.recordBatch(B, RecordedFate::Admitted);
  const std::uint64_t After = *persisttest::writeCalls();
  EXPECT_EQ(Rec.appendFailures(), 0U);
  EXPECT_GT((Rec.bytesWritten() - Bytes0) / 100, 4096U)
      << "each record outgrows a 4 KiB buffer";
  EXPECT_EQ(After - Before, 100U) << "write calls for 100 records";
  EXPECT_TRUE(Rec.close());
}

TEST(TraceFormat, ScannerDecodesRecorderOutput) {
  const std::string Path = scratchFile("roundtrip");
  TraceRecorder Rec;
  const TraceRecorder::OpenResult Open = Rec.open(Path);
  ASSERT_TRUE(Open.Ok);
  EXPECT_TRUE(Open.Created);
  EXPECT_EQ(Open.NextSeq, 1U);
  const std::vector<std::uint8_t> Fp = {1, 2, 3};
  Rec.recordConfig(configPayload(Fp, {7, 0xC0FFEEU}));
  EXPECT_EQ(Rec.recordBatch(smallBatch(5), RecordedFate::Admitted), 2U);
  Rec.recordDrop(/*EvictedSeq=*/2, /*Shard=*/1);
  Rec.recordPushReject(/*Seq=*/2);
  Rec.recordCheckpoint(/*JournalSeq=*/1, /*Committed=*/false);
  EXPECT_EQ(Rec.recordsWritten(), 5U);
  EXPECT_EQ(Rec.appendFailures(), 0U);
  ASSERT_TRUE(Rec.close());

  const ScanResult S = scanTraceFile(Path);
  EXPECT_TRUE(S.intact());
  ASSERT_EQ(S.Records.size(), 5U);
  EXPECT_EQ(S.LastSeq, 5U);
  EXPECT_EQ(S.Records[0].Kind, RecordKind::Config);
  EXPECT_EQ(S.Records[0].Config, Fp);
  EXPECT_EQ(S.Records[0].Start, (service::StartPoint{7, 0xC0FFEEU}));
  EXPECT_EQ(S.Records[1].Kind, RecordKind::Batch);
  EXPECT_EQ(S.Records[1].Fate, RecordedFate::Admitted);
  EXPECT_EQ(S.Records[1].Batch.Stream, 5U);
  EXPECT_EQ(S.Records[1].Batch.TraceSeq, 2U);
  EXPECT_EQ(S.Records[2].Kind, RecordKind::Drop);
  EXPECT_EQ(S.Records[2].RefSeq, 2U);
  EXPECT_EQ(S.Records[2].Shard, 1U);
  EXPECT_EQ(S.Records[3].Kind, RecordKind::PushReject);
  EXPECT_EQ(S.Records[3].RefSeq, 2U);
  EXPECT_EQ(S.Records[4].Kind, RecordKind::Checkpoint);
  EXPECT_EQ(S.Records[4].RefSeq, 1U);
  EXPECT_FALSE(S.Records[4].Committed);

  // Reopen extends the intact file from the next sequence.
  TraceRecorder Again;
  const TraceRecorder::OpenResult Re = Again.open(Path);
  ASSERT_TRUE(Re.Ok);
  EXPECT_FALSE(Re.Created);
  EXPECT_FALSE(Re.Repaired);
  EXPECT_EQ(Re.NextSeq, 6U);
  ASSERT_TRUE(Again.close());
}

// Totality satellite: every truncation length lands exactly on the
// longest valid prefix, flagged HeaderTorn inside the file header and
// TornTail after it -- and both repair.
TEST(TraceFormat, TruncationSweepEveryLength) {
  const BuiltTrace T = buildTrace();
  for (std::size_t Len = 0; Len <= T.Bytes.size(); ++Len) {
    SCOPED_TRACE("truncated to " + std::to_string(Len));
    const ScanResult S = scanTraceBytes(
        std::span<const std::uint8_t>(T.Bytes.data(), Len));
    EXPECT_EQ(S.FileBytes, Len);
    const bool AtBoundary =
        std::find(T.Boundaries.begin(), T.Boundaries.end(), Len) !=
        T.Boundaries.end();
    if (Len == 0) {
      // An empty byte string is a never-opened trace: intact and empty.
      EXPECT_TRUE(S.intact());
      EXPECT_EQ(S.ValidBytes, 0U);
    } else if (Len < persist::LogHeaderBytes) {
      EXPECT_TRUE(S.HeaderTorn);
      EXPECT_EQ(S.ValidBytes, 0U);
    } else if (AtBoundary) {
      EXPECT_TRUE(S.intact());
      EXPECT_EQ(S.ValidBytes, Len);
    } else {
      EXPECT_TRUE(S.TornTail);
      // The valid prefix is the largest record boundary below Len.
      std::uint64_t Expect = 0;
      for (std::uint64_t B : T.Boundaries)
        if (B < Len)
          Expect = B;
      EXPECT_EQ(S.ValidBytes, Expect);
    }
    EXPECT_TRUE(S.repairable());
    // Record count matches the boundary the prefix reaches (boundary 0 is
    // the bare header).
    const std::size_t Prefix =
        std::count_if(T.Boundaries.begin(), T.Boundaries.end(),
                      [&](std::uint64_t B) { return B <= S.ValidBytes; });
    EXPECT_EQ(S.Records.size(), Prefix == 0 ? 0 : Prefix - 1);
    EXPECT_EQ(S.RecordCount, S.Records.size());
  }
}

// Totality satellite: a bit flip at every byte offset is detected with a
// precise diagnosis -- header corruption inside the header, a torn tail
// at the containing record's boundary after it. Never intact, never UB.
TEST(TraceFormat, BitFlipSweepEveryOffset) {
  const BuiltTrace T = buildTrace();
  for (std::size_t Off = 0; Off < T.Bytes.size(); ++Off) {
    SCOPED_TRACE("bit flip at offset " + std::to_string(Off));
    std::vector<std::uint8_t> Mutated = T.Bytes;
    Mutated[Off] ^= static_cast<std::uint8_t>(1U << (Off % 8));
    const ScanResult S = scanTraceBytes(Mutated);
    EXPECT_FALSE(S.intact());
    if (Off < 4) {
      EXPECT_TRUE(S.HeaderCorrupt);
      EXPECT_FALSE(S.repairable());
    } else if (Off < persist::LogHeaderBytes) {
      EXPECT_TRUE(S.VersionSkew);
      EXPECT_FALSE(S.repairable());
    } else {
      // The CRC binds seq, kind, length and payload: whichever field the
      // flip hit, the containing record dies and everything before it
      // survives.
      EXPECT_TRUE(S.TornTail);
      std::uint64_t Expect = 0;
      for (std::uint64_t B : T.Boundaries)
        if (B <= Off)
          Expect = B;
      EXPECT_EQ(S.ValidBytes, Expect);
      EXPECT_TRUE(S.repairable());
    }
  }
}

TEST(TraceFormat, HostileRecordLengthIsATornTailNotAnAllocation) {
  std::vector<std::uint8_t> Bytes = headerBytes();
  persist::ByteWriter W;
  W.u64(1);
  W.u8(static_cast<std::uint8_t>(RecordKind::Batch));
  W.u32(0xFFFFFFFFU); // promises 4 GiB of payload
  W.u32(0xDEADBEEFU);
  append(Bytes, W.take());
  const ScanResult S = scanTraceBytes(Bytes);
  EXPECT_TRUE(S.TornTail);
  EXPECT_EQ(S.ValidBytes, persist::LogHeaderBytes);
  EXPECT_TRUE(S.repairable());
}

TEST(TraceFormat, HostileSampleCountWithValidCrcIsMalformedPayload) {
  // A forged-but-CRC-consistent batch payload claiming 2^61 samples: the
  // CRC passes, the structural decoder must still refuse.
  persist::ByteWriter P;
  P.u8(static_cast<std::uint8_t>(RecordedFate::Admitted));
  P.u32(0);
  P.u64(1ULL << 61);
  std::vector<std::uint8_t> Bytes = headerBytes();
  append(Bytes,
         record(1, static_cast<std::uint8_t>(RecordKind::Batch), P.data()));
  const ScanResult S = scanTraceBytes(Bytes);
  EXPECT_TRUE(S.MalformedPayload);
  EXPECT_EQ(S.ValidBytes, persist::LogHeaderBytes);
  EXPECT_TRUE(S.repairable());
}

TEST(TraceFormat, UnknownKindRefusesRepair) {
  std::vector<std::uint8_t> Bytes = headerBytes();
  const std::vector<std::uint8_t> P = {1, 2, 3};
  append(Bytes, record(1, /*Kind=*/9, P));
  const ScanResult S = scanTraceBytes(Bytes);
  EXPECT_TRUE(S.UnknownKind);
  EXPECT_FALSE(S.repairable()) << "repair would destroy a newer writer's data";
  EXPECT_EQ(S.ValidBytes, persist::LogHeaderBytes);

  // The recorder must refuse to open (and so to truncate) such a file.
  const std::string Path = scratchFile("unknownkind");
  persist::FileSink Sink(Path, /*Append=*/false, nullptr);
  ASSERT_TRUE(Sink.write(Bytes));
  ASSERT_TRUE(Sink.close());
  TraceRecorder Rec;
  EXPECT_FALSE(Rec.open(Path).Ok);
  const auto After = persist::readFileBytes(Path);
  ASSERT_TRUE(After.has_value());
  EXPECT_EQ(*After, Bytes) << "open modified a file it refused";
}

TEST(TraceFormat, VersionSkewRefusesRepair) {
  persist::ByteWriter W;
  W.u32(TraceFormat.Magic);
  W.u32(TraceFormat.Version + 1);
  const ScanResult S = scanTraceBytes(W.data());
  EXPECT_TRUE(S.VersionSkew);
  EXPECT_FALSE(S.repairable());

  const std::string Path = scratchFile("skew");
  persist::FileSink Sink(Path, /*Append=*/false, nullptr);
  ASSERT_TRUE(Sink.write(W.data()));
  ASSERT_TRUE(Sink.close());
  TraceRecorder Rec;
  EXPECT_FALSE(Rec.open(Path).Ok);
}

TEST(TraceFormat, NonIncreasingSequenceEndsTheScan) {
  std::vector<std::uint8_t> Bytes = headerBytes();
  const std::vector<std::uint8_t> P = configPayload({5});
  append(Bytes, record(1, static_cast<std::uint8_t>(RecordKind::Config), P));
  const std::uint64_t Boundary = Bytes.size();
  append(Bytes, record(1, static_cast<std::uint8_t>(RecordKind::Config), P));
  const ScanResult S = scanTraceBytes(Bytes);
  EXPECT_TRUE(S.TornTail);
  EXPECT_EQ(S.ValidBytes, Boundary);
  EXPECT_EQ(S.Records.size(), 1U);
}

// The tentpole's recorder-side crash contract, swept at *every* byte
// budget: a kill mid-append leaves a byte-prefix of the uninterrupted
// reference file, the scanner finds the valid prefix, repair truncates to
// it, and a reopened recorder resumes at the right sequence.
TEST(TraceFormat, RecorderCrashBudgetSweepLeavesRepairablePrefix) {
  const auto drive = [](TraceRecorder &R) {
    R.recordConfig(configPayload({10, 20, 30, 40}));
    for (std::uint32_t I = 0; I < 6; ++I) {
      service::SampleBatch B;
      B.Stream = I % 2;
      for (std::uint64_t J = 0; J < 3; ++J)
        B.Samples.push_back({0x400000 + 16 * I + J, 100 * I + J,
                             (I + J) % 2 == 1});
      R.recordBatch(B, I % 3 == 1 ? RecordedFate::Refused
                                  : RecordedFate::Admitted);
    }
    R.recordDrop(3, 0);
    R.recordPushReject(4);
    R.recordCheckpoint(5, true);
  };

  // Reference: the same decision sequence with no crash, accounting the
  // total I/O units (bytes + flushes) so the sweep covers every kill
  // point up to "never dies".
  const std::string RefPath = scratchFile("crashref");
  std::uint64_t TotalUnits = 0;
  {
    persist::CrashPoint Acct = persist::CrashPoint::unlimited();
    TraceRecorder R;
    ASSERT_TRUE(R.open(RefPath, &Acct).Ok);
    drive(R);
    EXPECT_EQ(R.appendFailures(), 0U);
    ASSERT_TRUE(R.close());
    TotalUnits = Acct.used();
  }
  const auto Ref = persist::readFileBytes(RefPath);
  ASSERT_TRUE(Ref.has_value());
  {
    const ScanResult S = scanTraceBytes(*Ref);
    ASSERT_TRUE(S.intact());
    ASSERT_EQ(S.LastSeq, 10U);
  }
  ASSERT_GE(TotalUnits, Ref->size());

  for (std::uint64_t Budget = 0; Budget <= TotalUnits + 1; ++Budget) {
    SCOPED_TRACE("crash budget " + std::to_string(Budget));
    const std::string Path = scratchFile("crash");
    persist::CrashPoint Crash(Budget);
    TraceRecorder R;
    const TraceRecorder::OpenResult Open = R.open(Path, &Crash);
    if (Open.Ok) {
      drive(R);
      (void)R.close();
      if (Budget > TotalUnits) {
        EXPECT_EQ(R.appendFailures(), 0U);
      }
    }
    // Whatever the kill left behind is a byte-prefix of the reference...
    const auto Torn = persist::readFileBytes(Path);
    const std::vector<std::uint8_t> TornBytes =
        Torn.has_value() ? *Torn : std::vector<std::uint8_t>{};
    ASSERT_LE(TornBytes.size(), Ref->size());
    EXPECT_TRUE(
        std::equal(TornBytes.begin(), TornBytes.end(), Ref->begin()))
        << "torn file diverged from the reference byte stream";
    // ...whose valid prefix the scanner finds and a reopen repairs.
    const ScanResult S = scanTraceBytes(TornBytes);
    EXPECT_TRUE(S.repairable());
    TraceRecorder Resumed;
    const TraceRecorder::OpenResult Re = Resumed.open(Path);
    ASSERT_TRUE(Re.Ok);
    // A kill inside the file header repairs to empty and rewrites the
    // header, so the resume point is never below persist::LogHeaderBytes.
    EXPECT_EQ(Re.ValidBytes,
              std::max<std::uint64_t>(S.ValidBytes, persist::LogHeaderBytes));
    EXPECT_EQ(Re.NextSeq, S.LastSeq + 1);
    EXPECT_EQ(Re.Repaired, TornBytes.size() > S.ValidBytes);
    // The repaired file extends cleanly: one more record, still intact.
    // (A checkpoint marker: the only kind with no cross-record reference,
    // so it is valid at any resume point including an empty prefix.)
    Resumed.recordCheckpoint(S.LastSeq, true);
    ASSERT_TRUE(Resumed.close());
    const ScanResult After = scanTraceFile(Path);
    EXPECT_TRUE(After.intact());
    EXPECT_EQ(After.LastSeq, S.LastSeq + 1);
    EXPECT_EQ(After.Records.size(), S.Records.size() + 1);
  }
}

TEST(TraceFormat, PayloadTooLongForU32LengthKillsRecorderBeforeAnyByte) {
  const std::string Path = scratchFile("huge");
  TraceRecorder R;
  ASSERT_TRUE(R.open(Path).Ok);
  R.recordCheckpoint(0, true);
  const std::uint64_t Before = std::filesystem::file_size(Path);

  const persisttest::HugeSpan Huge;
  ASSERT_TRUE(Huge.ok());
  ASSERT_GT(Huge.bytes().size(), persist::MaxRecordPayloadBytes);
  R.recordConfig(Huge.bytes());
  // Counted and seq-consuming like a dead sink, and dead from here on.
  EXPECT_EQ(R.appendFailures(), 1U);
  EXPECT_EQ(R.recordsWritten(), 1U);
  EXPECT_EQ(R.nextSequence(), 3U);
  EXPECT_FALSE(R.ok());
  R.recordCheckpoint(2, true);
  EXPECT_EQ(R.appendFailures(), 2U);
  EXPECT_FALSE(R.close());
  EXPECT_EQ(std::filesystem::file_size(Path), Before);

  // The recorded prefix is intact and replayable, no repair needed.
  const ScanResult S = scanTraceFile(Path);
  EXPECT_TRUE(S.intact());
  EXPECT_EQ(S.Records.size(), 1U);
  EXPECT_EQ(S.ValidBytes, Before);
}

} // namespace
