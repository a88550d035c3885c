//===- tests/TraceReplayTest.cpp - Bit-identical replay tests -------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The flight recorder's end-to-end contract, over the scenario corpus in
// tests/TraceScenarios.h: every recorded incident -- fault storm,
// quarantine cycle, DropOldest overload, mid-trace checkpoint -- replays
// through a fresh worker-less service with *byte-identical* Prometheus
// and JSON exports; a recorder killed at seeded I/O budgets leaves a
// byte-prefix of the uninterrupted trace whose repaired prefix still
// replays cleanly; the committed corpus (tests/trace_corpus/) pins the
// wire bytes and export goldens against drift; and a replayed checkpoint
// leaves a durability directory a fresh service restores the incident's
// final state from, bit for bit. The TraceAttach cases pin trace::attach,
// the one call every recording and replay site wires its logs through.
// Threaded suite (recorded services run workers): exercised under TSan
// via tools/run_sanitized_tests.sh.
//
//===----------------------------------------------------------------------===//

#include "TraceScenarios.h"

#include "persist/Bytes.h"
#include "persist/Crc32.h"
#include "persist/Io.h"
#include "persist/RecordLog.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

using namespace regmon;
using namespace regmon::tracetest;

namespace {

std::string scratchPath(const std::string &Tag) {
  static int Counter = 0;
  return ::testing::TempDir() + "regmon_replay_" +
         std::to_string(::getpid()) + "_" + Tag + "_" +
         std::to_string(Counter++);
}

std::string scratchDir(const std::string &Tag) {
  const std::string Dir = scratchPath(Tag);
  std::filesystem::remove_all(Dir);
  EXPECT_TRUE(persist::ensureDir(Dir));
  return Dir;
}

std::string scratchTrace(const std::string &Tag) {
  const std::string Path = scratchPath(Tag) + ".bin";
  std::filesystem::remove(Path);
  return Path;
}

/// The snapshot fields the exports do not already pin byte-for-byte.
void expectSnapshotsMatch(const service::ServiceSnapshot &Rec,
                          const service::ServiceSnapshot &Rep) {
  EXPECT_EQ(Rec.BatchesSubmitted, Rep.BatchesSubmitted);
  EXPECT_EQ(Rec.BatchesProcessed, Rep.BatchesProcessed);
  EXPECT_EQ(Rec.BatchesDropped, Rep.BatchesDropped);
  EXPECT_EQ(Rec.BatchesRejected, Rep.BatchesRejected);
  EXPECT_EQ(Rec.BatchesPoisoned, Rep.BatchesPoisoned);
  EXPECT_EQ(Rec.BatchesQuarantined, Rep.BatchesQuarantined);
  EXPECT_EQ(Rec.IntervalsProcessed, Rep.IntervalsProcessed);
  EXPECT_EQ(Rec.PhaseChanges, Rep.PhaseChanges);
  EXPECT_EQ(Rec.TotalSamples, Rep.TotalSamples);
  EXPECT_EQ(Rec.UcrSamples, Rep.UcrSamples);
  ASSERT_EQ(Rec.Streams.size(), Rep.Streams.size());
  for (std::size_t I = 0; I < Rec.Streams.size(); ++I) {
    SCOPED_TRACE("stream " + std::to_string(I));
    EXPECT_EQ(Rec.Streams[I].Shard, Rep.Streams[I].Shard);
    EXPECT_EQ(Rec.Streams[I].Health, Rep.Streams[I].Health);
    EXPECT_EQ(Rec.Streams[I].TimesQuarantined, Rep.Streams[I].TimesQuarantined);
    EXPECT_EQ(Rec.Streams[I].Readmissions, Rep.Streams[I].Readmissions);
    EXPECT_EQ(Rec.Streams[I].PhaseChanges, Rep.Streams[I].PhaseChanges);
    EXPECT_EQ(Rec.Streams[I].ActiveRegions, Rep.Streams[I].ActiveRegions);
  }
}

// The tentpole: every scenario's replay exports the recorded run's bytes.
TEST(TraceReplay, EveryScenarioReplaysWithByteIdenticalExports) {
  for (const std::string &Name : scenarioNames()) {
    SCOPED_TRACE(Name);
    const std::string Trace = scratchTrace(Name);
    const bool Persisted = specFor(Name).MidRunCheckpoint;
    const std::string RecDir = Persisted ? scratchDir(Name + "_rec") : "";
    const std::string RepDir = Persisted ? scratchDir(Name + "_rep") : "";
    const RecordOutcome Rec = recordScenario(Name, Trace, RecDir);
    ASSERT_TRUE(Rec.Open.Ok);
    EXPECT_GT(Rec.Snap.BatchesSubmitted, 0U);

    const ReplayOutcome Rep = replayScenario(Name, Trace, RepDir);
    EXPECT_TRUE(Rep.File.Scan.intact());
    ASSERT_TRUE(Rep.File.Replay.Ok)
        << "diverged at seq " << Rep.File.Replay.DivergedSeq;
    EXPECT_EQ(Rec.Prom, Rep.Prom) << "Prometheus export diverged";
    EXPECT_EQ(Rec.Json, Rep.Json) << "JSON export diverged";
    expectSnapshotsMatch(Rec.Snap, Rep.Snap);
  }
}

// Each scenario must actually exercise its decision path -- otherwise the
// byte-identity above is vacuous.
TEST(TraceReplay, ScenariosExerciseTheirDecisionPaths) {
  // fault-storm: seeded faults must poison batches and churn health.
  {
    const std::string Trace = scratchTrace("storm");
    const RecordOutcome Rec = recordScenario("fault-storm", Trace);
    ASSERT_TRUE(Rec.Open.Ok);
    EXPECT_GT(Rec.Snap.BatchesPoisoned, 0U) << "fault plan poisoned nothing";
  }
  // quarantine-recovery: stream 0 walks one full quarantine cycle at the
  // default tuning (threshold 3, backoff 8, recovery 4) and ends Healthy.
  {
    const std::string Trace = scratchTrace("quar");
    const RecordOutcome Rec = recordScenario("quarantine-recovery", Trace);
    ASSERT_TRUE(Rec.Open.Ok);
    ASSERT_EQ(Rec.Snap.Streams.size(), 2U);
    const service::StreamSnapshot &S0 = Rec.Snap.Streams[0];
    EXPECT_EQ(S0.PoisonedBatches, 3U);
    EXPECT_EQ(S0.QuarantinedBatches, 8U);
    EXPECT_EQ(S0.TimesQuarantined, 1U);
    EXPECT_EQ(S0.Readmissions, 1U);
    EXPECT_EQ(S0.Health, service::StreamHealth::Healthy);
    EXPECT_EQ(Rec.Snap.Streams[1].PoisonedBatches, 0U);
  }
  // drop-oldest-overload: the stalled worker forces real evictions, each
  // captured as a drop record the replay re-applies.
  {
    const std::string Trace = scratchTrace("drop");
    const RecordOutcome Rec = recordScenario("drop-oldest-overload", Trace);
    ASSERT_TRUE(Rec.Open.Ok);
    EXPECT_GT(Rec.Snap.BatchesDropped, 0U) << "overload evicted nothing";
    const ReplayOutcome Rep = replayScenario("drop-oldest-overload", Trace);
    ASSERT_TRUE(Rep.File.Replay.Ok);
    EXPECT_EQ(Rep.File.Replay.DropsApplied, Rec.Snap.BatchesDropped);
    EXPECT_EQ(Rep.Snap.BatchesDropped, Rec.Snap.BatchesDropped);
  }
  // checkpoint-restore-mid-trace: the trace carries the committed marker.
  {
    const std::string Trace = scratchTrace("ckpt");
    const RecordOutcome Rec = recordScenario("checkpoint-restore-mid-trace",
                                             Trace, scratchDir("ckpt_rec"));
    ASSERT_TRUE(Rec.Open.Ok);
    const trace::ScanResult Scan = trace::scanTraceFile(Trace);
    ASSERT_TRUE(Scan.intact());
    std::size_t Markers = 0;
    for (const trace::TraceRecord &R : Scan.Records)
      if (R.Kind == trace::RecordKind::Checkpoint) {
        ++Markers;
        EXPECT_TRUE(R.Committed);
      }
    EXPECT_EQ(Markers, 1U);
  }
}

// A torn tail replays its valid prefix -- the crash-tolerance contract,
// not an error.
TEST(TraceReplay, TornTailReplaysTheValidPrefix) {
  const std::string Trace = scratchTrace("torn");
  const RecordOutcome Rec = recordScenario("quarantine-recovery", Trace);
  ASSERT_TRUE(Rec.Open.Ok);
  const auto Full = persist::readFileBytes(Trace);
  ASSERT_TRUE(Full.has_value());
  const trace::ScanResult FullScan = trace::scanTraceBytes(*Full);
  ASSERT_TRUE(FullScan.intact());
  ASSERT_GT(FullScan.Records.size(), 4U);

  // Tear mid-way through the last record.
  std::filesystem::resize_file(Trace, Full->size() - 5);
  const ReplayOutcome Rep = replayScenario("quarantine-recovery", Trace);
  EXPECT_TRUE(Rep.File.Scan.TornTail);
  EXPECT_TRUE(Rep.File.Replay.Ok) << "a torn tail must not fail the prefix";
  EXPECT_EQ(Rep.File.Scan.RecordCount, FullScan.RecordCount - 1);
  EXPECT_LT(Rep.Snap.BatchesSubmitted, Rec.Snap.BatchesSubmitted + 1);
}

// The file replay keeps no decoded copy of the trace: its scan reports
// the records it replayed by count only.
TEST(TraceReplay, FileReplayKeepsNoRecords) {
  const std::string CorpusDir = REGMON_TRACE_CORPUS_DIR;
  for (const std::string &Name : scenarioNames()) {
    SCOPED_TRACE(Name);
    const std::string Path = CorpusDir + "/" + Name + ".bin";
    const trace::ScanResult Intact = trace::scanTraceFile(Path);
    ASSERT_TRUE(Intact.intact());
    ASSERT_GT(Intact.Records.size(), 1U);
    const ReplayOutcome Rep = replayScenario(Name, Path);
    ASSERT_TRUE(Rep.File.Replay.Ok);
    EXPECT_TRUE(Rep.File.Scan.Records.empty());
    EXPECT_EQ(Rep.File.Scan.RecordCount, Intact.Records.size());
  }
}

/// One record of a trace, re-framed by the forgeries below.
struct Framed {
  std::uint64_t Seq = 0;
  std::uint8_t Kind = 0;
  std::vector<std::uint8_t> Payload;
};

std::vector<Framed> frames(const std::vector<std::uint8_t> &Bytes) {
  std::vector<Framed> Out;
  (void)persist::scanLog(
      Bytes, trace::TraceFormat, [&Out](const persist::LogRecord &R) {
        Out.push_back({R.Seq, R.Kind, {R.Payload.begin(), R.Payload.end()}});
        return true;
      });
  return Out;
}

/// Frames \p Records as a trace, each with a valid CRC.
std::vector<std::uint8_t> frame(const std::vector<Framed> &Records) {
  persist::ByteWriter W;
  W.bytes(persist::logHeader(trace::TraceFormat));
  for (const Framed &F : Records) {
    W.bytes(persist::recordHeader(F.Seq, F.Kind, F.Payload));
    W.bytes(F.Payload);
  }
  return W.take();
}

/// What one replay leaves behind, for the differential test.
struct ReplayRun {
  trace::ScanSummary Scan;
  trace::ReplayResult Replay;
  std::vector<std::uint8_t> State;
  std::string Prom;
  std::string Json;
};

/// Replays \p Bytes through a fresh Inline service of \p Spec's topology:
/// from a file holding them through replayTraceFile (\p FromFile), or
/// through replayRecords of their scan.
ReplayRun replayBytes(const ScenarioSpec &Spec,
                      const std::vector<PreparedStream> &Streams,
                      const std::vector<std::uint8_t> &Bytes, bool FromFile) {
  service::ServiceConfig Cfg = Spec.Cfg;
  Cfg.Inline = true;
  service::MonitorService Service(Cfg);
  for (const PreparedStream &S : Streams)
    Service.addStream(*S.Map);
  obs::MetricsRegistry Registry;
  obs::EventTracer Tracer;
  Service.attachObservability(Registry, &Tracer);
  ReplayRun Out;
  if (FromFile) {
    const std::string Path = scratchTrace("diff");
    {
      persist::FileSink Sink(Path, /*Append=*/false, nullptr);
      EXPECT_TRUE(Sink.write(Bytes) && Sink.close());
    }
    const trace::FileReplay R = trace::replayTraceFile(Path, Service);
    EXPECT_TRUE(R.Scan.Records.empty());
    Out.Scan = R.Scan;
    Out.Replay = R.Replay;
    std::filesystem::remove(Path);
  } else {
    const trace::ScanResult Scan = trace::scanTraceBytes(Bytes);
    EXPECT_EQ(Scan.RecordCount, Scan.Records.size());
    Out.Scan = Scan;
    Out.Replay = trace::replayRecords(Scan, Service);
  }
  (void)Service.snapshot(); // refreshes the point-in-time gauges
  Out.State = Service.encodeState();
  Out.Prom = obs::exportPrometheus(Registry);
  Out.Json = obs::exportJson(Registry, &Tracer);
  return Out;
}

/// Replays \p Bytes both ways, expects identical outcomes, and returns
/// the file replay's.
ReplayRun expectSameReplay(const ScenarioSpec &Spec,
                           const std::vector<PreparedStream> &Streams,
                           const std::vector<std::uint8_t> &Bytes) {
  const ReplayRun F = replayBytes(Spec, Streams, Bytes, /*FromFile=*/true);
  const ReplayRun R = replayBytes(Spec, Streams, Bytes, /*FromFile=*/false);
  EXPECT_EQ(F.Replay.Ok, R.Replay.Ok);
  EXPECT_EQ(F.Replay.ConfigMismatch, R.Replay.ConfigMismatch);
  EXPECT_EQ(F.Replay.StartMismatch, R.Replay.StartMismatch);
  EXPECT_EQ(F.Replay.Diverged, R.Replay.Diverged);
  EXPECT_EQ(F.Replay.DivergedSeq, R.Replay.DivergedSeq);
  EXPECT_EQ(F.Replay.BatchesApplied, R.Replay.BatchesApplied);
  EXPECT_EQ(F.Replay.DropsApplied, R.Replay.DropsApplied);
  EXPECT_EQ(F.Replay.PushRejectsApplied, R.Replay.PushRejectsApplied);
  EXPECT_EQ(F.Replay.CheckpointsSeen, R.Replay.CheckpointsSeen);
  EXPECT_EQ(F.Replay.CheckpointsApplied, R.Replay.CheckpointsApplied);
  EXPECT_EQ(F.Scan.TornTail, R.Scan.TornTail);
  EXPECT_EQ(F.Scan.Rejected, R.Scan.Rejected);
  EXPECT_EQ(F.Scan.HeaderTorn, R.Scan.HeaderTorn);
  EXPECT_EQ(F.Scan.HeaderCorrupt, R.Scan.HeaderCorrupt);
  EXPECT_EQ(F.Scan.VersionSkew, R.Scan.VersionSkew);
  EXPECT_EQ(F.Scan.UnknownKind, R.Scan.UnknownKind);
  EXPECT_EQ(F.Scan.MalformedPayload, R.Scan.MalformedPayload);
  EXPECT_EQ(F.Scan.Missing, R.Scan.Missing);
  EXPECT_EQ(F.Scan.FileBytes, R.Scan.FileBytes);
  EXPECT_EQ(F.Scan.ValidBytes, R.Scan.ValidBytes);
  EXPECT_EQ(F.Scan.LastSeq, R.Scan.LastSeq);
  EXPECT_EQ(F.Scan.RecordCount, R.Scan.RecordCount);
  EXPECT_EQ(F.State, R.State) << "encodeState() diverged";
  EXPECT_EQ(F.Prom, R.Prom) << "Prometheus export diverged";
  EXPECT_EQ(F.Json, R.Json) << "JSON export diverged";
  return F;
}

// The file replay decodes one record at a time from the bytes it read;
// replayRecords drives the same engine from a scan's kept records. On
// every input -- whole, cut, flipped or forged -- both give the same
// result, scan summary, state and exports.
TEST(TraceReplay, FileReplayMatchesRecordReplay) {
  const std::string CorpusDir = REGMON_TRACE_CORPUS_DIR;
  for (const std::string &Name : scenarioNames()) {
    SCOPED_TRACE(Name);
    const auto Bytes = persist::readFileBytes(CorpusDir + "/" + Name + ".bin");
    ASSERT_TRUE(Bytes.has_value());
    const ScenarioSpec Spec = specFor(Name);
    const std::vector<PreparedStream> Streams = prepare(Spec);
    const std::vector<Framed> Records = frames(*Bytes);
    ASSERT_GT(Records.size(), 2U);
    EXPECT_TRUE(expectSameReplay(Spec, Streams, *Bytes).Replay.Ok);

    std::uint64_t Start = persist::LogHeaderBytes;
    for (std::uint64_t I = 0; I <= Records.size(); ++I) {
      SCOPED_TRACE("record " + std::to_string(I));
      const auto Cut = [&](std::uint64_t Len) {
        return std::vector<std::uint8_t>(Bytes->begin(),
                                         Bytes->begin() + Len);
      };
      // Truncated at the record boundary before record I.
      EXPECT_TRUE(expectSameReplay(Spec, Streams, Cut(Start)).Replay.Ok);
      if (I == Records.size())
        break;
      const std::uint64_t Len =
          persist::RecordHeaderBytes + Records[I].Payload.size();
      // Cut in the middle of record I.
      const ReplayRun Torn =
          expectSameReplay(Spec, Streams, Cut(Start + Len / 2));
      EXPECT_TRUE(Torn.Scan.TornTail);
      EXPECT_EQ(Torn.Scan.RecordCount, I);
      // One bit flipped in record I's header.
      std::vector<std::uint8_t> Flipped = *Bytes;
      Flipped[Start + I % persist::RecordHeaderBytes] ^=
          static_cast<std::uint8_t>(1U << (I % 8));
      const ReplayRun Flip = expectSameReplay(Spec, Streams, Flipped);
      EXPECT_TRUE(Flip.Scan.TornTail);
      EXPECT_EQ(Flip.Scan.RecordCount, I);
      Start += Len;
    }

    // Forgeries, each CRC-valid: records appended to the whole trace, or
    // its Config record changed. The appended ones reference the first
    // admitted batch.
    const trace::ScanResult Scan = trace::scanTraceBytes(*Bytes);
    const auto Admitted = std::find_if(
        Scan.Records.begin(), Scan.Records.end(),
        [](const trace::TraceRecord &R) {
          return R.Kind == trace::RecordKind::Batch &&
                 R.Fate == service::RecordedFate::Admitted;
        });
    ASSERT_NE(Admitted, Scan.Records.end());
    persist::ByteWriter Dangling, Reject, Unknown;
    trace::encodeDropPayload(Dangling, Records.front().Seq, 0); // Config's
    trace::encodePushRejectPayload(Reject, Admitted->Seq);
    service::SampleBatch Stray = Admitted->Batch;
    Stray.Stream = static_cast<service::StreamId>(Streams.size());
    trace::encodeBatchRecordPayload(Unknown, Stray, Admitted->Fate);
    const std::uint64_t Next = Records.back().Seq + 1;
    const auto record = [](std::uint64_t Seq, trace::RecordKind K,
                           std::span<const std::uint8_t> Payload) {
      return Framed{Seq, static_cast<std::uint8_t>(K),
                    {Payload.begin(), Payload.end()}};
    };
    const auto appended = [&](std::vector<Framed> Extra) {
      std::vector<Framed> All = Records;
      All.insert(All.end(), Extra.begin(), Extra.end());
      return frame(All);
    };
    const struct {
      const char *Name;
      std::vector<std::uint8_t> Bytes;
      std::uint64_t DivergedSeq; ///< 0: any
    } Diverging[] = {
        {"dangling drop reference",
         appended({record(Next, trace::RecordKind::Drop, Dangling.data())}),
         Next},
        {"duplicate push-reject",
         appended({record(Next, trace::RecordKind::PushReject, Reject.data()),
                   record(Next + 1, trace::RecordKind::PushReject,
                          Reject.data())}),
         0},
        {"second Config record",
         appended({record(Next, trace::RecordKind::Config,
                          Records.front().Payload)}),
         Next},
        {"batch for an unknown stream",
         appended({record(Next, trace::RecordKind::Batch, Unknown.data())}),
         Next},
    };
    for (const auto &F : Diverging) {
      SCOPED_TRACE(F.Name);
      const ReplayRun R = expectSameReplay(Spec, Streams, F.Bytes);
      EXPECT_TRUE(R.Replay.Diverged);
      if (F.DivergedSeq != 0) {
        EXPECT_EQ(R.Replay.DivergedSeq, F.DivergedSeq);
      }
    }
    {
      SCOPED_TRACE("config mismatch");
      std::vector<Framed> Forged = Records;
      Forged.front().Payload.front() ^= 1; // the fingerprint's worker count
      const ReplayRun R = expectSameReplay(Spec, Streams, frame(Forged));
      EXPECT_TRUE(R.Replay.ConfigMismatch);
      EXPECT_EQ(R.Replay.BatchesApplied, 0U);
    }
    {
      SCOPED_TRACE("start mismatch");
      // The Config payload ends in the start point: u64 sequence, u32 CRC.
      std::vector<Framed> Forged = Records;
      std::vector<std::uint8_t> &Config = Forged.front().Payload;
      Config[Config.size() - 12] = 5;
      const ReplayRun R = expectSameReplay(Spec, Streams, frame(Forged));
      EXPECT_TRUE(R.Replay.StartMismatch);
      EXPECT_FALSE(R.Replay.ConfigMismatch);
      EXPECT_EQ(R.Replay.TraceStart.Sequence, 5U);
      EXPECT_EQ(R.Replay.ServiceStart.Sequence, 0U);
      EXPECT_EQ(R.Replay.BatchesApplied, 0U);
    }
  }
}

// Replaying under the wrong topology is a config mismatch, detected
// before any record is applied.
TEST(TraceReplay, WrongTopologyIsAConfigMismatch) {
  const std::string Trace = scratchTrace("mismatch");
  const RecordOutcome Rec = recordScenario("quarantine-recovery", Trace);
  ASSERT_TRUE(Rec.Open.Ok);

  ScenarioSpec Spec = specFor("quarantine-recovery");
  Spec.Cfg.Inline = true;
  Spec.Cfg.Workers = 3; // recorded with 1
  const std::vector<PreparedStream> Streams = prepare(Spec);
  service::MonitorService Service(Spec.Cfg);
  for (const PreparedStream &S : Streams)
    Service.addStream(*S.Map);
  const trace::FileReplay R = trace::replayTraceFile(Trace, Service);
  EXPECT_TRUE(R.Replay.ConfigMismatch);
  EXPECT_FALSE(R.Replay.Ok);
  EXPECT_EQ(R.Replay.BatchesApplied, 0U);
}

// Kill the recorder at seeded I/O budgets mid-incident: the torn file is
// a byte-prefix of the uninterrupted recording, trace-verify-style repair
// truncates it to the scanner's valid prefix, and the repaired prefix
// replays cleanly and deterministically (two replays, identical bytes).
TEST(TraceReplay, CrashKillSweepRepairedPrefixReplaysCleanly) {
  // Accounting recording: total recorder I/O units for this scenario.
  const std::string RefPath = scratchTrace("killref");
  std::uint64_t TotalUnits = 0;
  std::vector<std::uint8_t> RefBytes;
  {
    persist::CrashPoint Acct = persist::CrashPoint::unlimited();
    const RecordOutcome Rec =
        recordScenario("quarantine-recovery", RefPath, "", &Acct);
    ASSERT_TRUE(Rec.Open.Ok);
    TotalUnits = Acct.used();
    const auto Bytes = persist::readFileBytes(RefPath);
    ASSERT_TRUE(Bytes.has_value());
    RefBytes = *Bytes;
    ASSERT_TRUE(trace::scanTraceBytes(RefBytes).intact());
  }
  ASSERT_GT(TotalUnits, 100U);

  for (const std::uint64_t Budget :
       {TotalUnits / 4, TotalUnits / 2, (3 * TotalUnits) / 4,
        TotalUnits - 1}) {
    SCOPED_TRACE("crash budget " + std::to_string(Budget));
    const std::string Trace = scratchTrace("kill");
    persist::CrashPoint Crash(Budget);
    const RecordOutcome Rec =
        recordScenario("quarantine-recovery", Trace, "", &Crash);
    ASSERT_TRUE(Rec.Open.Ok) << "budget too small to even open";

    // The torn file is a byte-prefix of the uninterrupted recording (the
    // run is deterministic, the kill only shortens it).
    const auto Torn = persist::readFileBytes(Trace);
    ASSERT_TRUE(Torn.has_value());
    // A kill that only denied the final flush still lands every byte via
    // close; the torn file is then the whole reference, never more.
    ASSERT_LE(Torn->size(), RefBytes.size());
    EXPECT_TRUE(std::equal(Torn->begin(), Torn->end(), RefBytes.begin()))
        << "torn trace diverged from the reference byte stream";

    // Repair to the valid prefix (what `regmon-cli trace-verify --repair`
    // does), then replay it -- twice, asserting determinism.
    const trace::ScanResult Scan = trace::scanTraceBytes(*Torn);
    ASSERT_TRUE(Scan.repairable());
    ASSERT_GT(Scan.Records.size(), 0U);
    ASSERT_TRUE(persist::repairLog(Trace, Scan.ValidBytes, nullptr));
    const ReplayOutcome Rep1 = replayScenario("quarantine-recovery", Trace);
    EXPECT_TRUE(Rep1.File.Scan.intact());
    ASSERT_TRUE(Rep1.File.Replay.Ok)
        << "diverged at seq " << Rep1.File.Replay.DivergedSeq;
    const ReplayOutcome Rep2 = replayScenario("quarantine-recovery", Trace);
    EXPECT_EQ(Rep1.Prom, Rep2.Prom);
    EXPECT_EQ(Rep1.Json, Rep2.Json);
  }
}

// The committed corpus pins the wire bytes and the export goldens: a
// fresh recording must reproduce the committed trace byte for byte, and
// replaying the committed trace must reproduce the committed exports.
TEST(TraceReplay, CommittedCorpusIsBytePinned) {
  const std::string CorpusDir = REGMON_TRACE_CORPUS_DIR;
  for (const std::string &Name : scenarioNames()) {
    SCOPED_TRACE(Name);
    const auto Committed = persist::readFileBytes(CorpusDir + "/" + Name +
                                                  ".bin");
    ASSERT_TRUE(Committed.has_value())
        << "missing corpus trace; regenerate with trace_corpus_gen";
    const bool Persisted = specFor(Name).MidRunCheckpoint;

    // Regenerate and byte-compare the trace.
    const std::string Fresh = scratchTrace(Name + "_regen");
    const RecordOutcome Rec = recordScenario(
        Name, Fresh, Persisted ? scratchDir(Name + "_regen_p") : "");
    ASSERT_TRUE(Rec.Open.Ok);
    const auto FreshBytes = persist::readFileBytes(Fresh);
    ASSERT_TRUE(FreshBytes.has_value());
    EXPECT_EQ(*FreshBytes, *Committed)
        << "recorded trace drifted from the committed corpus; if the "
           "change is intentional, regenerate tests/trace_corpus";

    // Replay the committed trace against the committed export goldens.
    const auto Prom = persist::readFileBytes(CorpusDir + "/" + Name +
                                             ".prom");
    const auto Json = persist::readFileBytes(CorpusDir + "/" + Name +
                                             ".json");
    ASSERT_TRUE(Prom.has_value() && Json.has_value());
    const ReplayOutcome Rep =
        replayScenario(Name, CorpusDir + "/" + Name + ".bin",
                       Persisted ? scratchDir(Name + "_replay_p") : "");
    ASSERT_TRUE(Rep.File.Replay.Ok)
        << "diverged at seq " << Rep.File.Replay.DivergedSeq;
    EXPECT_EQ(Rep.Prom, std::string(Prom->begin(), Prom->end()));
    EXPECT_EQ(Rep.Json, std::string(Json->begin(), Json->end()));
  }
}

// Replaying the checkpoint scenario with ApplyCheckpoints leaves a
// durability directory from which a *fresh* service restores the
// incident's final state bit-identically -- record -> replay -> restore,
// three processes, one state.
TEST(TraceReplay, ReplayedCheckpointRestoresBitIdenticalState) {
  const std::string Name = "checkpoint-restore-mid-trace";
  const std::string Trace = scratchTrace("contin");
  const std::string RecDir = scratchDir("contin_rec");
  const std::string RepDir = scratchDir("contin_rep");

  const RecordOutcome Rec = recordScenario(Name, Trace, RecDir);
  ASSERT_TRUE(Rec.Open.Ok);
  ASSERT_FALSE(Rec.FinalState.empty());

  const ReplayOutcome Rep = replayScenario(Name, Trace, RepDir);
  ASSERT_TRUE(Rep.File.Replay.Ok)
      << "diverged at seq " << Rep.File.Replay.DivergedSeq;
  EXPECT_EQ(Rep.File.Replay.CheckpointsSeen, 1U);
  EXPECT_EQ(Rep.File.Replay.CheckpointsApplied, 1U);
  EXPECT_EQ(Rep.FinalState, Rec.FinalState)
      << "replayed service state diverged from the recording";

  // A fresh service climbing the recovery ladder from the *replay's*
  // directory reconstructs the recorded incident's final state.
  ScenarioSpec Spec = specFor(Name);
  const std::vector<PreparedStream> Streams = prepare(Spec);
  persist::CheckpointManager Store(RepDir);
  service::MonitorService Service(Spec.Cfg);
  for (const PreparedStream &S : Streams)
    Service.addStream(*S.Map);
  Service.attachPersistence(Store);
  const service::RestoreOutcome Outcome = Service.restore();
  EXPECT_NE(Outcome, service::RestoreOutcome::ColdStart)
      << "replay left nothing durable";
  EXPECT_EQ(Service.encodeState(), Rec.FinalState)
      << "restored state diverged (" << service::toString(Outcome) << ")";
}

//===----------------------------------------------------------------------===//
// trace::attach, the one attach point
//===----------------------------------------------------------------------===//

/// Two clean streams, submitted from the test thread so every log's
/// record order is the submission order.
ScenarioSpec attachSpec() {
  ScenarioSpec Spec;
  Spec.Streams = {{"synthetic.periodic", 5}, {"synthetic.steady", 6}};
  Spec.Cfg.Workers = 2;
  Spec.Cfg.QueueCapacity = 8;
  Spec.Intervals = 8;
  return Spec;
}

std::unique_ptr<service::MonitorService>
makeService(service::ServiceConfig Cfg,
            const std::vector<PreparedStream> &Streams) {
  auto Service = std::make_unique<service::MonitorService>(Cfg);
  for (const PreparedStream &S : Streams)
    Service->addStream(*S.Map);
  return Service;
}

/// Submits intervals [\p From, \p To) of every stream, round-robin.
void submitRange(service::MonitorService &Service,
                 const std::vector<PreparedStream> &Streams, std::size_t From,
                 std::size_t To) {
  for (std::size_t I = From; I < To; ++I)
    for (service::StreamId Id = 0; Id < Streams.size(); ++Id)
      ASSERT_TRUE(Service.submit({Id, Streams[Id].Intervals[I]}));
}

TEST(TraceAttach, RefusesADirectoryUnderDropOldestBeforeTouchingTheDisk) {
  ScenarioSpec Spec = attachSpec();
  Spec.Cfg.Policy = service::OverflowPolicy::DropOldest;
  const std::vector<PreparedStream> Streams = prepare(Spec);
  const auto Service = makeService(Spec.Cfg, Streams);
  const std::string Dir = scratchPath("refused_dir");
  const std::string Trace = scratchTrace("refused");
  obs::MetricsRegistry Registry;
  const trace::Attachment Logs = trace::attach(
      *Service, {.Registry = &Registry, .Dir = Dir, .TracePath = Trace});
  EXPECT_TRUE(Logs.Refused);
  EXPECT_EQ(Logs.Store, nullptr);
  EXPECT_EQ(Logs.Recorder, nullptr);
  EXPECT_FALSE(std::filesystem::exists(Dir));
  EXPECT_FALSE(std::filesystem::exists(Trace));
  std::size_t Entries = 0;
  Registry.forEach([&Entries](const obs::MetricView &) { ++Entries; });
  EXPECT_EQ(Entries, 0U) << "nothing may be attached";

  // The refusal leaves a service that runs as if never offered the logs.
  Service->start();
  submitRange(*Service, Streams, 0, 2);
  Service->stop();
  EXPECT_EQ(Service->snapshot().BatchesSubmitted, 4U);
  EXPECT_EQ(Service->persistedSequence(), 0U);
}

TEST(TraceAttach, ARefusedRecorderLeavesTheStoreAttachedAndRestored) {
  const ScenarioSpec Spec = attachSpec();
  const std::vector<PreparedStream> Streams = prepare(Spec);
  const std::string Dir = scratchDir("refused_rec");
  {
    const auto First = makeService(Spec.Cfg, Streams);
    const trace::Attachment Logs = trace::attach(*First, {.Dir = Dir});
    EXPECT_EQ(Logs.Restored, service::RestoreOutcome::ColdStart);
    First->start();
    submitRange(*First, Streams, 0, 3);
    First->stop();
    ASSERT_TRUE(First->checkpoint());
  }

  // A foreign file, and a crash budget that dies before the header.
  const std::string Foreign = scratchTrace("foreign");
  {
    std::FILE *F = std::fopen(Foreign.c_str(), "wb");
    ASSERT_NE(F, nullptr);
    ASSERT_GE(std::fputs("not a regmon trace, just text", F), 0);
    ASSERT_EQ(std::fclose(F), 0);
  }
  persist::CrashPoint Dead(0);
  for (const auto &[Path, Crash] :
       {std::pair<std::string, persist::CrashPoint *>{Foreign, nullptr},
        std::pair<std::string, persist::CrashPoint *>{scratchTrace("dead"),
                                                      &Dead}}) {
    SCOPED_TRACE(Path);
    const std::string Copy = scratchPath("refused_rec_copy");
    std::filesystem::copy(Dir, Copy, std::filesystem::copy_options::recursive);
    const auto Service = makeService(Spec.Cfg, Streams);
    const trace::Attachment Logs = trace::attach(
        *Service, {.Dir = Copy, .TracePath = Path, .Crash = Crash});
    EXPECT_FALSE(Logs.Refused);
    EXPECT_FALSE(Logs.Open.Ok);
    EXPECT_EQ(Logs.Recorder, nullptr);
    ASSERT_NE(Logs.Store, nullptr);
    EXPECT_EQ(Logs.Restored, service::RestoreOutcome::SnapshotOnly);
    EXPECT_EQ(Logs.RestoredSequence, 6U);
    EXPECT_EQ(Service->persistedSequence(), 6U);
    // Still durable: the next batch is journaled after the restored tail.
    Service->start();
    submitRange(*Service, Streams, 3, 4);
    Service->stop();
    EXPECT_EQ(Service->persistedSequence(), 8U);
  }
  // Neither refusal wrote a trace byte.
  const auto Bytes = persist::readFileBytes(Foreign);
  ASSERT_TRUE(Bytes.has_value());
  EXPECT_EQ(std::string(Bytes->begin(), Bytes->end()),
            "not a regmon trace, just text");
}

TEST(TraceAttach, ARecordingOnANonEmptyDirectoryReplaysOntoItsCopy) {
  // The recorder attaches after restore, so the trace starts at the
  // recovered state: replayed onto a copy of the directory taken before
  // recording, it rebuilds the recording's final state.
  const ScenarioSpec Spec = attachSpec();
  const std::vector<PreparedStream> Streams = prepare(Spec);
  const std::string Dir = scratchDir("nonempty");
  {
    const auto First = makeService(Spec.Cfg, Streams);
    const trace::Attachment Logs = trace::attach(*First, {.Dir = Dir});
    First->start();
    submitRange(*First, Streams, 0, 4);
    First->stop();
    ASSERT_TRUE(First->checkpoint());
  }
  const std::string Copy = scratchPath("nonempty_copy");
  std::filesystem::copy(Dir, Copy, std::filesystem::copy_options::recursive);

  const std::string Trace = scratchTrace("nonempty");
  std::vector<std::uint8_t> Recorded;
  {
    const auto Service = makeService(Spec.Cfg, Streams);
    trace::Attachment Logs =
        trace::attach(*Service, {.Dir = Dir, .TracePath = Trace});
    ASSERT_TRUE(Logs.Open.Ok);
    EXPECT_EQ(Logs.Restored, service::RestoreOutcome::SnapshotOnly);
    EXPECT_EQ(Logs.RestoredSequence, 8U);
    Service->start();
    submitRange(*Service, Streams, 4, 8);
    Service->stop();
    ASSERT_TRUE(Service->checkpoint());
    Recorded = Service->encodeState();
    ASSERT_TRUE(Logs.Recorder->close());
  }

  service::ServiceConfig Inline = Spec.Cfg;
  Inline.Inline = true;
  const auto Replayed = makeService(Inline, Streams);
  const trace::Attachment Logs = trace::attach(*Replayed, {.Dir = Copy});
  EXPECT_EQ(Logs.RestoredSequence, 8U);
  trace::ReplayConfig RC;
  RC.ApplyCheckpoints = true;
  const trace::FileReplay R = trace::replayTraceFile(Trace, *Replayed, RC);
  ASSERT_TRUE(R.Replay.Ok) << "diverged at seq " << R.Replay.DivergedSeq;
  EXPECT_EQ(R.Replay.BatchesApplied, 8U);
  EXPECT_EQ(R.Replay.CheckpointsApplied, 1U);
  EXPECT_EQ(Replayed->encodeState(), Recorded);
}

// The Config record names the state the recording started from. A replay
// onto any other state -- a cold service, or a directory at the same
// sequence reached through other batches -- applies nothing.
TEST(TraceAttach, AReplayRefusesAStateTheTraceDoesNotStartFrom) {
  const ScenarioSpec Spec = attachSpec();
  const std::vector<PreparedStream> Streams = prepare(Spec);
  // Both directories reach sequence 8 from the same batches, but in one
  // of them stream 0's second batch arrives with an unaligned pc.
  const auto fill = [&](const std::string &Dir, bool Poison) {
    const auto First = makeService(Spec.Cfg, Streams);
    const trace::Attachment Logs = trace::attach(*First, {.Dir = Dir});
    First->start();
    for (std::size_t I = 0; I < 4; ++I)
      for (service::StreamId Id = 0; Id < Streams.size(); ++Id) {
        std::vector<Sample> Batch = Streams[Id].Intervals[I];
        if (Poison && I == 1 && Id == 0)
          Batch.front().Pc |= 1;
        First->submit({Id, std::move(Batch)});
      }
    First->stop();
    ASSERT_TRUE(First->checkpoint());
  };
  const std::string Dir = scratchDir("start_rec");
  const std::string Other = scratchDir("start_other");
  fill(Dir, false);
  fill(Other, true);

  const std::string Trace = scratchTrace("start");
  service::StartPoint Recorded;
  {
    const auto Service = makeService(Spec.Cfg, Streams);
    trace::Attachment Logs =
        trace::attach(*Service, {.Dir = Dir, .TracePath = Trace});
    ASSERT_TRUE(Logs.Open.Ok);
    Recorded = Service->startPoint();
    EXPECT_EQ(Recorded.Sequence, 8U);
    // The CRC-32 of the encoded state, up to the container's own seal.
    const std::vector<std::uint8_t> State = Service->encodeState();
    EXPECT_EQ(Recorded.StateCrc,
              persist::crc32({State.data(), State.size() - 4}));
    Service->start();
    submitRange(*Service, Streams, 4, 6);
    Service->stop();
    ASSERT_TRUE(Logs.Recorder->close());
  }

  service::ServiceConfig Inline = Spec.Cfg;
  Inline.Inline = true;
  for (const std::string &From : {std::string(), Other}) {
    SCOPED_TRACE(From.empty() ? "cold" : "other state at sequence 8");
    const auto Replayed = makeService(Inline, Streams);
    const trace::Attachment Logs = trace::attach(*Replayed, {.Dir = From});
    const std::vector<std::uint8_t> Before = Replayed->encodeState();
    const trace::FileReplay R = trace::replayTraceFile(Trace, *Replayed);
    EXPECT_FALSE(R.Replay.Ok);
    EXPECT_TRUE(R.Replay.StartMismatch);
    EXPECT_EQ(R.Replay.TraceStart, Recorded);
    EXPECT_EQ(R.Replay.ServiceStart.Sequence, From.empty() ? 0U : 8U);
    EXPECT_EQ(R.Replay.BatchesApplied, 0U);
    EXPECT_EQ(Replayed->encodeState(), Before) << "a refused replay applied";
  }
}

} // namespace
