//===- trace/Recorder.cpp - Crash-safe flight recorder --------------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/Recorder.h"

using namespace regmon;
using namespace regmon::trace;

TraceRecorder::OpenResult TraceRecorder::open(const std::string &Path,
                                              persist::CrashPoint *Crash) {
  close();
  OpenResult Out;
  NextSeq = 1;
  RecordsN = 0;
  BytesN = 0;
  FailuresN = 0;
  const ScanSummary Scan = verifyTraceFile(Path);
  if (!Scan.repairable() && !Scan.Missing)
    return Out; // foreign data (wrong magic/version/unknown kind)
  if (!Scan.Missing && !Scan.intact()) {
    // Torn or malformed tail (or a header the recorder died inside):
    // truncate to the valid prefix so appends extend a clean file.
    if (!persist::repairLog(Path, Scan.ValidBytes, Crash))
      return Out;
    Out.Repaired = true;
  }
  if (!Log.open(Path, TraceFormat, Scan.ValidBytes, Scan.LastSeq, Crash))
    return Out;
  Out.Created = Scan.ValidBytes == 0;
  if (Out.Created)
    BytesN = persist::LogHeaderBytes;
  NextSeq = Scan.LastSeq + 1;
  Out.Ok = true;
  Out.ValidBytes = Out.Created ? persist::LogHeaderBytes : Scan.ValidBytes;
  Out.NextSeq = NextSeq;
  return Out;
}

std::uint64_t TraceRecorder::append(RecordKind Kind,
                                    std::span<const std::uint8_t> Payload) {
  // The sequence is consumed even when the append fails: batches stamped
  // after the recorder dies must still get unique identities. A payload
  // the u32 length cannot frame kills the writer before a byte is
  // written, so the recorded prefix stays intact and replayable and no
  // seq gap reaches replay.
  const std::uint64_t Seq = NextSeq++;
  if (!Log.append(Seq, static_cast<std::uint8_t>(Kind), Payload)) {
    ++FailuresN;
    obs::addTo(Obs ? Obs->AppendFailures : nullptr);
    return Seq;
  }
  const std::uint64_t Bytes = persist::RecordHeaderBytes + Payload.size();
  ++RecordsN;
  BytesN += Bytes;
  obs::addTo(Obs ? Obs->RecordsTotal : nullptr);
  obs::addTo(Obs ? Obs->BytesTotal : nullptr, Bytes);
  return Seq;
}

void TraceRecorder::recordConfig(std::span<const std::uint8_t> Fingerprint) {
  append(RecordKind::Config, Fingerprint);
}

std::uint64_t TraceRecorder::recordBatch(const service::SampleBatch &Batch,
                                         service::RecordedFate Fate) {
  persist::ByteWriter W;
  encodeBatchRecordPayload(W, Batch, Fate);
  return append(RecordKind::Batch, W.data());
}

void TraceRecorder::recordDrop(std::uint64_t EvictedSeq, std::uint64_t Shard) {
  persist::ByteWriter W;
  encodeDropPayload(W, EvictedSeq, Shard);
  const std::uint64_t Before = RecordsN;
  append(RecordKind::Drop, W.data());
  if (RecordsN != Before)
    obs::addTo(Obs ? Obs->RecordsDropped : nullptr);
}

void TraceRecorder::recordPushReject(std::uint64_t Seq) {
  persist::ByteWriter W;
  encodePushRejectPayload(W, Seq);
  append(RecordKind::PushReject, W.data());
}

void TraceRecorder::recordCheckpoint(std::uint64_t JournalSeq,
                                     bool Committed) {
  persist::ByteWriter W;
  encodeCheckpointPayload(W, JournalSeq, Committed);
  append(RecordKind::Checkpoint, W.data());
}
