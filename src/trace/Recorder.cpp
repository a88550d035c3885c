//===- trace/Recorder.cpp - Crash-safe flight recorder --------------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/Recorder.h"

using namespace regmon;
using namespace regmon::trace;

TraceRecorder::~TraceRecorder() { close(); }

TraceRecorder::OpenResult TraceRecorder::open(const std::string &Path,
                                              persist::CrashPoint *Crash) {
  close();
  OpenResult Out;
  NextSeq = 1;
  RecordsN = 0;
  BytesN = 0;
  FailuresN = 0;
  const ScanResult Scan = scanTraceFile(Path);
  if (!Scan.repairable() && !Scan.Missing)
    return Out; // foreign data (wrong magic/version/unknown kind)
  const bool Fresh = Scan.Missing || Scan.FileBytes == 0 || Scan.HeaderTorn;
  std::uint64_t Keep = Fresh ? 0 : Scan.ValidBytes;
  if (!Scan.Missing && Keep != Scan.FileBytes) {
    // Torn or malformed tail (or a header the recorder died inside):
    // truncate to the valid prefix so appends extend a clean file.
    if (!persist::truncateFile(Path, Keep, Crash))
      return Out;
    Out.Repaired = true;
  }
  Sink = std::make_unique<persist::FileSink>(Path, /*Append=*/Keep != 0,
                                             Crash);
  if (Keep == 0) {
    persist::ByteWriter W;
    encodeTraceHeader(W);
    if (!Sink->write(W.data()) || !Sink->flush()) {
      Sink.reset();
      return Out;
    }
    BytesN += TraceHeaderBytes;
    Keep = TraceHeaderBytes;
    Out.Created = true;
  } else if (!Sink->ok()) {
    Sink.reset();
    return Out;
  }
  NextSeq = Scan.LastSeq + 1;
  Out.Ok = true;
  Out.ValidBytes = Keep;
  Out.NextSeq = NextSeq;
  return Out;
}

bool TraceRecorder::ok() const { return Sink && Sink->ok(); }

bool TraceRecorder::close() {
  if (!Sink)
    return true;
  const bool Closed = Sink->close();
  Sink.reset();
  return Closed;
}

std::uint64_t TraceRecorder::append(RecordKind Kind,
                                    std::span<const std::uint8_t> Payload) {
  // The sequence is consumed even when the append fails: batches stamped
  // after the recorder dies must still get unique identities.
  const std::uint64_t Seq = NextSeq++;
  // A payload the u32 length cannot frame kills the recorder before a
  // byte is written: a wrapped length would read back as a torn tail,
  // and skipping just this record would leave a seq gap replay cannot
  // reproduce. The recorded prefix stays intact and replayable.
  if (ok() && Payload.size() > TraceMaxPayloadBytes)
    Sink->fail();
  if (!ok()) {
    ++FailuresN;
    obs::addTo(Obs ? Obs->AppendFailures : nullptr);
    return Seq;
  }
  const auto Header =
      traceRecordHeader(Seq, static_cast<std::uint8_t>(Kind), Payload);
  // Flush before acknowledging, the journal's durability idiom: an
  // acknowledged record survives a process death; a death mid-write
  // leaves a torn tail the next open repairs.
  if (!Sink->write(Header) || !Sink->write(Payload) || !Sink->flush()) {
    ++FailuresN;
    obs::addTo(Obs ? Obs->AppendFailures : nullptr);
    return Seq;
  }
  const std::uint64_t Bytes = TraceRecordHeaderBytes + Payload.size();
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
