//===- persist/Checkpoint.cpp - Atomic snapshot commit + recovery ---------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "persist/Checkpoint.h"

#include "persist/Bytes.h"

#include <limits>
#include <utility>

using namespace regmon::persist;

CheckpointManager::CheckpointManager(std::string Dir) : Root(std::move(Dir)) {
  Valid = ensureDir(Root);
}

std::string CheckpointManager::snapshotPath() const {
  return Root + "/snapshot.bin";
}
std::string CheckpointManager::prevSnapshotPath() const {
  return Root + "/snapshot.prev.bin";
}
std::string CheckpointManager::tmpSnapshotPath() const {
  return Root + "/snapshot.tmp";
}
std::string CheckpointManager::journalPath() const {
  return Root + "/journal.wal";
}

void CheckpointManager::noteCommitFailure(std::uint64_t CompactThroughSeq) {
  ++Counters.CommitFailures;
  if (Obs) {
    obs::addTo(Obs->CommitFailures);
    obs::recordEvent(Obs->Tracer, obs::EventKind::CheckpointCommitFailed,
                     Obs->Stream, 0, CompactThroughSeq);
  }
}

bool CheckpointManager::commitSnapshot(std::span<const std::uint8_t> Encoded,
                                       std::uint64_t CompactThroughSeq) {
  if (!Valid) {
    noteCommitFailure(CompactThroughSeq);
    return false;
  }
  // Compaction rewrites the journal file underneath the writer; release it
  // (appendJournal reopens on demand).
  Writer.close();

  // Step 1: the complete new snapshot lands under a scratch name. A crash
  // here leaves a torn tmp that recovery never reads.
  {
    FileSink Tmp(tmpSnapshotPath(), /*Append=*/false, Injected);
    if (!Tmp.write(Encoded) || !Tmp.close()) {
      noteCommitFailure(CompactThroughSeq);
      return false;
    }
  }
  // Step 2: demote the current snapshot to the fallback rung. A crash
  // after this leaves no snapshot.bin; recovery falls to prev + journal.
  if (fileExists(snapshotPath()) &&
      !renameFile(snapshotPath(), prevSnapshotPath(), Injected)) {
    noteCommitFailure(CompactThroughSeq);
    return false;
  }
  // Step 3: promote the tmp atomically; this is the commit point.
  if (!renameFile(tmpSnapshotPath(), snapshotPath(), Injected)) {
    noteCommitFailure(CompactThroughSeq);
    return false;
  }
  ++Counters.SnapshotsCommitted;
  if (Obs) {
    obs::addTo(Obs->SnapshotsCommitted);
    obs::recordEvent(Obs->Tracer, obs::EventKind::CheckpointCommitted,
                     Obs->Stream, 0, CompactThroughSeq,
                     static_cast<double>(Encoded.size()));
  }
  // Step 4: drop journal records already covered by the *fallback* rung.
  // Failure (or a crash) here is harmless -- extra records are skipped by
  // sequence number on replay -- so it does not fail the commit.
  compactJournal(CompactThroughSeq);
  return true;
}

bool CheckpointManager::compactJournal(std::uint64_t ThroughSeq) {
  Tail.reset();
  // Kept records are re-framed while the scan's payload views are alive.
  ByteWriter W;
  W.bytes(logHeader(JournalFormat));
  std::uint64_t LastKept = 0;
  const JournalResult Scan = replayJournal(
      journalPath(), ThroughSeq,
      [&W, &LastKept](std::uint64_t Seq,
                      std::span<const std::uint8_t> Payload) {
        W.bytes(recordHeader(Seq, JournalBatchKind, Payload));
        W.bytes(Payload);
        LastKept = Seq;
        return ReplayVerdict::Applied;
      });
  if (Scan.Missing)
    return true;
  // Records past a gap are kept by no rewrite: leave the file as it is.
  if (Scan.Gap)
    return false;

  const std::string Tmp = Root + "/journal.tmp";
  {
    FileSink Sink(Tmp, /*Append=*/false, Injected);
    if (!Sink.write(W.data()) || !Sink.close())
      return false;
  }
  if (!renameFile(Tmp, journalPath(), Injected))
    return false;
  Tail = JournalTail{W.size(), LastKept};
  return true;
}

std::optional<std::vector<SnapshotSection>>
CheckpointManager::loadRung(Rung R) {
  const std::string Path =
      R == Rung::Current ? snapshotPath() : prevSnapshotPath();
  const auto Data = readFileBytes(Path);
  if (!Data)
    return std::nullopt; // a missing rung is not a refusal
  ++Counters.LoadAttempts;
  std::vector<SnapshotSection> Sections;
  const SnapshotError Err = decodeSnapshot(*Data, Sections);
  if (Err != SnapshotError::None) {
    noteRefusal(Err);
    return std::nullopt;
  }
  return Sections;
}

void CheckpointManager::noteDecodeFailure() {
  noteRefusal(SnapshotError::StateRejected);
}

void CheckpointManager::noteRefusal(SnapshotError Why) {
  ++Counters.CorruptSnapshots;
  if (Obs)
    obs::addTo(Obs->CorruptSnapshots);
  Counters.LastError = Why;
}

void CheckpointManager::noteColdStart() {
  ++Counters.ColdStarts;
  if (Obs) {
    obs::addTo(Obs->ColdStarts);
    obs::recordEvent(Obs->Tracer, obs::EventKind::CheckpointColdStart,
                     Obs->Stream, 0, 0);
  }
}

void CheckpointManager::noteFallbackUsed() {
  ++Counters.FallbacksUsed;
  if (Obs) {
    obs::addTo(Obs->FallbacksUsed);
    obs::recordEvent(Obs->Tracer, obs::EventKind::CheckpointFallback,
                     Obs->Stream, 0, 0);
  }
}

bool CheckpointManager::appendJournal(std::uint64_t Seq,
                                      std::span<const std::uint8_t> Payload) {
  if (!Valid)
    return false;
  if (!Writer.ok()) {
    // Resume after the last valid record from the tail already known. A
    // file changed since then fails the writer's size check and is
    // scanned like one with no known tail; only the position is wanted,
    // so every record counts as skipped.
    const std::optional<JournalTail> Known = std::exchange(Tail, {});
    if (!Known || !Writer.open(journalPath(), JournalFormat, Known->ValidBytes,
                               Known->LastSeq, Injected)) {
      const JournalResult Scan = replayJournal(
          journalPath(), std::numeric_limits<std::uint64_t>::max(), nullptr);
      if (!Writer.open(journalPath(), JournalFormat, Scan.ValidBytes,
                       Scan.LastSeq, Injected))
        return false;
    }
  }
  return Writer.append(Seq, JournalBatchKind, Payload);
}

JournalResult CheckpointManager::replayAndRepair(std::uint64_t SkipThroughSeq,
                                                const JournalReplay &Replay) {
  Writer.close();
  Tail.reset();
  JournalResult Res = replayJournal(journalPath(), SkipThroughSeq, Replay);
  Counters.JournalRecordsReplayed += Res.RecordsReplayed;
  Counters.JournalRecordsSkipped += Res.RecordsSkipped;
  if (Obs) {
    obs::addTo(Obs->JournalRecordsReplayed, Res.RecordsReplayed);
    obs::addTo(Obs->JournalRecordsSkipped, Res.RecordsSkipped);
    if (!Res.Missing)
      obs::recordEvent(Obs->Tracer, obs::EventKind::JournalReplayed,
                       Obs->Stream, 0, SkipThroughSeq,
                       static_cast<double>(Res.RecordsReplayed));
  }
  if (Res.Missing) {
    Tail = JournalTail{};
    return Res;
  }
  if (Res.Mismatch || Res.Gap) {
    // The records past the stop are whole and acknowledged; they belong
    // to a service with more streams, or continue a state that did not
    // load. Keep every byte, and leave the tail unknown: the owner refuses
    // to append behind records it never applied.
    if (Res.Mismatch) {
      ++Counters.JournalMismatches;
    } else {
      ++Counters.JournalGaps;
      Counters.GapStateSeq = SkipThroughSeq + Res.RecordsReplayed;
      Counters.GapJournalSeq = Res.GapSeq;
    }
    return Res;
  }
  if (Res.TornTail || Res.HeaderCorrupt) {
    ++Counters.JournalTornTails;
    if (Obs)
      obs::addTo(Obs->JournalTornTails);
    // Cut the file back to its valid prefix (possibly zero bytes, in which
    // case the next append rewrites the header): the writer refuses to
    // extend a journal with torn bytes its new records would hide behind.
    if (!repairLog(journalPath(), Res.ValidBytes, nullptr))
      return Res;
    ++Counters.JournalRepairs;
    if (Obs)
      obs::addTo(Obs->JournalRepairs);
  }
  Tail = JournalTail{Res.ValidBytes, Res.LastSeq};
  return Res;
}
