//===- persist/Checkpoint.h - Atomic snapshot commit + recovery -*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Orchestrates the durable files of one monitor instance inside one
/// directory:
///
///     snapshot.bin        the newest committed snapshot
///     snapshot.prev.bin   the one before it (the fallback rung)
///     snapshot.tmp        in-flight commit scratch (ignored by recovery)
///     journal.wal         write-ahead batch journal
///
/// Commit protocol (each step gated by the optional CrashPoint):
///
///     1. write snapshot.tmp (one write(2) call)
///     2. rename snapshot.bin     -> snapshot.prev.bin   (atomic)
///     3. rename snapshot.tmp     -> snapshot.bin        (atomic)
///     4. compact journal.wal, dropping records already covered by the
///        *new* snapshot.prev.bin
///
/// The compaction in step 4 -- rather than truncating the journal to empty
/// -- is what makes the fallback rung genuinely usable: the journal always
/// retains every record after the previous snapshot's sequence number, so
/// `snapshot.prev.bin + journal` reconstructs the exact same state as
/// `snapshot.bin + journal`. A crash between any two steps leaves one of:
///
///     tmp torn, bin+prev+journal intact      -> recover from bin
///     bin missing, prev = last good          -> recover from prev + journal
///     bin new, journal not yet compacted     -> recover from bin (old
///                                               records skipped by seq)
///
/// Recovery ladder: snapshot.bin -> snapshot.prev.bin -> cold start; the
/// journal is replayed on whatever rung loaded (or onto the cold state),
/// as far as it continues that state: a compacted journal under a cold
/// start is a gap, never replayed (persist/Journal.h).
/// Every rejection is counted with its reason in \ref RecoveryCounters --
/// corruption degrades, it never crashes.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_PERSIST_CHECKPOINT_H
#define REGMON_PERSIST_CHECKPOINT_H

#include "obs/Instruments.h"
#include "persist/Journal.h"
#include "persist/Snapshot.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace regmon::persist {

/// Counters describing every recovery decision ever taken by one manager.
/// The fuzz tests assert on these: a corrupted file must increment the
/// matching reason, never crash.
struct RecoveryCounters {
  std::uint64_t SnapshotsCommitted = 0;
  std::uint64_t CommitFailures = 0;
  /// Rungs tried (one per readable file inspected).
  std::uint64_t LoadAttempts = 0;
  /// Rungs rejected: container damage or application-level decode failure.
  std::uint64_t CorruptSnapshots = 0;
  /// Recoveries that had to use snapshot.prev.bin.
  std::uint64_t FallbacksUsed = 0;
  /// Recoveries that found no usable snapshot at all.
  std::uint64_t ColdStarts = 0;
  std::uint64_t JournalRecordsReplayed = 0;
  std::uint64_t JournalRecordsSkipped = 0;
  std::uint64_t JournalTornTails = 0;
  /// Journal files truncated back to their valid prefix.
  std::uint64_t JournalRepairs = 0;
  /// Replays stopped at a record naming a stream the service lacks: a
  /// directory of another topology. The journal is left whole.
  std::uint64_t JournalMismatches = 0;
  /// Replays stopped at a gap: the journal's next record is past the one
  /// after the state's sequence, because compaction dropped the records
  /// between with the snapshot that did not load. The journal is left
  /// whole.
  std::uint64_t JournalGaps = 0;
  /// Where the last gap was: the state's sequence, and the journal's next
  /// record past it. Both 0 until a gap is found.
  std::uint64_t GapStateSeq = 0;
  std::uint64_t GapJournalSeq = 0;
  /// Why the most recently refused snapshot rung was refused: its
  /// container error, or StateRejected when the owner's decode refused
  /// its payload. A missing rung is no refusal and a later successful
  /// load keeps the reason, so None means no rung that exists was ever
  /// refused.
  SnapshotError LastError = SnapshotError::None;
};

/// Manages the snapshot pair and journal of one directory. Not
/// thread-safe: the owner serializes access (MonitorService holds its own
/// journal lock; checkpoint/restore happen while the service is stopped).
class CheckpointManager {
public:
  /// Creates \p Dir if needed. \ref valid reports whether it is usable.
  explicit CheckpointManager(std::string Dir);

  bool valid() const { return Valid; }
  const std::string &dir() const { return Root; }
  std::string snapshotPath() const;
  std::string prevSnapshotPath() const;
  std::string tmpSnapshotPath() const;
  std::string journalPath() const;

  /// Installs the simulated-crash budget consulted by every subsequent
  /// write, rename, and truncate (nullptr disarms). Test-only seam.
  void armCrash(CrashPoint *Crash) { Injected = Crash; }

  /// Attaches observability instruments (obs layer). \p O may be null to
  /// detach; otherwise it must outlive the manager. Counters mirror
  /// \ref RecoveryCounters; events use journal sequence numbers as their
  /// logical clock.
  void attachObservability(const obs::PersistInstruments *O) { Obs = O; }

  /// Runs the commit protocol on \p Encoded (an \ref encodeSnapshot
  /// container). \p CompactThroughSeq is the journal sequence number
  /// covered by the snapshot being rotated to the fallback rung; records
  /// at or below it are dropped during compaction. False means the commit
  /// did not complete -- the directory is in one of the documented
  /// crash-window states and recovery handles it.
  bool commitSnapshot(std::span<const std::uint8_t> Encoded,
                      std::uint64_t CompactThroughSeq);

  /// The recovery rungs, in ladder order.
  enum class Rung : std::uint8_t { Current, Previous };

  /// Loads and container-validates one rung. std::nullopt when the file
  /// is missing, or damaged (counted, with its reason in LastError).
  std::optional<std::vector<SnapshotSection>> loadRung(Rung R);

  /// The owner's application-level decode of a loaded rung failed; counts
  /// it as a corrupt snapshot with reason StateRejected, so the refusal is
  /// never silent.
  void noteDecodeFailure();
  /// The ladder ran out of rungs.
  void noteColdStart();
  /// The Previous rung ended up being the one recovered from.
  void noteFallbackUsed();

  /// Appends one record to the journal, opening the writer on first use
  /// after the journal's last valid record: where the last replay (after
  /// its repair) or compaction left it, or else where a scan finds it.
  /// False means the record is not durable and journaling is dead; that
  /// includes a \p Seq not above the journal's last and a journal with
  /// damage \ref replayAndRepair has not yet cut (appended behind it, the
  /// record would be lost).
  bool appendJournal(std::uint64_t Seq, std::span<const std::uint8_t> Payload);

  /// Replays the journal through \p Replay, skipping records at or below
  /// \p SkipThroughSeq, then repairs any torn tail by truncating the file
  /// to its valid prefix so future appends extend a well-formed journal.
  /// A replay that ends in a mismatch or a gap is counted and repairs
  /// nothing: the records past it are another topology's, or continue a
  /// state that did not load; either way they are not damage.
  JournalResult replayAndRepair(std::uint64_t SkipThroughSeq,
                                const JournalReplay &Replay);

  RecoveryCounters &counters() { return Counters; }
  const RecoveryCounters &counters() const { return Counters; }

private:
  /// Rewrites the journal keeping only records with seq > \p ThroughSeq.
  bool compactJournal(std::uint64_t ThroughSeq);

  /// Counts a failed commit in counters, metric, and event stream.
  void noteCommitFailure(std::uint64_t CompactThroughSeq);
  /// Counts a refused rung in counters and metric, and records \p Why.
  void noteRefusal(SnapshotError Why);

  /// Where the journal's valid prefix ends: the writer's resume point.
  struct JournalTail {
    std::uint64_t ValidBytes = 0;
    std::uint64_t LastSeq = 0;
  };

  std::string Root;
  bool Valid = false;
  CrashPoint *Injected = nullptr;
  LogWriter Writer;
  /// The tail the last replay (after its repair) or successful compaction
  /// left, until the writer opens from it. Empty when unknown: the next
  /// open scans the journal for it.
  std::optional<JournalTail> Tail;
  RecoveryCounters Counters;
  const obs::PersistInstruments *Obs = nullptr;
};

} // namespace regmon::persist

#endif // REGMON_PERSIST_CHECKPOINT_H
