//===- persist/Journal.h - Write-ahead batch journal -----------*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The write-ahead journal that makes state between snapshots replayable:
/// a record log (persist/RecordLog.h) in \ref JournalFormat whose records
/// are all of kind \ref JournalBatchKind, one submitted batch each, with
/// sequence numbers assigned by the service. Payloads are opaque to this
/// layer (the service encodes sample batches into them).
///
/// Replay trusts the longest valid prefix and never aborts recovery: a
/// torn or corrupt record, or a payload the service cannot decode, ends
/// it as a torn tail, and any damage to the file header (a journal of an
/// older version included) as \ref JournalResult::HeaderCorrupt.
/// ValidBytes tells the owner (CheckpointManager) where the good prefix
/// ends, so it can repair the file before new appends extend it. A
/// well-formed record the service cannot apply (it names a stream the
/// service lacks) also ends replay, but as a mismatch: the file is not
/// damaged, it belongs to another topology, and it is not repaired.
///
/// Replay applies a record only when it continues the state: its sequence
/// is one past the state's, which starts at the skip threshold (the loaded
/// snapshot's sequence, 0 when cold) and advances with each applied
/// record. A record further on is a gap -- compaction dropped the records
/// between, so they live only in a snapshot that did not load -- and
/// replay stops there too, repairing nothing.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_PERSIST_JOURNAL_H
#define REGMON_PERSIST_JOURNAL_H

#include "persist/RecordLog.h"

#include <cstdint>
#include <functional>
#include <span>
#include <string>

namespace regmon::persist {

/// 'RGWJ' in little-endian byte order. Version 2 adopted the record
/// header shared with the flight recorder (one kind byte per record);
/// version 3 the column sample block (persist/SampleBlock.h). No reader of
/// an older version is kept: such a journal reads as header-corrupt, so
/// upgrade after a checkpoint.
inline constexpr LogFormat JournalFormat{0x4A574752U, 3};

/// The kind of every journal record: one submitted batch. It is the
/// flight recorder's Batch kind (trace/Format.h), so the byte means the
/// same in both logs.
inline constexpr std::uint8_t JournalBatchKind = 2;

/// What a replay callback made of one record.
enum class ReplayVerdict : std::uint8_t {
  Applied,   ///< Replayed; the scan goes on.
  Malformed, ///< The payload does not decode: damage, a torn tail.
  Foreign,   ///< Well-formed, but for a stream the service lacks.
};

/// Outcome of scanning a journal file.
struct JournalResult {
  /// Records delivered to the replay callback.
  std::uint64_t RecordsReplayed = 0;
  /// Records skipped because their sequence number was at or below the
  /// caller's skip threshold (already covered by the snapshot).
  std::uint64_t RecordsSkipped = 0;
  /// Highest sequence number seen in the valid prefix.
  std::uint64_t LastSeq = 0;
  /// Byte length of the valid prefix (header included); the repair point.
  std::uint64_t ValidBytes = 0;
  /// A torn or corrupt record terminated the scan early.
  bool TornTail = false;
  /// The file header itself was damaged (short, foreign, another
  /// version, or no bytes at all); nothing was replayed.
  bool HeaderCorrupt = false;
  /// No journal file existed (a fresh directory, not corruption).
  bool Missing = false;
  /// The replay callback rejected a record (malformed payload) or the
  /// record was not a batch; treated like a torn tail: the scan stops
  /// there.
  bool PayloadRejected = false;
  /// The replay callback found a record it cannot apply (\ref
  /// ReplayVerdict::Foreign): the scan stops there, but nothing is torn.
  bool Mismatch = false;
  /// A record past the one after the state's sequence ended the scan: the
  /// journal does not continue the state. Nothing is torn.
  bool Gap = false;
  /// The sequence of the record a gap stopped at (0 without a gap); the
  /// state's own is the last applied record's, or the skip threshold.
  std::uint64_t GapSeq = 0;
};

/// The replay callback: record sequence and payload view in, verdict out.
using JournalReplay =
    std::function<ReplayVerdict(std::uint64_t, std::span<const std::uint8_t>)>;

/// Scans \p Path, invoking \p Replay (nullable) for every valid record
/// with sequence number greater than \p SkipThroughSeq, in sequence order
/// from SkipThroughSeq + 1. A gap in that order, or a verdict other than
/// Applied, ends the scan (see JournalResult). The payload is a view into
/// the scan's file buffer, valid only for the duration of the call.
JournalResult replayJournal(const std::string &Path,
                            std::uint64_t SkipThroughSeq,
                            const JournalReplay &Replay);

} // namespace regmon::persist

#endif // REGMON_PERSIST_JOURNAL_H
