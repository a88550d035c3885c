//===- persist/Journal.h - Write-ahead batch journal -----------*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The write-ahead journal that makes state between snapshots replayable.
/// Layout (little-endian):
///
///     u32 magic 'RGWJ'   u32 version
///     repeated records: [ u64 seq | u32 payloadLen | u32 recordCrc | bytes ]
///
/// Records carry strictly increasing sequence numbers assigned by the
/// writer; payloads are opaque to this layer (the service encodes sample
/// batches into them). The record CRC covers the sequence number and
/// length as well as the payload, so a bit flip anywhere in a record --
/// including its header fields -- is detected, never replayed with a
/// silently wrong sequence. Each append is flushed before it is
/// acknowledged, so an acknowledged record survives a crash of the
/// process (the paper model here is a power cut, hence the torn-tail
/// handling below).
///
/// Replay trusts the longest valid prefix: it stops at the first record
/// whose header is truncated, whose payload is missing bytes, whose CRC
/// fails, or whose sequence number does not increase -- all reported as a
/// torn tail, never as an error that aborts recovery. \ref
/// JournalResult::ValidBytes tells the owner where the good prefix ends so
/// the file can be repaired (truncated) before new appends extend it.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_PERSIST_JOURNAL_H
#define REGMON_PERSIST_JOURNAL_H

#include "persist/Io.h"

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

namespace regmon::persist {

/// 'RGWJ' in little-endian byte order.
inline constexpr std::uint32_t JournalMagic = 0x4A574752U;
inline constexpr std::uint32_t JournalVersion = 1;

/// Byte length of one record header (seq + len + crc).
inline constexpr std::uint64_t JournalRecordHeaderBytes = 16;
/// Largest payload the u32 length field can frame. A longer one is
/// refused before a byte is written: a wrapped length would read back as
/// a torn tail, and repair would cut every later acknowledged record.
inline constexpr std::uint64_t JournalMaxPayloadBytes = 0xFFFFFFFFU;

/// The CRC stored in a journal record: seq and length chained with the
/// payload, so header corruption is as detectable as payload corruption.
/// Shared by the writer, the replayer, and journal compaction.
std::uint32_t journalRecordCrc(std::uint64_t Seq,
                               std::span<const std::uint8_t> Payload);

/// The header framing \p Payload as record \p Seq (length and CRC
/// included); the record is this header followed by the payload bytes.
std::array<std::uint8_t, JournalRecordHeaderBytes>
journalRecordHeader(std::uint64_t Seq, std::span<const std::uint8_t> Payload);

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
  /// The file header itself was damaged; nothing was replayed.
  bool HeaderCorrupt = false;
  /// No journal file existed (a fresh directory, not corruption).
  bool Missing = false;
  /// The replay callback rejected a record (malformed payload); treated
  /// like a torn tail: the scan stops there.
  bool PayloadRejected = false;
};

/// Appends records to a journal file, flushing each one.
class JournalWriter {
public:
  JournalWriter() = default;
  ~JournalWriter();

  JournalWriter(const JournalWriter &) = delete;
  JournalWriter &operator=(const JournalWriter &) = delete;

  /// Opens \p Path for appending, writing the file header first when the
  /// file is new or empty. \p Crash (nullable) gates every byte.
  bool open(const std::string &Path, CrashPoint *Crash);

  /// True while the writer can accept appends.
  bool ok() const;

  /// Appends and flushes one record. A false return means the record is
  /// not durable (it may be partially on disk -- a torn tail) and the
  /// writer is dead. A payload over \ref JournalMaxPayloadBytes is
  /// refused that way before a byte is written.
  bool append(std::uint64_t Seq, std::span<const std::uint8_t> Payload);

  /// Closes the file; the writer can be \ref open-ed again.
  void close();

private:
  std::unique_ptr<FileSink> Sink;
};

/// Scans \p Path, invoking \p Replay for every valid record with sequence
/// number greater than \p SkipThroughSeq. \p Replay returns false to
/// reject a malformed payload, which ends the scan (see JournalResult).
/// The payload is a view into the scan's file buffer, valid only for the
/// duration of the call.
JournalResult replayJournal(
    const std::string &Path, std::uint64_t SkipThroughSeq,
    const std::function<bool(std::uint64_t, std::span<const std::uint8_t>)>
        &Replay);

} // namespace regmon::persist

#endif // REGMON_PERSIST_JOURNAL_H
